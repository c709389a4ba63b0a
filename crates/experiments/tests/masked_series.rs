//! The masked share series (Fig 2(c): DASH-first publishers removed; Fig
//! 6(b): the three largest removed) on the edge case the generated
//! ecosystem never produces: a snapshot whose rows all belong to excluded
//! publishers. The reference re-ingests the surviving rows into a store of
//! their own: that snapshot has no segment there, so it must vanish from
//! the masked series, and every other point must equal the re-ingested
//! store's view-hour shares bit for bit.

use std::fmt::Display;

use vmp_analytics::columns::{rollup_segment, DimSpec, Metric, PLATFORM, PROTOCOL};
use vmp_analytics::report::Series;
use vmp_analytics::store::ViewStore;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{CdnId, PublisherId, SessionId, VideoId};
use vmp_core::platform::Platform;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{OwnershipFlag, PlayerIdentity, SampledView, ViewRecord};
use vmp_experiments::{run, ReproContext};
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

const URLS: [&str; 3] = [
    "https://edge.cdn-a.example.net/p1/v1/master.m3u8",
    "https://edge.cdn-a.example.net/p1/v1.mpd",
    "https://edge.cdn-a.example.net/p1/v1.ism/manifest",
];

const DEVICES: [DeviceModel; 4] =
    [DeviceModel::Roku, DeviceModel::IPhone, DeviceModel::MobileBrowser, DeviceModel::AndroidPhone];

fn view(snapshot: u32, publisher: PublisherId, i: usize) -> SampledView {
    let device = DEVICES[i % DEVICES.len()];
    SampledView {
        record: ViewRecord {
            session: SessionId::new(i as u32),
            snapshot: SnapshotId::new(snapshot).expect("snapshot in range"),
            publisher,
            video: VideoId::new(1),
            manifest_url: URLS[i % URLS.len()].to_string(),
            device,
            os: device.os(),
            player: PlayerIdentity::UserAgent("Mozilla/5.0".into()),
            cdns: vec![CdnId::new((i % 3) as u32)],
            available_bitrates: [Kbps(800)].into(),
            viewing_time: Seconds::from_minutes(1.0 + (i % 7) as f64 * 3.5),
            class: ContentClass::Vod,
            ownership: OwnershipFlag::Owned,
            region: Region::UsOther,
            isp: Isp::Z,
            connection: ConnectionType::Wired,
        },
        weight: 1.0 + (i % 5) as f64 * 0.75,
    }
}

/// `rows` views per publisher at one snapshot, publisher-ascending as the
/// generator delivers them.
fn rows_of(snapshot: u32, publishers: &[PublisherId], rows: usize) -> Vec<SampledView> {
    let mut sorted = publishers.to_vec();
    sorted.sort();
    sorted.iter().flat_map(|&p| (0..rows).map(move |i| view(snapshot, p, i + p.index()))).collect()
}

/// The series a masked share figure must plot: one line per value, one
/// point per snapshot a re-ingest of the surviving rows keeps.
fn reference<V: Ord + Display>(
    views: &[SampledView],
    excluded: &[PublisherId],
    values: &[V],
    spec: DimSpec<V>,
) -> Vec<(String, Vec<(String, f64)>)> {
    let survivors = views.iter().filter(|v| !excluded.contains(&v.record.publisher)).cloned();
    let per_snapshot: Vec<_> = ViewStore::ingest(survivors.collect())
        .iter_segments()
        .map(|seg| {
            let shares = rollup_segment(&seg, None, spec.column, Metric::Hours).shares(spec);
            (seg.snapshot(), shares)
        })
        .collect();
    values
        .iter()
        .map(|value| {
            let points = per_snapshot
                .iter()
                .map(|(s, shares)| (s.to_string(), shares.get(value).copied().unwrap_or(0.0)))
                .collect();
            (value.to_string(), points)
        })
        .collect()
}

fn series<'a>(
    ctx: &ReproContext,
    id: &str,
    title_prefix: &str,
    out: &'a mut Vec<Series>,
) -> &'a Series {
    let result = run(id, ctx).expect("registered");
    *out = result.series;
    out.iter().find(|s| s.title.starts_with(title_prefix)).expect("the masked series is rendered")
}

#[test]
fn a_snapshot_of_only_excluded_publishers_drops_out_of_the_masked_series() {
    let dataset = ViewStream::new(EcosystemConfig::small()).into_dataset();
    let dash_first: Vec<PublisherId> =
        dataset.profiles.iter().filter(|p| p.dash_first).map(|p| p.publisher.id).collect();
    let largest = dataset.largest_publishers(3);
    let everyone: Vec<PublisherId> = dataset.profiles.iter().map(|p| p.publisher.id).collect();
    assert!(!dash_first.is_empty() && largest.len() == 3);

    // Snapshot 1 holds only DASH-first publishers, snapshot 2 only the
    // three largest; the others hold everyone.
    let layout: [(u32, &[PublisherId], usize); 4] =
        [(0, &everyone, 3), (1, &dash_first, 5), (2, &largest, 4), (3, &everyone, 2)];
    let views: Vec<SampledView> =
        layout.iter().flat_map(|&(s, pubs, rows)| rows_of(s, pubs, rows)).collect();
    let store = ViewStore::ingest(views.clone());
    let ctx = ReproContext { dataset, store, scale_factor: 1 };
    // The snapshots a mask keeps: those with a publisher outside it.
    let kept = |excluded: &[PublisherId]| -> Vec<String> {
        layout
            .iter()
            .filter(|(_, pubs, _)| pubs.iter().any(|p| !excluded.contains(p)))
            .map(|(s, _, _)| SnapshotId::new(*s).expect("in range").to_string())
            .collect()
    };
    let xs = |series: &Series| -> Vec<Vec<String>> {
        series
            .lines
            .iter()
            .map(|(_, points)| points.iter().map(|(x, _)| x.clone()).collect())
            .collect()
    };

    let protocols = [
        StreamingProtocol::Hls,
        StreamingProtocol::Dash,
        StreamingProtocol::SmoothStreaming,
        StreamingProtocol::Hds,
        StreamingProtocol::Rtmp,
    ];
    let mut rendered = Vec::new();
    let fig2c = series(&ctx, "fig02", "Fig 2(c)", &mut rendered);
    assert_eq!(fig2c.lines, reference(&views, &dash_first, &protocols, PROTOCOL));
    let want = kept(&dash_first);
    assert!(want.len() < layout.len(), "snapshot 1 is masked out entirely");
    assert_eq!(xs(fig2c), vec![want; protocols.len()]);

    let fig6b = series(&ctx, "fig06", "Fig 6(b)", &mut rendered);
    assert_eq!(fig6b.lines, reference(&views, &largest, &Platform::ALL, PLATFORM));
    let want = kept(&largest);
    assert!(want.len() < layout.len(), "snapshot 2 is masked out entirely");
    assert_eq!(xs(fig6b), vec![want; Platform::ALL.len()]);
}
