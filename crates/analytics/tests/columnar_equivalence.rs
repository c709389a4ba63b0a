//! Property tests: the per-segment kernels agree **exactly** —
//! bit-for-bit `f64` equality, no epsilon — with the row-at-a-time
//! reference in `common/query.rs` on randomized ingest batches, masked and
//! unmasked. The batches deliberately include edge cases the synthetic
//! ecosystem never produces: unclassifiable manifest URLs, empty CDN sets,
//! zero-weight and zero-duration views.

#[path = "common/query.rs"]
mod query;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use proptest::prelude::*;
use query::ViewRef;
use vmp_analytics::columns::{
    per_publisher_segment, per_segment_map, publisher_shares, rollup_segment, value_shares,
    DimSpec, Metric, PublisherMask, Segment, BROWSER_TECH, CDN, CLASS, CONNECTION, DEVICE, ISP,
    NO_CODE, PLATFORM, PROTOCOL, REGION,
};
use vmp_analytics::perpub::publisher_counts;
use vmp_analytics::store::ViewStore;
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{CdnId, PublisherId, SessionId, VideoId};
use vmp_core::protocol::StreamingProtocol;
use vmp_core::sdk::{PlayerBuild, SdkKind, SdkVersion};
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{OwnershipFlag, PlayerIdentity, SampledView, ViewRecord};

/// Manifest URLs spanning every protocol plus unclassifiable ones.
const URLS: [&str; 8] = [
    "https://edge.cdn-a.example.net/p1/v1/master.m3u8",
    "https://edge.cdn-a.example.net/p1/v1.mpd",
    "https://edge.cdn-a.example.net/p1/v1.ism/manifest",
    "https://edge.cdn-a.example.net/p1/cache/v1.f4m",
    "rtmp://edge.cdn-a.example.net/live/p1/v1",
    "https://edge.cdn-a.example.net/p1/v1.mp4",
    "https://edge.cdn-a.example.net/p1/v1.bin",
    "gopher://old.example.net/p1/v1",
];

const UAS: [&str; 3] = ["Mozilla/5.0", "AppleWebKit/605.1", "Opera/9.80"];
const SDKS: [SdkKind; 3] = [SdkKind::AvFoundation, SdkKind::ExoPlayer, SdkKind::RokuSceneGraph];

/// Builds one view from a compact tuple; `seed` drives the fields that do
/// not need their own strategy dimension.
fn view_from(
    snapshot: u32,
    publisher: u32,
    device_code: u8,
    url_idx: usize,
    cdn_bits: u64,
    seed: u64,
) -> SampledView {
    let device = DeviceModel::from_code(device_code).expect("code in range");
    let player = if seed & 1 == 0 {
        PlayerIdentity::UserAgent(UAS[(seed >> 1) as usize % UAS.len()].into())
    } else {
        PlayerIdentity::Sdk(PlayerBuild::new(
            SDKS[(seed >> 1) as usize % SDKS.len()],
            SdkVersion::new((seed >> 3 & 3) as u16, (seed >> 5 & 7) as u16),
        ))
    };
    let cdns: Vec<CdnId> = (0..CdnName::OBSERVED_TOTAL as u32)
        .filter(|b| cdn_bits & (1 << b) != 0)
        .map(CdnId::new)
        .collect();
    let ownership = if seed >> 7 & 3 == 0 {
        OwnershipFlag::Syndicated { owner: PublisherId::new((seed >> 9 & 7) as u32) }
    } else {
        OwnershipFlag::Owned
    };
    SampledView {
        record: ViewRecord {
            session: SessionId::new((seed & 0xFFFF) as u32),
            snapshot: SnapshotId::new(snapshot).expect("snapshot in range"),
            publisher: PublisherId::new(publisher),
            video: VideoId::new((seed >> 12 & 0xFF) as u32),
            manifest_url: URLS[url_idx].to_string(),
            device,
            os: device.os(),
            player,
            cdns,
            available_bitrates: [Kbps(400), Kbps(1200)].into(),
            viewing_time: Seconds::from_minutes((seed >> 20 & 0xFFF) as f64 / 16.0),
            class: ContentClass::from_code((seed >> 32) as u8 % ContentClass::CODE_COUNT as u8)
                .expect("class code"),
            ownership,
            region: Region::from_code((seed >> 34) as u8 % Region::CODE_COUNT as u8)
                .expect("region code"),
            isp: Isp::from_code((seed >> 38) as u8 % Isp::CODE_COUNT as u8).expect("isp code"),
            connection: ConnectionType::from_code(
                (seed >> 42) as u8 % ConnectionType::CODE_COUNT as u8,
            )
            .expect("connection code"),
        },
        // Quantized so sums exercise real accumulation, zero included.
        weight: (seed >> 46 & 0x3FF) as f64 / 8.0,
    }
}

fn batch() -> impl Strategy<Value = Vec<SampledView>> {
    proptest::collection::vec(
        (
            0u32..4,
            0u32..8,
            0u8..DeviceModel::CODE_COUNT as u8,
            0usize..URLS.len(),
            0u64..(1 << CdnName::OBSERVED_TOTAL),
            0u64..u64::MAX,
        ),
        0..120,
    )
    .prop_map(|rows| {
        rows.into_iter().map(|(s, p, d, u, c, seed)| view_from(s, p, d, u, c, seed)).collect()
    })
}

/// The support floor of every publisher-share comparison.
const FLOOR: f64 = 0.05;

fn hour_shares<V: Ord>(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    spec: DimSpec<V>,
) -> BTreeMap<V, f64> {
    rollup_segment(seg, mask, spec.column, Metric::Hours).shares(spec)
}

/// One dimension on one segment: view-hour shares, view shares, publisher
/// shares and per-publisher value sets, each against the row reference over
/// the rows the kernels keep.
fn assert_dim<'a, V: Ord + Clone + Debug>(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    rows: &[ViewRef<'a>],
    spec: DimSpec<V>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V> + Copy,
) {
    let rows = || rows.iter().copied();
    assert_eq!(hour_shares(seg, mask, spec), query::vh_share_by(rows(), extract));
    assert_eq!(
        rollup_segment(seg, mask, spec.column, Metric::Views).shares(spec),
        query::views_share_by(rows(), extract)
    );
    let per_pub = per_publisher_segment(seg, mask, spec.column);
    assert_eq!(
        publisher_shares(&per_pub, spec, FLOOR),
        query::publisher_share_by(rows(), extract, FLOOR)
    );
    let values: BTreeMap<PublisherId, (BTreeSet<V>, f64)> = per_pub
        .iter()
        .map(|(&raw, agg)| {
            let supported = agg.supported_codes(FLOOR).filter_map(spec.decode).collect();
            (PublisherId::new(raw), (supported, agg.hours))
        })
        .collect();
    assert_eq!(values, query::per_publisher_values(rows(), extract, FLOOR));
}

/// Per-publisher share of one value (Fig 4's input) against the reference.
fn assert_value_share<'a, V: Ord + Clone>(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    rows: &[ViewRef<'a>],
    spec: DimSpec<V>,
    value: V,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
) {
    let code = (0..spec.column.cardinality() as u8)
        .find(|&c| (spec.decode)(c).as_ref() == Some(&value))
        .expect("the value has a code");
    assert_eq!(
        value_shares(&per_publisher_segment(seg, mask, spec.column), code),
        query::per_publisher_value_share(rows.iter().copied(), extract, &value)
    );
}

/// Every dimension, plus two value shares, on one segment.
fn assert_all_dims(seg: &Segment, mask: Option<&PublisherMask>, views: &[&SampledView]) {
    let rows: Vec<ViewRef<'_>> = views.iter().map(|v| ViewRef::new(v)).collect();
    assert_dim(seg, mask, &rows, PROTOCOL, query::protocol_dim);
    assert_dim(seg, mask, &rows, PLATFORM, query::platform_dim);
    assert_dim(seg, mask, &rows, DEVICE, query::device_dim);
    assert_dim(seg, mask, &rows, BROWSER_TECH, query::browser_tech_dim);
    assert_dim(seg, mask, &rows, CDN, query::cdn_dim);
    assert_dim(seg, mask, &rows, REGION, |v: &ViewRef<'_>| vec![v.view.record.region]);
    assert_dim(seg, mask, &rows, ISP, |v: &ViewRef<'_>| vec![v.view.record.isp]);
    assert_dim(seg, mask, &rows, CONNECTION, |v: &ViewRef<'_>| vec![v.view.record.connection]);
    assert_dim(seg, mask, &rows, CLASS, |v: &ViewRef<'_>| vec![v.view.record.class]);
    assert_value_share(seg, mask, &rows, PROTOCOL, StreamingProtocol::Hls, query::protocol_dim);
    assert_value_share(seg, mask, &rows, CDN, CdnName::A, query::cdn_dim);
}

/// Every kernel output must equal the row reference exactly, per
/// snapshot, for every dimension, with and without a publisher mask
/// (publishers 1 and 4 excluded) — and a masked kernel must equal the
/// unmasked kernel over a from-scratch re-ingest of the surviving rows.
fn assert_matches_row_reference(views: Vec<SampledView>) {
    let store = ViewStore::ingest(views.clone());
    prop_assert_eq!(store.len(), views.len());

    let excluded = [PublisherId::new(1), PublisherId::new(4)];
    let mask = PublisherMask::new(&excluded);
    let survives = |v: &&SampledView| !excluded.contains(&v.record.publisher);
    let reingested = ViewStore::ingest(views.iter().filter(survives).cloned().collect());

    for snap in (0..5).filter_map(SnapshotId::new) {
        // The reference reads the rows this test owns: ingest stable-sorts
        // by snapshot, so filtering the input by snapshot yields a
        // segment's rows in store order.
        let rows: Vec<&SampledView> = views.iter().filter(|v| v.record.snapshot == snap).collect();
        let Some(seg) = store.segment(snap) else {
            prop_assert!(rows.is_empty());
            prop_assert!(reingested.segment(snap).is_none());
            continue;
        };
        assert_all_dims(&seg, None, &rows);
        let kept: Vec<&SampledView> = rows.iter().copied().filter(survives).collect();
        assert_all_dims(&seg, Some(&mask), &kept);

        // Masking in place ≡ filtering the rows and re-ingesting them; a
        // snapshot with no survivor has no re-ingested segment, and the
        // masked kernels over it come back empty.
        let again = reingested.segment(snap);
        let again = again.as_deref();
        prop_assert_eq!(
            hour_shares(&seg, Some(&mask), PLATFORM),
            again.map(|s| hour_shares(s, None, PLATFORM)).unwrap_or_default()
        );
        prop_assert_eq!(
            hour_shares(&seg, Some(&mask), CDN),
            again.map(|s| hour_shares(s, None, CDN)).unwrap_or_default()
        );
        let counts = |s: &Segment, m: Option<&PublisherMask>| {
            publisher_counts(&per_publisher_segment(s, m, CDN.column), FLOOR)
        };
        prop_assert_eq!(
            counts(&seg, Some(&mask)),
            again.map(|s| counts(s, None)).unwrap_or_default()
        );
    }

    // The snapshot-parallel sweep returns exactly the sequential
    // per-segment results, in snapshot order.
    let sequential: Vec<_> = store
        .iter_segments()
        .map(|seg| (seg.snapshot(), hour_shares(&seg, None, PLATFORM)))
        .collect();
    prop_assert_eq!(per_segment_map(&store, |seg| hour_shares(seg, None, PLATFORM)), sequential);
}

/// Publisher sequences the run-length per-publisher kernel must not get
/// wrong, which random batches hit only by chance: a publisher whose rows
/// come back after another's (`A, B, A`), runs of a single row, and a
/// masked publisher (1 and 4 are the excluded ones) in the middle of a run.
#[test]
fn broken_runs_match_row_reference() {
    let interleaved = [3, 3, 3, 5, 5, 3, 3, 5, 0, 3];
    let single_rows = [0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 0];
    let masked_inside = [2, 2, 2, 1, 1, 2, 2, 4, 2, 2, 1];
    let masked_edges = [4, 6, 6, 6, 1];
    for pattern in [&interleaved[..], &single_rows, &masked_inside, &masked_edges] {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut views = Vec::new();
        for snapshot in 0..2 {
            for &publisher in pattern {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                views.push(view_from(
                    snapshot,
                    publisher,
                    (x >> 8) as u8 % DeviceModel::CODE_COUNT as u8,
                    (x >> 16) as usize % URLS.len(),
                    (x >> 24) % (1 << CdnName::OBSERVED_TOTAL),
                    x.rotate_left(29),
                ));
            }
        }
        assert_matches_row_reference(views);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized batches against the row reference.
    #[test]
    fn columnar_rollups_match_row_reference(views in batch()) {
        assert_matches_row_reference(views);
    }

    /// The oracle and the protocol column classify alike: for every
    /// ingested row, `ViewRef::new` derives the code the segment stores.
    #[test]
    fn oracle_protocol_matches_protocol_column(views in batch()) {
        let store = ViewStore::ingest(views.clone());
        for seg in store.iter_segments() {
            let expected: Vec<u8> = views
                .iter()
                .filter(|v| v.record.snapshot == seg.snapshot())
                .map(|v| ViewRef::new(v).protocol.map_or(NO_CODE, StreamingProtocol::code))
                .collect();
            prop_assert_eq!(seg.protocols(), expected.as_slice());
        }
    }
}
