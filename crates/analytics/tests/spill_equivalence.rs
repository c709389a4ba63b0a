//! Property tests for the out-of-core ingest path: a store whose segments
//! were sealed, spilled to disk, and decoded back must be **byte-identical**
//! — every column bit-for-bit, every rollup exactly equal — to a fully
//! resident ingest of the same rows, and the batch-at-a-time streaming
//! pipeline must reproduce the one-shot materialized ingest exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use vmp_analytics::columns::{
    per_publisher_segment, per_segment_map, publisher_shares, rollup_segment, Metric, CDN,
    PLATFORM, PROTOCOL,
};
use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline, ViewStore};
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{CdnId, PublisherId, SessionId, VideoId};
use vmp_core::platform::Platform;
use vmp_core::sdk::{PlayerBuild, SdkKind, SdkVersion};
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{OwnershipFlag, PlayerIdentity, SampledView, ViewRecord};

/// Manifest URLs spanning every protocol plus unclassifiable ones.
const URLS: [&str; 5] = [
    "https://edge.cdn-a.example.net/p1/v1/master.m3u8",
    "https://edge.cdn-a.example.net/p1/v1.mpd",
    "https://edge.cdn-a.example.net/p1/v1.ism/manifest",
    "rtmp://edge.cdn-a.example.net/live/p1/v1",
    "gopher://old.example.net/p1/v1",
];

/// Builds one view from a compact tuple; `seed` drives the fields that do
/// not need their own strategy dimension.
fn view_from(snapshot: u32, publisher: u32, url_idx: usize, seed: u64) -> SampledView {
    let device = DeviceModel::from_code((seed >> 16) as u8 % DeviceModel::CODE_COUNT as u8)
        .expect("device code");
    let player = if seed & 1 == 0 {
        PlayerIdentity::UserAgent(format!("Mozilla/5.{}", seed >> 1 & 7).into())
    } else {
        PlayerIdentity::Sdk(PlayerBuild::new(
            SdkKind::ExoPlayer,
            SdkVersion::new((seed >> 3 & 3) as u16, (seed >> 5 & 7) as u16),
        ))
    };
    let cdn_bits = seed >> 24;
    let cdns: Vec<CdnId> = (0..CdnName::OBSERVED_TOTAL as u32)
        .filter(|b| cdn_bits >> b & 1 != 0)
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
        (0u32..6, 0u32..8, 0usize..URLS.len(), 0u64..u64::MAX),
        0..150,
    )
    .prop_map(|rows| {
        rows.into_iter().map(|(s, p, u, seed)| view_from(s, p, u, seed)).collect()
    })
}

/// A unique spill directory per proptest case, so concurrently running
/// test binaries and sequential cases never collide on disk.
fn spill_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "vmp-spill-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Per-segment platform view-hour shares over the whole store, through the
/// sweep the figures use.
fn platform_series(store: &ViewStore) -> Vec<(SnapshotId, BTreeMap<Platform, f64>)> {
    per_segment_map(store, |seg| {
        rollup_segment(seg, None, PLATFORM.column, Metric::Hours).shares(PLATFORM)
    })
}

/// Asserts every column of both stores' segments is bit-for-bit equal
/// (`f64` compared through `to_bits`, so `-0.0`/`0.0` drift would fail).
macro_rules! assert_segments_identical {
    ($a:expr, $b:expr) => {{
        prop_assert_eq!($a.snapshots(), $b.snapshots());
        for (a, b) in $a.iter_segments().zip($b.iter_segments()) {
            prop_assert_eq!(a.snapshot(), b.snapshot());
            prop_assert_eq!(a.rows(), b.rows());
            prop_assert_eq!(a.publishers(), b.publishers());
            prop_assert_eq!(a.devices(), b.devices());
            prop_assert_eq!(a.platforms(), b.platforms());
            prop_assert_eq!(a.protocols(), b.protocols());
            prop_assert_eq!(a.regions(), b.regions());
            prop_assert_eq!(a.isps(), b.isps());
            prop_assert_eq!(a.connections(), b.connections());
            prop_assert_eq!(a.classes(), b.classes());
            prop_assert_eq!(a.owners(), b.owners());
            prop_assert_eq!(a.cdn_masks(), b.cdn_masks());
            prop_assert_eq!(a.rung_counts(), b.rung_counts());
            prop_assert_eq!(a.players(), b.players());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(a.hours()), bits(b.hours()));
            prop_assert_eq!(bits(a.weights()), bits(b.weights()));
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spill blocks are lossless: a zero-hot-budget store (every sealed
    /// segment written to disk and decoded back on load) carries exactly
    /// the resident store's columns and produces exactly its rollups.
    #[test]
    fn spilled_segments_round_trip_byte_identically(views in batch()) {
        let resident = ViewStore::ingest(views.clone());
        let dir = spill_dir();
        let mut sorted = views;
        sorted.sort_by_key(|v| v.record.snapshot);
        let mut pipeline = IngestPipeline::new(IngestOptions {
            spill: Some(SpillConfig { dir: dir.clone(), hot_budget_bytes: 0 }),
            ..IngestOptions::default()
        });
        pipeline.push_batch(sorted);
        let spilled = pipeline.finish();
        prop_assert!(spilled.spill_enabled());
        prop_assert_eq!(resident.len(), spilled.len());
        assert_segments_identical!(resident, spilled);

        // Kernels over decoded segments give exactly the resident numbers.
        for (a, b) in resident.iter_segments().zip(spilled.iter_segments()) {
            prop_assert_eq!(
                rollup_segment(&a, None, PROTOCOL.column, Metric::Hours).shares(PROTOCOL),
                rollup_segment(&b, None, PROTOCOL.column, Metric::Hours).shares(PROTOCOL)
            );
            prop_assert_eq!(
                publisher_shares(&per_publisher_segment(&a, None, CDN.column), CDN, 0.05),
                publisher_shares(&per_publisher_segment(&b, None, CDN.column), CDN, 0.05)
            );
        }
        prop_assert_eq!(platform_series(&resident), platform_series(&spilled));

        drop(spilled);
        // The store owns its spill files; dropping it removes the directory.
        prop_assert!(!dir.exists());
    }

    /// Feeding the same rows through the streaming pipeline in arbitrary
    /// batch sizes reproduces the one-shot materialized ingest exactly.
    #[test]
    fn streaming_pipeline_matches_materialized_ingest(
        views in batch(),
        chunk in 1usize..32,
    ) {
        let materialized = ViewStore::ingest(views.clone());

        // The pipeline contract is snapshot-ascending input; `ingest` gets
        // there via a stable sort, so the same sort here keeps row order
        // within each snapshot identical.
        let mut sorted = views;
        sorted.sort_by_key(|v| v.record.snapshot);
        let mut pipeline = IngestPipeline::new(IngestOptions::default());
        for batch in sorted.chunks(chunk) {
            pipeline.push_batch(batch.to_vec());
        }
        let streamed = pipeline.finish();

        prop_assert_eq!(materialized.len(), streamed.len());
        assert_segments_identical!(materialized, streamed);
        prop_assert_eq!(platform_series(&materialized), platform_series(&streamed));
    }
}
