//! Telemetry ingestion: the incremental pipeline and the segment store.
//!
//! Ingest is a streaming pipeline ([`IngestPipeline`]): views arrive in
//! snapshot-ascending order (the generator's shard-merged stream order, or
//! a batch sorted by [`ViewStore::ingest`]), every manifest URL is
//! classified once, player identities are interned into a store-wide
//! dictionary, and one columnar [`Segment`] is built incrementally per
//! snapshot. A segment seals the moment its snapshot completes and moves
//! into the segment store — resident, or spilled to disk when
//! [`IngestOptions::spill`] names a directory — so ingest never holds more
//! than one open segment's columns. The columnar segments are the only
//! place ingested telemetry lives: a view is read once, by reference, to
//! build its row of columns, and the spent batch is freed. Every
//! aggregation runs over the segments, one at a time, through the kernels
//! in [`crate::columns`].

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use vmp_core::protocol::StreamingProtocol;
use vmp_core::time::SnapshotId;
use vmp_core::view::{PlayerIdentity, SampledView};

use crate::columns::{Segment, NO_CODE};
use crate::segstore::{SegmentStore, SpillConfig};

/// How an [`IngestPipeline`] stores what it ingests.
#[derive(Debug, Default)]
pub struct IngestOptions {
    /// Inert: ingest never keeps the raw rows, whatever this says, and
    /// nothing reads it. The field stays only because the end-to-end
    /// benchmark's frozen `product.rs` still names it.
    pub drop_rows: bool,
    /// Spill sealed segments to disk instead of keeping them resident.
    pub spill: Option<SpillConfig>,
}

/// The incremental ingest pipeline: feed snapshot-ascending view batches,
/// get a [`ViewStore`] out. Peak memory is one open segment's columns plus
/// the batch in hand — the full dataset never has to exist in memory at
/// once.
#[derive(Debug)]
pub struct IngestPipeline {
    total_rows: usize,
    segstore: SegmentStore,
    open: Option<Segment>,
    player_keys: Vec<String>,
    player_dict: BTreeMap<String, u32>,
    /// Fast path for SDK identities: avoids formatting the build string on
    /// every row.
    build_codes: BTreeMap<vmp_core::sdk::PlayerBuild, u32>,
    misses: u64,
    ingest_span: Option<vmp_obs::Span<'static>>,
    columns_span: Option<vmp_obs::Span<'static>>,
}

impl IngestPipeline {
    /// Opens a pipeline. The ingest/columns spans stay open until
    /// [`finish`](Self::finish) so profiles attribute the whole streaming
    /// ingest correctly.
    pub fn new(options: IngestOptions) -> IngestPipeline {
        let ingest_span = vmp_obs::span("analytics.ingest");
        let columns_span = vmp_obs::span("analytics.columns.build");
        IngestPipeline {
            total_rows: 0,
            segstore: SegmentStore::new(options.spill),
            open: None,
            player_keys: Vec::new(),
            player_dict: BTreeMap::new(),
            build_codes: BTreeMap::new(),
            misses: 0,
            ingest_span: Some(ingest_span),
            columns_span: Some(columns_span),
        }
    }

    /// Ingests one batch. Batches must arrive snapshot-ascending across the
    /// pipeline's lifetime (within a batch too); a step backwards is a loud
    /// error, because it would silently split a snapshot across segments.
    pub fn push_batch(&mut self, views: Vec<SampledView>) {
        vmp_obs::counter("analytics.rows_ingested").add(views.len() as u64);
        for v in &views {
            self.push_one(v);
        }
        // The spent batch is freed here, once, not row by row inside the
        // loop: the rows were allocated by generator workers that are still
        // allocating, and interleaving their frees with the column build
        // measured three times the cost per view.
        drop(views);
    }

    fn push_one(&mut self, v: &SampledView) {
        let snap = v.record.snapshot;
        let need_new = match &self.open {
            None => true,
            Some(seg) if seg.snapshot() == snap => false,
            Some(seg) => {
                assert!(
                    seg.snapshot() < snap,
                    "ingest requires snapshot-ascending order (snapshot {} after {})",
                    snap.index(),
                    seg.snapshot().index()
                );
                true
            }
        };
        if need_new {
            self.seal_open();
            self.open = Some(Segment::new_open(snap, self.total_rows));
        }
        let proto = vmp_manifest::classify(&v.record.manifest_url);
        let code = proto.map_or(NO_CODE, StreamingProtocol::code);
        if proto.is_none() {
            self.misses += 1;
        }
        let player_code = self.player_code(&v.record.player);
        if let Some(seg) = &mut self.open {
            seg.push_row(v, code, player_code);
        }
        self.total_rows += 1;
    }

    fn player_code(&mut self, player: &PlayerIdentity) -> u32 {
        match player {
            PlayerIdentity::Sdk(build) => match self.build_codes.get(build) {
                Some(&c) => c,
                None => {
                    let mut key = String::new();
                    let _ = write!(key, "{build}");
                    let c = intern(&mut self.player_dict, &mut self.player_keys, key);
                    self.build_codes.insert(*build, c);
                    c
                }
            },
            PlayerIdentity::UserAgent(ua) => {
                let family = ua.split('/').next().unwrap_or(&ua[..]);
                match self.player_dict.get(family) {
                    Some(&c) => c,
                    None => {
                        intern(&mut self.player_dict, &mut self.player_keys, family.to_string())
                    }
                }
            }
        }
    }

    fn seal_open(&mut self) {
        if let Some(seg) = self.open.take() {
            self.segstore.push(seg);
        }
    }

    /// Seals the last open segment and produces the store.
    pub fn finish(mut self) -> ViewStore {
        self.seal_open();
        vmp_obs::counter("analytics.manifests_unclassified").add(self.misses);
        vmp_obs::counter("analytics.segments_built").add(self.segstore.len() as u64);
        drop(self.columns_span.take());
        drop(self.ingest_span.take());
        ViewStore {
            total_rows: self.total_rows,
            segstore: self.segstore,
            player_keys: self.player_keys,
            memo: OnceLock::new(),
        }
    }
}

/// The telemetry store: per-snapshot columnar segments (resident or
/// spilled) and the player dictionary their codes index.
#[derive(Debug)]
pub struct ViewStore {
    total_rows: usize,
    pub(crate) segstore: SegmentStore,
    /// Player dictionary: code (index) → canonical player key (SDK build
    /// string or user-agent family).
    player_keys: Vec<String>,
    /// One value derived from every segment, built by the first reader
    /// that asks (see [`memo`](Self::memo)) and dropped with the store.
    memo: OnceLock<Box<dyn Any + Send + Sync>>,
}

impl Default for ViewStore {
    fn default() -> ViewStore {
        ViewStore::ingest(Vec::new())
    }
}

impl ViewStore {
    /// Ingests a batch of samples: sorts by snapshot (stable, so
    /// within-snapshot order is generation order), then runs the streaming
    /// pipeline over the sorted batch.
    pub fn ingest(mut views: Vec<SampledView>) -> ViewStore {
        let mut pipeline = IngestPipeline::new(IngestOptions::default());
        views.sort_by_key(|v| v.record.snapshot);
        pipeline.push_batch(views);
        pipeline.finish()
    }

    /// Number of ingested samples.
    pub fn len(&self) -> usize {
        self.total_rows
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.total_rows == 0
    }

    /// Whether sealed segments live on disk.
    pub fn spill_enabled(&self) -> bool {
        self.segstore.spill_enabled()
    }

    /// One snapshot's segment, if it has data — a cheap clone when
    /// resident/hot, a block decode when spilled.
    pub fn segment(&self, snapshot: SnapshotId) -> Option<Arc<Segment>> {
        self.segstore.get(snapshot)
    }

    /// Iterates every segment in ascending snapshot order, loading each
    /// through the segment store as the iterator advances (so at most one
    /// extra segment is decoded at a time in spill mode).
    pub fn iter_segments(&self) -> impl Iterator<Item = Arc<Segment>> + '_ {
        self.segstore.metas().iter().filter_map(|m| self.segstore.get(m.snapshot))
    }

    /// The canonical key behind a player dictionary code.
    pub fn player_key(&self, code: u32) -> &str {
        &self.player_keys[code as usize]
    }

    /// Number of distinct players in the dictionary.
    pub fn player_count(&self) -> usize {
        self.player_keys.len()
    }

    /// Snapshots with data, ascending.
    pub fn snapshots(&self) -> Vec<SnapshotId> {
        self.segstore.metas().iter().map(|m| m.snapshot).collect()
    }

    /// The latest snapshot with data (the paper's "latest snapshot").
    pub fn latest_snapshot(&self) -> Option<SnapshotId> {
        self.segstore.metas().last().map(|m| m.snapshot)
    }

    /// Total weighted view-hours at one snapshot.
    pub fn total_hours_at(&self, snapshot: SnapshotId) -> f64 {
        match self.segment(snapshot) {
            Some(seg) => (0..seg.len()).map(|i| seg.weighted_hours(i)).sum(),
            None => 0.0,
        }
    }

    /// The store's memo: a value derived from its segments, built by
    /// `build` on the first call and returned by reference from then on, so
    /// readers that need the same whole-store pass share one. The slot
    /// holds one value; `None` when it already holds a value of another
    /// type. Segments are immutable once sealed, so the value never goes
    /// stale.
    pub fn memo<T: Any + Send + Sync>(&self, build: impl FnOnce(&ViewStore) -> T) -> Option<&T> {
        self.memo.get_or_init(|| Box::new(build(self))).downcast_ref()
    }
}

fn intern(dict: &mut BTreeMap<String, u32>, keys: &mut Vec<String>, key: String) -> u32 {
    let code = keys.len() as u32;
    keys.push(key.clone());
    dict.insert(key, code);
    code
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::columns::{rollup_segment, Metric, PublisherMask, PLATFORM};
    use vmp_core::content::ContentClass;
    use vmp_core::device::DeviceModel;
    use vmp_core::geo::{ConnectionType, Isp, Region};
    use vmp_core::ids::{CdnId, PublisherId, SessionId, VideoId};
    use vmp_core::units::{Kbps, Seconds};
    use vmp_core::view::{OwnershipFlag, PlayerIdentity, ViewRecord};

    pub(crate) fn test_view(
        snapshot: u32,
        publisher: u32,
        url: &str,
        hours: f64,
        weight: f64,
    ) -> SampledView {
        SampledView {
            record: ViewRecord {
                session: SessionId::new(0),
                snapshot: SnapshotId::new(snapshot).unwrap(),
                publisher: PublisherId::new(publisher),
                video: VideoId::new(1),
                manifest_url: url.to_string(),
                device: DeviceModel::Roku,
                os: DeviceModel::Roku.os(),
                player: PlayerIdentity::UserAgent("test".into()),
                cdns: vec![CdnId::new(0)],
                available_bitrates: [Kbps(800)].into(),
                viewing_time: Seconds::from_hours(hours),
                class: ContentClass::Vod,
                ownership: OwnershipFlag::Owned,
                region: Region::UsOther,
                isp: Isp::Z,
                connection: ConnectionType::Wired,
            },
            weight,
        }
    }

    #[test]
    fn ingest_indexes_by_snapshot() {
        let store = ViewStore::ingest(vec![
            test_view(3, 0, "https://h/p/a.m3u8", 1.0, 2.0),
            test_view(1, 0, "https://h/p/a.mpd", 1.0, 1.0),
            test_view(3, 1, "https://h/p/b.m3u8", 2.0, 1.0),
        ]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.snapshots().len(), 2);
        let rows_at = |s: u32| store.segment(SnapshotId::new(s).unwrap()).map(|seg| seg.len());
        assert_eq!(rows_at(3), Some(2));
        assert_eq!(rows_at(1), Some(1));
        assert_eq!(rows_at(9), None);
        assert_eq!(store.latest_snapshot(), SnapshotId::new(3));
    }

    #[test]
    fn protocol_is_derived_from_url() {
        let store = ViewStore::ingest(vec![
            test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0),
            test_view(0, 0, "https://h/p/a.mpd", 1.0, 1.0),
            test_view(0, 0, "https://h/p/opaque", 1.0, 1.0),
        ]);
        let seg = store.segment(SnapshotId::FIRST).unwrap();
        assert_eq!(
            seg.protocols(),
            &[StreamingProtocol::Hls.code(), StreamingProtocol::Dash.code(), NO_CODE]
        );
    }

    #[test]
    fn weighted_totals() {
        let store = ViewStore::ingest(vec![
            test_view(0, 0, "https://h/p/a.m3u8", 1.5, 2.0),
            test_view(0, 1, "https://h/p/b.m3u8", 0.5, 4.0),
        ]);
        let total = store.total_hours_at(SnapshotId::FIRST);
        assert!((total - 5.0).abs() < 1e-9);
    }

    /// The player dictionary is built with ordered maps (vmp-lint D1), so
    /// two ingests of the same batch must assign identical codes in
    /// identical order — including the SDK fast-path cache.
    #[test]
    fn double_ingest_interns_identically() {
        use vmp_core::sdk::{PlayerBuild, SdkKind, SdkVersion};
        let batch = || {
            let mut views = vec![
                test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0),
                test_view(0, 1, "https://h/p/b.m3u8", 1.0, 1.0),
                test_view(1, 0, "https://h/p/c.mpd", 1.0, 1.0),
                test_view(1, 2, "https://h/p/d.m3u8", 1.0, 1.0),
            ];
            views[0].record.player = PlayerIdentity::UserAgent("Mozilla/5.0".into());
            views[1].record.player = PlayerIdentity::Sdk(PlayerBuild::new(
                SdkKind::ExoPlayer,
                SdkVersion::new(2, 11),
            ));
            views[2].record.player = PlayerIdentity::Sdk(PlayerBuild::new(
                SdkKind::AvFoundation,
                SdkVersion::new(1, 4),
            ));
            views
        };
        let a = ViewStore::ingest(batch());
        let b = ViewStore::ingest(batch());
        assert_eq!(a.player_count(), b.player_count());
        let keys = |s: &ViewStore| -> Vec<String> {
            (0..s.player_count() as u32).map(|c| s.player_key(c).to_string()).collect()
        };
        assert_eq!(keys(&a), keys(&b));
        let codes = |s: &ViewStore| -> Vec<Vec<u32>> {
            s.iter_segments().map(|seg| seg.players().to_vec()).collect()
        };
        assert_eq!(codes(&a), codes(&b));
    }

    #[test]
    fn empty_store_is_safe() {
        let store = ViewStore::ingest(vec![]);
        assert!(store.is_empty());
        assert_eq!(store.latest_snapshot(), None);
        assert_eq!(store.total_hours_at(SnapshotId::LAST), 0.0);
    }

    #[test]
    fn segments_hold_dictionary_codes() {
        let store = ViewStore::ingest(vec![
            test_view(2, 7, "https://h/p/a.m3u8", 1.0, 2.0),
            test_view(2, 8, "https://h/p/opaque", 0.5, 1.0),
        ]);
        let seg = store.segment(SnapshotId::new(2).unwrap()).unwrap();
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.publishers(), &[7, 8]);
        assert_eq!(seg.protocols(), &[StreamingProtocol::Hls.code(), NO_CODE]);
        assert_eq!(seg.devices(), &[DeviceModel::Roku.code(); 2]);
        assert_eq!(seg.cdn_masks(), &[1u64, 1u64]);
        assert!((seg.weighted_hours(0) - 2.0).abs() < 1e-12);
        // Both rows share the "test" user-agent family.
        assert_eq!(seg.players(), &[0, 0]);
        assert_eq!(store.player_count(), 1);
        assert_eq!(store.player_key(0), "test");
    }

    #[test]
    fn masked_rollups_skip_publishers_in_place() {
        let store = ViewStore::ingest(vec![
            test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0),
            test_view(0, 1, "https://h/p/b.m3u8", 2.0, 1.0),
            test_view(1, 1, "https://h/p/c.m3u8", 3.0, 1.0),
        ]);
        let mask = PublisherMask::new(&[PublisherId::new(1)]);
        let masked: Vec<(f64, usize)> = store
            .iter_segments()
            .map(|seg| {
                let r = rollup_segment(&seg, Some(&mask), PLATFORM.column, Metric::Hours);
                (r.grand_total(), r.shares(PLATFORM).len())
            })
            .collect();
        // The survivor is publisher 0's one-hour view, not publisher 1's;
        // snapshot 1 held only the excluded publisher, so nothing of it is
        // left — no value, no total — as a re-ingest of the survivors would
        // have no segment there.
        assert_eq!(masked, vec![(1.0, 1), (0.0, 0)]);
        // The store itself is untouched.
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn memo_is_built_once_and_keeps_its_type() {
        let store = ViewStore::ingest(vec![test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0)]);
        let mut builds = 0;
        let mut build = |s: &ViewStore| {
            builds += 1;
            s.len()
        };
        assert_eq!(store.memo(&mut build), Some(&1));
        assert_eq!(store.memo(&mut build), Some(&1));
        assert_eq!(builds, 1, "the second reader gets the first one's value");
        assert_eq!(store.memo(|_| "a value of another type"), None);
    }

    /// The streaming pipeline fed batch-by-batch must produce the same
    /// store a single sorted-batch ingest does.
    #[test]
    fn pipeline_batches_match_single_ingest() {
        let all = vec![
            test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0),
            test_view(0, 1, "https://h/p/b.mpd", 2.0, 1.5),
            test_view(1, 0, "https://h/p/opaque", 0.5, 2.0),
            test_view(2, 2, "https://h/p/c.m3u8", 3.0, 1.0),
        ];
        let whole = ViewStore::ingest(all.clone());
        let mut pipeline = IngestPipeline::new(IngestOptions::default());
        for chunk in all.chunks(1) {
            pipeline.push_batch(chunk.to_vec());
        }
        let streamed = pipeline.finish();
        assert_eq!(whole.len(), streamed.len());
        assert_eq!(whole.snapshots(), streamed.snapshots());
        for (a, b) in whole.iter_segments().zip(streamed.iter_segments()) {
            assert_eq!(a.publishers(), b.publishers());
            assert_eq!(a.protocols(), b.protocols());
            assert_eq!(a.players(), b.players());
            assert_eq!(a.rows(), b.rows());
            assert_eq!(a.weights(), b.weights());
        }
    }

    #[test]
    #[should_panic(expected = "snapshot-ascending")]
    fn pipeline_rejects_backwards_snapshots() {
        let mut pipeline = IngestPipeline::new(IngestOptions::default());
        pipeline.push_batch(vec![test_view(2, 0, "https://h/p/a.m3u8", 1.0, 1.0)]);
        pipeline.push_batch(vec![test_view(1, 0, "https://h/p/b.m3u8", 1.0, 1.0)]);
    }
}
