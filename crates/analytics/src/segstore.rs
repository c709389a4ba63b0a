//! Sealed-segment storage: resident at default scale, disk-spilled with a
//! bounded hot cache for out-of-core runs.
//!
//! The crate-private `SegmentStore` owns every sealed [`Segment`] the
//! ingest pipeline produces. Without a [`SpillConfig`] it behaves exactly
//! like the old in-memory vector: every segment stays decoded and a load
//! is a reference-count bump, so default-scale figures see bit-identical
//! data with zero extra decode work. With spill configured, each segment is
//! serialized to its own block file the moment it seals (the decoded form
//! is dropped immediately, bounding ingest RSS to one open segment), and
//! queries decode blocks on demand through an LRU cache of hot segments
//! capped by [`SpillConfig::hot_budget_bytes`].
//!
//! The block format (see [`Segment::write_block`]) is lossless — `f64`
//! columns round-trip bit for bit — so a rollup over a reloaded segment is
//! byte-identical to one over the segment that was spilled.
//!
//! Spill I/O failure (disk full, directory removed mid-run) is not a
//! recoverable analytics condition: the store prints the error and aborts
//! rather than silently serving partial data.

use std::fs::{self, File};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vmp_core::time::SnapshotId;

use crate::columns::Segment;

/// Decoded heap footprint per row: u32 publisher/owner/player + seven u8
/// dimension codes + u64 CDN mask + u16 rung count + two f64 measures.
pub(crate) const BYTES_PER_ROW: usize = 45;

/// Descriptor of one sealed segment: its snapshot and the logical row range
/// it covers in the whole ingest stream. Cheap to copy around; queries walk
/// metas and load the actual columns only while scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// The snapshot the segment holds.
    pub snapshot: SnapshotId,
    /// Logical row range in the ingest stream (no row vector backs it;
    /// the spill block header records its start).
    pub rows: Range<usize>,
}

impl SegmentMeta {
    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Where and how sealed segments spill to disk.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the block files (created on first spill, removed
    /// when the store drops). The caller picks it — typically a
    /// process-unique temp subdirectory — so library code never consults
    /// the environment.
    pub dir: PathBuf,
    /// Budget (decoded bytes) for the hot cache of reloaded segments.
    pub hot_budget_bytes: usize,
}

impl SpillConfig {
    /// Default hot-cache budget: 384 MiB of decoded columns, small enough
    /// that a 100×-scale run stays around 1 GB RSS including the query
    /// working set.
    pub const DEFAULT_HOT_BUDGET: usize = 384 << 20;

    /// Spill into `dir` with the default hot-cache budget.
    pub fn new(dir: PathBuf) -> SpillConfig {
        SpillConfig { dir, hot_budget_bytes: SpillConfig::DEFAULT_HOT_BUDGET }
    }
}

/// Storage state of one sealed segment.
#[derive(Debug)]
enum Slot {
    /// Decoded and owned (no spill configured).
    Resident(Arc<Segment>),
    /// Serialized to a block file; `cached` holds the decoded form while
    /// the segment is hot.
    Spilled {
        path: PathBuf,
        cached: Option<Arc<Segment>>,
    },
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Slot>,
    /// Slot indexes of cached spilled segments, coldest first.
    lru: Vec<usize>,
    /// Decoded bytes currently held by cached spilled segments.
    hot_bytes: usize,
}

/// What a lookup found under the lock, resolved outside it.
enum Found {
    Ready(Arc<Segment>),
    Hit(Arc<Segment>),
    Decode(PathBuf),
}

/// Registry handles resolved at the first spill, once per process, so a
/// load never takes the registry lock while holding the store's (and a run
/// that never spills exports no `store.*` names).
struct StoreMetrics {
    segments_spilled: vmp_obs::Counter,
    spill_bytes: vmp_obs::Counter,
    hot_hits: vmp_obs::Counter,
    hot_misses: vmp_obs::Counter,
}

impl StoreMetrics {
    fn get() -> &'static StoreMetrics {
        static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
        METRICS.get_or_init(|| StoreMetrics {
            segments_spilled: vmp_obs::counter("store.segments_spilled"),
            spill_bytes: vmp_obs::counter("store.spill_bytes"),
            hot_hits: vmp_obs::counter("store.hot_hits"),
            hot_misses: vmp_obs::counter("store.hot_misses"),
        })
    }
}

/// Sealed segments with optional disk spill and an LRU hot cache.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    metas: Vec<SegmentMeta>,
    spill: Option<SpillConfig>,
    inner: Mutex<Inner>,
}

impl SegmentStore {
    /// Creates an empty store; `spill` enables the out-of-core mode.
    pub fn new(spill: Option<SpillConfig>) -> SegmentStore {
        SegmentStore { metas: Vec::new(), spill, inner: Mutex::new(Inner::default()) }
    }

    /// Appends a sealed segment. With spill configured the columns are
    /// written out and dropped immediately; otherwise the segment stays
    /// resident. Segments must arrive in ascending snapshot order.
    pub fn push(&mut self, seg: Segment) {
        let meta = seg.meta();
        if let Some(last) = self.metas.last() {
            assert!(
                last.snapshot < meta.snapshot,
                "segments must be sealed in ascending snapshot order"
            );
        }
        let idx = self.metas.len();
        self.metas.push(meta);
        let slot = match &self.spill {
            Some(cfg) => {
                let path = cfg.dir.join(format!("segment-{idx:05}.vmpseg"));
                let bytes = spill_segment(&cfg.dir, &path, &seg);
                let metrics = StoreMetrics::get();
                metrics.segments_spilled.inc();
                metrics.spill_bytes.add(bytes);
                Slot::Spilled { path, cached: None }
            }
            None => Slot::Resident(Arc::new(seg)),
        };
        self.lock().slots.push(slot);
    }

    /// Number of sealed segments.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether spill mode is on.
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
    }

    /// Segment descriptors, ascending by snapshot.
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Loads one snapshot's segment: a clone of the resident/hot `Arc`, or
    /// a block decode (counted as a miss) that lands in the hot cache.
    pub fn get(&self, snapshot: SnapshotId) -> Option<Arc<Segment>> {
        let idx = self.metas.binary_search_by_key(&snapshot, |m| m.snapshot).ok()?;
        Some(self.load(idx))
    }

    /// Upper bound on how many segments should be decoded concurrently:
    /// unbounded for a resident store, otherwise the hot budget divided by
    /// twice the largest segment (one being scanned + one being decoded per
    /// worker), so parallel queries cannot blow past the cache budget.
    pub fn parallel_load_hint(&self) -> usize {
        let Some(cfg) = &self.spill else {
            return usize::MAX;
        };
        let max_bytes =
            self.metas.iter().map(|m| m.len() * BYTES_PER_ROW).max().unwrap_or(0);
        if max_bytes == 0 {
            return usize::MAX;
        }
        (cfg.hot_budget_bytes / (2 * max_bytes)).max(1)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn load(&self, idx: usize) -> Arc<Segment> {
        let mut inner = self.lock();
        let found = match &inner.slots[idx] {
            Slot::Resident(seg) => Found::Ready(Arc::clone(seg)),
            Slot::Spilled { cached: Some(seg), .. } => Found::Hit(Arc::clone(seg)),
            Slot::Spilled { path, .. } => Found::Decode(path.clone()),
        };
        let path = match found {
            Found::Ready(seg) => return seg,
            Found::Hit(seg) => {
                touch(&mut inner.lru, idx);
                StoreMetrics::get().hot_hits.inc();
                return seg;
            }
            Found::Decode(path) => path,
        };
        StoreMetrics::get().hot_misses.inc();
        drop(inner);
        // Decode outside the lock so concurrent queries over different
        // segments overlap their I/O.
        let seg = Arc::new(read_segment(&path));
        let mut inner = self.lock();
        let mut raced: Option<Arc<Segment>> = None;
        if let Slot::Spilled { cached, .. } = &mut inner.slots[idx] {
            match cached {
                // Another thread decoded the same block meanwhile: keep its
                // copy so everyone shares one allocation.
                Some(existing) => raced = Some(Arc::clone(existing)),
                None => *cached = Some(Arc::clone(&seg)),
            }
        }
        if let Some(existing) = raced {
            touch(&mut inner.lru, idx);
            return existing;
        }
        inner.hot_bytes += seg.heap_bytes();
        inner.lru.push(idx);
        self.evict_over_budget(&mut inner);
        seg
    }

    fn evict_over_budget(&self, inner: &mut Inner) {
        let budget = match &self.spill {
            Some(cfg) => cfg.hot_budget_bytes,
            None => return,
        };
        while inner.hot_bytes > budget && !inner.lru.is_empty() {
            let victim = inner.lru.remove(0);
            if let Slot::Spilled { cached, .. } = &mut inner.slots[victim] {
                if let Some(seg) = cached.take() {
                    // In-flight scans keep their Arc alive; the cache just
                    // stops pinning it.
                    inner.hot_bytes -= seg.heap_bytes();
                }
            }
        }
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        let Some(cfg) = &self.spill else {
            return;
        };
        let inner = self.lock();
        for slot in inner.slots.iter() {
            if let Slot::Spilled { path, .. } = slot {
                let _ = fs::remove_file(path);
            }
        }
        drop(inner);
        // Best-effort: leaves the directory alone if someone else put
        // files in it.
        let _ = fs::remove_dir(&cfg.dir);
    }
}

/// Moves `idx` to the hot end of the LRU order.
fn touch(lru: &mut Vec<usize>, idx: usize) {
    if let Some(pos) = lru.iter().position(|&i| i == idx) {
        lru.remove(pos);
        lru.push(idx);
    }
}

/// Writes one segment's block file, returning its size in bytes. The codec
/// hands the file whole column chunks, so nothing buffers in between.
fn spill_segment(dir: &Path, path: &Path, seg: &Segment) -> u64 {
    let result = fs::create_dir_all(dir)
        .and_then(|()| File::create(path))
        .and_then(|mut file| seg.write_block(&mut file));
    match result {
        Ok(bytes) => bytes,
        Err(err) => spill_io_failure("writing spill block", path, &err),
    }
}

/// Reads one segment back from its block file; the file's length frames
/// the block (see [`Segment::read_block`]).
fn read_segment(path: &Path) -> Segment {
    let result = File::open(path).and_then(|mut file| {
        let len = file.metadata()?.len();
        Segment::read_block(&mut file, len)
    });
    match result {
        Ok(seg) => seg,
        Err(err) => spill_io_failure("reading spill block", path, &err),
    }
}

/// Spill storage failing mid-run means queries can no longer see the full
/// dataset; abort loudly instead of producing silently truncated figures.
fn spill_io_failure(context: &str, path: &Path, err: &std::io::Error) -> ! {
    eprintln!(
        "vmp-analytics: unrecoverable spill I/O failure {context} ({}): {err}",
        path.display()
    );
    std::process::abort()
}
