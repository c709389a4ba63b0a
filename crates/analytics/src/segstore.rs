//! Sealed-segment storage: resident at default scale, disk-spilled for
//! out-of-core runs.
//!
//! The crate-private `SegmentStore` owns every sealed [`Segment`] the
//! ingest pipeline produces. Without a [`SpillConfig`] it behaves exactly
//! like the old in-memory vector: every segment stays decoded and a load
//! is a reference-count bump, so default-scale figures see bit-identical
//! data with zero extra decode work. With spill configured, each segment is
//! serialized to its own block file the moment it seals (the decoded form
//! is dropped immediately, bounding ingest RSS to one open segment), and
//! every load decodes its block for the caller alone. The store keeps no
//! cache of decoded segments: the figure sweep reads each segment once, so
//! a cache could only hold memory (at `--scale 8` a 384 MiB one made 0
//! hits in 28 loads and set the run's peak RSS).
//!
//! The block format (`VMPSEG2`, see [`Segment::write_block`]) is the
//! segment's own compact layout — a run table of cell constants and
//! dictionary-coded columns, 18 bytes a row at the generator's dictionary
//! sizes — and lossless: `f64` values round-trip bit for bit, so a rollup
//! over a reloaded segment is byte-identical to one over the segment that
//! was spilled. A checksum over every column rejects a block with a
//! flipped bit. Each segment's descriptor carries its real decoded
//! footprint (every column's allocation), which bounds how many segments
//! parallel queries decode at once.
//!
//! Spill I/O failure (disk full, directory removed mid-run) is not a
//! recoverable analytics condition: the store prints the error and aborts
//! rather than silently serving partial data.

use std::fs::{self, File};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use vmp_core::time::SnapshotId;

use crate::columns::Segment;

/// Descriptor of one sealed segment: its snapshot, the logical row range
/// it covers in the whole ingest stream and its decoded size. Cheap to copy
/// around; queries walk metas and load the actual columns only while
/// scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// The snapshot the segment holds.
    pub snapshot: SnapshotId,
    /// Logical row range in the ingest stream (no row vector backs it;
    /// the spill block header records its start).
    pub rows: Range<usize>,
    /// Decoded heap footprint in bytes ([`Segment::heap_bytes`]).
    pub heap_bytes: usize,
}

/// Where and how sealed segments spill to disk.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the block files (created on first spill, removed
    /// when the store drops). The caller picks it — typically a
    /// process-unique temp subdirectory — so library code never consults
    /// the environment.
    pub dir: PathBuf,
    /// Budget (decoded bytes) for the segments parallel queries hold at
    /// once (see `parallel_load_hint`).
    pub hot_budget_bytes: usize,
}

impl SpillConfig {
    /// Default in-flight budget: 384 MiB of decoded columns.
    pub const DEFAULT_HOT_BUDGET: usize = 384 << 20;

    /// Spill into `dir` with the default in-flight budget.
    pub fn new(dir: PathBuf) -> SpillConfig {
        SpillConfig { dir, hot_budget_bytes: SpillConfig::DEFAULT_HOT_BUDGET }
    }
}

/// Storage state of one sealed segment.
#[derive(Debug)]
enum Slot {
    /// Decoded and owned (no spill configured).
    Resident(Arc<Segment>),
    /// Serialized to a block file, decoded again on every load.
    Spilled(PathBuf),
}

/// Registry handles resolved at the first spill, once per process (a run
/// that never spills exports no `store.*` names).
struct StoreMetrics {
    segments_spilled: vmp_obs::Counter,
    spill_bytes: vmp_obs::Counter,
    hot_misses: vmp_obs::Counter,
    segment_loads: vmp_obs::Counter,
}

impl StoreMetrics {
    fn get() -> &'static StoreMetrics {
        static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
        METRICS.get_or_init(|| StoreMetrics {
            segments_spilled: vmp_obs::counter("store.segments_spilled"),
            spill_bytes: vmp_obs::counter("store.spill_bytes"),
            hot_misses: vmp_obs::counter("store.hot_misses"),
            segment_loads: vmp_obs::counter("store.segment_loads"),
        })
    }
}

/// Sealed segments, resident or spilled to disk.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    metas: Vec<SegmentMeta>,
    spill: Option<SpillConfig>,
    slots: Vec<Slot>,
}

impl SegmentStore {
    /// Creates an empty store; `spill` enables the out-of-core mode.
    pub fn new(spill: Option<SpillConfig>) -> SegmentStore {
        SegmentStore { metas: Vec::new(), spill, slots: Vec::new() }
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
                Slot::Spilled(path)
            }
            None => Slot::Resident(Arc::new(seg)),
        };
        self.slots.push(slot);
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

    /// Loads one snapshot's segment: a clone of the resident `Arc`, or a
    /// decode of its spill block that the caller alone holds. Every load
    /// from a spilled store decodes and counts one `store.segment_loads`
    /// (and one `store.hot_misses`).
    pub fn get(&self, snapshot: SnapshotId) -> Option<Arc<Segment>> {
        let idx = self.metas.binary_search_by_key(&snapshot, |m| m.snapshot).ok()?;
        Some(match &self.slots[idx] {
            Slot::Resident(seg) => Arc::clone(seg),
            Slot::Spilled(path) => {
                let metrics = StoreMetrics::get();
                metrics.segment_loads.inc();
                metrics.hot_misses.inc();
                Arc::new(read_segment(path))
            }
        })
    }

    /// Upper bound on how many segments should be decoded concurrently:
    /// unbounded for a resident store, otherwise the in-flight budget
    /// ([`SpillConfig::hot_budget_bytes`]) divided by twice the largest
    /// segment (one being scanned + one being decoded per worker).
    pub fn parallel_load_hint(&self) -> usize {
        let Some(cfg) = &self.spill else {
            return usize::MAX;
        };
        let max_bytes = self.metas.iter().map(|m| m.heap_bytes).max().unwrap_or(0);
        if max_bytes == 0 {
            return usize::MAX;
        }
        (cfg.hot_budget_bytes / (2 * max_bytes)).max(1)
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        let Some(cfg) = &self.spill else {
            return;
        };
        for slot in &self.slots {
            if let Slot::Spilled(path) = slot {
                let _ = fs::remove_file(path);
            }
        }
        // Best-effort: leaves the directory alone if someone else put
        // files in it.
        let _ = fs::remove_dir(&cfg.dir);
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
