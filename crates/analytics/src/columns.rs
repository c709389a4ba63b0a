//! Segmented columnar storage and the per-segment group-by kernels.
//!
//! Ingest ([`crate::store::IngestPipeline`]) reads each [`SampledView`]
//! once and keeps only the *columns* built here, which every §4–§6
//! aggregation runs over: one [`Segment`] per snapshot. A segment stores
//! each (publisher, snapshot) cell's constants once, in a run table of
//! [`CellRun`]s — publisher, Horvitz–Thompson weight and ladder rung count
//! per run of rows. Per row it keeps seven one-byte dimension codes (enum
//! dimensions as small integers), three segment-local dictionary codes
//! ([`DictColumn`]: owner, CDN-set mask, player) that stay one byte while a
//! dictionary has at most 256 entries, and the `f64` unweighted hours: 18
//! bytes a row at the generator's dictionary sizes. Manifest URLs are
//! classified once at ingest; no scan ever touches a heap `String` again.
//!
//! The read API is one sweep and the kernels it runs: [`per_segment_map`]
//! visits every segment of a store, and a kernel reduces one segment —
//! [`rollup_segment`] (shares by a dimension), [`per_publisher_segment`]
//! (per-publisher support, with [`publisher_shares`] and [`value_shares`]
//! as its reducers). Nothing aggregates across segments here; a caller that
//! wants a series collects the per-segment results in snapshot order.
//!
//! **Determinism rules.** Every figure must stay byte-identical to a
//! row-at-a-time reference (the equivalence tests keep one), so the
//! kernels follow two rules:
//!
//! 1. *Within a segment*, accumulation runs in row order on one thread —
//!    runs outside, rows inside, so each (key, accumulator) receives
//!    exactly the ordered sequence of additions the reference
//!    implementation produced. A row's weighted hours are `run.weight ×
//!    hours[i]`, the same two operands the reference multiplies. Dense
//!    accumulators replace `BTreeMap` entries; a `seen` bitmap reproduces
//!    the reference's key-containment semantics for zero-measure rows.
//! 2. *Across segments*, parallelism is per snapshot only
//!    ([`per_segment_map`] fans segments out over `std::thread::scope`)
//!    and results are collected in ascending snapshot order. No
//!    floating-point sum ever depends on thread timing.
//!
//! Filtering composes through [`PublisherMask`]: a kernel given a mask
//! skips excluded runs during the scan (preserving relative row order,
//! hence bit-identical sums) instead of deep-copying and re-ingesting the
//! survivors.
//!
//! The `Vec`-returning accessors ([`Segment::publishers`],
//! [`Segment::weights`], [`Segment::owners`], ...) expand a run table or a
//! dictionary column to one value per row. They exist for tests and
//! oracles; no kernel calls them.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::ops::Range;

use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::PublisherId;
use vmp_core::platform::{BrowserTech, Platform};
use vmp_core::protocol::StreamingProtocol;
use vmp_core::time::SnapshotId;
use vmp_core::view::{OwnershipFlag, SampledView};

use crate::segstore::SegmentMeta;
use crate::store::ViewStore;

/// Sentinel code for "this row carries no value of the dimension"
/// (unclassifiable manifest URL, non-browser device for the browser-tech
/// dimension).
pub const NO_CODE: u8 = u8::MAX;

/// Sentinel owner value for owned (non-syndicated) views.
pub const NO_OWNER: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Segments.
// ---------------------------------------------------------------------------

/// A run of consecutive rows that share one cell's constants. A run ends
/// wherever the (publisher, weight bits, rung count) triple changes, so
/// any ingest input is stored losslessly; generated telemetry has one run
/// per (publisher, snapshot) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// Raw publisher id.
    pub publisher: u32,
    /// Horvitz–Thompson sampling weight of every row in the run.
    pub weight: f64,
    /// Bitrate-ladder rung count (saturated at `u16::MAX`).
    pub rungs: u16,
    /// The run's rows, as indexes into the segment's row columns.
    pub rows: Range<usize>,
}

/// One code per row: `u8` while the dictionary has at most 256 entries,
/// `u32` past that.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Codes {
    U8(Vec<u8>),
    U32(Vec<u32>),
}

impl Codes {
    #[inline]
    fn get(&self, row: usize) -> usize {
        match self {
            Codes::U8(c) => usize::from(c[row]),
            Codes::U32(c) => c[row] as usize,
        }
    }

    /// Appends a code, widening the column the first time a code does not
    /// fit a byte (codes arrive in dictionary order, so that happens once).
    fn push(&mut self, code: u32) {
        match self {
            Codes::U8(c) => match u8::try_from(code) {
                Ok(code) => c.push(code),
                Err(_) => {
                    *self = Codes::U32(c.iter().map(|&x| u32::from(x)).collect());
                    self.push(code);
                }
            },
            Codes::U32(c) => c.push(code),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Codes::U8(c) => c.shrink_to_fit(),
            Codes::U32(c) => c.shrink_to_fit(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Codes::U8(c) => c.capacity(),
            Codes::U32(c) => c.capacity() * size_of::<u32>(),
        }
    }

    /// Whether every code is below `limit`.
    fn all_below(&self, limit: usize) -> bool {
        match self {
            Codes::U8(c) => c.iter().all(|&x| usize::from(x) < limit),
            Codes::U32(c) => c.iter().all(|&x| (x as usize) < limit),
        }
    }
}

/// The code width in bytes a dictionary of `entries` values needs.
fn code_width(entries: u64) -> u8 {
    if entries <= 0x100 {
        1
    } else {
        4
    }
}

/// A dictionary-encoded column: per-row codes into a segment-local list of
/// the distinct values, in first-appearance order.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn<T> {
    values: Vec<T>,
    codes: Codes,
}

impl<T: Copy> DictColumn<T> {
    fn new() -> DictColumn<T> {
        DictColumn { values: Vec::new(), codes: Codes::U8(Vec::new()) }
    }

    /// One row's value.
    #[inline]
    pub fn value(&self, row: usize) -> T {
        self.values[self.codes.get(row)]
    }

    /// One value per row (tests and oracles).
    fn expand(&self, rows: usize) -> Vec<T> {
        (0..rows).map(|row| self.value(row)).collect()
    }

    fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
        self.codes.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.values.capacity() * size_of::<T>() + self.codes.heap_bytes()
    }
}

/// Build-time encoder of one [`DictColumn`], dropped at seal. It keeps the
/// last value coded, since consecutive rows often repeat one. A new value is
/// looked up by a linear search of the dictionary. Dictionaries are small
/// by construction (owners ≤ publishers, masks ≤ the CDN sets in use,
/// players ≤ the store's player keys: at most 121, 27 and 67 entries in
/// the generated corpus), and that search measured cheaper per view than
/// a `BTreeMap` or an open-addressing hash; a segment with thousands of
/// distinct values would pay that many comparisons a row.
#[derive(Debug)]
struct DictEncoder<T> {
    last: Option<(T, u32)>,
}

impl<T: Copy + Eq> DictEncoder<T> {
    fn new() -> DictEncoder<T> {
        DictEncoder { last: None }
    }

    /// Appends `value`'s code to `col`, adding it to the dictionary first if
    /// it is new. Codes are assigned in first-appearance order.
    #[inline]
    fn push(&mut self, col: &mut DictColumn<T>, value: T) {
        let code = match self.last {
            Some((last, code)) if last == value => code,
            _ => {
                let values = &mut col.values;
                let index = values.iter().position(|&v| v == value).unwrap_or_else(|| {
                    values.push(value);
                    values.len() - 1
                });
                // 2³² distinct values would take 2³² rows in one segment.
                let code = u32::try_from(index).unwrap_or(u32::MAX);
                self.last = Some((value, code));
                code
            }
        };
        col.codes.push(code);
    }
}

/// One snapshot's views in columnar form. Rows appear in ingest order, so
/// scans reproduce the reference's iteration over the same views exactly.
#[derive(Debug)]
pub struct Segment {
    snapshot: SnapshotId,
    /// Logical row range in the whole ingest stream.
    rows: Range<usize>,
    /// Publisher, weight and rung count per run of rows, covering every
    /// row in order.
    cells: Vec<CellRun>,
    device: Vec<u8>,
    platform: Vec<u8>,
    protocol: Vec<u8>,
    region: Vec<u8>,
    isp: Vec<u8>,
    connection: Vec<u8>,
    class: Vec<u8>,
    /// Owner publisher for syndicated views, [`NO_OWNER`] for owned ones.
    owner: DictColumn<u32>,
    /// CDN set as a bitmask over [`CdnName::dense_index`] (0..36).
    cdn_mask: DictColumn<u64>,
    /// Store-wide player code (see `ViewStore::player_key`).
    player: DictColumn<u32>,
    /// Unweighted viewing hours.
    hours: Vec<f64>,
}

impl Segment {
    fn empty(snapshot: SnapshotId, row_start: usize) -> Segment {
        Segment {
            snapshot,
            rows: row_start..row_start,
            cells: Vec::new(),
            device: Vec::new(),
            platform: Vec::new(),
            protocol: Vec::new(),
            region: Vec::new(),
            isp: Vec::new(),
            connection: Vec::new(),
            class: Vec::new(),
            owner: DictColumn::new(),
            cdn_mask: DictColumn::new(),
            player: DictColumn::new(),
            hours: Vec::new(),
        }
    }

    /// The snapshot this segment holds.
    pub fn snapshot(&self) -> SnapshotId {
        self.snapshot
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.hours.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.hours.is_empty()
    }

    /// Logical row range in the whole ingest stream (there is no backing
    /// row store; the range only orders segments and sizes them).
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The run table: publisher, weight and rung count per run of rows.
    pub fn cells(&self) -> &[CellRun] {
        &self.cells
    }

    /// Device-model code column ([`DeviceModel::code`]).
    pub fn devices(&self) -> &[u8] {
        &self.device
    }

    /// Platform code column ([`Platform::code`]).
    pub fn platforms(&self) -> &[u8] {
        &self.platform
    }

    /// Protocol code column ([`StreamingProtocol::code`] or [`NO_CODE`]).
    pub fn protocols(&self) -> &[u8] {
        &self.protocol
    }

    /// Region code column.
    pub fn regions(&self) -> &[u8] {
        &self.region
    }

    /// ISP code column.
    pub fn isps(&self) -> &[u8] {
        &self.isp
    }

    /// Connection-type code column.
    pub fn connections(&self) -> &[u8] {
        &self.connection
    }

    /// Content-class code column ([`ContentClass::code`]).
    pub fn classes(&self) -> &[u8] {
        &self.class
    }

    /// Unweighted viewing-hours column.
    pub fn hours(&self) -> &[f64] {
        &self.hours
    }

    /// Owner column, dictionary-encoded ([`NO_OWNER`] for owned views).
    pub fn owner_column(&self) -> &DictColumn<u32> {
        &self.owner
    }

    /// CDN-set bitmask column (bit = [`CdnName::dense_index`]),
    /// dictionary-encoded.
    pub fn cdn_column(&self) -> &DictColumn<u64> {
        &self.cdn_mask
    }

    /// Store-wide player code column, dictionary-encoded.
    pub fn player_column(&self) -> &DictColumn<u32> {
        &self.player
    }

    /// Publisher raw id per row (tests and oracles).
    pub fn publishers(&self) -> Vec<u32> {
        self.expand_cells(|run| run.publisher)
    }

    /// Sampling weight per row (tests and oracles).
    pub fn weights(&self) -> Vec<f64> {
        self.expand_cells(|run| run.weight)
    }

    /// Ladder rung count per row (tests and oracles).
    pub fn rung_counts(&self) -> Vec<u16> {
        self.expand_cells(|run| run.rungs)
    }

    /// Owner per row, [`NO_OWNER`] for owned views (tests and oracles).
    pub fn owners(&self) -> Vec<u32> {
        self.owner.expand(self.len())
    }

    /// CDN-set bitmask per row (tests and oracles).
    pub fn cdn_masks(&self) -> Vec<u64> {
        self.cdn_mask.expand(self.len())
    }

    /// Store-wide player code per row (tests and oracles).
    pub fn players(&self) -> Vec<u32> {
        self.player.expand(self.len())
    }

    fn expand_cells<T: Copy>(&self, field: impl Fn(&CellRun) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for run in &self.cells {
            out.extend(std::iter::repeat_n(field(run), run.rows.len()));
        }
        out
    }

    /// The segment's descriptor (snapshot, logical row range, footprint).
    pub(crate) fn meta(&self) -> SegmentMeta {
        SegmentMeta {
            snapshot: self.snapshot,
            rows: self.rows.clone(),
            heap_bytes: self.heap_bytes(),
        }
    }

    /// Decoded heap footprint in bytes: every column's and dictionary's
    /// allocation, so cache budgets are true byte bounds.
    pub(crate) fn heap_bytes(&self) -> usize {
        let dims: usize = self.dims().iter().map(|col| col.capacity()).sum();
        self.cells.capacity() * size_of::<CellRun>()
            + dims
            + self.owner.heap_bytes()
            + self.cdn_mask.heap_bytes()
            + self.player.heap_bytes()
            + self.hours.capacity() * size_of::<f64>()
    }

    /// The seven one-byte dimension columns, in block order.
    fn dims(&self) -> [&Vec<u8>; 7] {
        [
            &self.device,
            &self.platform,
            &self.protocol,
            &self.region,
            &self.isp,
            &self.connection,
            &self.class,
        ]
    }

    fn dims_mut(&mut self) -> [&mut Vec<u8>; 7] {
        [
            &mut self.device,
            &mut self.platform,
            &mut self.protocol,
            &mut self.region,
            &mut self.isp,
            &mut self.connection,
            &mut self.class,
        ]
    }

    fn layout(&self) -> Layout {
        Layout {
            snapshot: u64::from(self.snapshot.index()),
            row_start: self.rows.start as u64,
            rows: self.len() as u64,
            runs: self.cells.len() as u64,
            owners: self.owner.values.len() as u64,
            cdn_masks: self.cdn_mask.values.len() as u64,
            players: self.player.values.len() as u64,
        }
    }

    /// Serializes the segment as one spill block (little-endian, lossless
    /// — `f64` values round-trip bit for bit, so rollups over a reloaded
    /// segment are byte-identical). Returns the block size in bytes.
    ///
    /// The block (`VMPSEG2`) is the header, the three dictionaries, the run
    /// table (publisher, rung count, weight and row count per run, column
    /// by column), the row columns (seven dimensions, three code columns,
    /// hours) and a trailing checksum. A code column is one byte a row
    /// while its dictionary has at most 256 entries and four past that, so
    /// the header's dictionary sizes fix its width.
    /// Columns cross the `Write` boundary a chunk at a time: each is
    /// converted through one bounded stack scratch (`SCRATCH_BYTES`),
    /// hashed word by word there, and handed over with one `write_all` per
    /// chunk, so the writer needs no buffering layer and the codec never
    /// holds a block-sized copy.
    pub fn write_block<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let layout = self.layout();
        let len = layout.block_len().ok_or_else(|| bad_block("segment too large for one block"))?;
        let mut out = BlockWriter { w, scratch: [0u8; SCRATCH_BYTES], sum: Checksum::default() };
        out.bytes(&layout.header())?;
        out.fixed(&self.owner.values, u32::to_le_bytes)?;
        out.fixed(&self.cdn_mask.values, u64::to_le_bytes)?;
        out.fixed(&self.player.values, u32::to_le_bytes)?;
        let runs = &self.cells;
        out.fixed(&runs.iter().map(|run| run.publisher).collect::<Vec<_>>(), u32::to_le_bytes)?;
        out.fixed(&runs.iter().map(|run| run.rungs).collect::<Vec<_>>(), u16::to_le_bytes)?;
        out.fixed(&runs.iter().map(|run| run.weight).collect::<Vec<_>>(), f64::to_le_bytes)?;
        out.fixed(
            &runs.iter().map(|run| run.rows.len() as u64).collect::<Vec<_>>(),
            u64::to_le_bytes,
        )?;
        for col in self.dims() {
            out.bytes(col)?;
        }
        out.codes(&self.owner.codes)?;
        out.codes(&self.cdn_mask.codes)?;
        out.codes(&self.player.codes)?;
        out.fixed(&self.hours, f64::to_le_bytes)?;
        out.finish()?;
        Ok(len)
    }

    /// Reads one spill block of `len` bytes (the block file's length) back
    /// into a decoded segment.
    ///
    /// Nothing read is trusted. Magic, snapshot range, the counts against
    /// `len` (checked arithmetic — a truncated block or
    /// trailing bytes fail here) and the logical row range are all
    /// verified **before** any column is allocated, so a corrupt count can
    /// neither overflow a capacity nor reserve memory the block cannot
    /// fill. Then the checksum must match (a flipped bit anywhere fails,
    /// naming the snapshot), the runs must cover the rows exactly, and
    /// every code must index its dictionary.
    pub fn read_block<R: Read>(r: &mut R, len: u64) -> io::Result<Segment> {
        let mut header = [0u8; HEADER_BYTES];
        r.read_exact(&mut header)?;
        let layout = Layout::parse(&header)?;
        let snapshot =
            u32::try_from(layout.snapshot).ok().and_then(SnapshotId::new).ok_or_else(|| {
                bad_block(format!("spill block snapshot {} out of range", layout.snapshot))
            })?;
        let s = snapshot.index();
        if layout.block_len() != Some(len) {
            return Err(bad_block(format!(
                "spill block of snapshot {s}: row count {}, {} runs and dictionaries of {}, {} \
                 and {} entries do not match its length of {len} bytes",
                layout.rows, layout.runs, layout.owners, layout.cdn_masks, layout.players
            )));
        }
        let count = |what: &str, n: u64| {
            usize::try_from(n)
                .map_err(|_| bad_block(format!("spill block of snapshot {s}: {what} {n} overflows")))
        };
        let rows = usize::try_from(layout.row_start)
            .ok()
            .zip(usize::try_from(layout.rows).ok())
            .and_then(|(start, n)| Some(start..start.checked_add(n)?))
            .ok_or_else(|| {
                bad_block(format!(
                    "spill block of snapshot {s}: row range {} + {} overflows",
                    layout.row_start, layout.rows
                ))
            })?;
        let n = rows.len();
        let mut input = BlockReader { r, scratch: [0u8; SCRATCH_BYTES], sum: Checksum::default() };
        input.sum.add(&header);
        let owner_values = input.fixed(count("owners", layout.owners)?, u32::from_le_bytes)?;
        let cdn_values = input.fixed(count("cdn masks", layout.cdn_masks)?, u64::from_le_bytes)?;
        let player_values = input.fixed(count("players", layout.players)?, u32::from_le_bytes)?;
        let runs = count("runs", layout.runs)?;
        let publishers = input.fixed(runs, u32::from_le_bytes)?;
        let rungs = input.fixed(runs, u16::from_le_bytes)?;
        let weights = input.fixed(runs, f64::from_le_bytes)?;
        let run_rows = input.fixed(runs, u64::from_le_bytes)?;
        let mut seg = Segment::empty(snapshot, rows.start);
        seg.rows = rows;
        for col in seg.dims_mut() {
            *col = input.bytes(n)?;
        }
        let owner_codes = input.codes(code_width(layout.owners), n)?;
        let cdn_codes = input.codes(code_width(layout.cdn_masks), n)?;
        let player_codes = input.codes(code_width(layout.players), n)?;
        seg.hours = input.fixed(n, f64::from_le_bytes)?;
        input.verify(s)?;

        seg.cells = Vec::with_capacity(runs);
        let mut end = 0usize;
        for (((publisher, rungs), weight), rows) in
            publishers.into_iter().zip(rungs).zip(weights).zip(run_rows)
        {
            let start = end;
            end = usize::try_from(rows)
                .ok()
                .filter(|&rows| rows > 0)
                .and_then(|rows| start.checked_add(rows))
                .filter(|&end| end <= n)
                .ok_or_else(|| {
                    bad_block(format!("spill block of snapshot {s}: run of {rows} rows at row {start}"))
                })?;
            seg.cells.push(CellRun { publisher, weight, rungs, rows: start..end });
        }
        if end != n {
            return Err(bad_block(format!(
                "spill block of snapshot {s}: runs cover {end} of {n} rows"
            )));
        }
        seg.owner = DictColumn { values: owner_values, codes: owner_codes };
        seg.cdn_mask = DictColumn { values: cdn_values, codes: cdn_codes };
        seg.player = DictColumn { values: player_values, codes: player_codes };
        for (what, values, codes) in [
            ("owner", seg.owner.values.len(), &seg.owner.codes),
            ("cdn", seg.cdn_mask.values.len(), &seg.cdn_mask.codes),
            ("player", seg.player.values.len(), &seg.player.codes),
        ] {
            if !codes.all_below(values) {
                return Err(bad_block(format!(
                    "spill block of snapshot {s}: a {what} code is past its {values}-entry dictionary"
                )));
            }
        }
        Ok(seg)
    }
}

/// Builds one [`Segment`] row by row during ingest; [`finish`](Self::finish)
/// seals it.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    seg: Segment,
    owners: DictEncoder<u32>,
    cdn_masks: DictEncoder<u64>,
    players: DictEncoder<u32>,
}

/// One row's values as ingest derives them from a view.
#[derive(Debug, Clone, Copy)]
struct Row {
    publisher: u32,
    weight: f64,
    rungs: u16,
    device: u8,
    platform: u8,
    protocol: u8,
    region: u8,
    isp: u8,
    connection: u8,
    class: u8,
    owner: u32,
    cdn_mask: u64,
    player: u32,
    hours: f64,
}

impl SegmentBuilder {
    /// Opens an empty segment (`row_start` is its first logical row in the
    /// whole ingest stream).
    pub(crate) fn new(snapshot: SnapshotId, row_start: usize) -> SegmentBuilder {
        SegmentBuilder {
            seg: Segment::empty(snapshot, row_start),
            owners: DictEncoder::new(),
            cdn_masks: DictEncoder::new(),
            players: DictEncoder::new(),
        }
    }

    /// The snapshot being built.
    pub(crate) fn snapshot(&self) -> SnapshotId {
        self.seg.snapshot
    }

    /// Appends one view's row. `protocol_code` and `player_code` are the
    /// ingest-derived codes (the player code is store-wide).
    pub(crate) fn push_row(&mut self, v: &SampledView, protocol_code: u8, player_code: u32) {
        let r = &v.record;
        self.push(Row {
            publisher: r.publisher.raw(),
            weight: v.weight,
            // A ladder is 3–14 rungs; an ingested record is not bound by that.
            rungs: u16::try_from(r.available_bitrates.len()).unwrap_or(u16::MAX),
            device: r.device.code(),
            platform: r.device.platform().code(),
            protocol: protocol_code,
            region: r.region.code(),
            isp: r.isp.code(),
            connection: r.connection.code(),
            class: r.class.code(),
            owner: match r.ownership {
                OwnershipFlag::Owned => NO_OWNER,
                OwnershipFlag::Syndicated { owner } => owner.raw(),
            },
            cdn_mask: r.cdns.bits(),
            player: player_code,
            hours: r.view_hours(),
        });
    }

    fn push(&mut self, row: Row) {
        let seg = &mut self.seg;
        let at = seg.hours.len();
        match seg.cells.last_mut() {
            Some(run)
                if run.publisher == row.publisher
                    && run.weight.to_bits() == row.weight.to_bits()
                    && run.rungs == row.rungs =>
            {
                run.rows.end = at + 1;
            }
            _ => seg.cells.push(CellRun {
                publisher: row.publisher,
                weight: row.weight,
                rungs: row.rungs,
                rows: at..at + 1,
            }),
        }
        seg.device.push(row.device);
        seg.platform.push(row.platform);
        seg.protocol.push(row.protocol);
        seg.region.push(row.region);
        seg.isp.push(row.isp);
        seg.connection.push(row.connection);
        seg.class.push(row.class);
        self.owners.push(&mut seg.owner, row.owner);
        self.cdn_masks.push(&mut seg.cdn_mask, row.cdn_mask);
        self.players.push(&mut seg.player, row.player);
        seg.hours.push(row.hours);
        seg.rows.end += 1;
    }

    /// Seals the segment: every column and dictionary is sized exactly
    /// (a retained slack capacity is resident memory), and the build-time
    /// indexes are dropped.
    pub(crate) fn finish(self) -> Segment {
        let mut seg = self.seg;
        seg.cells.shrink_to_fit();
        for col in seg.dims_mut() {
            col.shrink_to_fit();
        }
        seg.owner.shrink_to_fit();
        seg.cdn_mask.shrink_to_fit();
        seg.player.shrink_to_fit();
        seg.hours.shrink_to_fit();
        seg
    }
}

/// Magic + version prefix of one spilled segment block.
const SPILL_MAGIC: [u8; 8] = *b"VMPSEG2\n";

/// Block header: magic, then seven little-endian `u64`s (see [`Layout`]).
const HEADER_BYTES: usize = 8 + 7 * 8;

/// On-disk bytes of one run: publisher `u32`, rung count `u16`, weight
/// `f64`, row count `u64`.
const RUN_BYTES: u64 = 4 + 2 + 8 + 8;

/// On-disk bytes of a row before its codes: seven dimension bytes and the
/// `f64` hours.
const FIXED_ROW_BYTES: u64 = 7 + 8;

/// The trailing checksum.
const CHECKSUM_BYTES: u64 = 8;

/// Size of the codec's conversion scratch. Bounded on purpose: a
/// whole-block buffer per seal/load showed up as +5 MB of peak RSS on the
/// out-of-core workload, a stack scratch of this size as nothing.
const SCRATCH_BYTES: usize = 32 << 10;

/// The header words of a block, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    snapshot: u64,
    row_start: u64,
    rows: u64,
    runs: u64,
    owners: u64,
    cdn_masks: u64,
    players: u64,
}

impl Layout {

    fn header(&self) -> [u8; HEADER_BYTES] {
        let mut header = [0u8; HEADER_BYTES];
        let (magic, words) = header.split_at_mut(SPILL_MAGIC.len());
        magic.copy_from_slice(&SPILL_MAGIC);
        let values = [
            self.snapshot,
            self.row_start,
            self.rows,
            self.runs,
            self.owners,
            self.cdn_masks,
            self.players,
        ];
        for (dst, word) in words.chunks_exact_mut(8).zip(values) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        header
    }

    fn parse(header: &[u8; HEADER_BYTES]) -> io::Result<Layout> {
        let (magic, words) = header.split_at(SPILL_MAGIC.len());
        if magic != SPILL_MAGIC {
            return Err(bad_block("bad spill block magic"));
        }
        let mut w = words.chunks_exact(8).map(|b| u64::from_le_bytes(le_array(b)));
        let mut next = || w.next().unwrap_or(0);
        Ok(Layout {
            snapshot: next(),
            row_start: next(),
            rows: next(),
            runs: next(),
            owners: next(),
            cdn_masks: next(),
            players: next(),
        })
    }

    /// Exact byte length of the block, `None` on overflow.
    fn block_len(&self) -> Option<u64> {
        let codes = u64::from(code_width(self.owners))
            + u64::from(code_width(self.cdn_masks))
            + u64::from(code_width(self.players));
        [
            self.owners.checked_mul(4)?,
            self.cdn_masks.checked_mul(8)?,
            self.players.checked_mul(4)?,
            self.runs.checked_mul(RUN_BYTES)?,
            self.rows.checked_mul(FIXED_ROW_BYTES + codes)?,
        ]
        .into_iter()
        .try_fold(HEADER_BYTES as u64 + CHECKSUM_BYTES, u64::checked_add)
    }
}

fn bad_block(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `bytes` as a fixed-width array (`bytes.len()` must be `N`).
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

/// Odd multiplier of the checksum's mixing step (2⁶⁴ / φ).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// The running hash of one column: four independent lanes, each folding
/// every fourth little-endian word, so the multiplies overlap. Every step
/// is a bijection of the lane for a fixed word, so a single changed word
/// always changes the result.
#[derive(Debug)]
struct ColumnHash {
    lanes: [u64; 4],
    bytes: u64,
}

impl ColumnHash {
    fn new() -> ColumnHash {
        ColumnHash { lanes: [1, 2, 3, 4].map(|k| MIX.wrapping_mul(k)), bytes: 0 }
    }

    /// Folds in one chunk. Chunks are whole scratch loads, multiples of 32
    /// bytes except a column's last, so the hash depends on the bytes alone.
    fn update(&mut self, chunk: &[u8]) {
        let mut blocks = chunk.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = mix(*lane, u64::from_le_bytes(le_array(word)));
            }
        }
        for (lane, word) in self.lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            *lane = mix(*lane, u64::from_le_bytes(padded));
        }
        self.bytes += chunk.len() as u64;
    }
}

/// A block's checksum: every column's [`ColumnHash`], folded in order.
#[derive(Debug, Default)]
struct Checksum(u64);

impl Checksum {
    fn fold(&mut self, column: ColumnHash) {
        self.0 = column.lanes.into_iter().chain([column.bytes]).fold(self.0, mix);
    }

    /// Folds in one column held whole.
    fn add(&mut self, column: &[u8]) {
        let mut hash = ColumnHash::new();
        hash.update(column);
        self.fold(hash);
    }
}

/// The encoding half of the codec: columns out through the scratch, each
/// hashed on the way.
struct BlockWriter<'a, W> {
    w: &'a mut W,
    scratch: [u8; SCRATCH_BYTES],
    sum: Checksum,
}

impl<W: Write> BlockWriter<'_, W> {
    fn bytes(&mut self, col: &[u8]) -> io::Result<()> {
        self.sum.add(col);
        self.w.write_all(col)
    }

    /// One fixed-width column: a scratch-full of values is converted to
    /// little-endian bytes, hashed, then written with a single call.
    fn fixed<T: Copy, const N: usize>(
        &mut self,
        col: &[T],
        to_le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut hash = ColumnHash::new();
        for chunk in col.chunks(SCRATCH_BYTES / N) {
            let bytes = &mut self.scratch[..chunk.len() * N];
            for (dst, &v) in bytes.chunks_exact_mut(N).zip(chunk) {
                dst.copy_from_slice(&to_le(v));
            }
            hash.update(bytes);
            self.w.write_all(bytes)?;
        }
        self.sum.fold(hash);
        Ok(())
    }

    fn codes(&mut self, codes: &Codes) -> io::Result<()> {
        match codes {
            Codes::U8(c) => self.bytes(c),
            Codes::U32(c) => self.fixed(c, u32::to_le_bytes),
        }
    }

    fn finish(self) -> io::Result<()> {
        self.w.write_all(&self.sum.0.to_le_bytes())
    }
}

/// The decoding half of the codec. Every count it is given was checked
/// against the block length, so each capacity reserved here is what the
/// block really holds.
struct BlockReader<'a, R> {
    r: &'a mut R,
    scratch: [u8; SCRATCH_BYTES],
    sum: Checksum,
}

impl<R: Read> BlockReader<'_, R> {
    fn bytes(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut col = vec![0u8; n];
        self.r.read_exact(&mut col)?;
        self.sum.add(&col);
        Ok(col)
    }

    /// One fixed-width column of `n` values: a scratch-full of bytes per
    /// `read_exact`, hashed and converted in one pass.
    fn fixed<T, const N: usize>(&mut self, n: usize, from_le: fn([u8; N]) -> T) -> io::Result<Vec<T>> {
        let mut hash = ColumnHash::new();
        let mut col = Vec::with_capacity(n);
        while col.len() < n {
            let take = (n - col.len()).min(SCRATCH_BYTES / N);
            let bytes = &mut self.scratch[..take * N];
            self.r.read_exact(bytes)?;
            hash.update(bytes);
            col.extend(bytes.chunks_exact(N).map(|b| from_le(le_array(b))));
        }
        self.sum.fold(hash);
        Ok(col)
    }

    fn codes(&mut self, width: u8, n: usize) -> io::Result<Codes> {
        Ok(match width {
            1 => Codes::U8(self.bytes(n)?),
            _ => Codes::U32(self.fixed(n, u32::from_le_bytes)?),
        })
    }

    /// Reads the trailing checksum and compares it with the block's.
    fn verify(self, snapshot: u32) -> io::Result<()> {
        let mut stored = [0u8; 8];
        self.r.read_exact(&mut stored)?;
        let stored = u64::from_le_bytes(stored);
        if stored != self.sum.0 {
            return Err(bad_block(format!(
                "spill block of snapshot {snapshot} fails its checksum \
                 (stored {stored:#018x}, computed {:#018x})",
                self.sum.0
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Masks.
// ---------------------------------------------------------------------------

/// A bitset of excluded publishers, indexed by raw publisher id. Built once
/// per filter; row scans test membership in O(1) instead of the reference's
/// `excluded.contains(..)` linear probe per row.
#[derive(Debug, Clone, Default)]
pub struct PublisherMask {
    bits: Vec<u64>,
}

impl PublisherMask {
    /// Builds the mask from an exclusion list.
    pub fn new(excluded: &[PublisherId]) -> PublisherMask {
        let mut bits = Vec::new();
        for p in excluded {
            let word = p.index() / 64;
            if word >= bits.len() {
                bits.resize(word + 1, 0u64);
            }
            bits[word] |= 1u64 << (p.index() % 64);
        }
        PublisherMask { bits }
    }

    /// Whether a raw publisher id is excluded.
    #[inline]
    pub fn excludes(&self, raw: u32) -> bool {
        let word = (raw / 64) as usize;
        self.bits.get(word).is_some_and(|w| (w >> (raw % 64)) & 1 == 1)
    }
}

/// The runs of `seg` whose publisher `mask` keeps, in row order.
fn kept_cells<'a>(
    seg: &'a Segment,
    mask: Option<&'a PublisherMask>,
) -> impl Iterator<Item = &'a CellRun> + 'a {
    seg.cells().iter().filter(move |run| !mask.is_some_and(|m| m.excludes(run.publisher)))
}

// ---------------------------------------------------------------------------
// Dimensions.
// ---------------------------------------------------------------------------

/// Which physical column a dimension reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimColumn {
    /// Streaming protocol (ingest-classified).
    Protocol,
    /// Playback platform.
    Platform,
    /// Device model.
    Device,
    /// Browser player technology (derived from the device code).
    BrowserTech,
    /// CDN set (multi-valued; weight split equally across the set).
    Cdn,
    /// Client region.
    Region,
    /// Client ISP.
    Isp,
    /// Access connection type.
    Connection,
    /// Live vs VoD.
    Class,
}

impl DimColumn {
    /// Number of distinct codes the column can hold.
    pub const fn cardinality(self) -> usize {
        match self {
            DimColumn::Protocol => StreamingProtocol::CODE_COUNT,
            DimColumn::Platform => Platform::CODE_COUNT,
            DimColumn::Device => DeviceModel::CODE_COUNT,
            DimColumn::BrowserTech => BrowserTech::CODE_COUNT,
            DimColumn::Cdn => CdnName::OBSERVED_TOTAL,
            DimColumn::Region => Region::CODE_COUNT,
            DimColumn::Isp => Isp::CODE_COUNT,
            DimColumn::Connection => ConnectionType::CODE_COUNT,
            DimColumn::Class => ContentClass::CODE_COUNT,
        }
    }
}

/// A typed dimension: the column to scan plus the code → value decoder.
#[derive(Debug)]
pub struct DimSpec<V> {
    /// The physical column.
    pub column: DimColumn,
    /// Decodes a dictionary code back to the dimension value.
    pub decode: fn(u8) -> Option<V>,
}

impl<V> Clone for DimSpec<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for DimSpec<V> {}

/// The protocol dimension (Figs 2–4).
pub const PROTOCOL: DimSpec<StreamingProtocol> =
    DimSpec { column: DimColumn::Protocol, decode: StreamingProtocol::from_code };
/// The platform dimension (Figs 6–9).
pub const PLATFORM: DimSpec<Platform> =
    DimSpec { column: DimColumn::Platform, decode: Platform::from_code };
/// The device-model dimension (Fig 10).
pub const DEVICE: DimSpec<DeviceModel> =
    DimSpec { column: DimColumn::Device, decode: DeviceModel::from_code };
/// The browser player-technology dimension (Fig 10(a)).
pub const BROWSER_TECH: DimSpec<BrowserTech> =
    DimSpec { column: DimColumn::BrowserTech, decode: BrowserTech::from_code };
/// The CDN dimension (Figs 11–12).
pub const CDN: DimSpec<CdnName> = DimSpec { column: DimColumn::Cdn, decode: decode_cdn };
/// The region dimension (§6).
pub const REGION: DimSpec<Region> = DimSpec { column: DimColumn::Region, decode: Region::from_code };
/// The ISP dimension (§6).
pub const ISP: DimSpec<Isp> = DimSpec { column: DimColumn::Isp, decode: Isp::from_code };
/// The connection-type dimension (§6).
pub const CONNECTION: DimSpec<ConnectionType> =
    DimSpec { column: DimColumn::Connection, decode: ConnectionType::from_code };
/// The live/VoD dimension (§4.3).
pub const CLASS: DimSpec<ContentClass> =
    DimSpec { column: DimColumn::Class, decode: ContentClass::from_code };

fn decode_cdn(code: u8) -> Option<CdnName> {
    CdnName::from_dense_index(code as usize)
}

/// Browser-tech code per device code (or [`NO_CODE`]), computed once per
/// scan.
#[expect(
    clippy::cast_possible_truncation,
    reason = "device codes are below DeviceModel::CODE_COUNT, which fits a u8"
)]
fn browser_tech_lut() -> [u8; DeviceModel::CODE_COUNT] {
    let mut lut = [NO_CODE; DeviceModel::CODE_COUNT];
    for (code, slot) in lut.iter_mut().enumerate() {
        if let Some(tech) =
            DeviceModel::from_code(code as u8).and_then(|d| d.browser_tech())
        {
            *slot = tech.code();
        }
    }
    lut
}

#[expect(
    clippy::unreachable,
    reason = "callers pass only single-code columns; the match arm is a programming error"
)]
fn single_codes(seg: &Segment, col: DimColumn) -> &[u8] {
    match col {
        DimColumn::Protocol => seg.protocols(),
        DimColumn::Platform => seg.platforms(),
        DimColumn::Device => seg.devices(),
        DimColumn::Region => seg.regions(),
        DimColumn::Isp => seg.isps(),
        DimColumn::Connection => seg.connections(),
        DimColumn::Class => seg.classes(),
        DimColumn::BrowserTech | DimColumn::Cdn => {
            unreachable!("derived/multi-value columns have no single code slice")
        }
    }
}

// ---------------------------------------------------------------------------
// The rollup kernel.
// ---------------------------------------------------------------------------

/// Per-row measure a rollup aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Weighted view-hours (`weight × hours`).
    Hours,
    /// Weighted view counts (`weight`).
    Views,
}

impl Metric {
    /// One row's measure from its run's weight and its hours.
    #[inline]
    fn of(self, weight: f64, hours: f64) -> f64 {
        match self {
            Metric::Hours => weight * hours,
            Metric::Views => weight,
        }
    }
}

/// Dense accumulation state of one group-by pass.
#[derive(Debug)]
pub struct Rollup {
    totals: Vec<f64>,
    seen: Vec<bool>,
    grand_total: f64,
}

impl Rollup {
    fn new(cardinality: usize) -> Rollup {
        Rollup { totals: vec![0.0; cardinality], seen: vec![false; cardinality], grand_total: 0.0 }
    }

    /// Total measure over all scanned rows (including rows carrying no
    /// value of the dimension).
    pub fn grand_total(&self) -> f64 {
        self.grand_total
    }

    /// `(code, total)` for every code that appeared, ascending.
    #[expect(clippy::cast_possible_truncation, reason = "the table has one slot per u8 code")]
    pub fn iter(&self) -> impl Iterator<Item = (u8, f64)> + '_ {
        (0..self.totals.len()).filter(|&i| self.seen[i]).map(|i| (i as u8, self.totals[i]))
    }

    /// Percentage (0–100) of the grand total per decoded value: one
    /// snapshot's share map (raw totals when the grand total is zero).
    pub fn shares<V: Ord>(&self, spec: DimSpec<V>) -> BTreeMap<V, f64> {
        self.iter()
            .filter_map(|(code, total)| {
                let share =
                    if self.grand_total > 0.0 { 100.0 * total / self.grand_total } else { total };
                (spec.decode)(code).map(|v| (v, share))
            })
            .collect()
    }
}

/// One segment's group-by pass: row order, single thread, dense
/// accumulators — the unit every aggregate is built from.
pub fn rollup_segment(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    col: DimColumn,
    metric: Metric,
) -> Rollup {
    let mut r = Rollup::new(col.cardinality());
    let hours = seg.hours();
    match col {
        DimColumn::Cdn => {
            let masks = seg.cdn_column();
            for run in kept_cells(seg, mask) {
                for i in run.rows.clone() {
                    let m = metric.of(run.weight, hours[i]);
                    r.grand_total += m;
                    let bits = masks.value(i);
                    let n = bits.count_ones();
                    if n == 0 {
                        continue;
                    }
                    // Equal split across the CDN set — same `m / len` the
                    // reference computes for multi-valued rows.
                    let split = m / n as f64;
                    let mut b = bits;
                    while b != 0 {
                        let c = b.trailing_zeros() as usize;
                        r.totals[c] += split;
                        r.seen[c] = true;
                        b &= b - 1;
                    }
                }
            }
        }
        DimColumn::BrowserTech => {
            let lut = browser_tech_lut();
            let devices = seg.devices();
            for run in kept_cells(seg, mask) {
                for i in run.rows.clone() {
                    let m = metric.of(run.weight, hours[i]);
                    r.grand_total += m;
                    let c = lut[devices[i] as usize];
                    if c != NO_CODE {
                        r.totals[c as usize] += m;
                        r.seen[c as usize] = true;
                    }
                }
            }
        }
        _ => {
            let codes = single_codes(seg, col);
            for run in kept_cells(seg, mask) {
                for i in run.rows.clone() {
                    let m = metric.of(run.weight, hours[i]);
                    r.grand_total += m;
                    let c = codes[i];
                    if c != NO_CODE {
                        r.totals[c as usize] += m;
                        r.seen[c as usize] = true;
                    }
                }
            }
        }
    }
    r
}

/// One publisher's per-code hour totals within a segment.
#[derive(Debug)]
pub struct PublisherAgg {
    totals: Vec<f64>,
    seen: Vec<bool>,
    /// The publisher's total weighted view-hours (all rows, valued or not).
    pub hours: f64,
}

impl PublisherAgg {
    fn new(cardinality: usize) -> PublisherAgg {
        PublisherAgg { totals: vec![0.0; cardinality], seen: vec![false; cardinality], hours: 0.0 }
    }

    /// Adds one row's hours to its code (rows carrying [`NO_CODE`] count
    /// towards the publisher's hours only).
    #[inline]
    fn add_code(&mut self, code: u8, hours: f64) {
        if code != NO_CODE {
            self.totals[code as usize] += hours;
            self.seen[code as usize] = true;
        }
    }

    /// Hours attributed to one code.
    pub fn code_hours(&self, code: u8) -> f64 {
        self.totals[code as usize]
    }

    /// Codes the publisher "supports": observed, with at least `floor` of
    /// its view-hours (the reference's `min_traffic_share` filter).
    #[expect(clippy::cast_possible_truncation, reason = "the table has one slot per u8 code")]
    pub fn supported_codes(&self, floor: f64) -> impl Iterator<Item = u8> + '_ {
        (0..self.totals.len())
            .filter(move |&i| {
                self.seen[i] && self.hours > 0.0 && self.totals[i] / self.hours >= floor
            })
            .map(|i| i as u8)
    }

    /// Number of supported codes.
    pub fn supported_count(&self, floor: f64) -> usize {
        self.supported_codes(floor).count()
    }
}

/// One segment's per-publisher group-by (hours measure), keyed by raw
/// publisher id (ascending — the same order `PublisherId`'s `Ord` gives).
pub fn per_publisher_segment(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    col: DimColumn,
) -> BTreeMap<u32, PublisherAgg> {
    match col {
        DimColumn::Cdn => {
            let masks = seg.cdn_column();
            per_publisher_runs(seg, mask, col, |e, i, h| {
                let bits = masks.value(i);
                let n = bits.count_ones();
                if n == 0 {
                    return;
                }
                let split = h / n as f64;
                let mut b = bits;
                while b != 0 {
                    let c = b.trailing_zeros() as usize;
                    e.totals[c] += split;
                    e.seen[c] = true;
                    b &= b - 1;
                }
            })
        }
        DimColumn::BrowserTech => {
            let lut = browser_tech_lut();
            let devices = seg.devices();
            per_publisher_runs(seg, mask, col, |e, i, h| {
                e.add_code(lut[devices[i] as usize], h)
            })
        }
        _ => {
            let codes = single_codes(seg, col);
            per_publisher_runs(seg, mask, col, |e, i, h| e.add_code(codes[i], h))
        }
    }
}

/// The run loop behind [`per_publisher_segment`]: the mask test and the
/// map lookup happen once per [`CellRun`], then `add_row(agg, row,
/// weighted_hours)` sees the run's rows in row order. Nothing assumes
/// sortedness — a publisher that reappears in a later run re-finds its
/// entry — so every accumulator still receives exactly the ordered
/// additions of the row reference (determinism rule 1).
fn per_publisher_runs(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    col: DimColumn,
    mut add_row: impl FnMut(&mut PublisherAgg, usize, f64),
) -> BTreeMap<u32, PublisherAgg> {
    let card = col.cardinality();
    let mut per_pub: BTreeMap<u32, PublisherAgg> = BTreeMap::new();
    let hours = seg.hours();
    for run in kept_cells(seg, mask) {
        let e = per_pub.entry(run.publisher).or_insert_with(|| PublisherAgg::new(card));
        for row in run.rows.clone() {
            let h = run.weight * hours[row];
            e.hours += h;
            add_row(e, row, h);
        }
    }
    per_pub
}

/// Percentage (0–100) of publishers supporting each value (≥ `floor` of
/// their hours), from one segment's [`per_publisher_segment`] map.
pub fn publisher_shares<V: Ord>(
    per_pub: &BTreeMap<u32, PublisherAgg>,
    spec: DimSpec<V>,
    floor: f64,
) -> BTreeMap<V, f64> {
    let n = per_pub.len();
    let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
    for agg in per_pub.values() {
        for code in agg.supported_codes(floor) {
            *counts.entry(code).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter_map(|(code, c)| {
            (spec.decode)(code)
                .map(|v| (v, if n > 0 { 100.0 * c as f64 / n as f64 } else { 0.0 }))
        })
        .collect()
}

/// Per-publisher share (0–100) of view-hours carried by one code, from one
/// segment's [`per_publisher_segment`] map: only publishers with any such
/// traffic, in publisher order (Fig 4's CDF input).
pub fn value_shares(per_pub: &BTreeMap<u32, PublisherAgg>, code: u8) -> Vec<f64> {
    per_pub
        .values()
        .filter(|agg| agg.hours > 0.0 && agg.code_hours(code) > 0.0)
        .map(|agg| 100.0 * agg.code_hours(code) / agg.hours)
        .collect()
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

/// Runs `f` over every segment of `store`, in parallel, returning results
/// in ascending snapshot order. `f` must be a pure function of its segment:
/// each segment is processed on exactly one thread, and each worker hands
/// back its contiguous run of snapshots in order, so output (floating point
/// included) is independent of thread scheduling. A panic in `f` propagates
/// to the caller.
///
/// Each worker loads its segment through the store (a no-op clone for
/// resident segments, a block decode for spilled ones) and releases it as
/// soon as `f` returns, so concurrency — additionally capped by the segment
/// store's parallel-load hint — bounds how many decoded segments are
/// resident at once.
pub fn per_segment_map<T, F>(store: &ViewStore, f: F) -> Vec<(SnapshotId, T)>
where
    T: Send,
    F: Fn(&Segment) -> T + Sync,
{
    let metas = store.segstore.metas();
    let visit = |metas: &[SegmentMeta]| -> Vec<(SnapshotId, T)> {
        metas
            .iter()
            .filter_map(|m| store.segstore.get(m.snapshot).map(|seg| (m.snapshot, f(&seg))))
            .collect()
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = threads.min(metas.len()).min(store.segstore.parallel_load_hint());
    if threads <= 1 {
        return visit(metas);
    }
    let visit = &visit;
    std::thread::scope(|scope| {
        let workers: Vec<_> = metas
            .chunks(metas.len().div_ceil(threads))
            .map(|run| scope.spawn(move || visit(run)))
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The block a hand-built 3-row segment must encode to, byte for byte:
    /// the on-disk layout is a format, so drift has to fail loudly.
    #[rustfmt::skip]
    const PINNED_BLOCK: [u8; 202] = [
        // magic
        0x56, 0x4d, 0x50, 0x53, 0x45, 0x47, 0x32, 0x0a,
        // snapshot 3
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // first logical row 10
        0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // 3 rows
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // 2 runs
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // 2 owners, 2 CDN masks, 2 players in the dictionaries
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // owner dictionary (NO_OWNER, 5)
        0xff, 0xff, 0xff, 0xff, 0x05, 0x00, 0x00, 0x00,
        // CDN-mask dictionary 0x1, 0x8_0000_0001
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x08, 0x00, 0x00, 0x00,
        // player dictionary 0, 0x0a0b_0c0d
        0x00, 0x00, 0x00, 0x00, 0x0d, 0x0c, 0x0b, 0x0a,
        // run publishers 1, 0x0102_0304
        0x01, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
        // run rung counts 9, 0x0e0f
        0x09, 0x00, 0x0f, 0x0e,
        // run weights 2.0, 1e9
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
        0x65, 0xcd, 0xcd, 0x41,
        // run row counts 2, 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
        // device
        0x01, 0x02, 0x03,
        // platform
        0x04, 0x05, 0x06,
        // protocol (NO_CODE in the middle)
        0x00, 0xff, 0x01,
        // region
        0x07, 0x08, 0x09,
        // isp
        0x0a, 0x0b, 0x0c,
        // connection
        0x0d, 0x0e, 0x0f,
        // class
        0x00, 0x01, 0x00,
        // owner, CDN and player codes (one byte each: two-entry dictionaries)
        0x00, 0x01, 0x00,
        0x00, 0x01, 0x00,
        0x00, 0x01, 0x00,
        // hours 0.5, 1.0, -0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
        // checksum
        0x8f, 0xd1, 0x1c, 0x52, 0x81, 0x63, 0x45, 0x49,
    ];

    fn snapshot(index: u32) -> SnapshotId {
        SnapshotId::new(index).expect("snapshot in the study window")
    }

    /// Bytes per code of a code column.
    fn width(codes: &Codes) -> u64 {
        match codes {
            Codes::U8(_) => 1,
            Codes::U32(_) => 4,
        }
    }

    /// A row whose every field is `x`-derived, drawing owners, masks and
    /// players from `distinct` values each (codes widen past 256).
    fn row(x: u64, distinct: u64) -> Row {
        let b = x.to_le_bytes();
        let pick = |shift: u32, distinct: u64| (x.rotate_right(shift) % distinct) as u32;
        Row {
            publisher: pick(60, 3),
            weight: [1.0, 2.5, 0.0, -0.0][(x >> 58 & 3) as usize],
            rungs: [3, 14][(x >> 57 & 1) as usize],
            device: b[0],
            platform: b[1],
            protocol: b[2],
            region: b[3],
            isp: b[4],
            connection: b[5],
            class: b[6],
            owner: if x & 3 == 0 { NO_OWNER } else { pick(8, distinct) },
            cdn_mask: u64::from(pick(20, distinct)).rotate_left(17),
            player: pick(40, distinct) ^ 0x0a0b_0c0d,
            hours: (x >> 11) as f64 / 1024.0,
        }
    }

    fn build(snapshot_index: u32, row_start: usize, rows: impl IntoIterator<Item = Row>) -> Segment {
        let mut b = SegmentBuilder::new(snapshot(snapshot_index), row_start);
        for r in rows {
            b.push(r);
        }
        b.finish()
    }

    fn pinned_segment() -> Segment {
        let base = Row {
            publisher: 1,
            weight: 2.0,
            rungs: 9,
            device: 1,
            platform: 4,
            protocol: 0,
            region: 7,
            isp: 10,
            connection: 13,
            class: 0,
            owner: NO_OWNER,
            cdn_mask: 0x1,
            player: 0,
            hours: 0.5,
        };
        build(
            3,
            10,
            [
                base,
                Row {
                    device: 2,
                    platform: 5,
                    protocol: NO_CODE,
                    region: 8,
                    isp: 11,
                    connection: 14,
                    class: 1,
                    owner: 5,
                    cdn_mask: 0x8_0000_0001,
                    player: 0x0a0b_0c0d,
                    hours: 1.0,
                    ..base
                },
                Row {
                    publisher: 0x0102_0304,
                    weight: 1e9,
                    rungs: 0x0e0f,
                    device: 3,
                    platform: 6,
                    protocol: 1,
                    region: 9,
                    isp: 12,
                    connection: 15,
                    hours: -0.0,
                    ..base
                },
            ],
        )
    }

    /// `n` rows of pseudo-random values in every column, so a value landing
    /// in the wrong slot around a scratch seam is visible; runs split on
    /// weight and rung changes inside one publisher's stretch.
    fn patterned_segment(n: usize, distinct: u64) -> Segment {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let rows = (0..n).map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            row(x, distinct)
        });
        build(5, 1_000, rows.collect::<Vec<_>>())
    }

    fn encode(seg: &Segment) -> Vec<u8> {
        let mut bytes = Vec::new();
        let len = seg.write_block(&mut bytes).expect("write to memory");
        assert_eq!(len, bytes.len() as u64, "write_block reports what it wrote");
        bytes
    }

    fn decode(bytes: &[u8]) -> io::Result<Segment> {
        Segment::read_block(&mut &bytes[..], bytes.len() as u64)
    }

    fn assert_identical(a: &Segment, b: &Segment) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.cells, b.cells);
        assert_eq!(bits(&a.weights()), bits(&b.weights()));
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.cdn_mask, b.cdn_mask);
        assert_eq!(a.player, b.player);
        assert_eq!(bits(&a.hours), bits(&b.hours));
    }

    /// Every allocation of the segment is sized exactly.
    fn assert_exact(seg: &Segment) {
        assert_eq!(seg.cells.capacity(), seg.cells.len());
        for col in seg.dims() {
            assert_eq!(col.capacity(), col.len());
        }
        assert_eq!(seg.hours.capacity(), seg.hours.len());
        for codes in [&seg.owner.codes, &seg.cdn_mask.codes, &seg.player.codes] {
            let (cap, len) = match codes {
                Codes::U8(c) => (c.capacity(), c.len()),
                Codes::U32(c) => (c.capacity(), c.len()),
            };
            assert_eq!(cap, len);
        }
        assert_eq!(seg.owner.values.capacity(), seg.owner.values.len());
        assert_eq!(seg.cdn_mask.values.capacity(), seg.cdn_mask.values.len());
        assert_eq!(seg.player.values.capacity(), seg.player.values.len());
    }

    #[test]
    fn three_row_block_is_pinned_and_round_trips() {
        let seg = pinned_segment();
        assert_eq!(seg.cells().len(), 2, "publisher 1's two rows share one run");
        let bytes = encode(&seg);
        assert_eq!(bytes, PINNED_BLOCK);
        assert_identical(&decode(&bytes).expect("pinned block decodes"), &seg);
    }

    #[test]
    fn round_trips_with_every_column_width_on_a_scratch_seam() {
        let mut counts = vec![0, 1];
        for width in [1, 2, 4, 8] {
            let chunk = SCRATCH_BYTES / width;
            counts.extend([chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1]);
        }
        let mut widths = BTreeMap::new();
        for n in counts {
            for distinct in [5, 1_000] {
                let seg = patterned_segment(n, distinct);
                let bytes = encode(&seg);
                let codes =
                    width(&seg.owner.codes) + width(&seg.cdn_mask.codes) + width(&seg.player.codes);
                let fixed = HEADER_BYTES as u64
                    + CHECKSUM_BYTES
                    + RUN_BYTES * seg.cells.len() as u64
                    + 4 * seg.owner.values.len() as u64
                    + 8 * seg.cdn_mask.values.len() as u64
                    + 4 * seg.player.values.len() as u64;
                assert_eq!(bytes.len() as u64, fixed + (FIXED_ROW_BYTES + codes) * n as u64);
                let back = decode(&bytes).expect("round trip");
                assert_identical(&back, &seg);
                assert_exact(&seg);
                assert_exact(&back);
                assert_eq!(back.heap_bytes(), seg.heap_bytes());
                widths.insert(width(&seg.owner.codes), n);
            }
        }
        // One- and four-byte codes were both on the seams above.
        assert_eq!(widths.keys().copied().collect::<Vec<_>>(), [1, 4]);
    }

    #[test]
    fn a_row_costs_eighteen_bytes_at_one_byte_codes() {
        let seg = patterned_segment(10_000, 5);
        assert_eq!(width(&seg.owner.codes), 1);
        let dicts = seg.owner.values.len() * 4 + seg.cdn_mask.values.len() * 8
            + seg.player.values.len() * 4;
        let runs = seg.cells.len() * size_of::<CellRun>();
        assert_eq!(seg.heap_bytes(), 18 * seg.len() + dicts + runs);
    }

    #[test]
    fn corrupt_blocks_are_rejected_naming_the_mismatch() {
        let good = encode(&pinned_segment());
        let with_word = |index: usize, value: u64| {
            let mut bytes = good.clone();
            bytes[8 * index..8 * index + 8].copy_from_slice(&value.to_le_bytes());
            bytes
        };
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_magic = good.clone();
        bad_magic[6] = b'1';
        let mut flipped = good.clone();
        let last = flipped.len() - 20;
        flipped[last] ^= 0x10;
        let cases: [(&str, Vec<u8>, &str); 15] = [
            ("truncated by one byte", good[..good.len() - 1].to_vec(), "row count"),
            ("one trailing byte", trailing, "row count"),
            ("row count u64::MAX", with_word(3, u64::MAX), "row count"),
            ("18·n overflows", with_word(3, u64::MAX / 18 + 1), "row count"),
            ("row count far beyond the block", with_word(3, 1 << 40), "row count"),
            ("row count one short", with_word(3, 2), "row count"),
            ("run count far beyond the block", with_word(4, 1 << 40), "runs"),
            ("owner dictionary beyond the block", with_word(5, 200), "entries"),
            ("owner dictionary overflows", with_word(5, u64::MAX / 2), "entries"),
            ("bad magic", bad_magic, "magic"),
            (
                "snapshot just past the window",
                with_word(1, u64::from(vmp_core::time::STUDY_SNAPSHOTS)),
                "snapshot",
            ),
            ("snapshot beyond u32", with_word(1, 1 << 40), "snapshot"),
            ("row range overflows", with_word(2, u64::MAX - 1), "row range"),
            ("a flipped hours bit", flipped, "snapshot 3 fails its checksum"),
            ("snapshot moved", with_word(1, 4), "snapshot 4 fails its checksum"),
        ];
        for (what, bytes, names) in cases {
            let err = decode(&bytes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(names), "{what}: {err}");
        }
        // A header cut short is an I/O error, not a panic.
        assert!(decode(&good[..HEADER_BYTES - 1]).is_err());
        assert!(decode(&[]).is_err());
    }

    /// Blocks whose checksum holds but whose runs or codes do not fit the
    /// rows are still rejected: the checksum guards against flipped bits,
    /// not against a writer that was wrong.
    #[test]
    fn inconsistent_runs_and_codes_are_rejected() {
        let rejected = |what: &str, names: &str, edit: fn(&mut Segment)| {
            let mut seg = pinned_segment();
            edit(&mut seg);
            let err = decode(&encode(&seg)).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(names), "{what}: {err}");
        };
        rejected("an empty run", "run of 0 rows", |s| {
            s.cells.insert(0, CellRun { rows: 0..0, ..s.cells[0].clone() });
        });
        rejected("runs short of the rows", "runs cover 2 of 3 rows", |s| {
            s.cells.pop();
        });
        rejected("runs past the rows", "run of 2 rows", |s| s.cells[1].rows.end = 4);
        rejected("a code past its dictionary", "owner code", |s| {
            s.owner.values.pop();
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any built segment decodes back bit for bit, sized exactly.
        #[test]
        fn random_segments_round_trip(
            snapshot_index in 0u32..vmp_core::time::STUDY_SNAPSHOTS,
            row_start in 0usize..1 << 40,
            seeds in prop::collection::vec(0u64..u64::MAX, 0..600),
            wide in prop::bool::ANY,
        ) {
            let distinct = if wide { 400 } else { 5 };
            let seg = build(snapshot_index, row_start, seeds.iter().map(|&x| row(x, distinct)));
            let back = decode(&encode(&seg)).expect("round trip");
            assert_identical(&back, &seg);
            assert_exact(&back);
        }

        /// Arbitrary bytes, with or without a real header in front, are an
        /// error and never a panic.
        #[test]
        fn arbitrary_bytes_are_rejected(
            body in prop::collection::vec(0u8..=u8::MAX, 0..400),
            header_rows in 0usize..20,
        ) {
            prop_assert!(decode(&body).is_err());
            // A real header whose body is noise of exactly the right length.
            let real = encode(&patterned_segment(header_rows, 5));
            let mut forged = real[..HEADER_BYTES].to_vec();
            forged.extend(body.iter().cycle().take(real.len() - HEADER_BYTES));
            if forged != real {
                prop_assert!(decode(&forged).is_err());
            }
        }

        /// Every truncation and every single-bit flip of a real block is an
        /// error.
        #[test]
        fn truncations_and_bit_flips_are_rejected(
            seeds in prop::collection::vec(0u64..u64::MAX, 1..12),
            wide in prop::bool::ANY,
        ) {
            let good = encode(&build(7, 0, seeds.iter().map(|&x| row(x, if wide { 400 } else { 5 }))));
            for cut in 0..good.len() {
                prop_assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
            }
            for bit in 0..8 * good.len() {
                let mut bytes = good.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(decode(&bytes).is_err(), "bit {bit} flipped");
            }
        }
    }

    /// Seven snapshots out of order on input, so the workers' runs are
    /// uneven; the sweep hands them back ascending.
    fn seven_snapshot_store() -> ViewStore {
        let views = [5, 0, 6, 2, 3, 1, 4]
            .map(|s| crate::store::tests::test_view(s, s, "https://h/p/a.m3u8", 1.0, 1.0));
        ViewStore::ingest(views.to_vec())
    }

    #[test]
    fn per_segment_map_returns_snapshot_order() {
        let store = seven_snapshot_store();
        let out = per_segment_map(&store, |seg| seg.publishers().to_vec());
        let want: Vec<(SnapshotId, Vec<u32>)> = (0..7).map(|s| (snapshot(s), vec![s])).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn rung_counts_saturate_instead_of_wrapping() {
        let views = [3usize, 65_535, 65_536, 70_000].map(|rungs| {
            let mut v = crate::store::tests::test_view(0, 1, "https://h/p/a.m3u8", 1.0, 1.0);
            v.record.available_bitrates = vec![vmp_core::units::Kbps(800); rungs].into();
            v
        });
        let store = ViewStore::ingest(views.to_vec());
        let counts = per_segment_map(&store, |seg| seg.rung_counts().to_vec());
        assert_eq!(counts, vec![(snapshot(0), vec![3, u16::MAX, u16::MAX, u16::MAX])]);
    }

    /// The per-id mask loop `push_row` ran when a record held its CDNs as
    /// a `Vec<CdnId>`, kept as the oracle for the `CdnSet` mask.
    fn mask_of_ids(ids: &[vmp_core::ids::CdnId]) -> u64 {
        let mut mask = 0u64;
        for cdn in ids {
            if cdn.index() < CdnName::OBSERVED_TOTAL {
                mask |= 1u64 << cdn.index();
            }
        }
        mask
    }

    #[test]
    fn cdn_mask_column_equals_the_per_id_loop() {
        // Every name alone, those past the 36 observed included, then
        // random subsets (with repeats) of the first 45 dense indexes.
        let names: Vec<CdnName> =
            CdnName::MAJORS.into_iter().chain((0..=u8::MAX).map(CdnName::Minor)).collect();
        let mut subsets: Vec<Vec<CdnName>> = names.iter().map(|c| vec![*c]).collect();
        subsets.push(Vec::new());
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let len = (x >> 60) as usize % 7;
            subsets.push((0..len).map(|k| names[(x >> (8 * k)) as usize % 45]).collect());
        }
        let mut builder = SegmentBuilder::new(snapshot(0), 0);
        for subset in &subsets {
            let mut v = crate::store::tests::test_view(0, 1, "https://h/p/a.m3u8", 1.0, 1.0);
            v.record.cdns = subset.iter().copied().collect();
            builder.push_row(&v, 0, 0);
        }
        let seg = builder.finish();
        let expected: Vec<u64> = subsets
            .iter()
            .map(|subset| mask_of_ids(&subset.iter().map(|c| c.id()).collect::<Vec<_>>()))
            .collect();
        assert_eq!(seg.cdn_masks(), expected);
        assert!(expected.iter().filter(|m| m.count_ones() > 1).count() > 100);
        assert_eq!(width(&seg.cdn_mask.codes), 4, "more than 256 distinct masks widen");
    }

    #[test]
    #[should_panic(expected = "no segment 4")]
    fn per_segment_map_propagates_a_worker_panic() {
        let store = seven_snapshot_store();
        per_segment_map(&store, |seg| assert_ne!(seg.snapshot(), snapshot(4), "no segment 4"));
    }
}
