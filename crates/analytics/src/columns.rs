//! Segmented columnar storage and the per-segment group-by kernels.
//!
//! Ingest ([`crate::store::IngestPipeline`]) reads each [`SampledView`]
//! once and keeps only the *columns* built here, which every §4–§6
//! aggregation runs over: one [`Segment`] per
//! snapshot, holding dense per-row arrays of dictionary codes (enum
//! dimensions as small integers, players interned into a string
//! dictionary, CDN sets as a 36-bit mask) plus the two `f64` measures
//! (unweighted hours and sampling weight). Manifest URLs are classified
//! once at ingest; no scan ever touches a heap `String` again.
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
//!    each (key, accumulator) receives exactly the ordered sequence of
//!    additions the reference implementation produced. Dense accumulators
//!    replace `BTreeMap` entries; a `seen` bitmap reproduces the
//!    reference's key-containment semantics for zero-measure rows.
//! 2. *Across segments*, parallelism is per snapshot only
//!    ([`per_segment_map`] fans segments out over `std::thread::scope`)
//!    and results are collected in ascending snapshot order. No
//!    floating-point sum ever depends on thread timing.
//!
//! Filtering composes through [`PublisherMask`]: a kernel given a mask
//! skips excluded rows during the scan (preserving relative row order,
//! hence bit-identical sums) instead of deep-copying and re-ingesting the
//! survivors.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
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

/// Sentinel in the owner column for owned (non-syndicated) views.
pub const NO_OWNER: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Segments.
// ---------------------------------------------------------------------------

/// One snapshot's views in columnar form. Rows appear in ingest order, so
/// scans reproduce the reference's iteration over the same views exactly.
#[derive(Debug)]
pub struct Segment {
    snapshot: SnapshotId,
    /// Logical row range in the whole ingest stream.
    rows: Range<usize>,
    publisher: Vec<u32>,
    device: Vec<u8>,
    platform: Vec<u8>,
    protocol: Vec<u8>,
    region: Vec<u8>,
    isp: Vec<u8>,
    connection: Vec<u8>,
    class: Vec<u8>,
    /// Owner publisher for syndicated views, [`NO_OWNER`] for owned ones.
    owner: Vec<u32>,
    /// CDN set as a bitmask over [`CdnName::dense_index`] (0..36).
    cdn_mask: Vec<u64>,
    /// Bitrate-ladder rung count.
    rungs: Vec<u16>,
    /// Player dictionary code (see `ViewStore::player_key`).
    player: Vec<u32>,
    /// Unweighted viewing hours.
    hours: Vec<f64>,
    /// Horvitz–Thompson sampling weight.
    weight: Vec<f64>,
}

impl Segment {
    /// Opens an empty segment for incremental building (`row_start` is the
    /// segment's first logical row in the whole ingest stream).
    pub(crate) fn new_open(snapshot: SnapshotId, row_start: usize) -> Segment {
        Segment {
            snapshot,
            rows: row_start..row_start,
            publisher: Vec::new(),
            device: Vec::new(),
            platform: Vec::new(),
            protocol: Vec::new(),
            region: Vec::new(),
            isp: Vec::new(),
            connection: Vec::new(),
            class: Vec::new(),
            owner: Vec::new(),
            cdn_mask: Vec::new(),
            rungs: Vec::new(),
            player: Vec::new(),
            hours: Vec::new(),
            weight: Vec::new(),
        }
    }

    /// Appends one row's columns. `protocol_code` and `player_code` are the
    /// ingest-derived dictionary codes.
    pub(crate) fn push_row(&mut self, v: &SampledView, protocol_code: u8, player_code: u32) {
        let r = &v.record;
        self.publisher.push(r.publisher.raw());
        self.device.push(r.device.code());
        self.platform.push(r.device.platform().code());
        self.protocol.push(protocol_code);
        self.region.push(r.region.code());
        self.isp.push(r.isp.code());
        self.connection.push(r.connection.code());
        self.class.push(r.class.code());
        self.owner.push(match r.ownership {
            OwnershipFlag::Owned => NO_OWNER,
            OwnershipFlag::Syndicated { owner } => owner.raw(),
        });
        self.cdn_mask.push(r.cdns.bits());
        // A ladder is 3–14 rungs; an ingested record is not bound by that.
        self.rungs.push(u16::try_from(r.available_bitrates.len()).unwrap_or(u16::MAX));
        self.hours.push(r.view_hours());
        self.weight.push(v.weight);
        self.player.push(player_code);
        self.rows.end += 1;
    }

    /// The snapshot this segment holds.
    pub fn snapshot(&self) -> SnapshotId {
        self.snapshot
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.publisher.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.publisher.is_empty()
    }

    /// Logical row range in the whole ingest stream (there is no backing
    /// row store; the range only orders segments and sizes them).
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Publisher raw-id column.
    pub fn publishers(&self) -> &[u32] {
        &self.publisher
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

    /// Owner column ([`NO_OWNER`] for owned views).
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// CDN-set bitmask column (bit = [`CdnName::dense_index`]).
    pub fn cdn_masks(&self) -> &[u64] {
        &self.cdn_mask
    }

    /// Ladder rung-count column.
    pub fn rung_counts(&self) -> &[u16] {
        &self.rungs
    }

    /// Player dictionary-code column.
    pub fn players(&self) -> &[u32] {
        &self.player
    }

    /// Unweighted viewing-hours column.
    pub fn hours(&self) -> &[f64] {
        &self.hours
    }

    /// Sampling-weight column.
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// Weighted view-hours of one row (`weight × hours`, exactly the
    /// reference's `SampledView::weighted_hours`).
    #[inline]
    pub fn weighted_hours(&self, i: usize) -> f64 {
        self.weight[i] * self.hours[i]
    }

    /// The segment's descriptor (snapshot + logical row range).
    pub(crate) fn meta(&self) -> SegmentMeta {
        SegmentMeta { snapshot: self.snapshot, rows: self.rows.clone() }
    }

    /// Decoded heap footprint in bytes (cache-budget accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.publisher.len() * crate::segstore::BYTES_PER_ROW
    }

    /// Serializes the segment as one spill block (little-endian, lossless
    /// — `f64` columns round-trip bit for bit, so rollups over a reloaded
    /// segment are byte-identical). Returns the block size in bytes.
    ///
    /// Columns cross the `Write` boundary a chunk at a time: each is
    /// converted through one bounded stack scratch (`SCRATCH_BYTES`) and
    /// handed over with one `write_all` per chunk, so the writer needs no
    /// buffering layer and the codec never holds a block-sized copy.
    pub fn write_block<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let n = self.publisher.len() as u64;
        let len = block_len(n).ok_or_else(|| bad_block("segment too large for one block"))?;
        let mut header = [0u8; HEADER_BYTES];
        let words = [self.snapshot.index() as u64, self.rows.start as u64, n];
        header[..8].copy_from_slice(&SPILL_MAGIC);
        for (dst, word) in header[8..].chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        w.write_all(&header)?;
        let mut scratch = [0u8; SCRATCH_BYTES];
        write_column(w, &self.publisher, &mut scratch, u32::to_le_bytes)?;
        for col in [
            &self.device,
            &self.platform,
            &self.protocol,
            &self.region,
            &self.isp,
            &self.connection,
            &self.class,
        ] {
            w.write_all(col)?;
        }
        write_column(w, &self.owner, &mut scratch, u32::to_le_bytes)?;
        write_column(w, &self.cdn_mask, &mut scratch, u64::to_le_bytes)?;
        write_column(w, &self.rungs, &mut scratch, u16::to_le_bytes)?;
        write_column(w, &self.player, &mut scratch, u32::to_le_bytes)?;
        write_column(w, &self.hours, &mut scratch, f64::to_le_bytes)?;
        write_column(w, &self.weight, &mut scratch, f64::to_le_bytes)?;
        Ok(len)
    }

    /// Reads one spill block of `len` bytes (the block file's length) back
    /// into a decoded segment.
    ///
    /// The header is not trusted: magic, snapshot range, the row count
    /// against `len` (`32 + 45·n == len`, checked arithmetic — a truncated
    /// block or trailing bytes fail here) and the logical row range are all
    /// verified **before** any column is allocated, so a corrupt count can
    /// neither overflow a capacity nor reserve memory the block cannot fill.
    pub fn read_block<R: Read>(r: &mut R, len: u64) -> io::Result<Segment> {
        let mut header = [0u8; HEADER_BYTES];
        r.read_exact(&mut header)?;
        if header[..8] != SPILL_MAGIC {
            return Err(bad_block("bad spill block magic"));
        }
        let word = |i: usize| u64::from_le_bytes(le_array(&header[8 * i..8 * i + 8]));
        let (snapshot_index, row_start, n) = (word(1), word(2), word(3));
        let snapshot =
            u32::try_from(snapshot_index).ok().and_then(SnapshotId::new).ok_or_else(|| {
                bad_block(format!("spill block snapshot {snapshot_index} out of range"))
            })?;
        if block_len(n) != Some(len) {
            return Err(bad_block(format!(
                "spill block row count {n} does not match its length of {len} bytes"
            )));
        }
        let rows = usize::try_from(row_start)
            .ok()
            .zip(usize::try_from(n).ok())
            .and_then(|(start, n)| Some(start..start.checked_add(n)?))
            .ok_or_else(|| {
                bad_block(format!("spill block row range {row_start} + {n} overflows"))
            })?;
        let n = rows.len();
        let mut seg = Segment::new_open(snapshot, rows.start);
        seg.rows = rows;
        let mut scratch = [0u8; SCRATCH_BYTES];
        seg.publisher = read_column(r, n, &mut scratch, u32::from_le_bytes)?;
        for col in [
            &mut seg.device,
            &mut seg.platform,
            &mut seg.protocol,
            &mut seg.region,
            &mut seg.isp,
            &mut seg.connection,
            &mut seg.class,
        ] {
            let mut buf = vec![0u8; n];
            r.read_exact(&mut buf)?;
            *col = buf;
        }
        seg.owner = read_column(r, n, &mut scratch, u32::from_le_bytes)?;
        seg.cdn_mask = read_column(r, n, &mut scratch, u64::from_le_bytes)?;
        seg.rungs = read_column(r, n, &mut scratch, u16::from_le_bytes)?;
        seg.player = read_column(r, n, &mut scratch, u32::from_le_bytes)?;
        seg.hours = read_column(r, n, &mut scratch, f64::from_le_bytes)?;
        seg.weight = read_column(r, n, &mut scratch, f64::from_le_bytes)?;
        Ok(seg)
    }
}

/// Magic + version prefix of one spilled segment block.
const SPILL_MAGIC: [u8; 8] = *b"VMPSEG1\n";

/// Block header: magic, then snapshot index, first logical row and row
/// count as little-endian `u64`s.
const HEADER_BYTES: usize = 32;

/// Size of the codec's conversion scratch. Bounded on purpose: a
/// whole-block buffer per seal/load showed up as +5 MB of peak RSS on the
/// out-of-core workload, a stack scratch of this size as nothing.
const SCRATCH_BYTES: usize = 32 << 10;

/// Exact byte length of a block holding `rows` rows, `None` on overflow.
fn block_len(rows: u64) -> Option<u64> {
    rows.checked_mul(crate::segstore::BYTES_PER_ROW as u64)?.checked_add(HEADER_BYTES as u64)
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

/// Writes one fixed-width column: a scratch-full of values is converted to
/// little-endian bytes, then written with a single call.
fn write_column<W: Write, T: Copy, const N: usize>(
    w: &mut W,
    col: &[T],
    scratch: &mut [u8; SCRATCH_BYTES],
    to_le: fn(T) -> [u8; N],
) -> io::Result<()> {
    for chunk in col.chunks(SCRATCH_BYTES / N) {
        let bytes = &mut scratch[..chunk.len() * N];
        for (dst, &v) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&to_le(v));
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Reads one fixed-width column of `n` values: a scratch-full of bytes per
/// `read_exact`, converted in one pass. `n` was checked against the block
/// length, so the capacity reserved here is what the block really holds.
fn read_column<R: Read, T, const N: usize>(
    r: &mut R,
    n: usize,
    scratch: &mut [u8; SCRATCH_BYTES],
    from_le: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let take = (n - out.len()).min(SCRATCH_BYTES / N);
        let bytes = &mut scratch[..take * N];
        r.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(N).map(|b| from_le(le_array(b))));
    }
    Ok(out)
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

#[inline]
fn keep(mask: Option<&PublisherMask>, raw: u32) -> bool {
    !mask.is_some_and(|m| m.excludes(raw))
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
    let pubs = seg.publishers();
    macro_rules! measure {
        ($i:expr) => {
            match metric {
                Metric::Hours => seg.weighted_hours($i),
                Metric::Views => seg.weights()[$i],
            }
        };
    }
    match col {
        DimColumn::Cdn => {
            let masks = seg.cdn_masks();
            for i in 0..seg.len() {
                if !keep(mask, pubs[i]) {
                    continue;
                }
                let m = measure!(i);
                r.grand_total += m;
                let bits = masks[i];
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
        DimColumn::BrowserTech => {
            let lut = browser_tech_lut();
            let devices = seg.devices();
            for i in 0..seg.len() {
                if !keep(mask, pubs[i]) {
                    continue;
                }
                let m = measure!(i);
                r.grand_total += m;
                let c = lut[devices[i] as usize];
                if c != NO_CODE {
                    r.totals[c as usize] += m;
                    r.seen[c as usize] = true;
                }
            }
        }
        _ => {
            let codes = single_codes(seg, col);
            for i in 0..seg.len() {
                if !keep(mask, pubs[i]) {
                    continue;
                }
                let m = measure!(i);
                r.grand_total += m;
                let c = codes[i];
                if c != NO_CODE {
                    r.totals[c as usize] += m;
                    r.seen[c as usize] = true;
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
            let masks = seg.cdn_masks();
            per_publisher_runs(seg, mask, col, |e, i, h| {
                let bits = masks[i];
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

/// The run-length loop behind [`per_publisher_segment`]. Delivery is
/// publisher-ascending inside a snapshot, so one publisher's rows arrive in
/// runs of hundreds: the mask test and the map lookup happen once per run
/// `[i, j)`, then `add_row(agg, row, weighted_hours)` sees the run's rows in
/// row order. Nothing assumes sortedness — a publisher that reappears later
/// re-finds its entry — so every accumulator still receives exactly the
/// ordered additions of the row reference (determinism rule 1).
fn per_publisher_runs(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    col: DimColumn,
    mut add_row: impl FnMut(&mut PublisherAgg, usize, f64),
) -> BTreeMap<u32, PublisherAgg> {
    let card = col.cardinality();
    let mut per_pub: BTreeMap<u32, PublisherAgg> = BTreeMap::new();
    let pubs = seg.publishers();
    let mut i = 0;
    while i < pubs.len() {
        let publisher = pubs[i];
        let j = i + pubs[i..].iter().take_while(|&&p| p == publisher).count();
        if keep(mask, publisher) {
            let e = per_pub.entry(publisher).or_insert_with(|| PublisherAgg::new(card));
            for row in i..j {
                let h = seg.weighted_hours(row);
                e.hours += h;
                add_row(e, row, h);
            }
        }
        i = j;
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
/// Each worker loads its segment through the store (a no-op clone for hot
/// segments, a block decode for spilled ones) and releases it as soon as
/// `f` returns, so concurrency — additionally capped by the segment
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
            .filter_map(|m| store.segment(m.snapshot).map(|seg| (m.snapshot, f(&seg))))
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

    /// The block a hand-built 3-row segment must encode to, byte for byte:
    /// the on-disk layout is a format, so drift has to fail loudly.
    #[rustfmt::skip]
    const PINNED_BLOCK: [u8; 167] = [
        // magic
        0x56, 0x4d, 0x50, 0x53, 0x45, 0x47, 0x31, 0x0a,
        // snapshot 3
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // first logical row 10
        0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // 3 rows
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // publisher
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
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
        // owner (NO_OWNER, 5, NO_OWNER)
        0xff, 0xff, 0xff, 0xff, 0x05, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
        // cdn_mask 0x1, 0x8_0000_0001, 0
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // rungs 2, 9, 0x0e0f
        0x02, 0x00, 0x09, 0x00, 0x0f, 0x0e,
        // player
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0d, 0x0c, 0x0b, 0x0a,
        // hours 0.5, 1.0, -0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
        // weight 2.0, 0.125, 1e9
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x65, 0xcd, 0xcd, 0x41,
    ];

    fn snapshot(index: u32) -> SnapshotId {
        SnapshotId::new(index).expect("snapshot in the study window")
    }

    fn pinned_segment() -> Segment {
        Segment {
            snapshot: snapshot(3),
            rows: 10..13,
            publisher: vec![1, 2, 0x0102_0304],
            device: vec![1, 2, 3],
            platform: vec![4, 5, 6],
            protocol: vec![0, NO_CODE, 1],
            region: vec![7, 8, 9],
            isp: vec![10, 11, 12],
            connection: vec![13, 14, 15],
            class: vec![0, 1, 0],
            owner: vec![NO_OWNER, 5, NO_OWNER],
            cdn_mask: vec![0x1, 0x8_0000_0001, 0],
            rungs: vec![2, 9, 0x0e0f],
            player: vec![0, 1, 0x0a0b_0c0d],
            hours: vec![0.5, 1.0, -0.0],
            weight: vec![2.0, 0.125, 1e9],
        }
    }

    /// `n` rows of distinct pseudo-random values in every column, so a
    /// value landing in the wrong slot around a scratch seam is visible.
    fn patterned_segment(n: usize) -> Segment {
        let mut seg = Segment::new_open(snapshot(5), 1_000);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let b = x.to_le_bytes();
            seg.publisher.push((x >> 32) as u32);
            seg.device.push(b[0]);
            seg.platform.push(b[1]);
            seg.protocol.push(b[2]);
            seg.region.push(b[3]);
            seg.isp.push(b[4]);
            seg.connection.push(b[5]);
            seg.class.push(b[6]);
            seg.owner.push((x >> 7) as u32);
            seg.cdn_mask.push(x.rotate_left(17));
            seg.rungs.push((x >> 48) as u16);
            seg.player.push((x >> 13) as u32);
            seg.hours.push((x >> 11) as f64 / 1024.0);
            seg.weight.push(-((x >> 40) as f64) / 3.0);
        }
        seg.rows.end = 1_000 + n;
        seg
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
        assert_eq!(a.snapshot, b.snapshot);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.publisher, b.publisher);
        assert_eq!(a.device, b.device);
        assert_eq!(a.platform, b.platform);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.region, b.region);
        assert_eq!(a.isp, b.isp);
        assert_eq!(a.connection, b.connection);
        assert_eq!(a.class, b.class);
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.cdn_mask, b.cdn_mask);
        assert_eq!(a.rungs, b.rungs);
        assert_eq!(a.player, b.player);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.hours), bits(&b.hours));
        assert_eq!(bits(&a.weight), bits(&b.weight));
    }

    #[test]
    fn three_row_block_is_pinned_and_round_trips() {
        let seg = pinned_segment();
        let bytes = encode(&seg);
        assert_eq!(bytes, PINNED_BLOCK);
        assert_identical(&decode(&bytes).expect("pinned block decodes"), &seg);
    }

    #[test]
    fn round_trips_with_every_column_width_on_a_scratch_seam() {
        let mut counts = vec![0, 1];
        for width in [2, 4, 8] {
            let chunk = SCRATCH_BYTES / width;
            counts.extend([chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1]);
        }
        for n in counts {
            let seg = patterned_segment(n);
            let bytes = encode(&seg);
            assert_eq!(bytes.len(), HEADER_BYTES + crate::segstore::BYTES_PER_ROW * n, "n = {n}");
            assert_identical(&decode(&bytes).expect("round trip"), &seg);
        }
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
        bad_magic[6] = b'2';
        let cases: [(&str, Vec<u8>, &str); 10] = [
            ("truncated by one byte", good[..good.len() - 1].to_vec(), "row count"),
            ("one trailing byte", trailing, "row count"),
            ("row count u64::MAX", with_word(3, u64::MAX), "row count"),
            ("45·n overflows", with_word(3, u64::MAX / 45 + 1), "row count"),
            ("row count far beyond the block", with_word(3, 1 << 40), "row count"),
            ("row count one short", with_word(3, 2), "row count"),
            ("bad magic", bad_magic, "magic"),
            (
                "snapshot just past the window",
                with_word(1, u64::from(vmp_core::time::STUDY_SNAPSHOTS)),
                "snapshot",
            ),
            ("snapshot beyond u32", with_word(1, 1 << 40), "snapshot"),
            ("row range overflows", with_word(2, u64::MAX - 1), "row range"),
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
        let mut seg = Segment::new_open(snapshot(0), 0);
        for subset in &subsets {
            let mut v = crate::store::tests::test_view(0, 1, "https://h/p/a.m3u8", 1.0, 1.0);
            v.record.cdns = subset.iter().copied().collect();
            seg.push_row(&v, 0, 0);
        }
        let expected: Vec<u64> = subsets
            .iter()
            .map(|subset| mask_of_ids(&subset.iter().map(|c| c.id()).collect::<Vec<_>>()))
            .collect();
        assert_eq!(seg.cdn_masks(), expected);
        assert!(expected.iter().filter(|m| m.count_ones() > 1).count() > 100);
    }

    #[test]
    #[should_panic(expected = "no segment 4")]
    fn per_segment_map_propagates_a_worker_panic() {
        let store = seven_snapshot_store();
        per_segment_map(&store, |seg| assert_ne!(seg.snapshot(), snapshot(4), "no segment 4"));
    }
}
