//! Segmented columnar storage and the shared group-by kernel.
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
//! **Determinism rules.** Every figure must stay byte-identical to the
//! row-at-a-time reference in [`crate::query`], so the kernel follows two
//! rules:
//!
//! 1. *Within a segment*, accumulation runs in row order on one thread —
//!    each (key, accumulator) receives exactly the ordered sequence of
//!    additions the reference implementation produced. Dense accumulators
//!    replace `BTreeMap` entries; a `seen` bitmap reproduces the
//!    reference's key-containment semantics for zero-measure rows.
//! 2. *Across segments*, parallelism is per snapshot only
//!    ([`per_segment_map`] fans segments out over `std::thread::scope`)
//!    and results are collected in ascending snapshot order; whole-store
//!    reductions ([`group_hours_all`]) merge per-segment partials in that
//!    fixed order. No floating-point sum ever depends on thread timing.
//!
//! Filtering composes through [`PublisherMask`]: a [`SegmentSource`] with
//! a mask skips excluded rows during the scan (preserving relative row
//! order, hence bit-identical sums) instead of deep-copying and
//! re-ingesting the survivors.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::Arc;

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
        let mut mask = 0u64;
        for cdn in &r.cdns {
            // CDN ids are dense indexes by construction; anything else
            // would also be dropped by the reference's
            // `CdnName::from_dense_index` filter.
            if cdn.index() < CdnName::OBSERVED_TOTAL {
                mask |= 1u64 << cdn.index();
            }
        }
        self.cdn_mask.push(mask);
        self.rungs.push(r.available_bitrates.len() as u16);
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
    pub(crate) fn write_block<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        let n = self.publisher.len() as u64;
        w.write_all(&SPILL_MAGIC)?;
        let mut bytes = SPILL_MAGIC.len() as u64;
        for header in [self.snapshot.index() as u64, self.rows.start as u64, n] {
            w.write_all(&header.to_le_bytes())?;
            bytes += 8;
        }
        bytes += write_u32s(w, &self.publisher)?;
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
            bytes += col.len() as u64;
        }
        bytes += write_u32s(w, &self.owner)?;
        for &v in &self.cdn_mask {
            w.write_all(&v.to_le_bytes())?;
        }
        bytes += 8 * n;
        for &v in &self.rungs {
            w.write_all(&v.to_le_bytes())?;
        }
        bytes += 2 * n;
        bytes += write_u32s(w, &self.player)?;
        for col in [&self.hours, &self.weight] {
            for &v in col.iter() {
                w.write_all(&v.to_bits().to_le_bytes())?;
            }
            bytes += 8 * n;
        }
        Ok(bytes)
    }

    /// Reads one spill block back into a decoded segment.
    pub(crate) fn read_block<R: Read>(r: &mut R) -> io::Result<Segment> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != SPILL_MAGIC {
            return Err(bad_block("bad spill block magic"));
        }
        let snapshot_index = read_u64(r)?;
        let row_start = read_u64(r)? as usize;
        let n = read_u64(r)? as usize;
        let snapshot = u32::try_from(snapshot_index)
            .ok()
            .and_then(SnapshotId::new)
            .ok_or_else(|| bad_block("spill block snapshot out of range"))?;
        let mut seg = Segment::new_open(snapshot, row_start);
        seg.rows.end = row_start + n;
        seg.publisher = read_u32s(r, n)?;
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
        seg.owner = read_u32s(r, n)?;
        seg.cdn_mask = read_scalars(r, n, u64::from_le_bytes)?;
        seg.rungs = read_scalars(r, n, u16::from_le_bytes)?;
        seg.player = read_u32s(r, n)?;
        seg.hours = read_scalars(r, n, |b| f64::from_bits(u64::from_le_bytes(b)))?;
        seg.weight = read_scalars(r, n, |b| f64::from_bits(u64::from_le_bytes(b)))?;
        Ok(seg)
    }
}

/// Magic + version prefix of one spilled segment block.
const SPILL_MAGIC: [u8; 8] = *b"VMPSEG1\n";

fn bad_block(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn write_u32s<W: Write>(w: &mut W, col: &[u32]) -> io::Result<u64> {
    for &v in col {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(4 * col.len() as u64)
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32s<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u32>> {
    read_scalars(r, n, u32::from_le_bytes)
}

fn read_scalars<R: Read, T, const W: usize>(
    r: &mut R,
    n: usize,
    decode: impl Fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n);
    let mut buf = [0u8; W];
    for _ in 0..n {
        r.read_exact(&mut buf)?;
        out.push(decode(buf));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Masks and sources.
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

/// Anything the kernel can scan: the full store, or a masked view over the
/// same segments.
///
/// Scans no longer borrow segments directly: they walk [`SegmentMeta`]
/// descriptors and load each segment through the store's
/// [`SegmentStore`](crate::segstore::SegmentStore), which hands out
/// `Arc<Segment>` guards — resident ones for hot segments, decoded-on-read
/// ones for spilled segments.
pub trait SegmentSource {
    /// The backing store (row storage, segment store, dictionaries).
    fn store(&self) -> &ViewStore;

    /// Row-level exclusion mask, if any.
    fn mask(&self) -> Option<&PublisherMask>;

    /// Descriptors of segments with at least one surviving row, ascending
    /// by snapshot.
    fn live_metas(&self) -> Vec<SegmentMeta>;
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

/// Which share a per-snapshot series plots (mirrors the three §4 shapes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShareMetric {
    /// % of view-hours carried by each value.
    ViewHours,
    /// % of views carried by each value.
    Views,
    /// % of publishers supporting each value (≥ `floor` of their hours).
    Publishers {
        /// Minimum share of a publisher's view-hours for support.
        floor: f64,
    },
}

/// Dense accumulation state of one group-by pass.
#[derive(Debug)]
pub struct Rollup {
    totals: Vec<f64>,
    seen: Vec<bool>,
    grand_total: f64,
    rows: u64,
}

impl Rollup {
    fn new(cardinality: usize) -> Rollup {
        Rollup { totals: vec![0.0; cardinality], seen: vec![false; cardinality], grand_total: 0.0, rows: 0 }
    }

    /// Total measure over all scanned rows (including rows carrying no
    /// value of the dimension).
    pub fn grand_total(&self) -> f64 {
        self.grand_total
    }

    /// Rows scanned (before masking).
    pub fn rows_scanned(&self) -> u64 {
        self.rows
    }

    /// `(code, total)` for every code that appeared, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u8, f64)> + '_ {
        (0..self.totals.len()).filter(|&i| self.seen[i]).map(|i| (i as u8, self.totals[i]))
    }

    /// Folds another segment's partial in (code order — deterministic for a
    /// fixed merge sequence).
    pub fn merge(&mut self, other: &Rollup) {
        debug_assert_eq!(self.totals.len(), other.totals.len());
        for i in 0..self.totals.len() {
            self.totals[i] += other.totals[i];
            self.seen[i] |= other.seen[i];
        }
        self.grand_total += other.grand_total;
        self.rows += other.rows;
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
    r.rows = seg.len() as u64;
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

    /// Hours attributed to one code.
    pub fn code_hours(&self, code: u8) -> f64 {
        self.totals[code as usize]
    }

    /// Codes the publisher "supports": observed, with at least `floor` of
    /// its view-hours (the reference's `min_traffic_share` filter).
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
    let card = col.cardinality();
    let mut per_pub: BTreeMap<u32, PublisherAgg> = BTreeMap::new();
    let pubs = seg.publishers();
    match col {
        DimColumn::Cdn => {
            let masks = seg.cdn_masks();
            for i in 0..seg.len() {
                if !keep(mask, pubs[i]) {
                    continue;
                }
                let h = seg.weighted_hours(i);
                let e = per_pub.entry(pubs[i]).or_insert_with(|| PublisherAgg::new(card));
                e.hours += h;
                let bits = masks[i];
                let n = bits.count_ones();
                if n == 0 {
                    continue;
                }
                let split = h / n as f64;
                let mut b = bits;
                while b != 0 {
                    let c = b.trailing_zeros() as usize;
                    e.totals[c] += split;
                    e.seen[c] = true;
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
                let h = seg.weighted_hours(i);
                let e = per_pub.entry(pubs[i]).or_insert_with(|| PublisherAgg::new(card));
                e.hours += h;
                let c = lut[devices[i] as usize];
                if c != NO_CODE {
                    e.totals[c as usize] += h;
                    e.seen[c as usize] = true;
                }
            }
        }
        _ => {
            let codes = single_codes(seg, col);
            for i in 0..seg.len() {
                if !keep(mask, pubs[i]) {
                    continue;
                }
                let h = seg.weighted_hours(i);
                let e = per_pub.entry(pubs[i]).or_insert_with(|| PublisherAgg::new(card));
                e.hours += h;
                let c = codes[i];
                if c != NO_CODE {
                    e.totals[c as usize] += h;
                    e.seen[c as usize] = true;
                }
            }
        }
    }
    per_pub
}

fn decoded_map<V: Ord>(r: &Rollup, spec: DimSpec<V>, normalize: bool) -> BTreeMap<V, f64> {
    let mut out = BTreeMap::new();
    for (code, total) in r.iter() {
        if let Some(v) = (spec.decode)(code) {
            let y = if normalize && r.grand_total > 0.0 {
                100.0 * total / r.grand_total
            } else {
                total
            };
            out.insert(v, y);
        }
    }
    out
}

fn publisher_share_segment<V: Ord>(
    seg: &Segment,
    mask: Option<&PublisherMask>,
    spec: DimSpec<V>,
    floor: f64,
) -> BTreeMap<V, f64> {
    let per_pub = per_publisher_segment(seg, mask, spec.column);
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

// ---------------------------------------------------------------------------
// Snapshot-level queries.
// ---------------------------------------------------------------------------

fn segment_at<S: SegmentSource + ?Sized>(
    source: &S,
    snapshot: SnapshotId,
) -> Option<Arc<Segment>> {
    source.store().segment(snapshot)
}

/// Raw weighted view-hours per dimension value at one snapshot (the shared
/// group-by entry point).
pub fn group_hours_by<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
) -> BTreeMap<V, f64> {
    let _span = vmp_obs::span("analytics.query.rollup");
    match segment_at(source, snapshot) {
        Some(seg) => {
            let r = rollup_segment(&seg, source.mask(), spec.column, Metric::Hours);
            note_rollup(r.rows_scanned());
            decoded_map(&r, spec, false)
        }
        None => BTreeMap::new(),
    }
}

/// Percentage (0–100) of total view-hours per dimension value at one
/// snapshot — the columnar [`crate::query::vh_share_by`].
pub fn vh_share<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
) -> BTreeMap<V, f64> {
    share(source, snapshot, spec, Metric::Hours)
}

/// Percentage (0–100) of total views per dimension value at one snapshot —
/// the columnar [`crate::query::views_share_by`].
pub fn views_share<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
) -> BTreeMap<V, f64> {
    share(source, snapshot, spec, Metric::Views)
}

fn share<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
    metric: Metric,
) -> BTreeMap<V, f64> {
    let _span = vmp_obs::span("analytics.query.rollup");
    match segment_at(source, snapshot) {
        Some(seg) => {
            let r = rollup_segment(&seg, source.mask(), spec.column, metric);
            note_rollup(r.rows_scanned());
            decoded_map(&r, spec, true)
        }
        None => BTreeMap::new(),
    }
}

/// Percentage (0–100) of publishers supporting each value at one snapshot —
/// the columnar [`crate::query::publisher_share_by`].
pub fn publisher_share<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
    min_traffic_share: f64,
) -> BTreeMap<V, f64> {
    let _span = vmp_obs::span("analytics.query.per_publisher");
    match segment_at(source, snapshot) {
        Some(seg) => {
            note_rollup(seg.len() as u64);
            publisher_share_segment(&seg, source.mask(), spec, min_traffic_share)
        }
        None => BTreeMap::new(),
    }
}

/// Per-publisher supported value sets and total view-hours at one snapshot —
/// the columnar [`crate::query::per_publisher_values`].
pub fn per_publisher_values<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
    min_traffic_share: f64,
) -> BTreeMap<PublisherId, (BTreeSet<V>, f64)> {
    let _span = vmp_obs::span("analytics.query.per_publisher");
    let Some(seg) = segment_at(source, snapshot) else {
        return BTreeMap::new();
    };
    note_rollup(seg.len() as u64);
    per_publisher_segment(&seg, source.mask(), spec.column)
        .into_iter()
        .map(|(raw, agg)| {
            let values: BTreeSet<V> =
                agg.supported_codes(min_traffic_share).filter_map(spec.decode).collect();
            (PublisherId::new(raw), (values, agg.hours))
        })
        .collect()
}

/// Per-publisher share (0–100) of view-hours carried by one value (only
/// publishers with any such traffic appear, in publisher order) — the
/// columnar [`crate::query::per_publisher_value_share`], Fig 4's CDF input.
pub fn value_share<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    snapshot: SnapshotId,
    spec: DimSpec<V>,
    value: &V,
) -> Vec<f64> {
    let _span = vmp_obs::span("analytics.query.value_share");
    let Some(seg) = segment_at(source, snapshot) else {
        return Vec::new();
    };
    let Some(code) =
        (0..spec.column.cardinality() as u8).find(|c| (spec.decode)(*c).as_ref() == Some(value))
    else {
        return Vec::new();
    };
    note_rollup(seg.len() as u64);
    per_publisher_segment(&seg, source.mask(), spec.column)
        .values()
        .filter(|agg| agg.hours > 0.0 && agg.code_hours(code) > 0.0)
        .map(|agg| 100.0 * agg.code_hours(code) / agg.hours)
        .collect()
}

// ---------------------------------------------------------------------------
// Store-level (multi-snapshot) queries.
// ---------------------------------------------------------------------------

/// Runs `f` over every live segment, in parallel, returning results in
/// ascending snapshot order. `f` must be a pure function of its segment —
/// each segment is processed on exactly one thread and results are placed
/// by index, so output (floating point included) is independent of thread
/// scheduling.
///
/// Each worker loads its segment through the store (a no-op clone for hot
/// segments, a block decode for spilled ones) and releases it as soon as
/// `f` returns, so concurrency — additionally capped by the store's
/// [`parallel_load_hint`](ViewStore::parallel_load_hint) — bounds how many
/// decoded segments are resident at once.
pub fn per_segment_map<S, T, F>(source: &S, f: F) -> Vec<(SnapshotId, T)>
where
    S: SegmentSource + ?Sized,
    T: Send,
    F: Fn(&Segment) -> T + Sync,
{
    let metas = source.live_metas();
    let store = source.store();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = threads.min(metas.len()).min(store.parallel_load_hint());
    if threads <= 1 {
        return metas
            .iter()
            .filter_map(|m| store.segment(m.snapshot).map(|seg| (m.snapshot, f(&seg))))
            .collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(metas.len());
    slots.resize_with(metas.len(), || None);
    let chunk = metas.len().div_ceil(threads);
    let f = &f;
    let metas_ref = &metas;
    std::thread::scope(|scope| {
        for (ci, out) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (j, slot) in out.iter_mut().enumerate() {
                    let meta = &metas_ref[ci * chunk + j];
                    if let Some(seg) = store.segment(meta.snapshot) {
                        *slot = Some(f(&seg));
                    }
                }
            });
        }
    });
    metas
        .iter()
        .zip(slots)
        .map(|(meta, slot)| (meta.snapshot, slot.expect("worker filled its slot")))
        .collect()
}

/// Per-snapshot share maps for one dimension — the engine behind every
/// share-over-time series. Segments run in parallel; each map is computed
/// exactly as the snapshot-level query would.
pub fn share_by_snapshot<S, V>(
    source: &S,
    spec: DimSpec<V>,
    metric: ShareMetric,
) -> Vec<(SnapshotId, BTreeMap<V, f64>)>
where
    S: SegmentSource + ?Sized,
    V: Ord + Send,
{
    let _span = vmp_obs::span("analytics.query.share_series");
    let mask = source.mask();
    let out = per_segment_map(source, move |seg| match metric {
        ShareMetric::ViewHours => {
            decoded_map(&rollup_segment(seg, mask, spec.column, Metric::Hours), spec, true)
        }
        ShareMetric::Views => {
            decoded_map(&rollup_segment(seg, mask, spec.column, Metric::Views), spec, true)
        }
        ShareMetric::Publishers { floor } => publisher_share_segment(seg, mask, spec, floor),
    });
    let rows: u64 = source.live_metas().iter().map(|m| m.len() as u64).sum();
    note_rollup(rows);
    out
}

/// Whole-store weighted view-hours per dimension value: per-segment
/// partials (parallel) merged in ascending snapshot order.
pub fn group_hours_all<S: SegmentSource + ?Sized, V: Ord>(
    source: &S,
    spec: DimSpec<V>,
) -> BTreeMap<V, f64> {
    let _span = vmp_obs::span("analytics.query.rollup");
    let mask = source.mask();
    let parts = per_segment_map(source, move |seg| {
        rollup_segment(seg, mask, spec.column, Metric::Hours)
    });
    let mut total = Rollup::new(spec.column.cardinality());
    for (_, part) in &parts {
        total.merge(part);
    }
    note_rollup(total.rows_scanned());
    decoded_map(&total, spec, false)
}

/// Counter bookkeeping shared by every kernel entry point.
fn note_rollup(rows: u64) {
    vmp_obs::counter("analytics.rollups").inc();
    vmp_obs::counter("analytics.rows_scanned").add(rows);
}
