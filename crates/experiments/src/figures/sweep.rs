//! One sweep per store: everything the 13 scan figures (Figs 2–4, 6–14 and
//! the §4.4 summary) read from telemetry segments, gathered in a single
//! segment-major pass.
//!
//! Each figure used to walk the store on its own — about twenty passes over
//! every segment per run, each of which a spilled store decodes again. The
//! sweep visits each segment once
//! ([`per_segment_map`]: segments in parallel up to the store's
//! `parallel_load_hint`, results collected in snapshot order) and runs
//! there every kernel a scan figure calls on that segment, computing what
//! figures share only once — one per-publisher rollup per dimension serves
//! Figs 2(a), 3, 4 and the summary. Every per-segment result is the same
//! function of the same segment the figure computed on its own, so the
//! figures stay byte-identical. Nothing is pre-aggregated across segments
//! beyond Fig 14's set unions: a publisher × snapshot × code cube re-summed
//! per figure would reorder `f64` additions.
//!
//! The sweep is memoised on the store ([`ViewStore::memo`]) by the first
//! scan figure that runs; the others render from it.

use std::collections::BTreeMap;

use vmp_analytics::columns::{
    per_publisher_segment, per_segment_map, publisher_shares, rollup_segment, value_shares,
    DimSpec, Metric, PublisherAgg, PublisherMask, Segment, CDN, PLATFORM, PROTOCOL,
};
use vmp_analytics::complexity::PublisherComplexity;
use vmp_analytics::perpub::{average_counts, publisher_counts, PublisherCount};
use vmp_analytics::store::ViewStore;
use vmp_core::cdn::CdnName;
use vmp_core::ids::PublisherId;
use vmp_core::platform::Platform;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::time::SnapshotId;
use vmp_syndication::prevalence::{ReachSets, SyndicationReach};

use crate::context::ReproContext;
use crate::figures::helpers::SUPPORT_FLOOR;
use crate::figures::{fig08, fig10, fig12};
use crate::result::{Check, ExperimentResult};

/// How many of the largest publishers Fig 6(b) leaves out.
const LARGEST_EXCLUDED: usize = 3;

/// The publishers the masked series leave out. They come from the
/// dataset, not the store, so the sweep records the lists it was built
/// with and is reused only for the same lists.
#[derive(Debug, Clone, PartialEq)]
struct Exclusions {
    /// The large DASH-first publishers (Fig 2(c)).
    dash_first: Vec<PublisherId>,
    /// The largest publishers by view-hours (Fig 6(b)).
    largest: Vec<PublisherId>,
}

impl Exclusions {
    fn of(ctx: &ReproContext) -> Exclusions {
        Exclusions {
            dash_first: ctx.dash_first_publishers(),
            largest: ctx.dataset.largest_publishers(LARGEST_EXCLUDED),
        }
    }
}

/// One dimension at one snapshot.
#[derive(Debug)]
pub(crate) struct DimShares<V> {
    /// % of view-hours per value.
    pub hours: BTreeMap<V, f64>,
    /// % of publishers supporting each value.
    pub publishers: BTreeMap<V, f64>,
    /// Plain and view-hour-weighted average count of values per publisher.
    pub average_counts: Option<(f64, f64)>,
}

/// What the scan figures plot for one snapshot.
#[derive(Debug)]
pub(crate) struct SnapshotSweep {
    pub snapshot: SnapshotId,
    pub protocol: DimShares<StreamingProtocol>,
    pub platform: DimShares<Platform>,
    pub cdn: DimShares<CdnName>,
    /// % of views per platform (Fig 6(c)).
    pub platform_views: BTreeMap<Platform, f64>,
    /// % of view-hours per protocol without the DASH-first publishers
    /// (Fig 2(c)); `None` when none of the snapshot's rows survive, so the
    /// snapshot drops out of the series as it drops out of a masked store.
    pub protocol_without_dash_first: Option<BTreeMap<StreamingProtocol, f64>>,
    /// % of view-hours per platform without the largest publishers
    /// (Fig 6(b)); `None` as above.
    pub platform_without_largest: Option<BTreeMap<Platform, f64>>,
    /// Device shares within platforms (Fig 10).
    pub devices: fig10::DeviceShares,
}

/// What the scan figures read from the latest snapshot alone.
#[derive(Debug)]
pub(crate) struct LastSweep {
    /// Per-publisher protocol counts (Fig 3, summary).
    pub protocol_counts: Vec<PublisherCount>,
    /// Per-publisher platform counts (Fig 9, summary).
    pub platform_counts: Vec<PublisherCount>,
    /// Per-publisher CDN counts (Fig 12, summary).
    pub cdn_counts: Vec<PublisherCount>,
    /// Per-publisher % of view-hours via DASH, supporters only (Fig 4).
    pub dash_shares: Vec<f64>,
    /// Per-publisher % of view-hours via HLS, supporters only (Fig 4).
    pub hls_shares: Vec<f64>,
    /// View-duration quantiles per platform (Fig 8).
    pub durations: Vec<fig08::DurationRow>,
    /// (% with a VoD-only CDN, % with a live-only CDN) (§4.3, Fig 12).
    pub segregation: (f64, f64),
    /// Per-publisher complexity accumulators (Fig 13).
    pub complexity: Vec<PublisherComplexity>,
}

/// The finished sweep of one store.
#[derive(Debug)]
pub(crate) struct Sweep {
    exclusions: Exclusions,
    /// Fig 10's label groups, which its per-snapshot shares index.
    pub devices: fig10::Plan,
    /// One entry per snapshot with data, ascending.
    pub snapshots: Vec<SnapshotSweep>,
    /// `None` exactly when the store holds no data.
    pub last: Option<LastSweep>,
    /// Syndication reach over every snapshot (Fig 14).
    pub reach: SyndicationReach,
}

/// What the visit of one segment hands back.
struct SegmentPart {
    snapshot: SnapshotSweep,
    reach: ReachSets,
    last: Option<LastSweep>,
}

/// The read-only inputs of every segment visit.
struct Plan<'a> {
    last: Option<SnapshotId>,
    dash_first: PublisherMask,
    largest: PublisherMask,
    devices: &'a fig10::Plan,
}

impl Sweep {
    /// Visits every segment of `store` once.
    fn build(store: &ViewStore, exclusions: &Exclusions) -> Sweep {
        let _span = vmp_obs::span("experiments.sweep");
        let devices = fig10::Plan::new();
        let plan = Plan {
            last: store.latest_snapshot(),
            dash_first: PublisherMask::new(&exclusions.dash_first),
            largest: PublisherMask::new(&exclusions.largest),
            devices: &devices,
        };
        let mut snapshots = Vec::new();
        let mut reach = ReachSets::default();
        let mut last = None;
        for (_, part) in per_segment_map(store, |seg| visit(seg, &plan)) {
            snapshots.push(part.snapshot);
            reach.merge(part.reach);
            last = last.or(part.last);
        }
        vmp_obs::counter("analytics.rows_scanned").add(store.len() as u64);
        Sweep { exclusions: exclusions.clone(), devices, snapshots, last, reach: reach.finish() }
    }

    /// The context's sweep: the one memoised on its store, built by the
    /// first caller — or, should the store have been swept for other
    /// exclusion lists, a fresh one.
    pub fn of(ctx: &ReproContext) -> SweepRef<'_> {
        let exclusions = Exclusions::of(ctx);
        match ctx.store.memo(|store| Sweep::build(store, &exclusions)) {
            Some(sweep) if sweep.exclusions == exclusions => SweepRef::Memoised(sweep),
            _ => SweepRef::Fresh(Box::new(Sweep::build(&ctx.store, &exclusions))),
        }
    }

    /// The latest snapshot's extras. A store with no data has none: that is
    /// recorded on `result` as one failed check, so a scan figure returns
    /// it instead of panicking or passing with nothing checked.
    pub fn last_or_fail(&self, result: &mut ExperimentResult) -> Option<&LastSweep> {
        if self.last.is_none() {
            result.checks.push(Check::new(
                "store has data",
                false,
                "the telemetry store holds no snapshot",
            ));
        }
        self.last.as_ref()
    }

    /// One field of every snapshot that has it, in snapshot order.
    pub fn per_snapshot<'a, T>(
        &'a self,
        field: impl Fn(&'a SnapshotSweep) -> Option<&'a T>,
    ) -> Vec<(SnapshotId, &'a T)> {
        self.snapshots.iter().filter_map(|s| field(s).map(|t| (s.snapshot, t))).collect()
    }

    /// The latest snapshot's entry.
    pub fn latest(&self) -> Option<&SnapshotSweep> {
        self.snapshots.last()
    }
}

/// A sweep borrowed from the store's memo, or built for one caller.
#[derive(Debug)]
pub(crate) enum SweepRef<'a> {
    Memoised(&'a Sweep),
    Fresh(Box<Sweep>),
}

impl std::ops::Deref for SweepRef<'_> {
    type Target = Sweep;

    fn deref(&self) -> &Sweep {
        match self {
            SweepRef::Memoised(sweep) => sweep,
            SweepRef::Fresh(sweep) => sweep,
        }
    }
}

/// Every kernel the scan figures run on one segment.
fn visit(seg: &Segment, plan: &Plan<'_>) -> SegmentPart {
    let (protocol, protocol_pubs) = dim(seg, PROTOCOL);
    let (platform, platform_pubs) = dim(seg, PLATFORM);
    let (cdn, cdn_pubs) = dim(seg, CDN);
    let mut reach = ReachSets::default();
    reach.add_segment(seg);
    let last = (plan.last == Some(seg.snapshot())).then(|| LastSweep {
        protocol_counts: publisher_counts(&protocol_pubs, SUPPORT_FLOOR),
        platform_counts: publisher_counts(&platform_pubs, SUPPORT_FLOOR),
        cdn_counts: publisher_counts(&cdn_pubs, SUPPORT_FLOOR),
        dash_shares: value_shares(&protocol_pubs, StreamingProtocol::Dash.code()),
        hls_shares: value_shares(&protocol_pubs, StreamingProtocol::Hls.code()),
        durations: fig08::durations(seg),
        segregation: fig12::segregation(seg),
        complexity: PublisherComplexity::of_segment(seg),
    });
    let snapshot = SnapshotSweep {
        snapshot: seg.snapshot(),
        protocol,
        platform,
        cdn,
        platform_views: rollup_segment(seg, None, PLATFORM.column, Metric::Views).shares(PLATFORM),
        protocol_without_dash_first: masked_hours(seg, &plan.dash_first, PROTOCOL),
        platform_without_largest: masked_hours(seg, &plan.largest, PLATFORM),
        devices: plan.devices.visit(seg),
    };
    SegmentPart { snapshot, reach, last }
}

/// One dimension's shares and average counts, plus the per-publisher
/// rollup they came from (the latest snapshot reads it again).
fn dim<V: Ord>(seg: &Segment, spec: DimSpec<V>) -> (DimShares<V>, BTreeMap<u32, PublisherAgg>) {
    let per_pub = per_publisher_segment(seg, None, spec.column);
    let shares = DimShares {
        hours: rollup_segment(seg, None, spec.column, Metric::Hours).shares(spec),
        publishers: publisher_shares(&per_pub, spec, SUPPORT_FLOOR),
        average_counts: average_counts(&per_pub, SUPPORT_FLOOR),
    };
    (shares, per_pub)
}

/// % of view-hours per value over the rows `mask` keeps, or `None` when it
/// keeps none.
fn masked_hours<V: Ord>(
    seg: &Segment,
    mask: &PublisherMask,
    spec: DimSpec<V>,
) -> Option<BTreeMap<V, f64>> {
    seg.cells()
        .iter()
        .any(|run| !mask.excludes(run.publisher))
        .then(|| rollup_segment(seg, Some(mask), spec.column, Metric::Hours).shares(spec))
}
