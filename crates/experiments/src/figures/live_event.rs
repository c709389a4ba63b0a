//! `live_event` — a flash-crowd live event graded end to end.
//!
//! A continuously-streaming live channel (sliding-window manifest,
//! media-sequence chunk keys shared by every viewer) takes a 100× join
//! storm at kickoff. The delivery plane runs the full surge-robustness
//! stack: per-edge admission control with a join-priority floor, an origin
//! shield coalescing simultaneous misses, and a shared per-CDN retry
//! budget layered over per-session backoff. Two arms replay the identical
//! population: a fault-free control, whose EWMA health baseline must
//! survive the load step without a single false alert and whose capacity
//! model must absorb the storm without shedding, and a brownout arm in
//! which CDN A browns out mid-event — the monitor must localize it with
//! precision/recall ≥ 0.9 while the budget provably bounds the retry
//! storm. Everything runs on the virtual clock and seeded RNG; a replay
//! fingerprint pins byte-identical reruns.

use crate::figures::helpers::{fnv1a, grade_alerts, scenario, AlertGrade};
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;
use vmp_cdn::budget::{BudgetConfig, RetryBudget};
use vmp_cdn::capacity::{CapacityConfig, EdgeCapacity};
use vmp_cdn::shield::OriginShield;
use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_faults::FaultProfile;
use vmp_session::cohort::CohortSpec;
use vmp_session::live::{LiveWindow, SurgeLayer};
use vmp_stats::Rng;
use vmp_synth::live::JoinStorm;

/// Viewers in the event population (trickle + storm).
const SESSIONS: usize = 1200;

/// The three CDNs the event is delivered over.
const CDNS: [CdnName; 3] = [CdnName::A, CdnName::B, CdnName::C];

/// Edge regions per CDN; sessions rotate through them.
const REGIONS: usize = 3;

/// Publishers the population is spread over.
const PUBLISHERS: u64 = 4;

/// Session-trace id namespace for this scenario (disjoint from the synth
/// pipeline's telemetry ids and the monitor scenario's namespace).
const TRACE_ID_BASE: u64 = 9_100_000_000;

/// Id stride between arms, so the replay arm doesn't alias the original.
const ARM_STRIDE: u64 = 100_000;

/// Kickoff: the join-storm peak on the virtual clock. The channel itself
/// streams from t=0, so pre-kickoff trickle viewers give the monitor a
/// healthy baseline.
const KICKOFF: Seconds = Seconds(1200.0);

/// Arrivals are sampled over this window.
const ARRIVAL_END: Seconds = Seconds(1800.0);

/// Storm peak intensity over the pre-event baseline trickle.
const PEAK_RATIO: f64 = 100.0;

/// How long each viewer watches.
const WATCH: Seconds = Seconds(120.0);

/// Mid-event brownout onset (during the storm decay, after dense
/// completions have built the detector baseline but while the crowd is
/// still thick enough to amplify retries and feed the detector).
const BROWNOUT_START: Seconds = Seconds(1380.0);

/// Brownout length.
const BROWNOUT_LEN: Seconds = Seconds(360.0);

/// Shared retry budget per CDN: burst of 150 retries, 1/s sustained.
const BUDGET: BudgetConfig = BudgetConfig { capacity: 150.0, refill_per_sec: 1.0 };

/// Per-edge capacity: 25 rps sustained over 10 s accounting buckets, with
/// 70% of a bucket open to new joins. The healthy storm peaks near
/// 15 rps/edge (absorbed); the brownout's retry amplification on CDN A
/// does not (shed).
const CAPACITY: CapacityConfig =
    CapacityConfig { per_edge_rps: 25.0, bucket: Seconds(10.0), join_headroom: 0.7 };

/// Origin-shield coalescing window (modeled origin fetch in-flight time).
const SHIELD_WINDOW: Seconds = Seconds(1.0);

/// One graded arm.
struct ArmReport {
    label: &'static str,
    /// The monitor's verdict; its fingerprint also folds the surge counters.
    health: AlertGrade,
    shed: u64,
    coalesced: u64,
    origin_fetches: u64,
    budget_granted: u64,
    budget_denied: u64,
    /// 3 × per-CDN analytic grant bound at the latest observed end clock.
    budget_bound: u64,
    /// QoE aggregates for [pre-kickoff, in-event] cohorts.
    cohorts: [CohortQoe; 2],
}

/// QoE distribution summary for one arrival cohort.
#[derive(Default, Clone, Copy)]
struct CohortQoe {
    views: usize,
    mean_bitrate: f64,
    mean_rebuffer_ratio: f64,
    mean_startup: f64,
    fatals: usize,
    join_failures: usize,
    retries: u64,
}

impl CohortQoe {
    fn describe(&self) -> String {
        format!(
            "{} views, {:.0} kbps, rebuf {:.4}, startup {:.2}s, {} fatal ({} join-fail), {} retries",
            self.views,
            self.mean_bitrate,
            self.mean_rebuffer_ratio,
            self.mean_startup,
            self.fatals,
            self.join_failures,
            self.retries
        )
    }
}

/// The shared event timeline: the channel has been live since t=0, so the
/// media sequence (and every viewer's chunk keys) advance from the start
/// of the virtual clock.
fn live_window() -> LiveWindow {
    LiveWindow::new(Seconds::ZERO, 0x11FE_E4E4)
}

/// The mid-event brownout of CDN A: throughput collapse, an edge flush at
/// onset (forcing the miss storm the shield must absorb), and a 60%
/// origin-error burst (feeding the retry storm the budget must bound).
fn brownout() -> FaultProfile {
    FaultProfile::builder()
        .degrade(CdnName::A, BROWNOUT_START, BROWNOUT_LEN, 0.25)
        .flush(CdnName::A, BROWNOUT_START)
        .origin_errors(CdnName::A, BROWNOUT_START, BROWNOUT_LEN, 0.6)
        .build()
}

/// Plays the full event population under the surge-protection stack and
/// grades the monitor's alert stream against `profile` (None = control).
fn run_arm(
    seed: u64,
    arm: u64,
    label: &'static str,
    profile: Option<&FaultProfile>,
) -> Result<ArmReport, String> {
    let mut surge = SurgeLayer {
        capacity: CDNS
            .iter()
            .filter_map(|c| EdgeCapacity::new(REGIONS, CAPACITY).ok().map(|cap| (*c, cap)))
            .collect(),
        shields: CDNS.iter().map(|c| (*c, OriginShield::new(SHIELD_WINDOW))).collect(),
    };
    let budget = RetryBudget::new(BUDGET);

    // Correlated arrivals: a 100× join storm peaking at kickoff, sampled
    // once per arm from its own deterministic stream.
    let storm = JoinStorm::new(KICKOFF, PEAK_RATIO);
    let mut arrival_rng = Rng::seed_from(seed ^ 0x11FE_A221);
    let arrivals = storm.sample_arrivals(SESSIONS, Seconds::ZERO, ARRIVAL_END, &mut arrival_rng);

    let ends = CohortSpec {
        cdns: &CDNS,
        regions: REGIONS,
        publishers: PUBLISHERS,
        // The "event" outlives every viewer; each watches WATCH from the
        // live edge at their arrival.
        content: Seconds(3600.0),
        watch: WATCH,
        live_window: Some(live_window()),
        arrivals: &arrivals,
        rng_salt: 0x11FE_5708,
        faults: profile,
        failover: false, // damage must stay attributed to the faulted CDN
        surge: Some(&mut surge),
        retry_budget: Some(&budget),
        // Scenario-private session-trace id namespace with a per-arm
        // stride (see figures/monitor).
        trace_id_base: Some(TRACE_ID_BASE + arm * ARM_STRIDE),
    }
    .run(seed)?;

    // QoE distributions by arrival cohort: pre-kickoff trickle vs in-event
    // flash crowd (the storm ramp starts 120 s before kickoff).
    let ramp_start = Seconds(KICKOFF.0 - 120.0);
    let mut cohorts = [CohortQoe::default(), CohortQoe::default()];
    for (end, start) in ends.iter().zip(arrivals.iter()) {
        let c = &mut cohorts[usize::from(start.0 >= ramp_start.0)];
        c.views += 1;
        c.mean_bitrate += end.outcome.qoe.avg_bitrate.0 as f64;
        c.mean_rebuffer_ratio += end.outcome.qoe.rebuffer_ratio();
        c.mean_startup += end.outcome.qoe.startup_delay.0;
        c.fatals += usize::from(end.is_fatal());
        c.join_failures += usize::from(end.join_failed());
        c.retries += end.outcome.retries as u64;
    }
    for c in &mut cohorts {
        if c.views > 0 {
            c.mean_bitrate /= c.views as f64;
            c.mean_rebuffer_ratio /= c.views as f64;
            c.mean_startup /= c.views as f64;
        }
    }
    let horizon = ends.iter().map(|e| e.end_clock().0).fold(0.0f64, f64::max);

    let mut health = grade_alerts(&ends, profile);
    let origin_fetches = surge.shields.values().map(|s| s.origin_fetches()).sum::<u64>();
    let counters = format!(
        "shed={} coalesced={} origin={origin_fetches} granted={} denied={}",
        surge.total_shed(),
        surge.total_coalesced(),
        budget.granted(),
        budget.denied()
    );
    health.fingerprint = fnv1a(health.fingerprint, counters.as_bytes());

    Ok(ArmReport {
        label,
        health,
        shed: surge.total_shed(),
        coalesced: surge.total_coalesced(),
        origin_fetches,
        budget_granted: budget.granted(),
        budget_denied: budget.denied(),
        budget_bound: 3 * budget.max_grants(Seconds(horizon)),
        cohorts,
    })
}

/// Runs the scenario for a master seed (`repro --seed N`).
pub fn run(seed: u64) -> ExperimentResult {
    let title = "Scenario: flash-crowd live event under admission control, origin shield, and retry budgets";
    scenario("live_event", title, |result| report(seed, result))
}

fn report(seed: u64, result: &mut ExperimentResult) -> Result<(), String> {
    let profile = brownout();
    let control = run_arm(seed, 0, "control (storm, no faults)", None)?;
    let fault = run_arm(seed, 1, "brownout(A) mid-event", Some(&profile))?;
    let replay = run_arm(seed, 2, "brownout(A) replay", Some(&profile))?;

    let mut table = Table::new(
        "Surge scorecard: 1200 viewers, 100x join storm at kickoff, failover off",
        vec![
            "arm", "alerts", "precision", "recall", "ttd", "shed", "coalesced",
            "origin fetches", "budget granted/denied", "top culprit",
        ],
    );
    for arm in [&control, &fault] {
        table.row(vec![
            arm.label.to_string(),
            arm.health.alerts.len().to_string(),
            format!("{:.3}", arm.health.precision),
            format!("{:.3}", arm.health.recall),
            arm.health.ttd.map(|d| format!("{d:.0}s")).unwrap_or_else(|| "-".to_string()),
            arm.shed.to_string(),
            arm.coalesced.to_string(),
            arm.origin_fetches.to_string(),
            format!("{}/{}", arm.budget_granted, arm.budget_denied),
            arm.health.top_culprit.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    result.tables.push(table);

    let mut qoe = Table::new(
        "QoE distributions by arrival cohort (pre-kickoff trickle vs flash crowd)",
        vec!["arm", "cohort", "summary"],
    );
    for arm in [&control, &fault] {
        for (name, c) in ["pre-kickoff", "in-event"].iter().zip(arm.cohorts.iter()) {
            qoe.row(vec![arm.label.to_string(), name.to_string(), c.describe()]);
        }
    }
    result.tables.push(qoe);

    result.checks.push(Check::new(
        "control raises zero alerts through the 100x join storm",
        control.health.alerts.is_empty(),
        format!("{} alerts in the fault-free control", control.health.alerts.len()),
    ));
    let control_fatals: usize = control.cohorts.iter().map(|c| c.fatals).sum();
    let control_join_failures: usize = control.cohorts.iter().map(|c| c.join_failures).sum();
    result.checks.push(Check::new(
        "priority floor: control shedding only ever costs new joins",
        control.shed > 0 && control_fatals == control_join_failures,
        format!(
            "{} shed at the storm peak, {} fatal sessions all join failures ({}); \
             in-progress sessions retried through it",
            control.shed, control_fatals, control_join_failures
        ),
    ));
    result.checks.push(Check::new(
        "control shedding is graceful: under 2% of the crowd turned away",
        control_join_failures * 50 < SESSIONS,
        format!("{control_join_failures} of {SESSIONS} viewers shed at join"),
    ));
    result.checks.push(Check::new(
        "control coalesces the synchronized live misses",
        control.coalesced > 0,
        format!("{} coalesced onto {} origin fetches", control.coalesced, control.origin_fetches),
    ));
    result.checks.push(Check::new(
        "brownout arm raises alerts",
        !fault.health.alerts.is_empty(),
        format!("{} alerts", fault.health.alerts.len()),
    ));
    result.checks.push(Check::new(
        "brownout precision >= 0.9",
        fault.health.precision >= 0.9,
        format!("precision {:.3} over {} alerts", fault.health.precision, fault.health.alerts.len()),
    ));
    result.checks.push(Check::new(
        "brownout recall >= 0.9",
        fault.health.recall >= 0.9,
        format!("recall {:.3}", fault.health.recall),
    ));
    result.checks.push(Check::new(
        "brownout localizes CDN A",
        fault.health.top_cell.map(|c| c.cdn()) == Some(Some(CdnName::A)),
        fault.health.top_culprit.clone().unwrap_or_else(|| "no culprit ranked".to_string()),
    ));
    result.checks.push(Check::new(
        "brownout retry pressure sheds at least as much as the storm alone",
        fault.shed >= control.shed && fault.shed > 0,
        format!("{} requests shed vs {} in control", fault.shed, control.shed),
    ));
    result.checks.push(Check::new(
        "origin shield coalesces through the brownout",
        fault.coalesced > 0,
        format!("{} coalesced onto {} origin fetches", fault.coalesced, fault.origin_fetches),
    ));
    result.checks.push(Check::new(
        "retry volume is bounded by the shared budget",
        fault.budget_granted <= fault.budget_bound && fault.budget_denied > 0,
        format!(
            "{} granted <= bound {}, {} denied (converted to immediate escalation)",
            fault.budget_granted, fault.budget_bound, fault.budget_denied
        ),
    ));
    result.checks.push(Check::new(
        "same seed replays the event bit-identically",
        fault.health.fingerprint == replay.health.fingerprint,
        format!("fingerprint {:#018x} vs {:#018x}", fault.health.fingerprint, replay.health.fingerprint),
    ));

    result.notes.push(format!(
        "channel live from t=0 with a shared media-sequence timeline; join storm \
         peaks {PEAK_RATIO:.0}x at t={}s, brownout hits CDN A over [{}s, {}s); \
         failover and health gating are off so damage stays attributed; per-edge \
         capacity {} rps with {:.0}% join headroom, shield window {}s, retry \
         budget {}+{}/s per CDN; master seed {seed:#x}",
        KICKOFF.0,
        BROWNOUT_START.0,
        BROWNOUT_START.0 + BROWNOUT_LEN.0,
        CAPACITY.per_edge_rps,
        CAPACITY.join_headroom * 100.0,
        SHIELD_WINDOW.0,
        BUDGET.capacity,
        BUDGET.refill_per_sec,
    ));
    result.notes.push(
        "the retry-budget bound is analytic: granted <= capacity + refill x horizon \
         per CDN regardless of session count or arrival order; denials convert \
         would-be retries into immediate escalation instead of hammering the \
         browning-out CDN"
            .to_string(),
    );
    Ok(())
}
