//! `monitor` — the streaming health plane graded against fault ground truth.
//!
//! Every preset fault plan is replayed against a three-CDN population with
//! failover *disabled*, so damage lands on (and stays attributed to) the
//! faulted CDN. Completions stream into a [`HealthMonitor`] the moment they
//! finish — sorted only by fault-clock end time, as a real collector would
//! see them — and the alert stream is scored against the injected plan
//! itself: precision, recall, and time-to-detect, with the ranked culprit
//! list checked against the CDN (or (CDN, region) pair) that actually
//! misbehaved. A fault-free control must stay perfectly silent, and the
//! whole pipeline is seed-deterministic, which a replay fingerprint pins.

use std::collections::BTreeMap;

use crate::figures::helpers::{fnv1a, scenario_setup, setup_failed, ScenarioSetup};
use crate::result::{Check, ExperimentResult};
use vmp_abr::algorithm::ThroughputRule;
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_analytics::report::Table;
use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_cdn::edge::EdgeCluster;
use vmp_cdn::routing::Router;
use vmp_core::cdn::CdnName;
use vmp_core::geo::ConnectionType;
use vmp_core::units::{Bytes, Seconds};
use vmp_faults::{BreakerConfig, FaultInjector, FaultProfile, RetryPolicy};
use vmp_monitor::{score_alerts, Cell, HealthMonitor};
use vmp_session::hooks::{CompletionSink, SessionEnd};
use vmp_session::player::{infrastructure_fn, MultiCdnContext, PlaybackConfig, Player};
use vmp_stats::Rng;

/// Sessions per arm, staggered across the (shifted) fault horizon.
const SESSIONS: usize = 1680;

/// Edge regions per CDN; sessions rotate through them.
const REGIONS: usize = 3;

/// Publishers the population is spread over (materializes publisher cells).
const PUBLISHERS: u64 = 8;

/// Session-trace id namespace for this scenario (keeps ids disjoint from
/// the synth pipeline's and the other scenarios' in a full traced run).
const TRACE_ID_BASE: u64 = 9_000_000_000;

/// Id stride between arms, so replayed arms don't alias the originals.
const ARM_STRIDE: u64 = 100_000;

/// Delay applied to every preset so completions build a clean detector
/// baseline before the first incident lands (sessions are ~4 min long, so
/// the first ten minutes of completions are guaranteed fault-free).
const BASELINE_SHIFT: Seconds = Seconds(600.0);

/// Credit window past a fault's end: sessions that absorbed the fault but
/// only finished (and were only counted) after it cleared, plus the sliding
/// window's retention of their damage.
const SLACK: Seconds = Seconds(600.0);

/// One graded arm.
struct ArmReport {
    label: &'static str,
    alerts: usize,
    precision: f64,
    recall: f64,
    ttd: Option<f64>,
    top_culprit: Option<String>,
    /// Top culprit cell, for localization checks.
    top_cell: Option<Cell>,
    /// FNV-1a over the full alert stream and culprit ranking.
    fingerprint: u64,
}

/// The three CDNs the population is delivered over.
const CDNS: [CdnName; 3] = [CdnName::A, CdnName::B, CdnName::C];

/// Plays the staggered population under `profile` (already shifted) with
/// failover off, streaming every completion into `sink` in fault-clock
/// order — the order a central collector would ingest them.
fn run_population(
    stp: &ScenarioSetup,
    seed: u64,
    arm: u64,
    profile: Option<&FaultProfile>,
    sink: &mut dyn CompletionSink,
) {
    // Each arm replays the same fault-clock range; a fresh exemplar epoch
    // keeps this arm's alerts from citing a previous arm's look-alikes.
    vmp_session::hooks::trace_epoch();
    let injector = profile.map(|p| FaultInjector::new(p.clone()));
    let horizon = profile.map(|p| p.horizon()).unwrap_or(Seconds(2100.0));
    let strategy = &stp.strategy;
    let broker = Broker::with_breaker(BrokerPolicy::Weighted, BreakerConfig::default());
    let routers: BTreeMap<CdnName, Router> = strategy
        .cdns()
        .iter()
        .map(|c| (*c, Router::for_cdn(*c, 8)))
        .collect();
    let mut edges: BTreeMap<CdnName, EdgeCluster> = strategy
        .cdns()
        .iter()
        .map(|c| (*c, EdgeCluster::new(REGIONS, Bytes(2_000_000_000))))
        .collect();
    let abr = ThroughputRule::default();

    let mut ends: Vec<SessionEnd> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut rng = Rng::seed_from(seed ^ 0x0B5E_44E5).fork(i as u64);
        let network =
            NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
        let region = i % REGIONS;
        let mut config = PlaybackConfig::vod(
            stp.ladder.clone(),
            Seconds::from_minutes(4.0),
            Seconds::from_minutes(1.0),
        );
        config.start_offset = Seconds(horizon.0 * i as f64 / SESSIONS as f64);
        if profile.is_some() {
            config.retry = RetryPolicy::resilient();
        }
        let start_offset = config.start_offset;
        let mut player = Player::new(config, network, &abr).expect("valid config");
        let mut infra = infrastructure_fn(&routers, &mut edges, region, injector.as_ref());
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy,
            failure_probability: 0.0,
            failover_enabled: false, // damage must stay attributed to the faulted CDN
            health_gate: false,
            faults: injector.as_ref(),
            retry_budget: None,
            infrastructure: &mut infra,
        };
        // Session-trace ids live in a scenario-private namespace so a full
        // `repro --session-trace` run cannot collide them with the synth
        // pipeline's telemetry session ids, and each arm gets its own
        // sub-range so replayed arms don't alias the originals.
        let trace = vmp_session::hooks::trace_begin(
            TRACE_ID_BASE + arm * ARM_STRIDE + i as u64,
            Some(i as u64 % PUBLISHERS),
            None,
            Some(region),
            start_offset,
        );
        let out = player.play_multi_cdn(&mut ctx, &mut rng);
        vmp_session::hooks::trace_finish(trace, &out);
        ends.push(SessionEnd::new(out).in_region(region).for_publisher(i as u64 % PUBLISHERS));
    }

    // Completions reach the collector in end-time order, not start order
    // (sessions that died mid-outage finish early). The index tie-break
    // keeps same-instant ends deterministic; the monitor itself is
    // order-insensitive within a tick.
    let mut order: Vec<usize> = (0..ends.len()).collect();
    order.sort_by(|a, b| {
        ends[*a]
            .end_clock()
            .0
            .partial_cmp(&ends[*b].end_clock().0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    for i in order {
        sink.on_session_end(&ends[i]);
    }
}

/// Runs one faulted arm end to end and grades the alert stream.
fn run_arm(
    stp: &ScenarioSetup,
    seed: u64,
    arm: u64,
    label: &'static str,
    profile: &FaultProfile,
) -> ArmReport {
    let mut monitor = HealthMonitor::with_defaults();
    run_population(stp, seed, arm, Some(profile), &mut monitor);
    monitor.finish();

    let score = score_alerts(monitor.alerts(), profile, SLACK);
    let culprits = monitor.culprits();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for alert in monitor.alerts() {
        fingerprint = fnv1a(fingerprint, alert.to_string().as_bytes());
    }
    for culprit in &culprits {
        fingerprint = fnv1a(fingerprint, culprit.describe().as_bytes());
    }
    ArmReport {
        label,
        alerts: monitor.alerts().len(),
        precision: score.precision(),
        recall: score.recall(),
        ttd: score.mean_time_to_detect(),
        top_culprit: culprits.first().map(|c| c.describe()),
        top_cell: culprits.first().map(|c| c.cell),
        fingerprint,
    }
}

/// The three preset fault plans the scenario grades, with the CDN each
/// one injures.
pub fn presets() -> [(&'static str, CdnName, FaultProfile); 3] {
    [
        ("cdn_brownout(A)", CdnName::A, FaultProfile::cdn_brownout(CdnName::A)),
        ("regional_outage(B)", CdnName::B, FaultProfile::regional_outage(CdnName::B)),
        ("flaky_origin(C)", CdnName::C, FaultProfile::flaky_origin(CdnName::C)),
    ]
}

/// Plays one preset arm (index into [`presets`]) and returns the alerts it
/// raised. When session tracing is armed the alerts carry exemplar trace
/// ids in the `TRACE_ID_BASE + preset * ARM_STRIDE` namespace; the
/// trace-exemplar integration test drives this directly.
pub fn preset_alerts(seed: u64, preset: usize) -> Vec<vmp_monitor::Alert> {
    let Some(stp) = scenario_setup(&CDNS) else {
        return Vec::new();
    };
    let (_, _, profile) = &presets()[preset];
    let mut monitor = HealthMonitor::with_defaults();
    let shifted = profile.shifted(BASELINE_SHIFT);
    run_population(&stp, seed, preset as u64, Some(&shifted), &mut monitor);
    monitor.finish();
    monitor.alerts().to_vec()
}

/// Start of the session-trace id range [`preset_alerts`] uses for a preset.
pub fn preset_trace_base(preset: usize) -> u64 {
    TRACE_ID_BASE + preset as u64 * ARM_STRIDE
}

/// The region-scoped plan: a hard outage of CDN B confined to region 1,
/// which the culprit ranking must pin to the (B, 1) pair cell.
fn scoped_profile() -> FaultProfile {
    FaultProfile::builder()
        .outage(CdnName::B, Seconds(600.0), Seconds(900.0))
        .in_region(1)
        .build()
        .shifted(BASELINE_SHIFT)
}

/// Runs the scenario for a master seed (`repro --seed N`; the ecosystem
/// default otherwise).
pub fn run(seed: u64) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "monitor",
        "Scenario: streaming health plane graded against fault-injection ground truth",
    );

    let Some(stp) = scenario_setup(&CDNS) else {
        result.checks.push(setup_failed());
        return result;
    };
    let presets = presets();

    let mut arms: Vec<(CdnName, ArmReport)> = Vec::new();
    for (arm, (label, target, profile)) in presets.iter().enumerate() {
        arms.push((
            *target,
            run_arm(&stp, seed, arm as u64, label, &profile.shifted(BASELINE_SHIFT)),
        ));
    }
    let scoped = run_arm(&stp, seed, 3, "outage(B) in region 1", &scoped_profile());
    let replay =
        run_arm(&stp, seed, 4, "cdn_brownout(A) replay", &presets[0].2.shifted(BASELINE_SHIFT));

    // Fault-free control: the identical population with no injector.
    let mut control = HealthMonitor::with_defaults();
    run_population(&stp, seed, 5, None, &mut control);
    control.finish();
    let control_alerts = control.alerts().len();

    let mut table = Table::new(
        "Detector scorecard: 1680 staggered sessions per arm, failover off, alerts vs plan",
        vec!["arm", "alerts", "precision", "recall", "time-to-detect", "top culprit"],
    );
    for arm in arms.iter().map(|(_, a)| a).chain([&scoped]) {
        table.row(vec![
            arm.label.to_string(),
            arm.alerts.to_string(),
            format!("{:.3}", arm.precision),
            format!("{:.3}", arm.recall),
            arm.ttd.map(|d| format!("{d:.0}s")).unwrap_or_else(|| "-".to_string()),
            arm.top_culprit.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table.row(vec![
        "no faults (control)".to_string(),
        control_alerts.to_string(),
        "1.000".to_string(),
        "1.000".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    result.tables.push(table);

    for (target, arm) in &arms {
        result.checks.push(Check::new(
            format!("{} raises alerts", arm.label),
            arm.alerts > 0,
            format!("{} alerts", arm.alerts),
        ));
        result.checks.push(Check::new(
            format!("{} precision >= 0.9", arm.label),
            arm.precision >= 0.9,
            format!("precision {:.3} over {} alerts", arm.precision, arm.alerts),
        ));
        result.checks.push(Check::new(
            format!("{} localizes the faulted CDN", arm.label),
            arm.top_cell.map(|c| c.cdn()) == Some(Some(*target)),
            arm.top_culprit.clone().unwrap_or_else(|| "no culprit ranked".to_string()),
        ));
    }
    result.checks.push(Check::new(
        "region-scoped outage localizes to the pair cell",
        scoped.top_cell == Some(Cell::CdnRegion(CdnName::B, 1)),
        scoped.top_culprit.clone().unwrap_or_else(|| "no culprit ranked".to_string()),
    ));
    result.checks.push(Check::new(
        "fault-free control stays silent",
        control_alerts == 0,
        format!("{control_alerts} alerts without faults"),
    ));
    result.checks.push(Check::new(
        "same seed replays the alert stream bit-identically",
        arms[0].1.fingerprint == replay.fingerprint,
        format!("fingerprint {:#018x} vs {:#018x}", arms[0].1.fingerprint, replay.fingerprint),
    ));

    result.notes.push(format!(
        "all plans shifted {}s later so completions build a clean EWMA baseline; \
         failover and health gating are off so symptoms stay attributed to the \
         faulted CDN; scoring slack {}s covers sessions that absorbed a fault but \
         completed after it cleared; master seed {seed:#x}",
        BASELINE_SHIFT.0, SLACK.0
    ));
    result.notes.push(
        "precision counts an alert as true when a scheduled non-instant window \
         overlaps it and their scopes intersect; recall is over scorable windows \
         (instant cache flushes are excluded); localization is graded separately \
         via the ranked culprit list"
            .to_string(),
    );

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance seed: every preset must be detected and
    /// localized at seed 7 specifically.
    #[test]
    fn all_presets_detected_and_localized_at_seed_7() {
        let result = run(7);
        assert!(result.all_passed(), "failed checks: {:?}", result.failures());
    }

    #[test]
    fn monitor_scenario_is_deterministic() {
        let a = run(0x5EED_CAFE);
        assert!(a.all_passed(), "failed checks: {:?}", a.failures());
        let b = run(0x5EED_CAFE);
        assert_eq!(a.tables, b.tables);
    }
}
