//! `resilience` — QoE under a seeded CDN brownout, failover off vs on.
//!
//! The paper's management planes exist because incidents happen: §4.3's
//! multi-CDN strategies and the Conviva-style control plane only pay off
//! when a CDN degrades. This scenario replays the deterministic
//! [`FaultProfile::cdn_brownout`] plan against CDN A (throughput collapse,
//! an edge-cache flush, an origin error burst, and a half-outage) over a
//! two-CDN weighted strategy, and compares the same staggered session
//! population with broker failover + circuit-breaker health gating
//! disabled versus enabled.
//!
//! Everything is pure-seeded: the same `--seed` replays bit-identical
//! incidents, retries, and failovers, which the determinism check asserts
//! by fingerprinting two independent runs of the enabled arm.

use std::collections::BTreeMap;

use crate::figures::helpers::{fnv1a, scenario_setup, setup_failed, ScenarioSetup};
use crate::result::{Check, ExperimentResult};
use vmp_abr::algorithm::ThroughputRule;
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_analytics::report::{Series, Table};
use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_cdn::edge::EdgeCluster;
use vmp_cdn::routing::Router;
use vmp_core::cdn::CdnName;
use vmp_core::geo::ConnectionType;
use vmp_core::units::{Bytes, Seconds};
use vmp_faults::{BreakerConfig, FaultInjector, FaultProfile, RetryPolicy};
use vmp_monitor::HealthMonitor;
use vmp_session::hooks::{CompletionSink, SessionEnd};
use vmp_session::player::{
    infrastructure_fn, ExitCause, MultiCdnContext, PlaybackConfig, Player,
};
use vmp_stats::Rng;

/// Sessions per arm, staggered across the fault-plan horizon.
const SESSIONS: usize = 240;

/// Edge regions per CDN (sessions rotate through them).
const REGIONS: usize = 4;

/// One arm of the comparison, aggregated over all sessions.
struct ArmStats {
    label: &'static str,
    fatal: u32,
    rebuffer_ratios: Vec<f64>,
    bitrates: Vec<f64>,
    retries: u64,
    timeouts: u64,
    cdn_switches: u64,
    /// Per-offset-bucket fatal counts (bucket = 300 s of fault timeline).
    fatal_by_bucket: Vec<f64>,
    /// FNV-1a over every session's outcome summary: byte-identical runs
    /// produce identical fingerprints.
    fingerprint: u64,
    /// Alerts the streaming health plane raised over this arm's completion
    /// stream (passive tap — the monitor never perturbs sessions).
    monitor_alerts: usize,
    /// Top-ranked culprit behind those alerts, if any.
    monitor_culprit: Option<String>,
}

impl ArmStats {
    fn fatal_rate(&self) -> f64 {
        self.fatal as f64 / SESSIONS as f64
    }

    fn mean_rebuffer(&self) -> f64 {
        self.rebuffer_ratios.iter().sum::<f64>() / self.rebuffer_ratios.len() as f64
    }

    fn mean_bitrate(&self) -> f64 {
        self.bitrates.iter().sum::<f64>() / self.bitrates.len() as f64
    }
}

/// Runs one arm: the full staggered session population against fresh
/// infrastructure, with the given failover/health-gate switches. `faulted`
/// selects the brownout plan versus a clean (no-fault) baseline.
fn run_arm(
    stp: &ScenarioSetup,
    seed: u64,
    label: &'static str,
    faulted: bool,
    failover_enabled: bool,
    health_gate: bool,
) -> ArmStats {
    let profile = FaultProfile::cdn_brownout(CdnName::A);
    let horizon = profile.horizon();
    let injector = faulted.then(|| FaultInjector::new(profile));
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

    let buckets = (horizon.0 / 300.0).ceil() as usize;
    let mut stats = ArmStats {
        label,
        fatal: 0,
        rebuffer_ratios: Vec::with_capacity(SESSIONS),
        bitrates: Vec::with_capacity(SESSIONS),
        retries: 0,
        timeouts: 0,
        cdn_switches: 0,
        fatal_by_bucket: vec![0.0; buckets.max(1)],
        fingerprint: 0xcbf2_9ce4_8422_2325,
        monitor_alerts: 0,
        monitor_culprit: None,
    };

    let mut ends: Vec<SessionEnd> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut rng = Rng::seed_from(seed ^ 0x5111_E27C).fork(i as u64);
        let network =
            NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
        let offset = Seconds(horizon.0 * i as f64 / SESSIONS as f64);
        let mut config = PlaybackConfig::vod(
            stp.ladder.clone(),
            Seconds::from_minutes(20.0),
            Seconds::from_minutes(5.0),
        );
        config.start_offset = offset;
        // The armed timeout + bounded-retry policy is what a resilient
        // player ships; the clean baseline keeps the stock policy so it
        // matches historical fault-free behaviour exactly.
        if faulted {
            config.retry = RetryPolicy::resilient();
        }
        let mut player = Player::new(config, network, &abr).expect("valid config");
        let mut infra = infrastructure_fn(&routers, &mut edges, i % REGIONS, injector.as_ref());
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy,
            failure_probability: 0.0, // incidents come from the fault plan only
            failover_enabled,
            health_gate,
            faults: injector.as_ref(),
            retry_budget: None,
            infrastructure: &mut infra,
        };
        let out = player.play_multi_cdn(&mut ctx, &mut rng);

        if out.exit == ExitCause::FatalCdnFailure {
            stats.fatal += 1;
            let bucket = ((offset.0 / 300.0) as usize).min(stats.fatal_by_bucket.len() - 1);
            stats.fatal_by_bucket[bucket] += 1.0;
        }
        stats.rebuffer_ratios.push(out.qoe.rebuffer_ratio());
        stats.bitrates.push(out.qoe.avg_bitrate.0 as f64);
        stats.retries += out.retries as u64;
        stats.timeouts += out.timeouts as u64;
        stats.cdn_switches += out.qoe.cdn_switches as u64;
        let summary = format!(
            "{i}:{:?}:{}:{}:{}:{:.6}:{:.6}:{:?}",
            out.exit,
            out.qoe.avg_bitrate.0,
            out.retries,
            out.timeouts,
            out.qoe.rebuffer_time.0,
            out.qoe.startup_delay.0,
            out.cdns,
        );
        stats.fingerprint = fnv1a(stats.fingerprint, summary.as_bytes());
        ends.push(SessionEnd::new(out).in_region(i % REGIONS));
    }

    // Passive health-plane tap: stream the completions into a monitor in
    // fault-clock end order (the order a central collector sees). With a
    // 20-minute session length the first completions already carry fault
    // damage, so no pre-incident baseline exists and the faulted arms are
    // reported, not graded — the `monitor` scenario does the grading with a
    // population shaped for it. The clean arm must stay silent.
    let mut order: Vec<usize> = (0..ends.len()).collect();
    order.sort_by(|a, b| {
        ends[*a]
            .end_clock()
            .0
            .partial_cmp(&ends[*b].end_clock().0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    let mut monitor = HealthMonitor::with_defaults();
    for i in order {
        monitor.on_session_end(&ends[i]);
    }
    monitor.finish();
    stats.monitor_alerts = monitor.alerts().len();
    stats.monitor_culprit = monitor.culprits().first().map(|c| c.describe());
    stats
}

/// Runs the scenario for a master seed (`repro --seed N`; the ecosystem
/// default otherwise).
pub fn run(seed: u64) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "resilience",
        "Scenario: CDN brownout with failover disabled vs enabled (seeded fault plan)",
    );

    let Some(stp) = scenario_setup(&[CdnName::A, CdnName::B]) else {
        result.checks.push(setup_failed());
        return result;
    };
    let disabled = run_arm(&stp, seed, "failover off", true, false, false);
    let enabled = run_arm(&stp, seed, "failover on", true, true, true);
    let replay = run_arm(&stp, seed, "failover on (replay)", true, true, true);
    let clean = run_arm(&stp, seed, "no faults", false, true, true);

    let mut table = Table::new(
        "Brownout on CDN A: weighted 2-CDN strategy, 240 staggered sessions per arm",
        vec![
            "arm",
            "fatal exits",
            "fatal rate",
            "mean rebuffer ratio",
            "mean bitrate (kbps)",
            "retries",
            "timeouts",
            "failovers",
        ],
    );
    for arm in [&disabled, &enabled, &clean] {
        table.row(vec![
            arm.label.to_string(),
            arm.fatal.to_string(),
            format!("{:.3}", arm.fatal_rate()),
            format!("{:.4}", arm.mean_rebuffer()),
            format!("{:.0}", arm.mean_bitrate()),
            arm.retries.to_string(),
            arm.timeouts.to_string(),
            arm.cdn_switches.to_string(),
        ]);
    }
    result.tables.push(table.clone());

    let mut health = Table::new(
        "Health-plane tap: alerts over each arm's completion stream",
        vec!["arm", "alerts", "top culprit"],
    );
    for arm in [&disabled, &enabled, &clean] {
        health.row(vec![
            arm.label.to_string(),
            arm.monitor_alerts.to_string(),
            arm.monitor_culprit.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    result.tables.push(health);

    let mut series = Series::new(
        "Fatal sessions per start-offset bucket (fault-timeline seconds)",
        "offset bucket",
    );
    for arm in [&disabled, &enabled] {
        let points: Vec<(String, f64)> = arm
            .fatal_by_bucket
            .iter()
            .enumerate()
            .map(|(b, n)| (format!("{}s", b * 300), *n))
            .collect();
        series.line(arm.label, points);
    }
    result.series.push(series);

    result.checks.push(Check::new(
        "brownout bites with failover disabled",
        disabled.fatal > 0,
        format!("{} fatal exits without failover", disabled.fatal),
    ));
    result.checks.push(Check::new(
        "failover reduces fatal-exit rate",
        enabled.fatal < disabled.fatal,
        format!(
            "fatal rate {:.3} (off) vs {:.3} (on)",
            disabled.fatal_rate(),
            enabled.fatal_rate()
        ),
    ));
    result.checks.push(Check::new(
        "failover preserves delivered bitrate",
        enabled.mean_bitrate() > disabled.mean_bitrate(),
        format!(
            "mean bitrate {:.0} kbps (off) vs {:.0} kbps (on)",
            disabled.mean_bitrate(),
            enabled.mean_bitrate()
        ),
    ));
    result.checks.push(Check::new(
        "enabled arm actually fails over",
        enabled.cdn_switches > 0,
        format!("{} broker failovers", enabled.cdn_switches),
    ));
    result.checks.push(Check::new(
        "same seed replays bit-identically",
        enabled.fingerprint == replay.fingerprint,
        format!(
            "fingerprint {:#018x} vs {:#018x}",
            enabled.fingerprint, replay.fingerprint
        ),
    ));
    result.checks.push(Check::new(
        "fault-free baseline is clean",
        clean.fatal == 0 && clean.retries == 0 && clean.timeouts == 0,
        format!(
            "clean arm: {} fatal, {} retries, {} timeouts",
            clean.fatal, clean.retries, clean.timeouts
        ),
    ));
    result.checks.push(Check::new(
        "health plane stays silent on the fault-free arm",
        clean.monitor_alerts == 0,
        format!("{} alerts over the clean completion stream", clean.monitor_alerts),
    ));
    result.checks.push(Check::new(
        "health plane localizes the brownout without failover",
        disabled.monitor_alerts > 0
            && disabled.monitor_culprit.as_deref().is_some_and(|c| c.starts_with("cdn=A")),
        disabled.monitor_culprit.clone().unwrap_or_else(|| "no culprit ranked".to_string()),
    ));

    result.notes.push(format!(
        "fault plan: FaultProfile::cdn_brownout(A) — degraded throughput + origin error \
         burst over [300, 1500)s, edge-cache flush at 300s, hard outage over [720, 1080)s; \
         sessions staggered across the {:.0}s horizon; master seed {seed:#x}",
        FaultProfile::cdn_brownout(CdnName::A).horizon().0
    ));
    result.notes.push(
        "rebuffer ratios are not comparable across arms: fatal sessions barely play, and \
         armed timeouts convert slow top-rung downloads into fast low-rung refetches, so \
         delivered bitrate is the robust damage signal"
            .to_string(),
    );

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_checks_pass_and_replay_is_deterministic() {
        let a = run(0x5EED_CAFE);
        assert!(a.all_passed(), "failed checks: {:?}", a.failures());
        let b = run(0x5EED_CAFE);
        // Tables embed every aggregate; equal tables mean an identical run.
        assert_eq!(a.tables, b.tables);
    }
}
