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

use crate::figures::helpers::{fnv1a, grade_alerts, scenario, AlertGrade};
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::{Series, Table};
use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_faults::FaultProfile;
use vmp_session::cohort::{stagger, CohortSpec};

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
    /// What the streaming health plane made of this arm's completion
    /// stream (passive tap — the monitor never perturbs sessions).
    health: AlertGrade,
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
/// infrastructure, with broker failover + health gating off or on.
/// `faulted` selects the brownout plan versus a clean (no-fault) baseline.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the horizon and offsets are non-negative seconds; buckets are clamped to the table"
)]
fn run_arm(
    seed: u64,
    label: &'static str,
    faulted: bool,
    failover: bool,
) -> Result<ArmStats, String> {
    let profile = FaultProfile::cdn_brownout(CdnName::A);
    let horizon = profile.horizon();
    let arrivals = stagger(SESSIONS, horizon);
    let ends = CohortSpec {
        cdns: &[CdnName::A, CdnName::B],
        regions: REGIONS,
        content: Seconds::from_minutes(20.0),
        watch: Seconds::from_minutes(5.0),
        arrivals: &arrivals,
        rng_salt: 0x5111_E27C,
        faults: faulted.then_some(&profile),
        failover,
        ..CohortSpec::default()
    }
    .run(seed)?;

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
        // Passive health-plane tap: stream the completions into a monitor in
        // fault-clock end order (the order a central collector sees). With a
        // 20-minute session length the first completions already carry fault
        // damage, so no pre-incident baseline exists and the faulted arms are
        // reported, not graded — the `monitor` scenario does the grading with
        // a population shaped for it. The clean arm must stay silent.
        health: grade_alerts(&ends, None),
    };
    for (i, (end, offset)) in ends.iter().zip(&arrivals).enumerate() {
        let out = &end.outcome;
        if end.is_fatal() {
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
    }
    Ok(stats)
}

/// Runs the scenario for a master seed (`repro --seed N`; the ecosystem
/// default otherwise).
pub fn run(seed: u64) -> ExperimentResult {
    let title = "Scenario: CDN brownout with failover disabled vs enabled (seeded fault plan)";
    scenario("resilience", title, |result| report(seed, result))
}

fn report(seed: u64, result: &mut ExperimentResult) -> Result<(), String> {
    let disabled = run_arm(seed, "failover off", true, false)?;
    let enabled = run_arm(seed, "failover on", true, true)?;
    let replay = run_arm(seed, "failover on (replay)", true, true)?;
    let clean = run_arm(seed, "no faults", false, true)?;

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
            arm.health.alerts.len().to_string(),
            arm.health.top_culprit.clone().unwrap_or_else(|| "-".to_string()),
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
        clean.health.alerts.is_empty(),
        format!("{} alerts over the clean completion stream", clean.health.alerts.len()),
    ));
    result.checks.push(Check::new(
        "health plane localizes the brownout without failover",
        !disabled.health.alerts.is_empty()
            && disabled.health.top_culprit.as_deref().is_some_and(|c| c.starts_with("cdn=A")),
        disabled.health.top_culprit.clone().unwrap_or_else(|| "no culprit ranked".to_string()),
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
    Ok(())
}
