//! `monitor` — the streaming health plane graded against fault ground truth.
//!
//! Every preset fault plan is replayed against a three-CDN population with
//! failover *disabled*, so damage lands on (and stays attributed to) the
//! faulted CDN. Completions stream into a `HealthMonitor` the moment they
//! finish — sorted only by fault-clock end time, as a real collector would
//! see them — and the alert stream is scored against the injected plan
//! itself: precision, recall, and time-to-detect, with the ranked culprit
//! list checked against the CDN (or (CDN, region) pair) that actually
//! misbehaved. A fault-free control must stay perfectly silent, and the
//! whole pipeline is seed-deterministic, which a replay fingerprint pins.

use crate::figures::helpers::{grade_alerts, scenario, AlertGrade, SCORING_SLACK};
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;
use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_faults::FaultProfile;
use vmp_monitor::Cell;
use vmp_session::cohort::{stagger, CohortSpec};
use vmp_session::hooks::SessionEnd;

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

/// Plays the staggered population under `profile` (already shifted) with
/// failover off, so damage stays attributed to the faulted CDN.
fn run_population(
    seed: u64,
    arm: u64,
    profile: Option<&FaultProfile>,
) -> Result<Vec<SessionEnd>, String> {
    let horizon = profile.map(|p| p.horizon()).unwrap_or(Seconds(2100.0));
    CohortSpec {
        cdns: &[CdnName::A, CdnName::B, CdnName::C],
        regions: REGIONS,
        publishers: PUBLISHERS,
        content: Seconds::from_minutes(4.0),
        watch: Seconds::from_minutes(1.0),
        arrivals: &stagger(SESSIONS, horizon),
        rng_salt: 0x0B5E_44E5,
        faults: profile,
        failover: false, // damage must stay attributed to the faulted CDN
        // Session-trace ids live in a scenario-private namespace so one
        // `repro --session-trace` run cannot collide them with another
        // scenario's sessions, and each arm gets its own
        // sub-range so replayed arms don't alias the originals.
        trace_id_base: Some(TRACE_ID_BASE + arm * ARM_STRIDE),
        ..CohortSpec::default()
    }
    .run(seed)
}

/// Runs one faulted arm end to end and grades the alert stream against
/// the plan that was injected.
fn run_arm(seed: u64, arm: u64, profile: &FaultProfile) -> Result<AlertGrade, String> {
    Ok(grade_alerts(&run_population(seed, arm, Some(profile))?, Some(profile)))
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
    let Some((_, _, profile)) = presets().into_iter().nth(preset) else {
        return Vec::new();
    };
    run_population(seed, preset as u64, Some(&profile.shifted(BASELINE_SHIFT)))
        .map(|ends| grade_alerts(&ends, None).alerts)
        .unwrap_or_default()
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
    let title = "Scenario: streaming health plane graded against fault-injection ground truth";
    scenario("monitor", title, |result| report(seed, result))
}

fn report(seed: u64, result: &mut ExperimentResult) -> Result<(), String> {
    let presets = presets();
    let mut arms = Vec::new();
    for (arm, (label, target, profile)) in (0u64..).zip(&presets) {
        arms.push((*label, *target, run_arm(seed, arm, &profile.shifted(BASELINE_SHIFT))?));
    }
    let scoped = run_arm(seed, 3, &scoped_profile())?;
    let [(_, _, brownout), ..] = &presets;
    let replay = run_arm(seed, 4, &brownout.shifted(BASELINE_SHIFT))?;
    // Fault-free control: the identical population with no injector.
    let control_alerts = grade_alerts(&run_population(seed, 5, None)?, None).alerts.len();

    let mut table = Table::new(
        "Detector scorecard: 1680 staggered sessions per arm, failover off, alerts vs plan",
        vec!["arm", "alerts", "precision", "recall", "time-to-detect", "top culprit"],
    );
    let rows = arms.iter().map(|(label, _, arm)| (*label, arm));
    for (label, arm) in rows.chain([("outage(B) in region 1", &scoped)]) {
        table.row(vec![
            label.to_string(),
            arm.alerts.len().to_string(),
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

    for (label, target, arm) in &arms {
        result.checks.push(Check::new(
            format!("{label} raises alerts"),
            !arm.alerts.is_empty(),
            format!("{} alerts", arm.alerts.len()),
        ));
        result.checks.push(Check::new(
            format!("{label} precision >= 0.9"),
            arm.precision >= 0.9,
            format!("precision {:.3} over {} alerts", arm.precision, arm.alerts.len()),
        ));
        result.checks.push(Check::new(
            format!("{label} localizes the faulted CDN"),
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
    let original = arms.first().map(|(_, _, arm)| arm.fingerprint);
    result.checks.push(Check::new(
        "same seed replays the alert stream bit-identically",
        original == Some(replay.fingerprint),
        format!(
            "fingerprint {:#018x} vs {:#018x}",
            original.unwrap_or_default(),
            replay.fingerprint
        ),
    ));

    result.notes.push(format!(
        "all plans shifted {}s later so completions build a clean EWMA baseline; \
         failover and health gating are off so symptoms stay attributed to the \
         faulted CDN; scoring slack {}s covers sessions that absorbed a fault but \
         completed after it cleared; master seed {seed:#x}",
        BASELINE_SHIFT.0, SCORING_SLACK.0
    ));
    result.notes.push(
        "precision counts an alert as true when a scheduled non-instant window \
         overlaps it and their scopes intersect; recall is over scorable windows \
         (instant cache flushes are excluded); localization is graded separately \
         via the ranked culprit list"
            .to_string(),
    );
    Ok(())
}
