//! The offline gate for the three fault scenarios.
//!
//! Every scenario is pure-seeded, so its whole serialized result is a
//! function of the seed. The fingerprints below were taken at commit
//! b39a442 (the last commit where each driver hand-wired its own
//! population loop) and pin byte identity across any refactor of the
//! cohort runner or the delivery closure: same tables, same check details,
//! same replay fingerprints. The remaining assertions are the ones CI used
//! to make in Python over `repro --json` / `--metrics` output.

use vmp_experiments::{run_standalone, ExperimentResult};

/// The acceptance seed, and the seed the root `full_pipeline` test replays.
const SEEDS: [u64; 2] = [7, 0x5EED_CAFE];

/// Runs a scenario and returns it with the FNV-1a of its serialized form,
/// `wall_time_secs` and `stages` blanked (the only wall-clock fields).
fn run_hashed(id: &str, seed: u64) -> (ExperimentResult, u64) {
    let mut result = run_standalone(id, seed).expect("scenario id is registered");
    result.wall_time_secs = 0.0;
    result.stages.clear();
    let json = serde_json::to_string(&result).expect("results serialize");
    let hash = json
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    (result, hash)
}

/// Runs `id` at both seeds: every check passes and the fingerprint is the
/// pinned one (which also makes any two runs of a seed identical). Returns
/// the seed-7 result.
fn assert_pinned(id: &str, expected: [u64; 2]) -> ExperimentResult {
    let runs = SEEDS.map(|seed| run_hashed(id, seed));
    for ((seed, want), (result, got)) in SEEDS.iter().zip(expected).zip(&runs) {
        assert!(result.all_passed(), "{id} at seed {seed:#x}: {:?}", result.failures());
        assert_eq!(*got, want, "{id} at seed {seed:#x}: fingerprint {got:#018x}");
    }
    let [(at_seed_7, _), _] = runs;
    at_seed_7
}

/// Current values of the named global counters. Tests in this binary run
/// on parallel threads, so a delta is a lower bound on what one scenario
/// added — enough for "this code path ran at all".
fn counters<const N: usize>(names: [&'static str; N]) -> [(&'static str, u64); N] {
    names.map(|name| (name, vmp_obs::counter(name).get()))
}

fn assert_all_grew<const N: usize>(before: [(&'static str, u64); N]) {
    for (name, was) in before {
        let now = vmp_obs::counter(name).get();
        assert!(now > was, "{name} not recorded ({was} -> {now})");
    }
}

#[test]
fn resilience_is_pinned_and_exercises_the_fault_path() {
    let before = counters(["faults.injected", "cdn.broker_failovers"]);
    assert_pinned("resilience", [0x28f8_3f98_0bba_97cd, 0x1aba_cc12_7685_33f4]);
    assert_all_grew(before);
}

#[test]
fn monitor_is_pinned_and_grades_alert_raising_arms() {
    let result = assert_pinned("monitor", [0x5d1d_927e_c54c_8673, 0xb522_ed65_c822_a803]);
    assert!(
        result.checks.iter().any(|c| c.name.contains("raises alerts")),
        "scorecard must grade alert-raising arms"
    );
}

#[test]
fn live_event_is_pinned_and_exercises_the_surge_stack() {
    let before = counters([
        "cdn.shed",
        "cdn.coalesced",
        "cdn.retry_budget_exhausted",
        "session.join_storm",
    ]);
    let result = assert_pinned("live_event", [0xeb22_aae7_6039_7fcb, 0x31a3_355d_42c8_3f54]);
    assert_all_grew(before);
    // A third seed: the join storm is sampled, so arrivals differ per seed.
    let (third, hash) = run_hashed("live_event", 0x11FE_5EED);
    assert!(third.all_passed(), "live_event at seed 0x11fe5eed: {:?}", third.failures());
    assert_eq!(hash, 0x9b79_0ff4_c826_ef35, "live_event at seed 0x11fe5eed: fingerprint {hash:#018x}");

    let scorecard = result
        .tables
        .iter()
        .find(|t| t.title.contains("scorecard"))
        .expect("live_event renders a surge scorecard");
    let column = |name: &str| {
        scorecard.header.iter().position(|h| h == name).unwrap_or_else(|| panic!("column {name}"))
    };
    let arm = |needle: &str| {
        scorecard
            .rows
            .iter()
            .find(|row| row[column("arm")].contains(needle))
            .unwrap_or_else(|| panic!("no {needle} arm in the scorecard"))
    };
    assert_eq!(arm("control")[column("alerts")], "0", "fault-free control must stay silent");
    for counter in ["shed", "coalesced"] {
        let cell = &arm("brownout")[column(counter)];
        assert!(cell.parse::<u64>().is_ok_and(|n| n > 0), "fault arm {counter} = {cell}");
    }
}
