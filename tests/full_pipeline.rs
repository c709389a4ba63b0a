//! End-to-end integration: generate the (reduced) ecosystem, run every
//! experiment driver, and require every qualitative check from the paper to
//! hold. This is the repository's headline test — if the pipeline from
//! packaging through telemetry to analytics drifts, some figure's check
//! breaks here.

use vmp::experiments::{run, run_standalone, ReproContext, Scale, ABLATIONS, ALL_EXPERIMENTS, SCENARIOS};

#[test]
fn every_figure_and_table_reproduces() {
    let ctx = ReproContext::new(Scale::Quick);
    let mut failures = Vec::new();
    let mut total_checks = 0;
    for id in ALL_EXPERIMENTS {
        let result = run(id, &ctx).expect("registered experiment");
        assert_eq!(result.id, id);
        assert!(
            !result.tables.is_empty() || !result.series.is_empty(),
            "{id} produced no output"
        );
        total_checks += result.checks.len();
        for check in result.failures() {
            failures.push(format!("[{id}] {}: {}", check.name, check.detail));
        }
    }
    assert!(total_checks > 100, "expected >100 paper checks, ran {total_checks}");
    assert!(
        failures.is_empty(),
        "{} of {} checks failed:\n{}",
        failures.len(),
        total_checks,
        failures.join("\n")
    );
}

/// All 19 experiments must pass every check AND produce identical output
/// across two independently generated contexts — both the printed tables
/// and series and the JSON `repro --json` writes: the columnar store's
/// snapshot-parallel rollups are required to be fully deterministic, so a
/// rebuild of the whole pipeline reproduces the artifacts byte for byte.
#[test]
fn printed_artifacts_are_identical_across_rebuilds() {
    let render_all = || {
        let ctx = ReproContext::new(Scale::Quick);
        ALL_EXPERIMENTS
            .iter()
            .map(|id| {
                let mut result = run(id, &ctx).expect("registered experiment");
                assert!(
                    result.all_passed(),
                    "[{id}] failed checks: {:?}",
                    result.failures()
                );
                // Wall time and stage timings legitimately vary run to run.
                result.wall_time_secs = 0.0;
                result.stages.clear();
                let json = serde_json::to_string(&result).expect("result serializes");
                (result.to_string(), json)
            })
            .collect::<Vec<(String, String)>>()
    };
    assert_eq!(render_all(), render_all());
}

#[test]
fn ablations_reproduce() {
    let ctx = ReproContext::new(Scale::Quick);
    for id in ABLATIONS {
        let result = run(id, &ctx).expect("registered ablation");
        assert!(
            result.all_passed(),
            "[{id}] failed checks: {:?}",
            result.failures()
        );
    }
}

#[test]
fn scenarios_reproduce_without_an_ecosystem() {
    for id in SCENARIOS {
        let result = run_standalone(id, 0x5EED_CAFE).expect("registered scenario");
        assert!(
            result.all_passed(),
            "[{id}] failed checks: {:?}",
            result.failures()
        );
    }
    assert!(run_standalone("fig02", 1).is_none(), "ecosystem experiments need a context");
}

#[test]
fn unknown_experiment_is_rejected() {
    let ctx = ReproContext::new(Scale::Quick);
    assert!(run("fig99", &ctx).is_none());
}
