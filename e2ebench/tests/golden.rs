//! The harness's pipeline against the repository's committed golden.
//!
//! `paper_full` runs the paper-shaped ecosystem at stride 6 so an
//! iteration fits the run length; this test runs the same harness path at
//! the golden's own size (stride 2, default seed) and requires the 19
//! experiment results to equal `results/full_results.json` once the
//! run-dependent fields are blanked.

use std::path::Path;

use serde_json::Value;
use vmp_e2ebench::alloc::AllocHooks;
use vmp_e2ebench::product::{self, StoreSpec};
use vmp_e2ebench::runner::DEFAULT_SEED;
use vmp_e2ebench::trace::Tracer;

#[test]
#[cfg_attr(debug_assertions, ignore = "generates 1.2 M views; run with --release")]
fn stride_two_run_equals_the_committed_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/full_results.json");
    let golden: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(golden.get("seed").and_then(Value::as_u64), Some(DEFAULT_SEED));
    let experiments: Vec<Value> = golden
        .get("experiments")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|experiment| {
            let fields = experiment.as_object().unwrap().iter().map(|(key, value)| {
                let value = match key.as_str() {
                    "wall_time_secs" => Value::F64(0.0),
                    "stages" => Value::Array(Vec::new()),
                    _ => value.clone(),
                };
                (key.clone(), value)
            });
            Value::Object(fields.collect())
        })
        .collect();
    let want = serde_json::to_string_pretty(&experiments).unwrap();

    let mut tracer = Tracer::new(false);
    let built = product::build_context(
        product::paper_config(DEFAULT_SEED, 2),
        &StoreSpec::resident(),
        &mut tracer,
        &AllocHooks::none(),
    );
    assert_eq!(built.views, 1_220_129);
    let results = product::run_figures(&product::PAPER_FIGURES, &built.ctx, &mut tracer).unwrap();
    assert_eq!(product::check_counts(&results), (115, 115));
    let got = product::normalized_json(results).unwrap();
    assert!(got == want, "harness results differ from results/full_results.json");
}
