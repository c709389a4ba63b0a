//! End-to-end coverage of `repro`'s telemetry outputs: the `--report`
//! document is schema-valid with stage times that account for the run's
//! wall clock, the `--flame` profile parses back and covers the run
//! phases, the `--json` summary carries drop diagnostics matching the
//! stderr warnings, and two identical invocations produce identical
//! reports once timing-valued fields are masked.
//!
//! Runs the actual binary (fresh process per run — the global obs registry
//! is cumulative in-process, so determinism can only be checked across
//! processes) against standalone scenarios, which skip ecosystem
//! generation and keep the test fast.

use std::path::Path;
use std::process::Command;

use serde_json::Value;
use vmp_experiments::validate_report;

fn run_repro(dir: &Path, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(dir);
    cmd.args(["--experiment", "resilience", "--experiment", "monitor", "--seed", "42"]);
    cmd.args(extra);
    cmd.output().expect("repro binary must spawn")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not valid JSON: {e:?}", path.display()))
}

#[test]
fn report_is_schema_valid_and_stages_cover_wall_time() {
    let dir = std::env::temp_dir().join("vmp_report_pipeline_a");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = run_repro(
        &dir,
        &["--report", "report.json", "--flame", "profile.folded", "--json", "run.json",
          "--sample-ms", "10"],
    );
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));

    // --report: schema-valid, stage inclusive times sum to within 5% of
    // the measured wall clock (the acceptance bar for the stage table).
    let report = read_json(&dir.join("report.json"));
    let errors = validate_report(&report);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
    let wall = report.get("wall_time_secs").and_then(Value::as_f64).expect("wall");
    let stage_total = report.get("stage_seconds_total").and_then(Value::as_f64).expect("stages");
    assert!(wall > 0.0);
    assert!(
        (stage_total - wall).abs() <= 0.05 * wall,
        "stage total {stage_total}s must be within 5% of wall {wall}s"
    );
    // `validate_report` only types these two; the sampler must also have
    // observed the run.
    let samples = report.get("timeline").and_then(|t| t.get("samples")).and_then(Value::as_array);
    assert!(samples.is_some_and(|s| !s.is_empty()), "resource timeline must carry samples");
    #[cfg(target_os = "linux")]
    assert!(
        report.get("peak_rss_bytes").and_then(Value::as_u64).is_some_and(|rss| rss > 0),
        "sampler must observe a nonzero RSS"
    );

    // The Markdown twin landed next to it.
    let md = std::fs::read_to_string(dir.join("report.md")).expect("markdown twin");
    assert!(md.contains("# Run report (vmp-report/1)"));
    assert!(md.contains("## Stages"));

    // --flame: non-empty, parses, and covers the experiment phase.
    let folded = std::fs::read_to_string(dir.join("profile.folded")).expect("folded profile");
    let parsed = vmp_obs::parse_folded(&folded).expect("folded output must parse");
    assert!(!parsed.is_empty(), "folded profile must not be empty");
    assert!(parsed.iter().all(|(_, v)| *v > 0), "folded values are nonzero by construction");
    assert!(
        parsed.iter().any(|(path, _)| path.starts_with("run.experiments")),
        "profile must cover the experiment phase: {folded}"
    );

    // --json: the vmp-run/1 summary embeds the same diagnostics the stderr
    // warnings are derived from.
    let summary = read_json(&dir.join("run.json"));
    assert_eq!(summary.get("schema").and_then(Value::as_str), Some("vmp-run/1"));
    assert_eq!(summary.get("seed").and_then(Value::as_u64), Some(42));
    assert_eq!(summary.get("scale").and_then(Value::as_str), Some("standalone"));
    let experiments = summary.get("experiments").and_then(Value::as_array).expect("experiments");
    assert_eq!(experiments.len(), 2);
    // Every stderr warning line is one of `diagnostics.warnings`, and each
    // loss counter raises its warning exactly when it is nonzero.
    let diagnostics = summary.get("diagnostics").expect("diagnostics");
    let warnings: Vec<&str> = diagnostics
        .get("warnings")
        .and_then(Value::as_array)
        .expect("diagnostics.warnings")
        .iter()
        .map(|w| w.as_str().expect("warning text"))
        .collect();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let printed: Vec<&str> = stderr.lines().filter_map(|l| l.strip_prefix("warning: ")).collect();
    assert_eq!(printed, warnings, "stderr warnings must be diagnostics.warnings: {stderr}");
    for (counter, phrase) in
        [("trace_dropped", "trace collector saturated"), ("timeline_dropped", "timeline ring evicted")]
    {
        let lost = diagnostics.get(counter).and_then(Value::as_u64).expect(counter);
        assert_eq!(
            lost > 0,
            warnings.iter().any(|w| w.contains(phrase)),
            "`{phrase}` warning must match diagnostics.{counter} = {lost}: {stderr}"
        );
    }
}

/// Replaces every timing-valued field with zero, in place: wall times,
/// span nanoseconds, RSS, quantiles, and the whole timeline (sample count
/// depends on scheduling). What survives — ids, titles, check outcomes,
/// span paths and counts, counter values, event streams — must be
/// bit-identical across runs at the same seed.
fn mask_timing(doc: &mut Value) {
    match doc {
        Value::Object(fields) => {
            for (key, value) in fields.iter_mut() {
                match key.as_str() {
                    "wall_time_secs" | "stage_seconds_total" | "peak_rss_bytes"
                    | "inclusive_ns" | "exclusive_ns" | "sum" | "mean" | "p50" | "p90"
                    | "p99" | "min" | "max" | "overflow"
                    // Sampler-driven metrics scale with tick count, which
                    // depends on scheduling, not the seed.
                    | "obs.timeline_samples" | "obs.rss_bytes" => *value = Value::U64(0),
                    "timeline" | "stages" | "buckets" => *value = Value::Null,
                    _ => mask_timing(value),
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(mask_timing),
        _ => {}
    }
}

#[test]
fn reports_are_deterministic_across_runs_with_timing_masked() {
    let mut masked = Vec::new();
    for name in ["vmp_report_pipeline_b1", "vmp_report_pipeline_b2"] {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = run_repro(&dir, &["--report", "report.json", "--sample-ms", "10"]);
        assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
        let mut report = read_json(&dir.join("report.json"));
        mask_timing(&mut report);
        masked.push(report);
    }
    let (a, b) = (&masked[0], &masked[1]);
    // Key-by-key comparison first, so a failure names the diverging section.
    for key in ["schema", "seed", "scale", "experiment_ids", "experiments", "metrics",
                "diagnostics", "profile"] {
        assert_eq!(a.get(key), b.get(key), "report field `{key}` must be deterministic");
    }
    assert_eq!(a, b, "masked reports must be identical");
}
