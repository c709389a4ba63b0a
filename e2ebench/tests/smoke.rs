//! Drives the built binary end to end at smoke size: the same code paths,
//! result schema and trace files as a full set, in seconds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;
use vmp_e2ebench::runner;
use vmp_e2ebench::schema;
use vmp_e2ebench::trace::SpanLine;
use vmp_e2ebench::workloads::Workload;

const BIN: &str = env!("CARGO_BIN_EXE_e2ebench");

#[test]
fn smoke_set_runs_every_workload_and_writes_results_and_traces() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let status = Command::new(BIN)
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "run --smoke exited with {status}");

    let set = runner::load(&out).unwrap();
    assert!(set.smoke);
    assert_eq!(set.runs, 1);
    let names: Vec<&str> = set.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for w in &set.workloads {
        assert!(w.attempted > 0, "{}: no output check ran", w.name);
        assert_eq!(w.failed, 0, "{}: output checks failed", w.name);
        let e2e: Vec<&str> = w.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let defined: Vec<String> = schema::end_to_end().into_iter().map(|d| d.name).collect();
        assert_eq!(e2e, defined);
        for m in &w.end_to_end {
            assert!(m.summary.median > 0.0, "{} {} must never be 0", w.name, m.name);
        }
        let layers: Vec<&str> = w.per_layer.iter().map(|l| l.name.as_str()).collect();
        let defined: Vec<String> = schema::per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(layers, defined);
    }
    // A set agrees with itself.
    assert!(runner::agree(&set, &set).unwrap().0);

    // Layers the workloads are built to stress did register work.
    let layer = |workload: &str, name: &str| -> f64 {
        let w = set.workloads.iter().find(|w| w.name == workload).unwrap();
        w.per_layer.iter().find(|l| l.name == name).unwrap().value
    };
    assert!(layer("paper_full", "synth.views") > 0.0);
    assert!(layer("paper_full", "experiments.fig18_ms") > 0.0);
    assert_eq!(layer("paper_full", "analytics.hot_misses"), 0.0);
    assert!(layer("scale_stream", "analytics.hot_misses") > 0.0);
    assert!(layer("scale_stream", "analytics.spill_bytes_per_row") > 0.0);
    assert!(layer("ingest_spill", "analytics.decode_ns_per_row") > 0.0);
    assert_eq!(layer("ingest_spill", "synth.views"), 0.0);
    assert!(layer("ingest_spill", "process.allocs_per_view") > 0.0);
    assert!(layer("scenario_sweep", "experiments.monitor_ms") > 0.0);
    assert_eq!(layer("scenario_sweep", "experiments.scan_figures_s"), 0.0);

    // The traced runs left one span file per workload; within every
    // iteration the self times add up to the root span.
    for workload in Workload::ALL {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", workload.name()));
        let text = std::fs::read_to_string(&path).unwrap();
        let spans: Vec<SpanLine> =
            text.lines().map(|line| serde_json::from_str(line).unwrap()).collect();
        assert!(!spans.is_empty(), "{}: empty trace", workload.name());
        let mut self_by_run: BTreeMap<u64, u64> = BTreeMap::new();
        let mut root_by_run: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &spans {
            *self_by_run.entry(span.run).or_default() += span.self_ns;
            if span.parent.is_none() {
                assert_eq!(span.name, "bench.iteration");
                *root_by_run.entry(span.run).or_default() += span.end_ns - span.start_ns;
            }
        }
        assert_eq!(self_by_run, root_by_run, "{}", workload.name());
    }
}

#[test]
fn a_single_run_prints_the_contract_line_last() {
    let output = Command::new(BIN)
        .args(["--workload", "scenario_sweep", "--seed", "7", "--seconds", "1", "--trace", "0"])
        .args(["--smoke", "1"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let metrics = line.get("metrics").unwrap().as_object().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["wall_s", "views_per_s", "peak_rss_mb", "setup_s"]);
    for (name, entry) in metrics {
        assert!(entry.get("value").and_then(Value::as_f64).unwrap() > 0.0, "{name}");
        assert!(entry.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
}

#[test]
fn bad_arguments_exit_with_a_message_and_no_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "paper_full", "--seed", "x", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "paper_full", "--seed", "1", "--seconds", "0", "--trace", "0"][..],
        &["--workload", "paper_full", "--seed", "1", "--seconds", "1"][..],
        &["agree", "only-one.json"][..],
        &[][..],
    ] {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        assert!(!output.stderr.is_empty(), "{args:?}");
    }
}
