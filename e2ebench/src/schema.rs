//! Names, units, directions and bounds of every metric, and the shape of
//! the result files. `BENCHMARK.json` at the repository root mirrors the
//! tables here (a test compares them), so a metric is defined once.

use serde::{Deserialize, Serialize};

use crate::product;
use crate::stats::Summary;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

/// Schema tag of `results.json`.
pub const RESULTS_SCHEMA: &str = "vmp-e2ebench/1";

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound }
}

/// What a user of the system sees. The timing bounds are the contract's
/// ceiling: on the shared 2-core reference host 20 s windows of the same
/// work differ by 8–17 %, so three times the measured spread would exceed
/// it (README, "How the bounds were set"); `peak_rss_mb` repeats within 3 %.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", "lower", Some(0.25)),
        def("views_per_s", "1/s", "higher", Some(0.25)),
        def("peak_rss_mb", "MB", "lower", Some(0.10)),
        def("setup_s", "s", "lower", Some(0.25)),
    ]
}

/// Single-layer metrics of the traced run; the layer is the crate name.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("synth.stream_new_s", "s", "lower", None),
        def("synth.next_batch_wait_s", "s", "lower", None),
        def("synth.wait_share", "ratio", "lower", None),
        def("synth.views", "count", "higher", None),
        def("synth.batches", "count", "lower", None),
        def("synth.cell_ns_per_view", "ns", "lower", None),
        def("synth.cell_allocs_per_view", "count", "lower", None),
        def("synth.cell_alloc_bytes_per_view", "B", "lower", None),
        def("session.play_ns_per_session", "ns", "lower", None),
        def("session.telemetry_build_ns", "ns", "lower", None),
        def("manifest.url_classify_ns", "ns", "lower", None),
        def("analytics.push_batch_s", "s", "lower", None),
        def("analytics.push_ns_per_view", "ns", "lower", None),
        def("analytics.push_allocs_per_view", "count", "lower", None),
        def("analytics.seal_push_max_ms", "ms", "lower", None),
        def("analytics.finish_s", "s", "lower", None),
        def("analytics.spill_bytes_per_row", "B", "lower", None),
        def("analytics.hot_hits", "count", "higher", None),
        def("analytics.hot_misses", "count", "lower", None),
        def("analytics.decode_ns_per_row", "ns", "lower", None),
        def("analytics.rollup_ns_per_row", "ns", "lower", None),
        def("analytics.store_drop_s", "s", "lower", None),
        def("experiments.figures_s", "s", "lower", None),
        def("experiments.scan_figures_s", "s", "lower", None),
        def("experiments.study_figures_s", "s", "lower", None),
    ];
    for id in product::PAPER_FIGURES.iter().chain(product::SCENARIOS.iter()) {
        defs.push(def(&format!("experiments.{id}_ms"), "ms", "lower", None));
    }
    defs.extend([
        def("experiments.export_json_s", "s", "lower", None),
        def("experiments.export_bytes", "B", "lower", None),
        def("experiments.checks_passed", "count", "higher", None),
        def("experiments.checks_total", "count", "higher", None),
        def("syndication.storage_study_s", "s", "lower", None),
        def("process.cpu_user_s", "s", "lower", None),
        def("process.cpu_sys_s", "s", "lower", None),
        def("process.allocs_per_view", "count", "lower", None),
        def("process.alloc_bytes_per_view", "B", "lower", None),
        def("bench.trace_overhead_pct", "%", "lower", None),
        def("bench.harness_self_pct", "%", "lower", None),
        def("bench.generator_threads", "count", "higher", None),
        def("bench.iterations", "count", "higher", None),
    ]);
    defs
}

/// Per-layer counts that repeat exactly for a (workload, seed): `agree`
/// requires them identical between two sets of the same commit.
pub const EXACT_COUNTS: [&str; 4] = [
    "synth.views",
    "analytics.spill_bytes_per_row",
    "analytics.hot_misses",
    "experiments.checks_passed",
];

/// A full set of runs (`out/results.json`, `baseline/set-*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// [`RESULTS_SCHEMA`].
    pub schema: String,
    /// `git rev-parse HEAD` of the measured tree (`unknown` outside git).
    pub git_commit: String,
    /// Where the numbers were taken.
    pub machine: Machine,
    /// Seconds each run measured.
    pub seconds: u64,
    /// Untraced runs per workload.
    pub runs: u64,
    /// Seed of the first run; run `i` used `base_seed + i`.
    pub base_seed: u64,
    /// Whether inputs were smoke-sized.
    pub smoke: bool,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

/// The measurement conditions every number carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Cores the process may use.
    pub nproc: u64,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Generator shards the benchmark asked for.
    pub generator_threads: u64,
}

/// All runs of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Output checks attempted over all runs.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// End-to-end metrics over the untraced runs.
    pub end_to_end: Vec<MetricSummary>,
    /// Per-layer metrics of the one traced run (at `base_seed`).
    pub per_layer: Vec<LayerValue>,
}

/// One end-to-end metric over runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening, as a share of the median.
    pub bound: f64,
    /// Median, quartiles, minimum and count over runs.
    pub summary: Summary,
    /// (q3 − q1) ÷ median.
    pub spread: f64,
}

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerValue {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}
