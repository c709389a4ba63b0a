//! Unit-level checks of the harness: statistics, span accounting, result
//! files, and the two ways the harness could drift from what it measures
//! (its pipeline assembly vs the product's, its metric tables vs
//! `BENCHMARK.json`).

use std::path::Path;

use serde_json::Value;
use vmp_e2ebench::alloc::AllocHooks;
use vmp_e2ebench::product::{self, StoreSpec};
use vmp_e2ebench::runner::{self, DEFAULT_SEED};
use vmp_e2ebench::schema::{self, LayerValue, Machine, MetricSummary, ResultSet, WorkloadResult};
use vmp_e2ebench::stats::{median, Summary};
use vmp_e2ebench::trace::{self_times, SpanRec, Tracer};
use vmp_e2ebench::workloads::Workload;
use vmp_experiments::{ReproContext, Scale};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten).unwrap();
    assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (2.75, 5.5, 8.25, 1.0, 10));
    assert!((s.spread() - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    // Two points extrapolate: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = Summary::of(&[2.0, 1.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    // One run (smoke) is its own quartiles; nothing and NaN have none.
    let s = Summary::of(&[7.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    assert_eq!(Summary::of(&[]), None);
    assert_eq!(median(&[1.0, f64::NAN]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
    SpanRec { id, parent, run: 0, name: "t", start_ns, end_ns, counts: Vec::new() }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, None, 0, 100),    // root
        span(1, Some(0), 10, 40), // nested child …
        span(2, Some(1), 15, 25), // … with a grandchild
        span(3, Some(0), 30, 60), // overlaps child 1 on [30, 40)
        span(4, Some(0), 90, 120), // overhangs the root
    ];
    // Root: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
    assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
}

#[test]
fn tracer_nests_counts_and_aggregates_per_run() {
    let mut tracer = Tracer::new(true);
    tracer.set_run(3);
    let root = tracer.begin("bench.iteration");
    let inner = tracer.begin("synth.next_batch");
    tracer.end_with(inner, &[("views", 5)]);
    assert_eq!(tracer.leaf("synth.next_batch", || 7), 7);
    tracer.end_with(root, &[("views", 5)]);
    tracer.set_enabled(false);
    let ignored = tracer.begin("analytics.finish");
    tracer.end(ignored);

    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
    let agg = tracer.aggregate(3);
    assert_eq!(agg["synth.next_batch"].calls, 2);
    assert_eq!(agg["synth.next_batch"].count("views"), 5);
    assert!(tracer.aggregate(0).is_empty());
    // Self times of a tree sum to the root's duration.
    let total: u64 = self_times(spans).iter().sum();
    assert_eq!(total, spans[0].duration_ns());
    // One JSON object per span, parents by id.
    let lines: Vec<Value> =
        tracer.to_jsonl().lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[1].get("parent").and_then(Value::as_u64), Some(0));
    assert_eq!(lines[1].get("counts").and_then(|c| c.get("views")).and_then(Value::as_u64), Some(5));
}

fn sample_set(median_wall: f64) -> ResultSet {
    let summary = Summary::of(&[median_wall, median_wall * 1.01, median_wall * 0.99]).unwrap();
    ResultSet {
        schema: schema::RESULTS_SCHEMA.to_string(),
        git_commit: "0123abc".to_string(),
        machine: Machine { nproc: 2, cpu_model: "test cpu".to_string(), generator_threads: 2 },
        seconds: 20,
        runs: 3,
        base_seed: DEFAULT_SEED,
        smoke: false,
        workloads: vec![WorkloadResult {
            name: "paper_full".to_string(),
            attempted: 12,
            failed: 0,
            end_to_end: vec![MetricSummary {
                name: "wall_s".to_string(),
                unit: "s".to_string(),
                better: "lower".to_string(),
                bound: 0.15,
                spread: summary.spread(),
                summary,
            }],
            per_layer: vec![LayerValue {
                name: "synth.views".to_string(),
                unit: "count".to_string(),
                value: 435_357.0,
            }],
        }],
    }
}

#[test]
fn result_set_round_trips_through_the_json_shim() {
    let set = sample_set(2.7);
    let text = serde_json::to_string_pretty(&set).unwrap();
    let back: ResultSet = serde_json::from_str(&text).unwrap();
    assert_eq!(back, set);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("round-trip.json");
    std::fs::write(&path, text).unwrap();
    assert_eq!(runner::load(&path).unwrap(), set);
    assert!(runner::render(&set).contains("wall_s"));
}

#[test]
fn agree_holds_within_the_bound_and_fails_beyond_it() {
    let base = sample_set(2.0);
    let (ok, table) = runner::agree(&base, &sample_set(2.2)).unwrap();
    assert!(ok, "{table}");
    // 2.0 → 2.4 is 20 % worse than the better set: beyond the 15 % bound,
    // whichever file is named first.
    assert!(!runner::agree(&base, &sample_set(2.4)).unwrap().0);
    assert!(!runner::agree(&sample_set(2.4), &base).unwrap().0);
    // An exactly-repeating count that moved fails, and so does a failed
    // output check.
    let mut moved = sample_set(2.0);
    moved.workloads[0].per_layer[0].value += 1.0;
    assert!(!runner::agree(&base, &moved).unwrap().0);
    let mut failed = sample_set(2.0);
    failed.workloads[0].failed = 1;
    assert!(!runner::agree(&base, &failed).unwrap().0);
}

/// The harness assembles generate → ingest itself (to put spans around
/// each call); it must build exactly what the product's own assembly
/// builds, or it measures something users do not run.
#[test]
fn harness_context_equals_the_product_context_column_for_column() {
    let product_ctx = ReproContext::with_options(Scale::Quick, None, 1, None);
    let mut tracer = Tracer::new(false);
    let built = product::build_context(
        product::small_config(DEFAULT_SEED, 6, 1),
        &StoreSpec::resident(),
        &mut tracer,
        &AllocHooks::none(),
    );
    let ours = &built.ctx;
    assert_eq!(built.views as usize, product_ctx.store.len());
    assert_eq!(ours.store.len(), product_ctx.store.len());
    assert_eq!(ours.scale_factor, product_ctx.scale_factor);
    assert_eq!(ours.store.snapshots(), product_ctx.store.snapshots());
    assert_eq!(ours.dataset.snapshots, product_ctx.dataset.snapshots);
    assert_eq!(ours.store.player_count(), product_ctx.store.player_count());
    for (a, b) in ours.store.iter_segments().zip(product_ctx.store.iter_segments()) {
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.publishers(), b.publishers());
        assert_eq!(a.devices(), b.devices());
        assert_eq!(a.platforms(), b.platforms());
        assert_eq!(a.protocols(), b.protocols());
        assert_eq!(a.regions(), b.regions());
        assert_eq!(a.isps(), b.isps());
        assert_eq!(a.connections(), b.connections());
        assert_eq!(a.classes(), b.classes());
        assert_eq!(a.owners(), b.owners());
        assert_eq!(a.cdn_masks(), b.cdn_masks());
        assert_eq!(a.rung_counts(), b.rung_counts());
        assert_eq!(a.players(), b.players());
        assert_eq!(a.hours(), b.hours());
        assert_eq!(a.weights(), b.weights());
    }
    assert!(product::hours_conserved(ours));
}

/// `BENCHMARK.json` is written by hand; the binary's tables are what runs.
#[test]
fn benchmark_json_mirrors_the_binary() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    assert_eq!(doc.get("run_seconds").and_then(Value::as_u64), Some(schema::RUN_SECONDS));
    let paths: Vec<&str> =
        doc.get("paths").and_then(Value::as_array).unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["e2ebench"]);
    let command: Vec<&str> =
        doc.get("command").and_then(Value::as_array).unwrap().iter().filter_map(Value::as_str).collect();
    assert!(command.contains(&"e2ebench/Cargo.toml"), "{command:?}");

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (text(m, "name"), text(m, "unit"), text(m, "better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect()
    };
    let defined = |defs: Vec<schema::MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string(), d.bound))
            .collect()
    };
    assert_eq!(listed("end_to_end"), defined(schema::end_to_end()));
    assert_eq!(listed("per_layer"), defined(schema::per_layer()));
    assert!(schema::per_layer().len() <= 128);
    assert!(schema::end_to_end().iter().any(|d| d.name == "setup_s" && d.unit == "s"));
}
