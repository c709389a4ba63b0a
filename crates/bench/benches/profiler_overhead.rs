//! Telemetry-plane self-cost: what the profiler and resource sampler add
//! to an instrumented run. Three costs matter:
//!
//! - `span_tree_merge`: a nested span open/close with profiling armed —
//!   the per-span folding cost every instrumented stage pays;
//! - `sampler_tick`: one resource-sampler snapshot (RSS read + full
//!   counter/gauge/histogram sweep) — paid once per `--sample-ms`;
//! - `folded_aggregation`: rendering the aggregated profile as folded
//!   stacks — paid once at export.
//!
//! Budget gates live in CI next to `monitor/ingest_view`'s; numbers land
//! in `results/BENCH_results.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_obs::{Collect, MetricsRegistry, Recorder};

fn profiling() -> Recorder {
    Recorder::new(Collect { profile: true, ..Collect::default() })
}

/// A registry resembling a mid-run snapshot: a few dozen counters, gauges,
/// and populated histograms, like the global registry after experiments.
fn populated_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    let names: Vec<String> = (0..24).map(|i| format!("bench.counter_{i}")).collect();
    for name in &names {
        reg.counter(name).add(7);
    }
    for i in 0..8 {
        reg.gauge(&format!("bench.gauge_{i}")).set(i);
    }
    for i in 0..12 {
        let h = reg.histogram(&format!("bench.hist_{i}"));
        for v in 0..64 {
            h.record(1_000 + v * 97 + i as u64 * 13);
        }
    }
    reg
}

fn bench_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    group.sample_size(30);

    // Per-span folding cost: open + close a depth-2 span pair under a
    // profiling recorder, so each iteration pays two path merges.
    group.bench_function("span_tree_merge", |b| {
        let reg = MetricsRegistry::new();
        let recorder = profiling();
        let _installed = recorder.install();
        b.iter(|| {
            let _outer = vmp_obs::span_in(&reg, "bench.outer");
            let _inner = vmp_obs::span_in(&reg, "bench.inner");
            black_box(());
        });
    });

    // Baseline for the same spans with no recorder installed, to make the
    // merge overhead legible as a delta.
    group.bench_function("span_tree_merge_off", |b| {
        let reg = MetricsRegistry::new();
        b.iter(|| {
            let _outer = vmp_obs::span_in(&reg, "bench.outer");
            let _inner = vmp_obs::span_in(&reg, "bench.inner");
            black_box(());
        });
    });

    // One sampler tick: /proc RSS read plus a full metric sweep into a
    // timeline sample.
    group.bench_function("sampler_tick", |b| {
        let reg = populated_registry();
        b.iter(|| black_box(vmp_obs::sample_now(&reg)));
    });

    // Rendering the aggregated profile as folded stacks, over a profile
    // the size a full repro run produces (dozens of distinct paths).
    group.bench_function("folded_aggregation", |b| {
        let reg = MetricsRegistry::new();
        let recorder = profiling();
        let installed = recorder.install();
        static ROOTS: [&str; 8] =
            ["bench.r0", "bench.r1", "bench.r2", "bench.r3", "bench.r4", "bench.r5", "bench.r6",
             "bench.r7"];
        static LEAVES: [&str; 8] =
            ["bench.l0", "bench.l1", "bench.l2", "bench.l3", "bench.l4", "bench.l5", "bench.l6",
             "bench.l7"];
        for root in ROOTS {
            for leaf in LEAVES {
                let _outer = vmp_obs::span_in(&reg, root);
                let _inner = vmp_obs::span_in(&reg, leaf);
            }
        }
        drop(installed);
        b.iter(|| black_box(recorder.profile().folded_stacks()));
    });

    group.finish();
}

criterion_group!(profiler_overhead, bench_profiler);
criterion_main!(profiler_overhead);
