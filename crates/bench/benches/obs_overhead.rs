//! Instrumentation overhead: what one counter increment, span enter/exit
//! and histogram record cost, alone and while another thread records into
//! the same instrument.
//!
//! Run with `cargo bench --bench obs_overhead`; representative numbers live
//! in CHANGES.md and the README "Observability" section.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_obs::MetricsRegistry;

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/counter");
    group.sample_size(30);

    let enabled = MetricsRegistry::new();
    let counter = enabled.counter("bench.enabled");
    group.bench_function("inc_enabled", |b| b.iter(|| black_box(&counter).inc()));

    group.bench_function("add_enabled", |b| b.iter(|| black_box(&counter).add(black_box(3))));
    group.finish();
}

fn bench_histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/histogram");
    group.sample_size(30);

    let enabled = MetricsRegistry::new();
    let hist = enabled.histogram("bench.latency");
    group.bench_function("record_enabled", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(977) % 1_000_000;
            black_box(&hist).record(black_box(v));
        })
    });
    group.finish();
}

fn bench_spans(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/span");
    group.sample_size(30);

    let enabled = MetricsRegistry::new();
    group.bench_function("enter_exit_enabled", |b| {
        b.iter(|| {
            let span = vmp_obs::span_in(black_box(&enabled), "bench.stage");
            black_box(&span);
        })
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/registry");
    group.sample_size(30);

    let reg = MetricsRegistry::new();
    reg.counter("bench.lookup");
    group.bench_function("counter_lookup_by_name", |b| {
        b.iter(|| black_box(reg.counter(black_box("bench.lookup"))))
    });
    group.finish();
}

/// Runs `measure` while a second thread calls `hammer` in a tight loop.
fn while_hammered(hammer: impl Fn() + Sync, measure: impl FnOnce()) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                hammer();
            }
        });
        measure();
        stop.store(true, Ordering::Relaxed);
    });
}

/// The enabled arms above, re-measured while another thread records into
/// the same instrument. Striping gives each thread its own cache lines, so
/// the counter and histogram arms should sit within 3x of their uncontended
/// twins (`obs/counter/inc_enabled`, `obs/histogram/record_enabled`). CI
/// gates these ratios.
fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/contended");
    group.sample_size(30);
    let reg = MetricsRegistry::new();

    let counter = reg.counter("bench.contended");
    while_hammered(
        || counter.inc(),
        || {
            group.bench_function("counter_inc", |b| b.iter(|| black_box(&counter).inc()));
        },
    );

    let hist = reg.histogram("bench.contended");
    while_hammered(
        || hist.record(black_box(977)),
        || {
            group.bench_function("histogram_record", |b| {
                let mut v = 0u64;
                b.iter(|| {
                    v = v.wrapping_add(977) % 1_000_000;
                    black_box(&hist).record(black_box(v));
                })
            });
        },
    );
    group.finish();
}

criterion_group!(
    obs_overhead,
    bench_counters,
    bench_histograms,
    bench_spans,
    bench_registry,
    bench_contended
);
criterion_main!(obs_overhead);
