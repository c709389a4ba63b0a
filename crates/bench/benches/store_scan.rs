//! Store scan microbenchmarks: the columnar kernel over ingested
//! telemetry — full-store rollup, one-snapshot shares, and the zero-copy
//! masked view.
//!
//! Run with `cargo bench --bench store_scan`; representative numbers live
//! in EXPERIMENTS.md and DESIGN.md §"Columnar analytics store".

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_analytics::columns::{self, CDN, PLATFORM, PROTOCOL};
use vmp_analytics::store::{IngestOptions, IngestPipeline, ViewStore};
use vmp_core::ids::PublisherId;
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

fn scan_context() -> (ViewStore, Vec<PublisherId>) {
    let mut config = EcosystemConfig::small();
    config.publishers = 60;
    config.snapshot_stride = 6;
    let mut stream = ViewStream::new(config);
    let mut pipeline = IngestPipeline::new(IngestOptions::default());
    while let Some(batch) = stream.next_batch() {
        pipeline.push_batch(batch.views);
    }
    let excluded = stream.into_dataset().largest_publishers(3);
    (pipeline.finish(), excluded)
}

/// Full-store view-hour rollup over every snapshot.
fn bench_full_rollup(c: &mut Criterion) {
    let (store, _) = scan_context();
    let mut group = c.benchmark_group("store_scan/full_rollup");
    group.sample_size(20);

    group.bench_function("columns", |b| {
        b.iter(|| {
            let hours = columns::group_hours_all(black_box(&store), PLATFORM);
            black_box(hours.values().sum::<f64>())
        })
    });
    group.finish();
}

/// One-snapshot share queries across dimensions.
fn bench_snapshot_shares(c: &mut Criterion) {
    let (store, _) = scan_context();
    let last = store.latest_snapshot().expect("store has data");
    let mut group = c.benchmark_group("store_scan/snapshot_share");
    group.sample_size(20);

    group.bench_function("columns_protocol", |b| {
        b.iter(|| black_box(columns::vh_share(&store, black_box(last), PROTOCOL)))
    });
    group.bench_function("columns_cdn", |b| {
        b.iter(|| black_box(columns::vh_share(&store, black_box(last), CDN)))
    });
    group.finish();
}

/// Publisher-filtered scan through the zero-copy bitmask view.
fn bench_masked_scan(c: &mut Criterion) {
    let (store, excluded) = scan_context();
    let mut group = c.benchmark_group("store_scan/masked");
    group.sample_size(20);

    group.bench_function("bitmask_view", |b| {
        b.iter(|| {
            let masked = store.excluding(black_box(&excluded));
            black_box(columns::group_hours_all(&masked, PLATFORM))
        })
    });
    group.finish();
}

criterion_group!(store_scan, bench_full_rollup, bench_snapshot_shares, bench_masked_scan);
criterion_main!(store_scan);
