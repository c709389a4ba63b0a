//! Store scan microbenchmarks: the columnar kernel over ingested
//! telemetry — full-store rollup, one-snapshot shares, the per-publisher
//! group-by, the zero-copy masked view — and the spill block codec.
//!
//! Run with `cargo bench --bench store_scan`; representative numbers live
//! in EXPERIMENTS.md and DESIGN.md §"Columnar analytics store".

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_analytics::columns::{self, Segment, CDN, PLATFORM, PROTOCOL};
use vmp_analytics::store::{IngestOptions, IngestPipeline, ViewStore};
use vmp_core::ids::PublisherId;
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

fn scan_context() -> (ViewStore, Vec<PublisherId>) {
    let mut config = EcosystemConfig::small();
    config.publishers = 60;
    config.snapshot_stride = 6;
    ingest(config)
}

fn ingest(config: EcosystemConfig) -> (ViewStore, Vec<PublisherId>) {
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

/// One-snapshot share queries across dimensions, and the per-publisher
/// group-by over the same snapshot.
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

    // One per-publisher group-by pass: the run-length kernel behind
    // Figs 3, 4, 7, 9 and 12.
    c.bench_function("store_scan/per_publisher", |b| {
        b.iter(|| black_box(columns::publisher_share(&store, black_box(last), PLATFORM, 0.05)))
    });
}

/// Whole passes over `rows_per_pass` rows until `wanted` rows were covered,
/// scaled to exactly `wanted`: `iter_custom` then reports ns **per row**.
fn time_rows(wanted: u64, rows_per_pass: u64, mut pass: impl FnMut()) -> Duration {
    let mut covered = 0u64;
    let start = Instant::now();
    while covered < wanted {
        pass();
        covered += rows_per_pass;
    }
    start.elapsed().mul_f64(wanted as f64 / covered as f64)
}

/// The spill block codec alone, to and from memory: one 64,800-row segment
/// (120 publishers × 540 views, the out-of-core workload's segment size),
/// in nanoseconds **per row**.
fn bench_spill_codec(c: &mut Criterion) {
    let mut config = EcosystemConfig::small();
    config.snapshot_stride = 54;
    config.view_gen.min_samples = 270;
    config.view_gen.max_samples = 270;
    config.view_gen.volume_scale = 2;
    let (store, _) = ingest(config);
    let seg = store.iter_segments().next().expect("one snapshot generated");
    let rows = seg.len() as u64;
    assert_eq!(rows, 64_800);
    let mut block = Vec::new();
    let mut group = c.benchmark_group("spill");
    group.sample_size(20);
    group.bench_function("encode_block", |b| {
        b.iter_custom(|wanted| {
            time_rows(wanted, rows, || {
                block.clear();
                black_box(seg.write_block(&mut block).expect("write to memory"));
            })
        })
    });
    let len = block.len() as u64;
    group.bench_function("decode_block", |b| {
        b.iter_custom(|wanted| {
            time_rows(wanted, rows, || {
                black_box(Segment::read_block(&mut black_box(&block[..]), len).expect("decode"));
            })
        })
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

criterion_group!(
    store_scan,
    bench_full_rollup,
    bench_snapshot_shares,
    bench_masked_scan,
    bench_spill_codec
);
criterion_main!(store_scan);
