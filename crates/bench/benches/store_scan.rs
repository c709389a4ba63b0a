//! Store scan microbenchmarks: the per-segment kernels the figures' sweep
//! runs over ingested telemetry — a view-hour rollup of every segment,
//! one-snapshot shares, the per-publisher group-by, a masked rollup — and
//! the spill block codec.
//!
//! Run with `cargo bench --bench store_scan`; representative numbers live
//! in EXPERIMENTS.md and DESIGN.md §"Columnar analytics store".

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_analytics::columns::{
    per_publisher_segment, per_segment_map, publisher_shares, rollup_segment, Metric,
    PublisherMask, Segment, CDN, PLATFORM, PROTOCOL,
};
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

/// The latest snapshot's segment (what the one-snapshot arms scan).
fn latest(store: &ViewStore) -> std::sync::Arc<Segment> {
    store.latest_snapshot().and_then(|s| store.segment(s)).expect("store has data")
}

/// View-hour platform shares of every segment, through the sweep.
fn bench_full_rollup(c: &mut Criterion) {
    let (store, _) = scan_context();
    let mut group = c.benchmark_group("store_scan/full_rollup");
    group.sample_size(20);

    group.bench_function("columns", |b| {
        b.iter(|| {
            black_box(per_segment_map(black_box(&store), |seg| {
                rollup_segment(seg, None, PLATFORM.column, Metric::Hours).shares(PLATFORM)
            }))
        })
    });
    group.finish();
}

/// One-snapshot view-hour shares across dimensions, and the per-publisher
/// group-by over the same snapshot.
fn bench_snapshot_shares(c: &mut Criterion) {
    let (store, _) = scan_context();
    let seg = latest(&store);
    let mut group = c.benchmark_group("store_scan/snapshot_share");
    group.sample_size(20);

    group.bench_function("columns_protocol", |b| {
        b.iter(|| {
            let r = rollup_segment(black_box(&seg), None, PROTOCOL.column, Metric::Hours);
            black_box(r.shares(PROTOCOL))
        })
    });
    group.bench_function("columns_cdn", |b| {
        b.iter(|| {
            let r = rollup_segment(black_box(&seg), None, CDN.column, Metric::Hours);
            black_box(r.shares(CDN))
        })
    });
    group.finish();

    // One per-publisher group-by pass: the run-length kernel behind
    // Figs 3, 4, 7, 9 and 12.
    c.bench_function("store_scan/per_publisher", |b| {
        b.iter(|| {
            let per_pub = per_publisher_segment(black_box(&seg), None, PLATFORM.column);
            black_box(publisher_shares(&per_pub, PLATFORM, 0.05))
        })
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

/// One publisher-filtered rollup of the latest segment: the mask skips
/// the three largest publishers' rows in place (Fig 6(b)'s scan).
fn bench_masked_scan(c: &mut Criterion) {
    let (store, excluded) = scan_context();
    let seg = latest(&store);
    let mask = PublisherMask::new(&excluded);
    let mut group = c.benchmark_group("store_scan/masked");
    group.sample_size(20);

    group.bench_function("rollup_segment", |b| {
        b.iter(|| {
            let r = rollup_segment(black_box(&seg), Some(&mask), PLATFORM.column, Metric::Hours);
            black_box(r.shares(PLATFORM))
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
