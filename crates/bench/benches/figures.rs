//! One benchmark per paper artifact: measures the cost of regenerating each
//! table/figure from an already-built telemetry context (ecosystem
//! generation itself is benchmarked separately in the `generate/*` group).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_core::time::SnapshotId;
use vmp_core::units::Seconds;
use vmp_experiments::{run, ReproContext, Scale, ALL_EXPERIMENTS};
use vmp_stats::Rng;
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;
use vmp_synth::views::{generate_views, ViewGenConfig};

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    let mut config = EcosystemConfig::small();
    config.publishers = 40;
    config.snapshot_stride = 18;
    group.bench_function("ecosystem_small", |b| {
        b.iter(|| {
            let mut stream = ViewStream::new(black_box(config.clone()));
            let mut views = 0usize;
            while let Some(batch) = stream.next_batch() {
                views += black_box(batch.views).len();
            }
            views
        })
    });
    group.finish();
}

/// The generation kernel on its own: the median-size publisher's cell at
/// the last snapshot through `generate_views`, in nanoseconds **per view**,
/// at the session caps of the small (12 s) and the paper (36 s) ecosystem.
fn bench_cell(c: &mut Criterion) {
    let dataset = ViewStream::new(EcosystemConfig::small()).into_dataset();
    let mut by_size: Vec<_> = dataset.profiles.iter().collect();
    by_size.sort_by(|a, b| a.vh_day_final.total_cmp(&b.vh_day_final));
    let profile = by_size[by_size.len() / 2];
    let snapshot = SnapshotId::LAST;
    let plane = profile.plane(snapshot);
    let mut group = c.benchmark_group("generate");
    group.sample_size(20);
    for (label, cap) in [("12s", 12.0), ("36s", 36.0)] {
        let cfg = ViewGenConfig { sim_media_cap: Seconds(cap), ..ViewGenConfig::default() };
        group.bench_function(&format!("cell_mid_publisher/{label}"), |b| {
            b.iter_custom(|views| {
                let mut rng = Rng::seed_from(7);
                let mut made = 0u64;
                let start = Instant::now();
                while made < views {
                    let cell = generate_views(
                        profile,
                        &plane,
                        &dataset.graph,
                        black_box(&cfg),
                        snapshot,
                        0,
                        &mut rng,
                    );
                    made += black_box(cell).len() as u64;
                }
                // Whole cells only: scale to the views asked for.
                start.elapsed().mul_f64(views as f64 / made as f64)
            })
        });
    }
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    // One context shared by every figure bench (as in the repro binary).
    let ctx = ReproContext::new(Scale::Quick);
    let mut group = c.benchmark_group("figure");
    group.sample_size(10);
    for id in ALL_EXPERIMENTS {
        group.bench_function(id, |b| {
            b.iter(|| {
                let result = run(black_box(id), &ctx).expect("registered");
                black_box(result.checks.len())
            })
        });
    }
    group.finish();
}

criterion_group!(figures, bench_generate, bench_cell, bench_figures);
criterion_main!(figures);
