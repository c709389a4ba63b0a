//! The cost of regenerating the paper's artifacts from an already-built
//! telemetry context: one benchmark per study figure, and one for all 13
//! store-scanning figures together (ecosystem generation itself is
//! benchmarked separately in the `generate/*` group).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline};
use vmp_core::time::SnapshotId;
use vmp_core::units::Seconds;
use vmp_experiments::{run, ReproContext, Scale};
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

/// The figures that read the telemetry store, in paper order.
const SCAN_FIGURES: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

/// The figures that run their own study and ignore the store.
const STUDY_FIGURES: [&str; 6] = ["tab1", "fig05", "fig15", "fig16", "fig17", "fig18"];

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure");
    group.sample_size(10);
    // One context shared by every study figure (as in the repro binary).
    let ctx = ReproContext::new(Scale::Quick);
    for id in STUDY_FIGURES {
        group.bench_function(id, |b| {
            b.iter(|| {
                let result = run(black_box(id), &ctx).expect("registered");
                black_box(result.checks.len())
            })
        });
    }
    drop(ctx);

    // The scan figures share one sweep per store, memoised on it by the
    // first of them: on a shared store every sample after the first would
    // time rendering only. So each iteration ingests a fresh spilled copy of
    // the quick corpus (outside the timer) and times all 13 on it — what a
    // run pays for them.
    let mut stream = ViewStream::new(EcosystemConfig::small());
    let mut batches = Vec::new();
    while let Some(batch) = stream.next_batch() {
        batches.push(batch.views);
    }
    let mut dataset = Some(stream.into_dataset());
    let dir = std::env::temp_dir().join(format!("vmp-bench-scan-{}", std::process::id()));
    group.bench_function("scan_all", |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let mut pipeline = IngestPipeline::new(IngestOptions {
                    spill: Some(SpillConfig::new(dir.clone())),
                    ..IngestOptions::default()
                });
                for batch in &batches {
                    pipeline.push_batch(batch.clone());
                }
                let store = pipeline.finish();
                let lent = dataset.take().expect("the dataset is handed back");
                let ctx = ReproContext { dataset: lent, store, scale_factor: 1 };
                let start = Instant::now();
                for id in SCAN_FIGURES {
                    black_box(run(id, &ctx).expect("registered").checks.len());
                }
                spent += start.elapsed();
                dataset = Some(ctx.dataset);
            }
            spent
        })
    });
    group.finish();
}

criterion_group!(figures, bench_generate, bench_cell, bench_figures);
criterion_main!(figures);
