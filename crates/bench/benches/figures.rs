//! One benchmark per paper artifact: measures the cost of regenerating each
//! table/figure from an already-built telemetry context (ecosystem
//! generation itself is benchmarked separately as `generate_ecosystem`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_experiments::{run, ReproContext, Scale, ALL_EXPERIMENTS};
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

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

criterion_group!(figures, bench_generate, bench_figures);
criterion_main!(figures);
