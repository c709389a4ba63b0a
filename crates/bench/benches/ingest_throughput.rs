//! Streaming ingest throughput: a pre-generated batch stream pushed through
//! [`IngestPipeline`] with sealed segments kept resident
//! (`stream_drop_rows`, named from when keeping the rows was the
//! alternative) and spilling to disk (`stream_spill`). Each iteration
//! ingests the full corpus, so views/sec is `corpus size /
//! (median_ns * 1e-9)`; representative numbers live in EXPERIMENTS.md and
//! DESIGN.md §"Out-of-core pipeline".

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline};
use vmp_core::view::SampledView;
use vmp_synth::ecosystem::EcosystemConfig;
use vmp_synth::stream::ViewStream;

/// Materializes the batch stream once so every mode ingests the identical
/// corpus in the identical order (snapshot-major, publisher-ascending).
fn corpus() -> Vec<Vec<SampledView>> {
    let mut config = EcosystemConfig::small();
    config.publishers = 60;
    config.snapshot_stride = 6;
    let mut stream = ViewStream::new(config);
    let mut batches = Vec::new();
    while let Some(batch) = stream.next_batch() {
        if !batch.views.is_empty() {
            batches.push(batch.views);
        }
    }
    batches
}

fn ingest_all(batches: &[Vec<SampledView>], options: IngestOptions) -> usize {
    let mut pipeline = IngestPipeline::new(options);
    for batch in batches {
        pipeline.push_batch(black_box(batch.clone()));
    }
    pipeline.finish().len()
}

fn bench_ingest(c: &mut Criterion) {
    let batches = corpus();
    let views: usize = batches.iter().map(|b| b.len()).sum();
    println!("ingest_throughput corpus: {views} views per iteration");

    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);

    group.bench_function("stream_drop_rows", |b| {
        b.iter(|| black_box(ingest_all(&batches, IngestOptions::default())))
    });

    group.bench_function("stream_spill", |b| {
        let dir = std::env::temp_dir()
            .join(format!("vmp-bench-spill-{}", std::process::id()));
        b.iter(|| {
            // Hot budget 0: every sealed segment goes straight to disk, so
            // this measures the full encode+write cost, not cache luck.
            let spill = SpillConfig { dir: dir.clone(), hot_budget_bytes: 0 };
            black_box(ingest_all(
                &batches,
                IngestOptions { spill: Some(spill), ..IngestOptions::default() },
            ))
        })
    });

    group.finish();
}

criterion_group!(ingest_throughput, bench_ingest);
criterion_main!(ingest_throughput);
