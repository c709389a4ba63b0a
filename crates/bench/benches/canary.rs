//! The host-speed canary: a fixed integer workload that no product change
//! can move.
//!
//! `canary/alu` folds 256 serial splitmix64 steps — each step's output is
//! the next step's input, so the loop is one dependency chain of adds,
//! shifts, xors and multiplies that neither vectorises nor touches memory.
//! It uses no `vmp-*` crate. A perf-history row records it next to the
//! product arms it was measured with: when two rows' canaries differ, the
//! host changed speed, and their product numbers are not comparable.
//!
//! Run with `cargo bench -p vmp-bench --bench canary`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Steps per iteration: ≈ 1 µs of serial integer work.
const STEPS: u32 = 256;

/// `STEPS` chained splitmix64 steps starting from `seed`.
fn splitmix_fold(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..STEPS {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x = z ^ (z >> 31);
    }
    x
}

fn bench_alu(c: &mut Criterion) {
    let mut group = c.benchmark_group("canary");
    group.sample_size(30);
    group.bench_function("alu", |b| b.iter(|| splitmix_fold(black_box(0x5EED))));
    group.finish();
}

criterion_group!(canary, bench_alu);
criterion_main!(canary);
