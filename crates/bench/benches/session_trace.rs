//! Session-trace plane self-cost: what speculative wide-event tracing adds
//! to a played session, and what the disabled path costs when tracing is
//! off (every session in every run pays the disabled path).
//!
//! - `trace/emit_disabled`: one [`vmp_obs::session_trace::emit`] on a
//!   thread with no recorder — a thread-local load and an untaken branch,
//!   expected in single-digit ns;
//! - `trace/session_disabled`: a full begin → 32 emits → finish cycle
//!   with no recorder — the whole-session overhead of the instrumentation
//!   when `--session-trace` is not given;
//! - `trace/session_enabled`: the same cycle under a recorder that traces
//!   sessions —
//!   arena event writes plus the offer/keep decision at completion, in
//!   reservoir steady state (mostly head-sampled rejects).
//!
//! Budget gates live in CI next to the profiler's; numbers land in
//! `results/BENCH_results.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_obs::session_trace::{self, TraceConfig, TraceEventKind};
use vmp_obs::{Collect, Recorder};

/// One synthetic session: begin, a realistic event mix, finish.
fn play_one(id: u64) {
    let scope = session_trace::begin(id, 3, 0, 1, 0.0);
    for j in 0..32u32 {
        let kind = match j % 8 {
            0 => TraceEventKind::AbrSwitch,
            1 => TraceEventKind::Rebuffer,
            2 => TraceEventKind::Retry,
            _ => TraceEventKind::ChunkFetch,
        };
        session_trace::emit(kind, j as f64 * 2.0, 0, 3200, 0.25);
    }
    scope.finish(64.0, false, 0.02);
}

fn bench_session_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(30);

    group.bench_function("emit_disabled", |b| {
        b.iter(|| {
            session_trace::emit(
                black_box(TraceEventKind::ChunkFetch),
                black_box(1.5),
                0,
                3200,
                0.25,
            )
        })
    });

    group.bench_function("session_disabled", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            play_one(black_box(id));
        })
    });

    group.bench_function("session_enabled", |b| {
        let sessions = Some(TraceConfig { seed: 42, ..TraceConfig::default() });
        let recorder = Recorder::new(Collect { sessions, ..Collect::default() });
        let _installed = recorder.install();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            play_one(black_box(id));
        });
    });

    group.finish();
}

criterion_group!(session_trace_cost, bench_session_trace);
criterion_main!(session_trace_cost);
