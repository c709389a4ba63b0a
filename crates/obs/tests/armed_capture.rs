//! The armed capture path — a session-tracing `Recorder` installed on
//! several threads, `begin` / `emit` / `finish` on each, then
//! `take_session_report` — keeps exactly the set a standalone
//! `TraceCollector` keeps when offered the same sessions one by one: the
//! offline budget prefix, whatever order the threads complete sessions in.

use vmp_obs::session_trace::{
    self, SessionEvent, SessionTrace, TraceCollector, TraceConfig, TraceEventKind, TraceReport,
    NO_CDN,
};
use vmp_obs::{Collect, Recorder};

const THREADS: usize = 4;

/// `n` completed sessions, mostly normal, with fatal, rebuffering, shed
/// and retry-denied outcomes mixed in.
fn population(n: u64) -> Vec<SessionTrace> {
    let mut s: u64 = 0x5E55_1011;
    // A 64-bit LCG; the high bits are well mixed.
    let mut next = || {
        s = s.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
        s >> 33
    };
    (0..n)
        .map(|i| {
            let outcome = next() % 20;
            let chunks = 2 + next() % 10;
            let mut events: Vec<SessionEvent> = (0..chunks)
                .map(|j| SessionEvent {
                    kind: TraceEventKind::ChunkFetch,
                    clock: (i + j * 4) as f64,
                    cdn: (next() % 4) as u8,
                    code: 800 + (next() % 4000) as u32,
                    value: (next() % 400) as f64 / 100.0,
                })
                .collect();
            let tail = [TraceEventKind::Shed, TraceEventKind::RetryDenied, TraceEventKind::Fatal];
            if let Some(&kind) = tail.get(outcome as usize) {
                let clock = (i + chunks * 4) as f64;
                events.push(SessionEvent { kind, clock, cdn: NO_CDN, code: 3, value: 0.0 });
            }
            SessionTrace {
                session: i,
                publisher: next() % 8,
                cdn: (next() % 4) as u8,
                region: (next() % 3) as u8,
                start_clock: i as f64,
                end_clock: i as f64 + 60.0,
                fatal: outcome == 2,
                rebuffer_ratio: if outcome == 3 { 0.25 } else { 0.01 },
                anomaly: 0, // recomputed by the collector at offer time
                events,
            }
        })
        .collect()
}

/// The standalone reference: every session offered in id order.
fn reference(cfg: TraceConfig, sessions: &[SessionTrace]) -> TraceReport {
    let mut c = TraceCollector::new(cfg);
    sessions.iter().for_each(|t| c.offer(t.clone()));
    c.into_report()
}

/// Plays `t` through the thread-local builder into the thread's recorder.
fn play(t: &SessionTrace) {
    let scope = session_trace::begin(t.session, t.publisher, t.cdn, t.region, t.start_clock);
    for e in &t.events {
        session_trace::emit(e.kind, e.clock, e.cdn, e.code, e.value);
    }
    scope.finish(t.end_clock, t.fatal, t.rebuffer_ratio);
}

/// Completes every session on `THREADS` threads under one recorder —
/// thread `k` takes every `THREADS`-th session starting at `k`, odd
/// threads in reverse — and finalizes.
fn armed(cfg: TraceConfig, sessions: &[SessionTrace]) -> TraceReport {
    let recorder = Recorder::new(Collect { sessions: Some(cfg), ..Collect::default() });
    std::thread::scope(|scope| {
        for k in 0..THREADS {
            let recorder = &recorder;
            scope.spawn(move || {
                let _installed = recorder.install();
                let mine = sessions.iter().skip(k).step_by(THREADS);
                if k % 2 == 0 { mine.for_each(play) } else { mine.rev().for_each(play) }
            });
        }
    });
    recorder.take_session_report().expect("the recorder traces sessions")
}

#[test]
fn armed_threads_keep_the_offline_budget_prefix() {
    let sessions = population(4_000);
    let open = TraceConfig { seed: 7, byte_budget: usize::MAX, ..TraceConfig::default() };
    let unbounded = reference(open, &sessions);
    let tail_bytes: usize =
        unbounded.traces.iter().filter(|t| t.anomaly != 0).map(SessionTrace::approx_bytes).sum();
    assert!(unbounded.tail_kept > 0 && unbounded.kept() > unbounded.tail_kept);

    // One budget cuts into the head-sampled normal sessions, the other
    // into the anomalous ones (which then dooms every normal session).
    for byte_budget in [tail_bytes + (unbounded.bytes - tail_bytes) / 2, tail_bytes / 2] {
        let cfg = TraceConfig { byte_budget, ..open };
        let want = reference(cfg, &sessions);
        assert!(want.dropped > 0 && want.kept() < unbounded.kept(), "{byte_budget} never binds");
        let got = armed(cfg, &sessions);
        assert_eq!(got.traces, want.traces, "armed kept set differs at budget {byte_budget}");
        assert_eq!(got.to_jsonl(), want.to_jsonl());
    }
}
