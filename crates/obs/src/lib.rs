//! vmp-obs: the observability layer for the vmp workspace.
//!
//! Mirrors the paper's management-plane measurement stack (§3: client-side
//! instrumentation feeding an analytics backend) inside the simulator
//! itself: every pipeline stage reports into a process-wide
//! [`MetricsRegistry`] that can be snapshotted and exported as JSON.
//!
//! Built only on `std::sync::atomic` + `parking_lot` — no external
//! telemetry dependencies:
//!
//! - [`MetricsRegistry`]: named atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with p50/p90/p99 estimation;
//! - [`span`]: RAII stage timers recording latencies into histograms,
//!   nesting tracked via a thread-local span stack;
//! - [`RegistrySnapshot`]: point-in-time export, JSON via `serde_json`;
//! - [`session_trace`]: the one per-session event record — a 32-byte
//!   `Copy` [`SessionEvent`] (kind, fault-clock stamp, CDN, code, value)
//!   appended to the session's wide event and kept or dropped whole by the
//!   reservoir's policy (every anomalous session, a sample of normal ones);
//! - [`Recorder`]: one run's span [`Profile`] (folded stacks, stage
//!   table), [`ChromeTrace`] and session-trace keep-set, chosen at
//!   construction and installed on the run's threads; a thread without
//!   one records none of them;
//! - [`sampler`]: the resource timeline for a run.
//!
//! Handles are cheap clones around `Arc`'d atomics and are meant to be
//! looked up once and cached in hot-path structs. Counters and histograms
//! are striped per thread slot, so a recording is one uncontended relaxed
//! RMW however many shards record at once (see
//! `crates/bench/benches/obs_overhead.rs`).

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
// This crate is the wall-clock seam, so it may call `Instant::now`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]

mod export;
mod metrics;
pub mod profile;
mod recorder;
pub mod sampler;
pub mod session_trace;
mod span;
pub mod trace;

pub use export::{HistogramSnapshot, RegistrySnapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{parse_folded, Profile, ProfileEntry};
pub use recorder::{Collect, Installed, Recorder};
pub use sampler::{
    rss_bytes, sample_now, HistogramPoint, ResourceSampler, Timeline, TimelineRing, TimelineSample,
};
pub use session_trace::{
    ExemplarQuery, SessionEvent, SessionTrace, TraceCollector, TraceConfig, TraceEventKind,
    TraceReport,
};
pub use span::{span, span_in, Span, SpanHandle, Stopwatch};
pub use trace::{trace_counter, trace_instant, ChromeTrace, TraceEvent};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by all instrumented crates.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Convenience: a counter handle from the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Convenience: a gauge handle from the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Convenience: a histogram handle from the global registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Convenience: a point-in-time snapshot of the global registry.
pub fn snapshot() -> RegistrySnapshot {
    global().snapshot()
}
