//! vmp-obs: the observability layer for the vmp workspace.
//!
//! Mirrors the paper's management-plane measurement stack (§3: client-side
//! instrumentation feeding an analytics backend) inside the simulator
//! itself: every pipeline stage reports into a process-wide
//! [`MetricsRegistry`] that can be snapshotted and exported as JSON or
//! Prometheus text.
//!
//! Built only on `std::sync::atomic` + `parking_lot` — no external
//! telemetry dependencies:
//!
//! - [`MetricsRegistry`]: named atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with p50/p90/p99 estimation;
//! - [`span`]: RAII stage timers recording latencies into histograms,
//!   nesting tracked via a thread-local span stack;
//! - [`EventSink`] + [`RingBufferSink`]: bounded recorder for structured
//!   pipeline events (rebuffer start/stop, CDN switch, cache miss,
//!   manifest parse errors);
//! - [`RegistrySnapshot`]: point-in-time export, JSON via `serde_json`
//!   or Prometheus exposition text.
//!
//! Handles are cheap clones around `Arc`'d atomics and are meant to be
//! looked up once and cached in hot-path structs. Counters, histograms and
//! the event ring are striped per thread slot, so a recording is one
//! uncontended relaxed RMW however many shards record at once. Every handle
//! carries the registry's shared enabled flag, so a disabled counter
//! increment is one relaxed load plus a branch (see
//! `crates/bench/benches/obs_overhead.rs`).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod events;
mod export;
mod metrics;
pub mod profile;
pub mod sampler;
pub mod session_trace;
mod span;
pub mod trace;

pub use events::{Event, EventKind, EventSink, RingBufferSink};
pub use export::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RegistrySnapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{
    folded_stacks, parse_folded, profile_entries, profiling_enabled, reset_profile, set_profiling,
    stage_entries, ProfileEntry,
};
pub use sampler::{
    rss_bytes, sample_now, HistogramPoint, ResourceSampler, Timeline, TimelineRing, TimelineSample,
};
pub use session_trace::{
    session_tracing_enabled, ExemplarQuery, SessionEvent, SessionTrace, TraceCollector,
    TraceConfig, TraceEventKind, TraceReport,
};
pub use span::{current_path, span, span_in, Span, SpanHandle, Stopwatch};
pub use trace::{
    chrome_trace_json, set_tracing, trace_counter, trace_dropped, trace_events, trace_instant,
    tracing_enabled, TraceEvent,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by all instrumented crates.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Enables or disables all recording through the global registry.
///
/// Disabled handles degrade to a single relaxed atomic load; metric values
/// recorded while disabled are lost, not buffered.
pub fn set_enabled(enabled: bool) {
    global().set_enabled(enabled);
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

/// Convenience: records a structured event into the global registry's sink.
pub fn event(kind: EventKind, detail: impl Into<String>) {
    global().record_event(kind, detail);
}

/// Like [`event`], but builds the detail string only when the global
/// registry is enabled — use it wherever the detail is a `format!`.
pub fn event_with(kind: EventKind, detail: impl FnOnce() -> String) {
    global().record_event_with(kind, detail);
}

/// Convenience: a point-in-time snapshot of the global registry.
pub fn snapshot() -> RegistrySnapshot {
    global().snapshot()
}
