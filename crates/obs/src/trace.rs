//! Chrome `trace_event` timeline export.
//!
//! When tracing is switched on ([`set_tracing`]), every [`crate::Span`]
//! additionally records a *slice* — name, wall-clock start offset from the
//! collector epoch, duration, thread — into a process-wide bounded
//! collector. Callers can also append counter samples and instant markers
//! on a *virtual* timeline (the simulator's fault clock), which lands on a
//! separate trace process so wall-clock spans and virtual-clock health
//! windows render side by side.
//!
//! [`chrome_trace_json`] renders everything as Chrome's JSON object format
//! (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and Perfetto.
//! Phases used: `X` (complete slice), `C` (counter), `i` (instant), `M`
//! (metadata naming the two trace processes).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;
use serde_json::Value;

/// Trace process id for wall-clock span slices.
pub const PID_WALL: u64 = 1;

/// Trace process id for virtual-timeline (fault clock) samples.
pub const PID_VIRTUAL: u64 = 2;

/// Trace process id for resource-sampler counters (RSS, metric deltas).
pub const PID_RESOURCE: u64 = 3;

/// Hard cap on retained trace events; past it, new events are counted as
/// dropped rather than growing without bound.
const TRACE_CAPACITY: usize = 200_000;

/// One Chrome `trace_event` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span stage, counter name, marker label).
    pub name: String,
    /// Phase: `X` complete, `C` counter, `i` instant, `M` metadata.
    pub ph: char,
    /// Timestamp in microseconds (wall offset from epoch, or virtual).
    pub ts: u64,
    /// Duration in microseconds (complete slices only).
    pub dur: Option<u64>,
    /// Trace process: [`PID_WALL`] or [`PID_VIRTUAL`].
    pub pid: u64,
    /// Thread (dense per-thread index for wall events, 0 for virtual).
    pub tid: u64,
    /// Counter values / marker details, as `(key, value)` pairs.
    pub args: Vec<(String, Value)>,
    /// Whether this is a global-scope instant event (emits `"s": "g"`).
    pub global_instant: bool,
}

impl TraceEvent {
    /// Renders the trace-format JSON object for this event, omitting the
    /// optional fields Chrome does not expect on this phase.
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("ph".into(), Value::Str(self.ph.to_string())),
            ("ts".into(), Value::U64(self.ts)),
            ("pid".into(), Value::U64(self.pid)),
            ("tid".into(), Value::U64(self.tid)),
        ];
        if let Some(dur) = self.dur {
            fields.push(("dur".into(), Value::U64(dur)));
        }
        if self.global_instant {
            fields.push(("s".into(), Value::Str("g".into())));
        }
        if !self.args.is_empty() {
            fields.push(("args".into(), Value::Object(self.args.clone())));
        }
        Value::Object(fields)
    }
}

struct TraceCollector {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<TraceCollector> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn collector() -> &'static TraceCollector {
    COLLECTOR.get_or_init(|| TraceCollector {
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

/// Turns span/counter/instant trace recording on or off. The collector
/// epoch is pinned at the first touch, so timestamps stay comparable across
/// enable/disable cycles within one process.
pub fn set_tracing(enabled: bool) {
    if enabled {
        // Pin the epoch before the first event can race it.
        let _ = collector();
    }
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether trace recording is currently on. Cheap enough to guard
/// construction of expensive `args` payloads at call sites.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Microseconds elapsed since the collector epoch.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the elapsed time is clamped to u64::MAX first"
)]
pub(crate) fn now_us() -> u64 {
    collector().epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn push(event: TraceEvent) {
    let c = collector();
    let mut events = c.events.lock();
    if events.len() >= TRACE_CAPACITY {
        c.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(event);
}

/// Records a completed wall-clock slice (used by [`crate::Span`] on drop).
pub(crate) fn record_slice(name: &'static str, start_us: u64, dur_us: u64) {
    let tid = THREAD_TID.with(|t| *t);
    push(TraceEvent {
        name: name.to_string(),
        ph: 'X',
        ts: start_us,
        dur: Some(dur_us),
        pid: PID_WALL,
        tid,
        args: Vec::new(),
        global_instant: false,
    });
}

/// Appends a counter sample on the virtual timeline (`ts_us` is virtual
/// microseconds, e.g. fault-clock seconds × 1e6). No-op unless tracing is
/// on.
pub fn trace_counter(name: &str, ts_us: u64, values: &[(&str, f64)]) {
    if !tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        ph: 'C',
        ts: ts_us,
        dur: None,
        pid: PID_VIRTUAL,
        tid: 0,
        args: values.iter().map(|(k, v)| (k.to_string(), Value::F64(*v))).collect(),
        global_instant: false,
    });
}

/// Appends a global instant marker (alerts, fault window boundaries) on the
/// virtual timeline. No-op unless tracing is on.
pub fn trace_instant(name: &str, ts_us: u64, detail: &str) {
    if !tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        ph: 'i',
        ts: ts_us,
        dur: None,
        pid: PID_VIRTUAL,
        tid: 0,
        args: vec![("detail".into(), Value::Str(detail.to_string()))],
        global_instant: true,
    });
}

/// Appends a counter sample on the resource timeline ([`PID_RESOURCE`];
/// wall-clock microseconds since the collector epoch). Used by the
/// resource sampler so RSS and metric-rate curves render beside the span
/// timeline. No-op unless tracing is on.
pub fn trace_resource(name: &str, ts_us: u64, values: &[(&str, f64)]) {
    if !tracing_enabled() {
        return;
    }
    push(TraceEvent {
        name: name.to_string(),
        ph: 'C',
        ts: ts_us,
        dur: None,
        pid: PID_RESOURCE,
        tid: 0,
        args: values.iter().map(|(k, v)| (k.to_string(), Value::F64(*v))).collect(),
        global_instant: false,
    });
}

/// Microseconds since the collector epoch on the shared wall timeline
/// (public face of the internal epoch clock, used by the resource sampler
/// to timestamp samples consistently with span slices).
pub fn epoch_elapsed_us() -> u64 {
    now_us()
}

/// Copy of every retained trace event, in record order (metadata excluded).
pub fn trace_events() -> Vec<TraceEvent> {
    collector().events.lock().clone()
}

/// Number of trace events discarded because the collector was full.
pub fn trace_dropped() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}

/// Discards all retained trace events (test isolation helper).
pub fn clear_trace() {
    collector().events.lock().clear();
}

/// Renders the collected events as a Chrome `trace_event` JSON object —
/// metadata naming both trace processes, then every recorded event —
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let mut rendered: Vec<Value> = Vec::new();
    for (pid, label) in [
        (PID_WALL, "wall clock (span timers)"),
        (PID_VIRTUAL, "fault timeline (monitor windows)"),
        (PID_RESOURCE, "resources (sampler: rss, metric rates)"),
    ] {
        rendered.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("ts".into(), Value::U64(0)),
            ("pid".into(), Value::U64(pid)),
            ("tid".into(), Value::U64(0)),
            ("args".into(), Value::Object(vec![("name".into(), Value::Str(label.into()))])),
        ]));
    }
    rendered.extend(trace_events().iter().map(TraceEvent::to_value));
    let doc = Value::Object(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Array(rendered)),
    ]);
    // Plain-data value tree: serialization cannot fail, and an error maps
    // to the empty document rather than a panic inside the tracer.
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_instants_require_tracing() {
        let _guard = crate::profile::test_guard();
        set_tracing(false);
        let before = trace_events().len();
        trace_counter("quiet", 10, &[("v", 1.0)]);
        trace_instant("quiet", 10, "nothing");
        assert_eq!(trace_events().len(), before);
    }

    #[test]
    fn chrome_trace_json_is_valid_and_carries_events() {
        let _guard = crate::profile::test_guard();
        set_tracing(true);
        trace_counter("monitor.fatal_rate", 1_000_000, &[("cdn=A", 0.25)]);
        trace_instant("alert", 2_000_000, "cdn=A fatal-exit");
        set_tracing(false);
        let json = chrome_trace_json();
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
        let ph = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap_or("").to_string();
        assert!(events.iter().any(|e| ph(e) == "M"));
        assert!(events.iter().any(|e| {
            ph(e) == "C"
                && e.get("name").and_then(Value::as_str) == Some("monitor.fatal_rate")
                && e.get("pid").and_then(Value::as_u64) == Some(PID_VIRTUAL)
        }));
        assert!(events
            .iter()
            .any(|e| ph(e) == "i" && e.get("s").and_then(Value::as_str) == Some("g")));
    }
}
