//! Chrome `trace_event` timeline export.
//!
//! While a [`crate::Recorder`] that collects a Chrome trace is installed,
//! every [`crate::Span`] drop additionally records a *slice* — name,
//! wall-clock start offset from the trace epoch, duration, thread — into
//! that recorder's bounded [`ChromeTrace`]. Callers can also append
//! counter samples and instant markers on a *virtual* timeline (the
//! simulator's fault clock), which lands on a separate trace process so
//! wall-clock spans and virtual-clock health windows render side by side.
//!
//! [`ChromeTrace::to_json`] renders everything as Chrome's JSON object format
//! (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and Perfetto.
//! Phases used: `X` (complete slice), `C` (counter), `i` (instant), `M`
//! (metadata naming the two trace processes).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Event name (span stage, counter name, marker label). Span slices
    /// borrow their static stage name instead of allocating a copy.
    pub name: Cow<'static, str>,
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
}

impl TraceEvent {
    /// Renders the trace-format JSON object for this event, omitting the
    /// optional fields Chrome does not expect on this phase.
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(self.name.to_string())),
            ("ph".into(), Value::Str(self.ph.to_string())),
            ("ts".into(), Value::U64(self.ts)),
            ("pid".into(), Value::U64(self.pid)),
            ("tid".into(), Value::U64(self.tid)),
        ];
        if let Some(dur) = self.dur {
            fields.push(("dur".into(), Value::U64(dur)));
        }
        if self.ph == 'i' {
            // Every instant is global-scope.
            fields.push(("s".into(), Value::Str("g".into())));
        }
        if !self.args.is_empty() {
            fields.push(("args".into(), Value::Object(self.args.clone())));
        }
        Value::Object(fields)
    }
}

/// One recorder's Chrome trace: the epoch its wall-clock timestamps count
/// from, the retained events and the count of events lost to the cap.
#[derive(Debug)]
pub struct ChromeTrace {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Appends a thread-less event to the current thread's recorder's trace,
/// if that recorder collects one; `args` is only built then.
fn push_current(
    pid: u64,
    ph: char,
    name: &str,
    ts: u64,
    args: impl FnOnce() -> Vec<(String, Value)>,
) {
    if crate::recorder::armed() & crate::recorder::TRACE == 0 {
        return;
    }
    crate::recorder::with_current(|r| {
        let name = Cow::Owned(name.to_string());
        r.chrome_trace().push(TraceEvent { name, ph, ts, dur: None, pid, tid: 0, args: args() });
    });
}

fn counter_args(values: &[(&str, f64)]) -> Vec<(String, Value)> {
    values.iter().map(|(k, v)| (k.to_string(), Value::F64(*v))).collect()
}

impl ChromeTrace {
    pub(crate) fn new() -> ChromeTrace {
        let events = Mutex::new(Vec::new());
        ChromeTrace { epoch: Instant::now(), events, dropped: AtomicU64::new(0) }
    }

    /// Microseconds elapsed since the trace epoch — the wall timeline
    /// span slices and resource samples share.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the elapsed time is clamped to u64::MAX first"
    )]
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock();
        if events.len() >= TRACE_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Records a completed wall-clock slice ending now (used by
    /// [`crate::Span`] on drop).
    pub(crate) fn record_slice(&self, name: &'static str, dur_us: u64) {
        let end_us = self.elapsed_us();
        self.push(TraceEvent {
            name: Cow::Borrowed(name),
            ph: 'X',
            ts: end_us.saturating_sub(dur_us),
            dur: Some(dur_us),
            pid: PID_WALL,
            tid: THREAD_TID.with(|t| *t),
            args: Vec::new(),
        });
    }

    /// Copy of every retained trace event, in record order (metadata
    /// excluded).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of retained trace events (metadata excluded), read without
    /// copying them.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no trace event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Number of trace events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the trace as a Chrome `trace_event` JSON object — metadata
    /// naming the trace processes, then every recorded event — loadable
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_json(&self) -> String {
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
        rendered.extend(self.events.lock().iter().map(TraceEvent::to_value));
        let doc = Value::Object(vec![
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("traceEvents".into(), Value::Array(rendered)),
        ]);
        // Plain-data value tree: serialization cannot fail, and an error
        // maps to the empty document rather than a panic inside the tracer.
        serde_json::to_string_pretty(&doc).unwrap_or_default()
    }
}

/// Appends a counter sample on the virtual timeline (`ts_us` is virtual
/// microseconds, e.g. fault-clock seconds × 1e6). No-op unless the current
/// thread's recorder collects a Chrome trace.
pub fn trace_counter(name: &str, ts_us: u64, values: &[(&str, f64)]) {
    push_current(PID_VIRTUAL, 'C', name, ts_us, || counter_args(values));
}

/// Appends a global instant marker (alerts, fault window boundaries) on the
/// virtual timeline. No-op unless the current thread's recorder collects a
/// Chrome trace.
pub fn trace_instant(name: &str, ts_us: u64, detail: &str) {
    push_current(PID_VIRTUAL, 'i', name, ts_us, || {
        vec![("detail".into(), Value::Str(detail.to_string()))]
    });
}

/// Appends a counter sample on the resource timeline ([`PID_RESOURCE`];
/// wall-clock microseconds since the trace epoch). Used by the resource
/// sampler so RSS and metric-rate curves render beside the span timeline.
/// No-op unless the current thread's recorder collects a Chrome trace.
pub fn trace_resource(name: &str, ts_us: u64, values: &[(&str, f64)]) {
    push_current(PID_RESOURCE, 'C', name, ts_us, || counter_args(values));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collect, Recorder};

    fn tracing() -> Recorder {
        Recorder::new(Collect { chrome_trace: true, ..Collect::default() })
    }

    #[test]
    fn counters_and_instants_require_tracing() {
        let quiet = Recorder::new(Collect { profile: true, ..Collect::default() });
        let _installed = quiet.install();
        trace_counter("quiet", 10, &[("v", 1.0)]);
        trace_instant("quiet", 10, "nothing");
        assert!(quiet.chrome_trace().is_empty());
    }

    #[test]
    fn chrome_trace_json_is_valid_and_carries_events() {
        let recorder = tracing();
        {
            let _installed = recorder.install();
            trace_counter("monitor.fatal_rate", 1_000_000, &[("cdn=A", 0.25)]);
            trace_instant("alert", 2_000_000, "cdn=A fatal-exit");
        }
        let trace = recorder.chrome_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.len(), trace.events().len());
        let json = trace.to_json();
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

    /// The window that once let a sibling test's switch drop an instant,
    /// held open for 200 ms while another thread records under a
    /// recorder that does not trace (and then under none).
    #[test]
    fn an_instant_lands_while_another_thread_records_untraced() {
        let recorder = tracing();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (started, running) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut started = Some(started);
                let untraced = Recorder::new(Collect { profile: true, ..Collect::default() });
                while !done.load(Ordering::Relaxed) {
                    {
                        let _installed = untraced.install();
                        trace_instant("other", 1, "untraced");
                    }
                    trace_counter("other", 1, &[("v", 1.0)]);
                    if let Some(started) = started.take() {
                        let _ = started.send(());
                    }
                }
                assert!(untraced.chrome_trace().is_empty());
            });
            let _installed = recorder.install();
            running.recv().expect("the other thread records");
            trace_counter("window", 1_000_000, &[("v", 1.0)]);
            std::thread::sleep(std::time::Duration::from_millis(200));
            trace_instant("window", 2_000_000, "after the window");
            done.store(true, Ordering::Relaxed);
        });
        let phases: Vec<char> = recorder.chrome_trace().events().iter().map(|e| e.ph).collect();
        assert_eq!(phases, ['C', 'i']);
    }
}
