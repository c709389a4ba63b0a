//! In-memory spans around the harness's calls into the product.
//!
//! The product is measured from outside: the harness opens a span around
//! each call into a layer's public function, keeps the records in memory,
//! and writes them as JSONL when the run ends. A span's self time is its
//! duration minus the union of its children's intervals, so a parent that
//! only dispatches reads near zero and harness overhead stays visible.
//! With tracing off every method is a branch and nothing is recorded.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vmp_obs::Stopwatch;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// The iteration the span belongs to.
    pub run: u32,
    /// `layer.call` name; the layer is the product crate.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Counts attached at the boundary (views, rows, allocations …).
    pub counts: Vec<(&'static str, u64)>,
}

impl SpanRec {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::end"]
pub struct SpanToken(Option<usize>);

/// The span recorder. Single-threaded by design: the harness calls the
/// product from one thread, and the product's own worker threads are
/// inside the calls being timed.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    run: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, clock: Stopwatch::start(), run: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between iterations (a traced run
    /// alternates the two to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Stamps subsequent spans with this iteration number.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: self.clock.elapsed_nanos(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanToken(Some(id))
    }

    /// Closes a span.
    pub fn end(&mut self, token: SpanToken) {
        self.end_with(token, &[]);
    }

    /// Closes a span, attaching counts measured at the boundary.
    pub fn end_with(&mut self, token: SpanToken, counts: &[(&'static str, u64)]) {
        let Some(id) = token.0 else { return };
        let now = self.clock.elapsed_nanos();
        // Closing a span closes anything still open beneath it.
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end_ns = now;
                if top == id {
                    span.counts.extend_from_slice(counts);
                }
            }
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.leaf_with(name, || (f(), [])).0
    }

    /// Runs `f` inside a leaf span and attaches the counts it returns.
    pub fn leaf_with<T, const N: usize>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> (T, [(&'static str, u64); N]),
    ) -> (T, [(&'static str, u64); N]) {
        let token = self.begin(name);
        let (out, counts) = f();
        self.end_with(token, &counts);
        (out, counts)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name totals over the spans of one iteration.
    pub fn aggregate(&self, run: u32) -> BTreeMap<&'static str, Agg> {
        let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
        let selfs = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if span.run != run {
                continue;
            }
            let agg = by_name.entry(span.name).or_default();
            agg.calls = agg.calls.saturating_add(1);
            agg.total_ns = agg.total_ns.saturating_add(span.duration_ns());
            agg.self_ns = agg.self_ns.saturating_add(self_ns);
            agg.max_ns = agg.max_ns.max(span.duration_ns());
            for (key, n) in &span.counts {
                let slot = agg.counts.entry(key).or_default();
                *slot = slot.saturating_add(*n);
            }
        }
        by_name
    }

    /// The spans as JSON lines (id, parent, run, name, start/end, self
    /// time, counts), one object per line.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let line = SpanLine {
                id: span.id as u64,
                parent: span.parent.map(|p| p as u64),
                run: u64::from(span.run),
                name: span.name.to_string(),
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                self_ns,
                counts: span.counts.iter().map(|(k, n)| ((*k).to_string(), *n)).collect(),
            };
            if let Ok(text) = serde_json::to_string(&line) {
                out.push_str(&text);
                out.push('\n');
            }
        }
        out
    }
}

/// Totals of one span name within one iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of inclusive durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Attached counts, summed per key.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Agg {
    /// Inclusive seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// One attached count (0 when never attached).
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// One line of `trace-<workload>.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanLine {
    /// Span id (position in the file).
    pub id: u64,
    /// Enclosing span.
    pub parent: Option<u64>,
    /// Iteration number.
    pub run: u64,
    /// `layer.call`.
    pub name: String,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Duration minus the union of child intervals.
    pub self_ns: u64,
    /// Counts attached at the boundary.
    pub counts: BTreeMap<String, u64>,
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the parent, so children that overlap
/// each other or overhang the parent are not subtracted twice).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p)) {
            slot.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered = covered.saturating_add(end - start);
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}
