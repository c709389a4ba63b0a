//! RAII stage timers with a thread-local nesting stack.

use std::borrow::Cow;
use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::Histogram;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A plain wall-clock stopwatch.
///
/// vmp-obs is the only crate allowed to read ambient clocks (rule D1,
/// clippy's `disallowed_methods`); library code that needs elapsed wall
/// time without a named histogram uses a `Stopwatch` instead of
/// `Instant::now()` directly, which keeps every wall-clock read behind one
/// auditable seam.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Times a pipeline stage from construction to drop, recording the elapsed
/// nanoseconds into the named histogram of the registry it was opened
/// against. Spans nest: the thread-local stack tracks enclosing stage
/// names, which the profile folds into each span's path.
///
/// A span opened by name owns its histogram handle (`Span<'static>`); one
/// opened through a [`SpanHandle`] borrows the handle's, so entering it
/// touches no reference count.
#[derive(Debug)]
pub struct Span<'a> {
    name: &'static str,
    start: Instant,
    histogram: Cow<'a, Histogram>,
    depth: usize,
}

/// Opens a span on the global registry (see [`span_in`]).
pub fn span(name: &'static str) -> Span<'static> {
    span_in(crate::global(), name)
}

/// Opens a span recording into `registry`'s histogram `name`.
pub fn span_in(registry: &crate::MetricsRegistry, name: &'static str) -> Span<'static> {
    open_span(Cow::Owned(registry.histogram(name)), name)
}

fn open_span<'a>(histogram: Cow<'a, Histogram>, name: &'static str) -> Span<'a> {
    let start = Instant::now();
    let depth = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.len()
    });
    Span { name, start, histogram, depth }
}

/// A pre-resolved span opener for hot paths: holds the histogram handle so
/// [`SpanHandle::enter`] skips the registry name lookup entirely (the same
/// cached-handle discipline the counter hot paths use).
#[derive(Debug, Clone)]
pub struct SpanHandle {
    name: &'static str,
    histogram: Histogram,
}

impl SpanHandle {
    /// Resolves the handle once against the global registry.
    pub fn new(name: &'static str) -> SpanHandle {
        SpanHandle { name, histogram: crate::global().histogram(name) }
    }

    /// Resolves the handle once against `registry`.
    pub fn new_in(registry: &crate::MetricsRegistry, name: &'static str) -> SpanHandle {
        SpanHandle { name, histogram: registry.histogram(name) }
    }

    /// Opens a span without touching the registry lock or the handle's
    /// reference counts.
    pub fn enter(&self) -> Span<'_> {
        open_span(Cow::Borrowed(&self.histogram), self.name)
    }
}

impl Drop for Span<'_> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the elapsed time is clamped to u64::MAX first"
    )]
    fn drop(&mut self) {
        use crate::recorder::{PROFILE, ROOT, TRACE};
        let elapsed = self.start.elapsed();
        let armed = crate::recorder::armed();
        if armed & PROFILE != 0 {
            // Fold into the profiler before the stack is truncated so
            // the full nesting path is still available.
            SPAN_STACK.with(|stack| {
                let stack = stack.borrow();
                let top = self.depth.min(stack.len());
                let elapsed_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
                let path = stack.get(..top).unwrap_or_default();
                crate::recorder::with_current(|r| {
                    r.profile().record(path, elapsed_ns, armed & ROOT != 0);
                });
            });
        }
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are expected to drop in LIFO order, but be tolerant of
            // early drops: truncate back to this span's parent.
            stack.truncate(self.depth.saturating_sub(1));
        });
        self.histogram.record_duration(elapsed);
        if armed & TRACE != 0 {
            let dur_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
            crate::recorder::with_current(|r| r.chrome_trace().record_slice(self.name, dur_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn span_records_elapsed_into_histogram() {
        let reg = MetricsRegistry::new();
        {
            let _s = span_in(&reg, "stage.alpha");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = reg.histogram("stage.alpha");
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2_000_000, "expected >=2ms recorded, got {}ns", h.sum());
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let recorder = crate::Recorder::new(crate::Collect { profile: true, ..Default::default() });
        let reg = MetricsRegistry::new();
        {
            let _installed = recorder.install();
            let outer = span_in(&reg, "outer");
            drop(span_in(&reg, "inner"));
            drop(span_in(&reg, "sibling"));
            drop(outer);
            drop(span_in(&reg, "after"));
        }
        let paths: Vec<String> = recorder.profile().entries().into_iter().map(|e| e.path).collect();
        assert_eq!(paths, ["after", "outer", "outer;inner", "outer;sibling"]);
    }

    #[test]
    fn profiled_spans_fold_nested_paths() {
        let recorder = crate::Recorder::new(crate::Collect { profile: true, ..Default::default() });
        let reg = MetricsRegistry::new();
        {
            let _installed = recorder.install();
            let _outer = span_in(&reg, "prof_outer");
            let _inner = span_in(&reg, "prof_inner");
        }
        let entries = recorder.profile().entries();
        assert!(
            entries.iter().any(|e| e.path == "prof_outer;prof_inner" && e.count == 1),
            "nested span must fold under its parent: {entries:?}"
        );
        assert!(entries.iter().any(|e| e.path == "prof_outer"));
    }

    #[test]
    fn cached_span_handle_records_like_a_span() {
        let reg = MetricsRegistry::new();
        let handle = SpanHandle::new_in(&reg, "cached.stage");
        {
            let _s = handle.enter();
        }
        {
            let _s = handle.enter();
        }
        assert_eq!(reg.histogram("cached.stage").count(), 2);
    }
}
