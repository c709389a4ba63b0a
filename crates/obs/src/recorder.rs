//! The run's recorder: the span [`Profile`] with its root thread, the
//! [`ChromeTrace`] with its epoch and drop count, and, when armed, the
//! session-trace keep-set ([`TraceCollector`] under its one mutex). Which
//! of them it collects is fixed at construction ([`Collect`]).
//!
//! Span drops, trace counters/instants and session-trace scopes read the
//! current thread's recorder ([`Recorder::install`]). A thread with none
//! records nothing: the disabled path is one thread-local byte load and an
//! untaken branch. A spawned thread inherits nothing; its spawner hands
//! the recorder over ([`Recorder::current`], then `install` in the
//! worker), as `ViewStream` and [`crate::ResourceSampler`] do.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::profile::Profile;
use crate::session_trace::{TraceCollector, TraceConfig, TraceReport};
use crate::trace::ChromeTrace;

/// Armed-set bit: span drops fold into the profile.
pub(crate) const PROFILE: u8 = 1;
/// Armed-set bit: spans, counters and instants land in the Chrome trace.
pub(crate) const TRACE: u8 = 2;
/// Armed-set bit: session-trace scopes record and offer their sessions.
pub(crate) const SESSIONS: u8 = 4;
/// Armed-set bit: this thread is the profile's root thread.
pub(crate) const ROOT: u8 = 8;

thread_local! {
    /// The recorder installed on this thread, if any.
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// What the installed recorder collects (`PROFILE | TRACE | SESSIONS`,
    /// plus `ROOT`); 0 with none installed. Kept apart from `CURRENT` so
    /// the disabled check is one plain thread-local load.
    static ARMED: Cell<u8> = const { Cell::new(0) };
}

/// The armed-set bits of this thread's recorder (0 when none is installed).
#[inline]
pub(crate) fn armed() -> u8 {
    ARMED.with(Cell::get)
}

/// Runs `f` against this thread's recorder, if one is installed.
pub(crate) fn with_current<R>(f: impl FnOnce(&Recorder) -> R) -> Option<R> {
    CURRENT.try_with(|current| current.borrow().as_ref().map(f)).ok().flatten()
}

/// What a [`Recorder`] collects, fixed at construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Collect {
    /// Fold every span drop into the span profile (`--report`, `--flame`).
    pub profile: bool,
    /// Record spans, counters and instants as Chrome trace events
    /// (`--trace`).
    pub chrome_trace: bool,
    /// Trace sessions into a keep-set sampled with these knobs
    /// (`--session-trace`).
    pub sessions: Option<TraceConfig>,
}

#[derive(Debug)]
struct Inner {
    armed: u8,
    profile: Profile,
    trace: ChromeTrace,
    sessions: Mutex<Option<TraceCollector>>,
}

/// One run's collectors. Cloning shares them: every clone installed on a
/// thread records into the same profile, trace and keep-set.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

/// Guard returned by [`Recorder::install`]; dropping it puts back the
/// recorder (or none) that was installed before. Tied to its thread.
#[must_use = "the recorder is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct Installed {
    previous: Option<Recorder>,
    previous_armed: u8,
    _thread_bound: PhantomData<*const ()>,
}

impl Recorder {
    /// A recorder collecting what `collect` names. The calling thread
    /// becomes the profile's root thread: its depth-1 spans are the rows
    /// of [`Profile::stages`].
    pub fn new(collect: Collect) -> Recorder {
        let armed = if collect.profile { PROFILE } else { 0 }
            | if collect.chrome_trace { TRACE } else { 0 }
            | if collect.sessions.is_some() { SESSIONS } else { 0 };
        Recorder {
            inner: Arc::new(Inner {
                armed,
                profile: Profile::new(std::thread::current().id()),
                trace: ChromeTrace::new(),
                sessions: Mutex::new(collect.sessions.map(TraceCollector::new)),
            }),
        }
    }

    /// The recorder installed on this thread, if any — what a spawner
    /// hands to the workers it starts.
    pub fn current() -> Option<Recorder> {
        with_current(Recorder::clone)
    }

    /// Makes this recorder the current thread's until the guard drops.
    pub fn install(&self) -> Installed {
        let root = if std::thread::current().id() == self.inner.profile.root { ROOT } else { 0 };
        let previous = CURRENT.with(|current| current.replace(Some(self.clone())));
        let previous_armed = ARMED.with(|armed| armed.replace(self.inner.armed | root));
        Installed { previous, previous_armed, _thread_bound: PhantomData }
    }

    /// Whether spans, counters and instants land in the Chrome trace.
    pub fn traces(&self) -> bool {
        self.inner.armed & TRACE != 0
    }

    /// The span profile (empty unless [`Collect::profile`] was set).
    pub fn profile(&self) -> &Profile {
        &self.inner.profile
    }

    /// The Chrome trace (empty unless [`Collect::chrome_trace`] was set).
    pub fn chrome_trace(&self) -> &ChromeTrace {
        &self.inner.trace
    }

    /// Runs `f` against the session-trace keep-set; `None` when sessions
    /// are not collected or the report was already taken.
    pub fn with_sessions<R>(&self, f: impl FnOnce(&mut TraceCollector) -> R) -> Option<R> {
        self.inner.sessions.lock().as_mut().map(f)
    }

    /// Finalizes the session capture, recording `trace.sessions_kept` /
    /// `trace.sessions_dropped` / `trace.tail_kept` / `trace.bytes` under
    /// a `trace.finalize` span. Sessions finished afterwards are not
    /// kept. `None` when sessions were not collected or already taken.
    pub fn take_session_report(&self) -> Option<TraceReport> {
        let collector = self.inner.sessions.lock().take()?;
        let _span = crate::span("trace.finalize");
        let report = collector.into_report();
        crate::counter("trace.sessions_kept").add(report.kept());
        crate::counter("trace.sessions_dropped").add(report.dropped);
        crate::counter("trace.tail_kept").add(report.tail_kept);
        crate::counter("trace.bytes").add(report.bytes as u64);
        Some(report)
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // During thread teardown the slot may already be gone; the thread
        // records nothing more either way.
        let _ = CURRENT.try_with(|current| current.replace(previous));
        ARMED.with(|armed| armed.set(self.previous_armed));
    }
}
