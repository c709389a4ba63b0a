//! Structured pipeline events and the bounded ring-buffer sink.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{stripe_slot, STRIPES};

/// What happened, from the fixed vocabulary the pipeline emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Player buffer drained to empty; playback stalled.
    RebufferStart,
    /// Playback resumed after a stall.
    RebufferStop,
    /// Broker moved a session to a different CDN.
    CdnSwitch,
    /// Edge cache had to go to origin for a chunk.
    CacheMiss,
    /// A manifest failed validation or parsing.
    ManifestParseError,
    /// An injected fault window became active.
    FaultStart,
    /// An injected fault window ended.
    FaultStop,
    /// A circuit breaker quarantined a CDN.
    CircuitOpen,
    /// A session exited fatally (retry and failover budgets exhausted).
    SessionFatal,
    /// The health monitor raised an anomaly alert.
    Alert,
    /// Anything else; the detail string carries the specifics.
    Other,
}

impl EventKind {
    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RebufferStart => "rebuffer_start",
            EventKind::RebufferStop => "rebuffer_stop",
            EventKind::CdnSwitch => "cdn_switch",
            EventKind::CacheMiss => "cache_miss",
            EventKind::ManifestParseError => "manifest_parse_error",
            EventKind::FaultStart => "fault_start",
            EventKind::FaultStop => "fault_stop",
            EventKind::CircuitOpen => "circuit_open",
            EventKind::SessionFatal => "session_fatal",
            EventKind::Alert => "alert",
            EventKind::Other => "other",
        }
    }
}

/// One recorded pipeline event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Monotonic sequence number, assigned at record time; never reused,
    /// so gaps reveal where the ring dropped history.
    pub seq: u64,
    /// Event category.
    pub kind: EventKind,
    /// Free-form context (session id, CDN name, chunk index, ...).
    pub detail: String,
}

/// Receiver of pipeline events.
pub trait EventSink: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: Event);
}

/// One stripe's ring, alone on its cache lines. Events enter in `seq`
/// order (the number is taken under this lock), so the front is always the
/// stripe's oldest.
#[derive(Default)]
#[repr(align(64))]
struct Ring {
    events: Mutex<VecDeque<Event>>,
}

/// A bounded sink keeping the newest `capacity` events.
///
/// Once more than `capacity` events have been recorded, the oldest are
/// evicted and counted in [`RingBufferSink::dropped`]; sequence numbers
/// keep increasing so the amount of lost history is visible in exports.
///
/// Internally there is one ring per thread stripe, each keeping its own
/// newest `capacity` events, so concurrent recorders never share a lock.
/// Any event among the newest `capacity` overall is also among the newest
/// `capacity` of its own stripe, so merging the rings by `seq` and keeping
/// the tail reproduces a single ring exactly.
pub struct RingBufferSink {
    capacity: usize,
    rings: [Ring; STRIPES],
    next_seq: AtomicU64,
}

impl std::fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.capacity)
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl RingBufferSink {
    /// A sink retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity: capacity.max(1),
            rings: Default::default(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Records an event built from its parts, assigning the next sequence
    /// number.
    pub fn push(&self, kind: EventKind, detail: String) {
        let mut ring = self.rings[stripe_slot()].events.lock();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(Event { seq, kind, detail });
    }

    /// Newest retained events, oldest first (non-destructive).
    pub fn drain_copy(&self) -> Vec<Event> {
        let mut merged: Vec<Event> = Vec::new();
        for ring in &self.rings {
            merged.extend(ring.events.lock().iter().cloned());
        }
        merged.sort_unstable_by_key(|event| event.seq);
        let excess = merged.len().saturating_sub(self.capacity);
        merged.drain(..excess);
        merged
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        let capacity = u64::try_from(self.capacity).unwrap_or(u64::MAX);
        self.next_seq.load(Ordering::Relaxed).saturating_sub(capacity)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        let held: usize = self.rings.iter().map(|ring| ring.events.lock().len()).sum();
        held.min(self.capacity)
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    /// Re-stamps the event: sequence numbers are this sink's own.
    fn record(&self, event: Event) {
        self.push(event.kind, event.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.push(EventKind::CacheMiss, format!("chunk-{i}"));
        }
        let kept = sink.drain_copy();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].seq, 2);
        assert_eq!(kept[2].seq, 4);
        assert_eq!(kept[2].detail, "chunk-4");
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn concurrent_pushes_keep_exactly_the_newest_overall() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 10_000;
        const CAPACITY: usize = 64;
        let sink = RingBufferSink::new(CAPACITY);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (sink, start) = (&sink, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        sink.push(EventKind::Other, format!("{t}:{i}"));
                    }
                });
            }
        });
        let pushed = THREADS as u64 * PER_THREAD;
        let kept: Vec<u64> = sink.drain_copy().iter().map(|e| e.seq).collect();
        let newest: Vec<u64> = (pushed - CAPACITY as u64..pushed).collect();
        assert_eq!(kept, newest);
        assert_eq!(sink.len(), CAPACITY);
        assert_eq!(sink.dropped(), pushed - CAPACITY as u64);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::RebufferStart.label(), "rebuffer_start");
        assert_eq!(EventKind::CdnSwitch.label(), "cdn_switch");
    }
}
