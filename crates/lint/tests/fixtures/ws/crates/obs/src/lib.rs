//! Fixture obs crate: every D3 call-site shape (registered, compatible,
//! mismatched, undocumented) and the C2 atomics cases.
//!
//! These files are lexed by the lint engine but never compiled, so the
//! free functions below don't need to resolve.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static HITS: AtomicU64 = AtomicU64::new(0);
static READY: AtomicBool = AtomicBool::new(false);
static WIDTH: AtomicU64 = AtomicU64::new(0);
static ORPHAN: AtomicU64 = AtomicU64::new(0); //~ ERROR C2

pub fn bump() -> u64 {
    READY.store(true, Ordering::SeqCst); //~ ERROR C2
    ORPHAN.fetch_add(1, Ordering::Relaxed); // unregistered: reported at its decl
    WIDTH.store(640, Ordering::Relaxed); // conforming relaxed-config op
    HITS.fetch_add(1, Ordering::Relaxed) // conforming relaxed-counter op
}

pub fn record() {
    counter("app.requests");
    histogram("app.latency_us");
    span("app.stage");
    histogram("app.stage"); // a span IS a histogram: compatible
    counter("app.latency_us"); //~ ERROR D3
    counter("app.unregistered"); //~ ERROR D3
}

pub fn quoted() -> &'static str {
    // counter("app.in_comment") is not a call site, and neither is this:
    "counter(\"app.in_string\")"
}
