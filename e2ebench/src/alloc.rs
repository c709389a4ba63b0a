//! The harness's view of the counting allocator.
//!
//! The `#[global_allocator]` (and its atomics and `unsafe impl`) live in
//! the bin target; library code reaches them through these plain function
//! pointers, so tests that link the library without the allocator still
//! run — they just read zero counts.

/// Allocations made while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// `alloc`/`realloc` calls, all threads.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

/// Entry points of the allocation counter.
#[derive(Debug, Clone, Copy)]
pub struct AllocHooks {
    /// Turns counting on or off for the process (off costs one relaxed
    /// load per call) and returns the previous state, so harness work can
    /// step out of the count and back.
    pub set_counting: fn(bool) -> bool,
    /// Process-wide totals so far.
    pub totals: fn() -> AllocTotals,
    /// Calls made by the current thread so far.
    pub thread_allocs: fn() -> u64,
}

impl AllocHooks {
    /// Hooks that count nothing.
    pub fn none() -> AllocHooks {
        AllocHooks {
            set_counting: |_| false,
            totals: AllocTotals::default,
            thread_allocs: || 0,
        }
    }
}
