//! vmp-bench: benchmark harness plus the perf-history subsystem.
//!
//! The `benches/` directory regenerates every table and figure of the
//! paper under Criterion; this library adds the trajectory layer on top:
//!
//! - [`history`]: append-only `results/BENCH_history.jsonl` records — one
//!   JSON line per bench or full-repro run, extracted from the merged
//!   Criterion results (`vmp-bench/1`) or a `vmp-report/1` run report —
//!   so the BENCH trajectory across PRs is a file diff, not archaeology;
//! - [`compare`]: per-metric ratio gates flagging regressions of a fresh
//!   run against the committed baseline. `vmp-bench compare` wires this
//!   as the CI regression gate.
//!
//! The `vmp-bench` binary (`src/bin/vmp-bench.rs`) fronts both: `append`
//! extracts + appends history lines, `compare` exits nonzero when any
//! metric regresses beyond tolerance.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod compare;
pub mod history;

pub use compare::{compare, CompareReport, Delta, Tolerance};
pub use history::{
    entry_from_bench_results, entry_from_run_report, parse_history, HistoryEntry, HISTORY_SCHEMA,
};
