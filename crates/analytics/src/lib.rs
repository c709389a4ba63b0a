//! # vmp-analytics — the streaming-telemetry measurement plane
//!
//! The Conviva-backend equivalent: ingest per-view records, derive the
//! dimensions the paper studies, and run every §4–§5 analysis.
//!
//! Faithfulness notes:
//! * **Protocol is inferred, never trusted.** The store derives the
//!   protocol from the manifest URL extension at ingest (Table 1), exactly
//!   as §3 describes — the generator's intent is invisible here.
//! * **Weighted samples.** Every aggregate sums sampling weights (view
//!   counts) and `weight × hours` (view-hours), so a scaled-down sample
//!   reproduces population statistics unbiasedly.
//!
//! * **Columnar execution, row-identical results.** Ingest builds one
//!   dictionary-encoded [`columns::Segment`] per snapshot. The read API is
//!   [`columns::per_segment_map`] — one visit per segment, results in
//!   snapshot order — and the per-segment kernels it runs, each a function
//!   of one segment and an optional [`PublisherMask`]. The equivalence
//!   tests hold a row-at-a-time reference the kernels must match bit for
//!   bit.
//!
//! Modules: [`store`] (ingest, segment build, the store and its memo),
//! [`columns`] (segments, publisher masks, the rollup and per-publisher
//! kernels and the sweep that runs them), [`perpub`] (counts-per-publisher
//! distributions, view-hour bucketing, average counts), [`complexity`]
//! (§5 metrics and log-log fits), [`segstore`] (resident or spilled
//! segment storage), [`report`] (plain-text table/series rendering used by
//! the `repro` binary and EXPERIMENTS.md).

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod columns;
pub mod complexity;
pub mod perpub;
pub mod report;
pub mod segstore;
pub mod store;

pub use columns::{DimColumn, DimSpec, PublisherMask, Segment};
pub use complexity::{complexity_fit, ComplexityMeasure, ComplexityPoint};
pub use perpub::{count_histogram, counts_by_size_bucket};
pub use report::{Series, Table};
pub use segstore::SpillConfig;
pub use store::{IngestOptions, IngestPipeline, ViewStore};
