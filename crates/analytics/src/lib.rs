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
//!   dictionary-encoded [`columns::Segment`] per snapshot and every
//!   aggregate runs through the shared group-by kernel in [`columns`];
//!   the row-at-a-time implementations in [`query`] are kept as the
//!   reference the kernel is property-tested against, bit for bit.
//!
//! Modules: [`store`] (ingest, segment build, zero-copy masked views),
//! [`columns`] (segments, publisher masks, the group-by/rollup kernel and
//! its snapshot-parallel drivers), [`query`] (row-oriented reference
//! aggregations over caller-owned views), [`perpub`] (counts-per-publisher
//! distributions, view-hour bucketing, weighted averages over time),
//! [`complexity`] (§5 metrics and log-log fits), [`report`] (plain-text
//! table/series rendering used by the `repro` binary and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod columns;
pub mod complexity;
pub mod perpub;
pub mod query;
pub mod report;
pub mod segstore;
pub mod store;

pub use columns::{DimColumn, DimSpec, PublisherMask, Segment, SegmentSource, ShareMetric};
pub use complexity::{complexity_fit, ComplexityMeasure, ComplexityPoint};
pub use perpub::{count_histogram, counts_by_size_bucket, counts_per_publisher};
pub use query::{publisher_share_by, vh_share_by, views_share_by, ViewRef};
pub use report::{Series, Table};
pub use segstore::{SegmentMeta, SegmentStore, SpillConfig};
pub use store::{IngestOptions, IngestPipeline, MaskedStore, ViewStore};
