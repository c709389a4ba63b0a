//! # vmp-e2ebench — the repository's end-to-end benchmark
//!
//! Four workloads run the vmp pipeline as its users do (generate → ingest
//! → figures → export), time it from outside, check its outputs, and — in
//! a traced run — attribute the time to layers by spans around every call
//! into the product. `BENCHMARK.json` at the repository root names this
//! package's binary as the benchmark command; `README.md` here documents
//! workloads, metrics and how the bounds were set.
//!
//! Module map: [`product`] is the only file that calls the product;
//! [`workloads`] defines the four workloads and their output checks;
//! [`child`] is one run; [`runner`] drives sets of runs and compares two
//! sets; [`trace`], [`stats`] and [`schema`] are the span recorder, order
//! statistics and metric tables they share.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod alloc;
pub mod child;
pub mod product;
pub mod runner;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod workloads;
