//! # vmp-synth — the synthetic publisher ecosystem
//!
//! The paper's dataset (27 months of Conviva telemetry from 100+ publishers,
//! 100B+ views) is proprietary; this crate is its substitute. It generates a
//! population of publishers whose management planes evolve over the study
//! window, then produces stratified, weighted view samples by actually
//! *running* each sampled view through the simulated management plane:
//! ladder from `vmp-packaging`, manifest URL from `vmp-manifest`, CDN pick
//! from `vmp-cdn`'s broker, playback through `vmp-session`.
//!
//! Calibration: generator priors come from the paper's *reported marginals*
//! (DESIGN.md §3 lists each). Joint statistics — counts per publisher,
//! weighted averages, complexity slopes, CDFs — are *measured* from the
//! generated telemetry by `vmp-analytics`, not hard-coded.
//!
//! Modules:
//! * [`trends`] — the global adoption/usage curves (every constant that maps
//!   to a paper figure lives here, in one reviewable table);
//! * [`publisher_gen`] — per-publisher static profile and per-snapshot
//!   management-plane configuration;
//! * [`views`] — weighted view-sample generation for one snapshot;
//! * [`stream`] — the sharded generator: the one producer of views;
//! * [`ecosystem`] — the run's configuration and its metadata ([`Dataset`]);
//! * [`syndigraph`] — the owner↔syndicator graph (§6 / Fig 14).

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod ecosystem;
pub mod live;
pub mod stream;
pub mod publisher_gen;
pub mod syndigraph;
pub mod trends;
pub mod views;

pub use ecosystem::{Dataset, EcosystemConfig};
pub use live::JoinStorm;
pub use publisher_gen::{PublisherProfile, SnapshotPlane};
pub use syndigraph::SyndicationGraph;
