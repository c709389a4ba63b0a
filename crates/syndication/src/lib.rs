//! # vmp-syndication — §6: management of syndicated content
//!
//! Today each publisher runs an independent management plane, so when a
//! syndicator licenses a catalogue it re-packages the mezzanine copy with
//! its own ladder and pushes it to its own CDNs. The paper quantifies two
//! resulting pathologies; this crate reproduces both plus the prevalence
//! measurement:
//!
//! * [`catalogue`] — the §6 study objects: the owner's and ten syndicators'
//!   bitrate ladders for one popular video ID (Fig 17) and their CDN sets.
//! * [`prevalence`] — Fig 14: the CDF, across content owners, of the
//!   fraction of full syndicators carrying each owner's content, measured
//!   from the per-(publisher, video) ownership flags in telemetry.
//! * [`qoe`] — Figs 15/16: like-for-like QoE comparison (California iPads,
//!   fixed ISP×CDN pairs) between the owner's clients and a syndicator's
//!   clients watching the *same* content through different ladders.
//! * [`storage`] — Fig 18: CDN-origin storage for the catalogue under
//!   independent syndication, tolerance-based dedup (5%/10%) and integrated
//!   syndication.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod prevalence;
pub mod qoe;
pub mod storage;

pub use catalogue::{CatalogueStudy, FIG17_LADDERS};
pub use prevalence::{ReachSets, SyndicationReach};
pub use qoe::{qoe_comparison, QoeComparison, QoeScenario};
pub use storage::{storage_study, StorageStudyResult};
