//! # vmp-session — the playback session simulator
//!
//! One run of [`player::Player`] is one *view*: the unit every analysis in
//! the paper counts. The player drives a discrete-event download loop —
//! manifest-declared ladder, ABR decision per chunk, Markov bandwidth, edge
//! cache hits/misses, anycast resets, optional mid-stream CDN failover —
//! and produces the per-view QoE (average bitrate, rebuffering ratio) that
//! Fig 15/16 compare between owners and syndicators.
//!
//! [`telemetry`] assembles the full §3 [`vmp_core::view::ViewRecord`] from a
//! session outcome plus client context; this *is* the monitoring library
//! that Conviva embeds in players.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cohort;
pub mod hooks;
pub mod live;
pub mod player;
pub mod telemetry;

pub use cohort::{deliver_in_end_order, stagger, CohortSpec};
pub use hooks::{CompletionSink, SessionEnd};
pub use live::{LiveWindow, SurgeLayer};
pub use player::{
    infrastructure_fn, ChunkRequest, ChunkServe, ExitCause, MultiCdnContext, PlaybackConfig,
    Player, SessionOutcome,
};
pub use telemetry::{ClientContext, TelemetryBuilder};
