//! # vmp-abr — bitrate adaptation and access-network models
//!
//! The control plane the paper distinguishes from the management plane (§1):
//! given the ladder the management plane *chose*, the control plane picks a
//! bitrate per chunk based on network conditions. §6 shows that ladder
//! choices translate into QoE differences (Fig 15/16), so reproducing those
//! figures needs a working ABR loop over realistic bandwidth processes.
//!
//! * [`network`] — Markov-modulated bandwidth models per connection type
//!   (WiFi / 4G / wired) and ISP quality, with per-chunk throughput samples
//!   and RTTs.
//! * [`predict`] — throughput predictors (EWMA and harmonic mean), the two
//!   estimators classic rate-based ABR uses.
//! * [`algorithm`] — three ABR families from the paper's citations:
//!   rate-based with a safety factor, buffer-based (BBA-style), and a
//!   BOLA-style utility maximizer.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod network;
pub mod predict;

pub use algorithm::{AbrAlgorithm, AbrState, Bba, Bola, ThroughputRule};
pub use network::{NetworkModel, NetworkProfile};
pub use predict::{EwmaPredictor, HarmonicMeanPredictor, ThroughputPredictor};
