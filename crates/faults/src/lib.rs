//! # vmp-faults — deterministic fault injection for the management plane
//!
//! The paper's management plane exists largely to survive failure: §2 notes
//! publishers use CDN brokers "for management services such as monitoring
//! and fault isolation", and §4.3 shows 1–5 CDNs per publisher precisely so
//! traffic can shift when one degrades. This crate turns the simulator from
//! a fair-weather model into one that can answer "what does a 20-minute CDN
//! brownout do to rebuffer ratio under each broker policy?":
//!
//! * [`profile`] — a [`FaultProfile`]: scheduled CDN outages, degraded
//!   throughput windows, edge-cache flushes, origin error bursts, and
//!   manifest fetch failures, described as windows on a virtual fault
//!   timeline and evaluated by pure `(fault_clock, rng)` lookups. Identical
//!   seeds replay identical incidents, bit for bit.
//! * [`injector`] — the [`FaultInjector`]: a profile wrapped with `vmp-obs`
//!   counters (`faults.injected`, per-kind breakdowns), so injected
//!   incidents are visible in `--metrics` dumps.
//! * [`retry`] — [`RetryPolicy`]: bounded exponential backoff with
//!   deterministic jitter drawn from the session RNG. The schedule is
//!   monotone non-decreasing and capped by construction.
//! * [`breaker`] — [`CircuitBreaker`]: the broker-side health gate that
//!   quarantines a CDN after consecutive fetch failures and half-opens it
//!   after a cooldown for a bounded probe batch.
//!
//! Everything here is pure state + a caller-supplied clock: no wall time,
//! no global RNG, no I/O. That is what makes the resilience experiments
//! replayable.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod breaker;
pub mod injector;
pub mod profile;
pub mod retry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use injector::FaultInjector;
pub use profile::{FaultKind, FaultProfile, FaultProfileBuilder, FaultWindow};
pub use retry::RetryPolicy;
