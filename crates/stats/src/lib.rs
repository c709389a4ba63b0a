//! # vmp-stats — deterministic randomness and statistics for `vmp`
//!
//! The whole workspace must be reproducible: the same seed must regenerate
//! the same figures bit-for-bit. This crate therefore owns
//!
//! * a small, fully-specified PRNG ([`rng::Rng`], xoshiro256\*\* seeded via
//!   splitmix64) with hierarchical stream forking so independent simulation
//!   components never share a stream;
//! * samplers for the distributions the ecosystem model needs
//!   ([`dist`]): uniform, Bernoulli, discrete/categorical, normal,
//!   lognormal, exponential, Pareto, Zipf;
//! * deterministic adoption curves ([`curves`]) used to model protocol and
//!   platform adoption over the 27-month study;
//! * descriptive statistics ([`desc`]): means, weighted means, quantiles,
//!   empirical CDFs, log-scale histograms;
//! * ordinary least squares with significance testing ([`regress`]), used
//!   by the §5 complexity-vs-view-hours fits (slope, r², t-statistic and
//!   p-value via the regularized incomplete beta function in [`special`]).
//!
//! Everything is pure computation (no I/O, no global state) and has no
//! dependencies outside `std`.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod curves;
pub mod desc;
pub mod dist;
pub mod regress;
pub mod rng;
pub mod special;

pub use desc::{weighted_mean, Cdf, Histogram, Summary};
pub use dist::{Discrete, Distribution, Exponential, LogNormal, Normal, Pareto, Zipf};
pub use regress::{ols, OlsFit};
pub use rng::Rng;
