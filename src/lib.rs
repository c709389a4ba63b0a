//! Facade crate re-exporting the whole `vmp` workspace.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]

pub use vmp_abr as abr;
pub use vmp_analytics as analytics;
pub use vmp_cdn as cdn;
pub use vmp_core as core;
pub use vmp_experiments as experiments;
pub use vmp_faults as faults;
pub use vmp_manifest as manifest;
pub use vmp_monitor as monitor;
pub use vmp_obs as obs;
pub use vmp_packaging as packaging;
pub use vmp_session as session;
pub use vmp_stats as stats;
pub use vmp_syndication as syndication;
pub use vmp_synth as synth;
