//! # vmp-cdn — the content-distribution substrate
//!
//! §2's distribution function and §4.3's object of study: publishers push
//! packaged content to one or more CDNs; clients fetch chunks from CDN edge
//! servers; some publishers use a broker to pick the CDN per view.
//!
//! * [`origin`] — per-CDN origin storage with a content-addressed ledger and
//!   the §6 *bitrate-tolerance deduplication* analysis (Fig 18): a CDN can
//!   drop redundant copies of the same underlying content stored by
//!   different publishers at the same or similar bitrates.
//! * [`edge`] — LRU edge caches in front of the origin; cache misses cost
//!   origin round trips (the setting §6 quantifies redundancy in).
//! * [`routing`] — edge selection: consistent-hash DNS mapping or anycast
//!   (one of the top three CDNs is anycast; route flaps can sever ongoing
//!   transfers, §4.3).
//! * [`strategy`] — a publisher's multi-CDN configuration: which CDNs carry
//!   which content class (30% of multi-CDN publishers keep a VoD-only CDN,
//!   19% a live-only CDN), with weights.
//! * [`broker`] — per-view CDN selection: weighted, or QoE-aware using
//!   decayed per-CDN performance scores (the Conviva-style service §2
//!   describes), with per-CDN circuit breakers providing §2's fault
//!   isolation.
//! * [`error`] — typed delivery failures ([`FetchError`]) surfaced during
//!   injected faults instead of the old always-succeeds behaviour.
//! * [`capacity`] — per-edge admission control: finite request capacity per
//!   accounting bucket with a priority floor so in-progress sessions outrank
//!   new joins when a flash crowd saturates an edge.
//! * [`shield`] — origin shield with request coalescing: N simultaneous
//!   misses for one chunk collapse into one origin fetch returning
//!   byte-identical payloads.
//! * [`budget`] — shared per-CDN retry budget layered over per-session
//!   backoff so correlated retry storms cannot amplify an outage.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
// Outside analytics, experiments and monitor, hashed containers are allowed.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod broker;
pub mod budget;
pub mod capacity;
pub mod edge;
pub mod error;
pub mod origin;
pub mod routing;
pub mod shield;
pub mod strategy;

pub use broker::{Broker, BrokerPolicy};
pub use budget::{BudgetConfig, RetryBudget};
pub use capacity::{CapacityConfig, EdgeCapacity};
pub use edge::{CacheOutcome, EdgeCache, EdgeCluster};
pub use error::FetchError;
pub use origin::{ContentKey, OriginEntry, OriginStore};
pub use shield::{OriginShield, ShieldOutcome};
pub use strategy::CdnStrategy;
