//! # vmp-core — domain model for the video management plane
//!
//! This crate defines the vocabulary shared by every other `vmp` crate:
//! typed identifiers, streaming protocols, playback platforms and devices,
//! SDKs, CDNs, publishers, content assets, the 27-month study time model,
//! and the per-view telemetry record ([`view::ViewRecord`]) that mirrors the
//! field list of §3 of *Understanding Video Management Planes* (IMC 2018).
//!
//! Design rules (see `DESIGN.md` §4):
//!
//! * **No I/O, no clocks, no randomness.** Everything here is plain data;
//!   stochastic behaviour lives in `vmp-stats` and the simulators.
//! * **Typed identifiers.** Raw integers never cross crate boundaries;
//!   [`ids`] provides newtype IDs with explicit constructors.
//! * **Exhaustive enums.** Protocols, platforms and device families are
//!   closed sets taken from the paper, so `match` statements stay total and
//!   the compiler flags any analysis that forgets a category.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
// Outside analytics, experiments and monitor, hashed containers are allowed.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cdn;
pub mod content;
pub mod device;
pub mod error;
pub mod geo;
pub mod ids;
pub mod ladder;
pub mod platform;
pub mod protocol;
pub mod publisher;
pub mod qoe;
pub mod sdk;
pub mod time;
pub mod units;
pub mod view;

pub mod prelude {
    //! Convenience re-exports of the most commonly used core types.
    pub use crate::cdn::{CdnName, CdnSet, RoutingScheme};
    pub use crate::content::{ContentClass, VideoAsset};
    pub use crate::device::DeviceModel;
    pub use crate::error::CoreError;
    pub use crate::geo::{ConnectionType, Isp, Region};
    pub use crate::ids::{CatalogueId, CdnId, PublisherId, SessionId, VideoId};
    pub use crate::ladder::{BitrateLadder, LadderRung, Resolution};
    pub use crate::platform::{BrowserTech, Platform};
    pub use crate::protocol::StreamingProtocol;
    pub use crate::publisher::{Publisher, PublisherKind};
    pub use crate::qoe::QoeSummary;
    pub use crate::sdk::{SdkKind, SdkVersion};
    pub use crate::time::{SnapshotId, StudyMonth};
    pub use crate::units::{Bytes, Kbps, Seconds, ViewHours};
    pub use crate::view::{ManifestUrl, OwnershipFlag, SampledView, ViewRecord};
}
