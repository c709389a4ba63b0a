//! # vmp-packaging — the packaging half of the management plane
//!
//! §2's packaging function, implemented: transcode the master file into a
//! bitrate ladder, break each encoding into chunks, encapsulate the chunks
//! under each supported streaming protocol, and account for the compute,
//! latency and storage that costs.
//!
//! * [`ladder`] builds guideline-compliant bitrate ladders (the HLS
//!   authoring guidelines the paper cites in §6: a rung under 192 kbps and
//!   successive rungs within 1.5–2×).
//! * [`transcode`] models the encoding stage: CPU cost and live latency per
//!   rung, optional DRM wrapping.
//! * [`chunker`] splits an encoding into fixed-playback-duration chunks (or
//!   byte ranges) with per-chunk byte sizes.
//! * [`package`] drives the pipeline for one (title, protocol, CDN) triple
//!   and produces the real manifest text plus a storage ledger; the
//!   *protocol-titles* complexity metric (§5) counts these jobs.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod chunker;
pub mod ladder;
pub mod package;
pub mod transcode;

pub use chunker::{Chunk, ChunkingPlan};
pub use ladder::LadderSpec;
pub use package::{PackagedTitle, Packager, PackagingError};
