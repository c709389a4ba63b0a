//! # vmp-manifest — streaming-protocol manifests
//!
//! The management plane's packaging function encapsulates encoded chunks
//! under a *streaming protocol* (§2). Each protocol describes the available
//! bitrates, chunk duration and chunk URLs in a *manifest* file; the paper
//! infers which protocol served a view from the manifest URL's extension
//! (Table 1). This crate implements:
//!
//! * a protocol-neutral description of a packaged presentation
//!   ([`types::MediaPresentation`]);
//! * the writers for what the packager publishes under each of the four
//!   HTTP adaptive protocols — the HLS master playlist ([`hls`]), the
//!   MPEG-DASH MPD ([`dash`]), the SmoothStreaming client manifest ([`mss`])
//!   and the HDS `.f4m` manifest ([`hds`]) — each pinned byte for byte by a
//!   golden test;
//! * a tiny dependency-free XML writer ([`xml`]) shared by the three
//!   XML-based formats;
//! * the Table 1 URL classifier ([`url`]), including the RTMP scheme rule
//!   and the progressive-download extension rule from §3's footnote.
//!
//! The telemetry pipeline never stores the protocol as a field: analytics
//! re-infers it by calling [`url::classify`] on the manifest URL, exactly as
//! the paper's methodology does. No client reads a manifest body: the
//! player is handed its ladder, so nothing here parses one.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod dash;
pub mod hds;
pub mod hls;
pub mod mss;
pub mod types;
pub mod url;
pub mod xml;

pub use types::{ManifestError, MediaPresentation};
pub use url::{classify, manifest_url, write_manifest_url};
