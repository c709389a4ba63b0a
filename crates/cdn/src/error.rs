//! Typed delivery errors.
//!
//! The happy-path simulator never failed a fetch; under fault injection the
//! CDN layer reports *why* a chunk could not be served, so the session layer
//! can choose between retrying, degrading, and escalating to broker
//! failover.

use std::fmt;
use vmp_core::cdn::CdnName;

/// Why a chunk (or manifest) fetch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// Caller asked for a region index outside the edge cluster. This is a
    /// caller bug, not a simulated incident; it is never masked by modulo
    /// wrapping.
    RegionOutOfRange {
        /// The requested region index.
        region: usize,
        /// The number of edges in the cluster.
        edges: usize,
    },
    /// The CDN is inside a scheduled outage window.
    Outage {
        /// The unavailable CDN.
        cdn: CdnName,
    },
    /// The edge missed and the origin fetch failed (error burst).
    OriginUnavailable {
        /// The CDN whose origin errored.
        cdn: CdnName,
    },
    /// The fetch exceeded the player's chunk timeout.
    Timeout {
        /// The CDN that timed out.
        cdn: CdnName,
    },
    /// The manifest fetch failed (fault window or unreachable CDN).
    ManifestUnavailable {
        /// The CDN that failed to serve the manifest.
        cdn: CdnName,
    },
    /// Admission control shed the request: the edge was over its capacity
    /// for the accounting bucket and this request lost the priority
    /// contest (new joins are shed before in-progress sessions).
    Shed {
        /// The CDN whose edge shed the request.
        cdn: CdnName,
    },
}

impl FetchError {
    /// Stable lowercase label of the error class.
    pub fn label(&self) -> &'static str {
        match self {
            FetchError::RegionOutOfRange { .. } => "region_out_of_range",
            FetchError::Outage { .. } => "outage",
            FetchError::OriginUnavailable { .. } => "origin_unavailable",
            FetchError::Timeout { .. } => "timeout",
            FetchError::ManifestUnavailable { .. } => "manifest_unavailable",
            FetchError::Shed { .. } => "shed",
        }
    }

    /// Compact error class for session-trace events (`code` field of a
    /// `chunk_error` / `fatal` record); [`label`](Self::label) is the
    /// human-readable form of the same enumeration.
    pub fn trace_code(&self) -> u32 {
        match self {
            FetchError::RegionOutOfRange { .. } => 0,
            FetchError::Outage { .. } => 1,
            FetchError::OriginUnavailable { .. } => 2,
            FetchError::Timeout { .. } => 3,
            FetchError::ManifestUnavailable { .. } => 4,
            FetchError::Shed { .. } => 5,
        }
    }

    /// The CDN the failure is attributed to, when there is one.
    pub fn cdn(&self) -> Option<CdnName> {
        match self {
            FetchError::RegionOutOfRange { .. } => None,
            FetchError::Outage { cdn }
            | FetchError::OriginUnavailable { cdn }
            | FetchError::Timeout { cdn }
            | FetchError::ManifestUnavailable { cdn }
            | FetchError::Shed { cdn } => Some(*cdn),
        }
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::RegionOutOfRange { region, edges } => {
                write!(f, "region index {region} out of range for {edges}-edge cluster")
            }
            FetchError::Outage { cdn } => write!(f, "{cdn:?} is in an outage window"),
            FetchError::OriginUnavailable { cdn } => {
                write!(f, "{cdn:?} origin fetch failed during an error burst")
            }
            FetchError::Timeout { cdn } => write!(f, "chunk fetch from {cdn:?} timed out"),
            FetchError::ManifestUnavailable { cdn } => {
                write!(f, "manifest fetch from {cdn:?} failed")
            }
            FetchError::Shed { cdn } => {
                write!(f, "{cdn:?} edge shed the request under overload")
            }
        }
    }
}

impl std::error::Error for FetchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_cdn_attribution() {
        let e = FetchError::Outage { cdn: CdnName::A };
        assert_eq!(e.label(), "outage");
        assert_eq!(e.cdn(), Some(CdnName::A));
        let r = FetchError::RegionOutOfRange { region: 7, edges: 3 };
        assert_eq!(r.cdn(), None);
        assert!(r.to_string().contains("out of range"));
    }
}
