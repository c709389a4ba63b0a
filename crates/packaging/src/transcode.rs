//! DRM cost and live packaging latency.
//!
//! §4.1: packaging "can add delay to live content distribution". This
//! module puts a number on that — the end-to-end live packaging latency per
//! protocol — and on the packaging overhead of DRM encryption.

use vmp_core::protocol::StreamingProtocol;
use vmp_core::units::Seconds;

/// Digital rights management applied to the encoded output (§2 mentions DRM
/// encryption as an optional packaging step; the dataset lacks DRM info, so
/// it only affects cost accounting here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrmPolicy {
    /// No encryption.
    None,
    /// Common-encryption wrap (adds a constant per-chunk cost).
    CommonEncryption,
}

impl DrmPolicy {
    /// Multiplier on packaging CPU cost.
    pub const fn cost_factor(self) -> f64 {
        match self {
            DrmPolicy::None => 1.0,
            DrmPolicy::CommonEncryption => 1.08,
        }
    }
}

/// End-to-end added latency for *live* delivery under a protocol: the
/// protocol's segment/publish latency plus one chunk of encode buffering.
pub fn live_latency(protocol: StreamingProtocol, chunk_duration: Seconds) -> Seconds {
    Seconds(protocol.live_packaging_latency_secs() + chunk_duration.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drm_adds_cost() {
        assert!(DrmPolicy::CommonEncryption.cost_factor() > DrmPolicy::None.cost_factor());
    }

    #[test]
    fn live_latency_ordering_matches_protocols() {
        let chunk = Seconds(6.0);
        assert!(
            live_latency(StreamingProtocol::Rtmp, chunk).0
                < live_latency(StreamingProtocol::Hls, chunk).0
        );
        assert!(
            live_latency(StreamingProtocol::Dash, chunk).0
                <= live_latency(StreamingProtocol::Hls, chunk).0
        );
    }
}
