//! Transcoding cost and latency model.
//!
//! §4.1: "the amount of work/resource needed to package content is
//! proportional to the number of streaming protocols supported", and
//! packaging "can add delay to live content distribution". This module puts
//! numbers on that: CPU-seconds per output-second per rung (resolution- and
//! codec-dependent) and the end-to-end live packaging latency per protocol.

use vmp_core::content::VideoAsset;
use vmp_core::ladder::BitrateLadder;
use vmp_core::protocol::{Codec, StreamingProtocol};
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

/// CPU-seconds needed to encode one second of output at a given rung.
///
/// Scales with pixel count (relative to 720p) and codec complexity; H.265
/// and VP9 cost several times H.264.
pub fn encode_cost_per_second(rung: &vmp_core::ladder::LadderRung) -> f64 {
    let pixel_factor = rung.resolution.pixels() as f64 / (1280.0 * 720.0);
    let codec_factor = match rung.codec {
        Codec::H264 => 1.0,
        Codec::H265 => 4.0,
        Codec::Vp9 => 3.5,
    };
    // Baseline: 0.8 CPU-seconds per output second at 720p H.264.
    0.8 * pixel_factor.max(0.05) * codec_factor
}

/// A transcoding job: one title, one ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscodeJob {
    /// The title being encoded.
    pub asset: VideoAsset,
    /// The target ladder.
    pub ladder: BitrateLadder,
    /// DRM policy.
    pub drm: DrmPolicy,
}

impl TranscodeJob {
    /// Total CPU-seconds to encode the full title at every rung.
    pub fn total_cpu_seconds(&self) -> f64 {
        let duration = self.asset.duration.0;
        self.ladder
            .rungs()
            .iter()
            .map(|r| encode_cost_per_second(r) * duration)
            .sum::<f64>()
            * self.drm.cost_factor()
    }

    /// Wall-clock encode latency given `parallel_encoders` (rungs encode in
    /// parallel across encoders; within an encoder, sequentially).
    #[expect(clippy::expect_used, reason = "encode times are finite, and the bins are non-empty")]
    pub fn wall_clock(&self, parallel_encoders: usize) -> Seconds {
        let parallel = parallel_encoders.max(1);
        let costs: Vec<f64> = self
            .ladder
            .rungs()
            .iter()
            .map(|r| encode_cost_per_second(r) * self.asset.duration.0 * self.drm.cost_factor())
            .collect();
        // Longest-processing-time-first bin packing approximation.
        let mut bins = vec![0.0f64; parallel];
        let mut sorted = costs;
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        for c in sorted {
            let min = bins
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                .expect("non-empty");
            *min += c;
        }
        Seconds(bins.iter().cloned().fold(0.0, f64::max))
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
    use vmp_core::ids::VideoId;
    use vmp_core::units::Kbps;

    fn job(bitrates: &[u32]) -> TranscodeJob {
        TranscodeJob {
            asset: VideoAsset::vod(VideoId::new(1), Seconds::from_minutes(60.0)),
            ladder: BitrateLadder::from_bitrates(bitrates).unwrap(),
            drm: DrmPolicy::None,
        }
    }

    #[test]
    fn cost_grows_with_ladder_size() {
        let small = job(&[400, 1600]);
        let large = job(&[400, 800, 1600, 3200, 6400]);
        assert!(large.total_cpu_seconds() > small.total_cpu_seconds());
    }

    #[test]
    fn cost_grows_with_resolution() {
        let sd = job(&[400]);
        let hd = job(&[6000]);
        assert!(hd.total_cpu_seconds() > sd.total_cpu_seconds());
    }

    #[test]
    fn drm_adds_cost() {
        let mut j = job(&[800, 1600]);
        let plain = j.total_cpu_seconds();
        j.drm = DrmPolicy::CommonEncryption;
        assert!(j.total_cpu_seconds() > plain);
    }

    #[test]
    fn parallel_encoding_reduces_wall_clock() {
        let j = job(&[400, 800, 1600, 3200, 6400]);
        let serial = j.wall_clock(1);
        let parallel = j.wall_clock(5);
        assert!(parallel.0 < serial.0);
        // Total work conserved: serial wall clock equals total CPU.
        assert!((serial.0 - j.total_cpu_seconds()).abs() < 1e-9);
        // Can't beat the longest single rung.
        let longest = j
            .ladder
            .rungs()
            .iter()
            .map(|r| encode_cost_per_second(r) * j.asset.duration.0)
            .fold(0.0, f64::max);
        assert!(parallel.0 >= longest - 1e-9);
    }

    #[test]
    fn h265_costs_more_than_h264() {
        use vmp_core::ladder::{LadderRung, Resolution};
        let h264 = LadderRung { bitrate: Kbps(3000), resolution: Resolution::for_bitrate(Kbps(3000)), codec: Codec::H264 };
        let h265 = LadderRung { bitrate: Kbps(3000), resolution: Resolution::for_bitrate(Kbps(3000)), codec: Codec::H265 };
        assert!(encode_cost_per_second(&h265) > 2.0 * encode_cost_per_second(&h264));
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
