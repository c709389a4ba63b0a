//! The packaging pipeline: one job per (title, protocol, CDN).
//!
//! Ties ladder → chunking → manifest together and produces the artifacts the
//! rest of the system consumes: a real manifest document, the manifest URL
//! published on the CDN (whose extension is what analytics later classifies),
//! and the origin-storage ledger that §6's redundancy analysis sums.

use crate::chunker::{Addressing, ChunkingPlan};
use crate::transcode::DrmPolicy;
use vmp_core::cdn::CdnName;
use vmp_core::content::VideoAsset;
use vmp_core::error::CoreError;
use vmp_core::ids::PublisherId;
use vmp_core::ladder::BitrateLadder;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::units::{Bytes, Kbps, Seconds};
use vmp_manifest::types::{ManifestError, PresentationBuilder};
use vmp_manifest::{dash, hds, hls, manifest_url, mss, MediaPresentation};

/// Errors from the packaging pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PackagingError {
    /// The ladder uses a codec the protocol cannot encapsulate.
    CodecUnsupported {
        /// The protocol.
        protocol: StreamingProtocol,
        /// The offending codec (as rfc6381 text).
        codec: String,
    },
    /// Invalid configuration (empty ladder, zero chunk duration, ...).
    Config(String),
    /// Manifest generation failed.
    Manifest(String),
}

impl std::fmt::Display for PackagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackagingError::CodecUnsupported { protocol, codec } => {
                write!(f, "{protocol} cannot encapsulate codec {codec}")
            }
            PackagingError::Config(m) => write!(f, "packaging config error: {m}"),
            PackagingError::Manifest(m) => write!(f, "manifest error: {m}"),
        }
    }
}

impl std::error::Error for PackagingError {}

impl From<CoreError> for PackagingError {
    fn from(e: CoreError) -> Self {
        PackagingError::Config(e.to_string())
    }
}

impl From<ManifestError> for PackagingError {
    fn from(e: ManifestError) -> Self {
        PackagingError::Manifest(e.to_string())
    }
}

/// Container overhead factor per protocol (MPEG-TS is the heaviest).
pub fn container_overhead(protocol: StreamingProtocol) -> f64 {
    match protocol {
        StreamingProtocol::Hls => 1.10,
        StreamingProtocol::Dash => 1.03,
        StreamingProtocol::SmoothStreaming => 1.04,
        StreamingProtocol::Hds => 1.08,
        StreamingProtocol::Rtmp => 1.05,
        StreamingProtocol::Progressive => 1.02,
    }
}

/// A fully packaged title for one protocol on one CDN.
#[derive(Debug, Clone, PartialEq)]
pub struct PackagedTitle {
    /// The source asset.
    pub asset: VideoAsset,
    /// Encapsulation protocol.
    pub protocol: StreamingProtocol,
    /// CDN the package was pushed to.
    pub cdn: CdnName,
    /// Protocol-neutral description.
    pub presentation: MediaPresentation,
    /// Published manifest URL (extension carries the protocol, Table 1).
    pub manifest_url: String,
    /// The manifest document text ("" for RTMP, which has no manifest).
    pub manifest_body: String,
    /// Chunking plan per video rung (ascending bitrate order).
    pub video_plans: Vec<ChunkingPlan>,
    /// Chunking plan per audio rendition.
    pub audio_plans: Vec<ChunkingPlan>,
}

impl PackagedTitle {
    /// Total origin storage for this package (video + audio).
    pub fn origin_bytes(&self) -> Bytes {
        self.video_plans
            .iter()
            .chain(&self.audio_plans)
            .map(|p| p.total_bytes())
            .sum()
    }
}

/// Packaging configuration shared across titles.
///
/// ```
/// use vmp_core::prelude::*;
/// use vmp_packaging::package::Packager;
///
/// let ladder = BitrateLadder::from_bitrates(&[400, 1600, 3200]).unwrap();
/// let asset = VideoAsset::vod(VideoId::new(7), Seconds::from_minutes(40.0));
/// let pkg = Packager::default()
///     .package(&asset, &ladder, StreamingProtocol::Hls, CdnName::A, PublisherId::new(1))
///     .unwrap();
/// // The published URL classifies back to HLS via its extension (Table 1).
/// assert_eq!(vmp_manifest::classify(&pkg.manifest_url), Some(StreamingProtocol::Hls));
/// assert!(pkg.manifest_body.starts_with("#EXTM3U"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Packager {
    /// Nominal chunk duration.
    pub chunk_duration: Seconds,
    /// Audio renditions generated alongside video.
    pub audio_bitrates: Vec<Kbps>,
    /// DRM policy.
    pub drm: DrmPolicy,
    /// Byte-range addressing instead of chunk files.
    pub byte_range: bool,
}

impl Default for Packager {
    fn default() -> Self {
        Packager {
            chunk_duration: Seconds(6.0),
            audio_bitrates: vec![Kbps(128)],
            drm: DrmPolicy::None,
            byte_range: false,
        }
    }
}

impl Packager {
    /// Packages `asset` encoded at `ladder` under `protocol`, pushed to
    /// `cdn` under the publisher's URL prefix.
    pub fn package(
        &self,
        asset: &VideoAsset,
        ladder: &BitrateLadder,
        protocol: StreamingProtocol,
        cdn: CdnName,
        publisher: PublisherId,
    ) -> Result<PackagedTitle, PackagingError> {
        // Codec compatibility (§2: HLS supports a fixed codec set).
        for rung in ladder.rungs() {
            if !protocol.supported_codecs().contains(&rung.codec) {
                return Err(PackagingError::CodecUnsupported {
                    protocol,
                    codec: rung.codec.rfc6381().to_string(),
                });
            }
        }
        if self.chunk_duration.0 <= 0.0 {
            return Err(PackagingError::Config("chunk duration must be positive".into()));
        }

        let prefix = format!("p{:04}", publisher.raw());
        let token = format!("v{:06x}", asset.id.raw());
        let base_url = format!("https://{}/{}", cdn.host(), prefix);

        let mut builder = PresentationBuilder::new(token.clone(), ladder.clone())
            .audio(self.audio_bitrates.clone())
            .chunk_duration(self.chunk_duration)
            .base_url(base_url);
        if asset.class == vmp_core::content::ContentClass::Vod {
            builder = builder.vod(asset.duration);
        }
        if self.byte_range {
            builder = builder.byte_ranges();
        }
        let presentation = builder.build()?;

        let manifest_body = match protocol {
            StreamingProtocol::Hls => hls::write_master(&presentation),
            StreamingProtocol::Dash => dash::write_mpd(&presentation),
            StreamingProtocol::SmoothStreaming => mss::write_manifest(&presentation),
            StreamingProtocol::Hds => hds::write_f4m(&presentation),
            StreamingProtocol::Rtmp | StreamingProtocol::Progressive => String::new(),
        };
        let url = manifest_url(protocol, &cdn.host(), &prefix, &token);

        let addressing = if self.byte_range { Addressing::ByteRange } else { Addressing::ChunkFiles };
        let overhead = container_overhead(protocol) * self.drm.cost_factor().clamp(1.0, 1.02);
        // Storage duration: live events are retained for their event length
        // (catch-up window) in our model.
        let stored = asset.duration;
        let mut video_plans = Vec::with_capacity(ladder.len());
        for rung in ladder.rungs() {
            video_plans.push(
                ChunkingPlan::new(rung.bitrate, stored, self.chunk_duration, addressing, overhead)
                    .map_err(PackagingError::Config)?,
            );
        }
        let mut audio_plans = Vec::with_capacity(self.audio_bitrates.len());
        for a in &self.audio_bitrates {
            audio_plans.push(
                ChunkingPlan::new(*a, stored, self.chunk_duration, addressing, overhead)
                    .map_err(PackagingError::Config)?,
            );
        }

        Ok(PackagedTitle {
            asset: asset.clone(),
            protocol,
            cdn,
            presentation,
            manifest_url: url,
            manifest_body,
            video_plans,
            audio_plans,
        })
    }

    /// Packages a title under every protocol in `protocols` on every CDN in
    /// `cdns` — the §5 *protocol-titles* workload (`titles × protocols`
    /// packaging jobs, pushed to each CDN).
    pub fn package_matrix(
        &self,
        asset: &VideoAsset,
        ladder: &BitrateLadder,
        protocols: &[StreamingProtocol],
        cdns: &[CdnName],
        publisher: PublisherId,
    ) -> Result<Vec<PackagedTitle>, PackagingError> {
        let mut out = Vec::with_capacity(protocols.len() * cdns.len());
        for protocol in protocols {
            for cdn in cdns {
                out.push(self.package(asset, ladder, *protocol, *cdn, publisher)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::ids::VideoId;
    use vmp_core::ladder::{LadderRung, Resolution};
    use vmp_core::protocol::Codec;
    use vmp_manifest::classify;

    fn asset() -> VideoAsset {
        VideoAsset::vod(VideoId::new(7), Seconds::from_minutes(40.0))
    }

    fn ladder() -> BitrateLadder {
        BitrateLadder::from_bitrates(&[400, 800, 1600, 3200]).unwrap()
    }

    #[test]
    fn package_produces_classifiable_url_and_valid_manifest() {
        let packager = Packager::default();
        for protocol in StreamingProtocol::HTTP_ADAPTIVE {
            let pkg = packager
                .package(&asset(), &ladder(), protocol, CdnName::A, PublisherId::new(42))
                .unwrap();
            assert_eq!(classify(&pkg.manifest_url), Some(protocol), "{}", pkg.manifest_url);
            assert!(!pkg.manifest_body.is_empty());
        }
    }

    #[test]
    fn storage_matches_bitrate_times_duration() {
        let packager =
            Packager { audio_bitrates: vec![], byte_range: false, ..Packager::default() };
        let pkg = packager
            .package(&asset(), &ladder(), StreamingProtocol::Dash, CdnName::A, PublisherId::new(1))
            .unwrap();
        // Σ bitrate × duration × overhead(1.03).
        let expected: u64 = [400u64, 800, 1600, 3200]
            .iter()
            .map(|kbps| (kbps * 1000 / 8) as f64 * 2400.0 * 1.03)
            .sum::<f64>() as u64;
        let got = pkg.origin_bytes().0;
        let rel = (got as f64 - expected as f64).abs() / expected as f64;
        assert!(rel < 1e-3, "got {got}, expected {expected}");
    }

    #[test]
    fn hls_rejects_vp9() {
        let vp9 = BitrateLadder::new(vec![LadderRung {
            bitrate: Kbps(2000),
            resolution: Resolution::for_bitrate(Kbps(2000)),
            codec: Codec::Vp9,
        }])
        .unwrap();
        let err = Packager::default()
            .package(&asset(), &vp9, StreamingProtocol::Hls, CdnName::A, PublisherId::new(1))
            .unwrap_err();
        assert!(matches!(err, PackagingError::CodecUnsupported { .. }));
        // DASH accepts the same ladder.
        assert!(Packager::default()
            .package(&asset(), &vp9, StreamingProtocol::Dash, CdnName::A, PublisherId::new(1))
            .is_ok());
    }

    #[test]
    fn live_assets_produce_live_manifests() {
        let live = VideoAsset::live(VideoId::new(9), Seconds::from_hours(2.0));
        let pkg = Packager::default()
            .package(&live, &ladder(), StreamingProtocol::Dash, CdnName::C, PublisherId::new(3))
            .unwrap();
        assert!(pkg.presentation.is_live());
        assert!(pkg.manifest_body.contains("dynamic"));
    }

    #[test]
    fn matrix_covers_protocols_times_cdns() {
        let pkgs = Packager::default()
            .package_matrix(
                &asset(),
                &ladder(),
                &[StreamingProtocol::Hls, StreamingProtocol::Dash],
                &[CdnName::A, CdnName::B, CdnName::C],
                PublisherId::new(5),
            )
            .unwrap();
        assert_eq!(pkgs.len(), 6);
        // Same content bytes per protocol across CDNs (container overhead
        // differs per protocol though).
        let hls_a = &pkgs[0];
        let hls_b = &pkgs[1];
        assert_eq!(hls_a.origin_bytes(), hls_b.origin_bytes());
    }

    #[test]
    fn ts_overhead_makes_hls_larger_than_dash() {
        let p = Packager::default();
        let hls = p
            .package(&asset(), &ladder(), StreamingProtocol::Hls, CdnName::A, PublisherId::new(1))
            .unwrap();
        let dash = p
            .package(&asset(), &ladder(), StreamingProtocol::Dash, CdnName::A, PublisherId::new(1))
            .unwrap();
        assert!(hls.origin_bytes() > dash.origin_bytes());
    }

    #[test]
    fn invalid_chunk_duration_rejected() {
        let p = Packager { chunk_duration: Seconds(0.0), ..Packager::default() };
        assert!(p
            .package(&asset(), &ladder(), StreamingProtocol::Hls, CdnName::A, PublisherId::new(1))
            .is_err());
    }
}
