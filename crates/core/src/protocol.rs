//! Streaming protocols (the paper's *packaging* dimension, §4.1).
//!
//! The paper observes four HTTP-based chunked streaming protocols (HLS,
//! MPEG-DASH, Microsoft SmoothStreaming, Adobe HDS) plus two legacy delivery
//! modes (RTMP and progressive download). Protocol identity is inferred from
//! manifest URL extensions (Table 1); the authoritative extension tables live
//! here so the writer (`vmp-manifest`) and the classifier agree by
//! construction.

use serde::Serialize;
use std::fmt;

/// A video delivery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum StreamingProtocol {
    /// Apple HTTP Live Streaming (`.m3u8` / `.m3u` manifests).
    Hls,
    /// MPEG-DASH (`.mpd` manifests).
    Dash,
    /// Microsoft SmoothStreaming (`.ism` / `.isml` manifests).
    SmoothStreaming,
    /// Adobe HTTP Dynamic Streaming (`.f4m` manifests).
    Hds,
    /// Adobe RTMP — a stateful low-latency protocol, detected from the URL
    /// scheme rather than an extension.
    Rtmp,
    /// Progressive download of a whole encoded file (`.mp4`, `.flv`, ...).
    Progressive,
}

impl StreamingProtocol {
    /// All protocols, in the paper's presentation order.
    pub const ALL: [StreamingProtocol; 6] = [
        StreamingProtocol::Hls,
        StreamingProtocol::Dash,
        StreamingProtocol::SmoothStreaming,
        StreamingProtocol::Hds,
        StreamingProtocol::Rtmp,
        StreamingProtocol::Progressive,
    ];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order, which
    /// matches `ALL` and the discriminant).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<StreamingProtocol> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }

    /// The four HTTP-based chunked adaptive streaming protocols that §4.1
    /// focuses on after discarding RTMP and progressive download.
    pub const HTTP_ADAPTIVE: [StreamingProtocol; 4] = [
        StreamingProtocol::Hls,
        StreamingProtocol::Dash,
        StreamingProtocol::SmoothStreaming,
        StreamingProtocol::Hds,
    ];

    /// Whether this is one of the HTTP-based chunked adaptive protocols.
    pub const fn is_http_adaptive(self) -> bool {
        matches!(
            self,
            StreamingProtocol::Hls
                | StreamingProtocol::Dash
                | StreamingProtocol::SmoothStreaming
                | StreamingProtocol::Hds
        )
    }

    /// Manifest-file extensions registered for this protocol (Table 1).
    /// RTMP has none (detected by scheme); progressive uses media-container
    /// extensions.
    pub const fn manifest_extensions(self) -> &'static [&'static str] {
        match self {
            StreamingProtocol::Hls => &["m3u8", "m3u"],
            StreamingProtocol::Dash => &["mpd"],
            StreamingProtocol::SmoothStreaming => &["ism", "isml"],
            StreamingProtocol::Hds => &["f4m"],
            StreamingProtocol::Rtmp => &[],
            StreamingProtocol::Progressive => &["mp4", "flv", "webm", "mov"],
        }
    }

    /// Canonical (most common) manifest extension.
    pub const fn canonical_extension(self) -> &'static str {
        match self {
            StreamingProtocol::Hls => "m3u8",
            StreamingProtocol::Dash => "mpd",
            StreamingProtocol::SmoothStreaming => "ism",
            StreamingProtocol::Hds => "f4m",
            StreamingProtocol::Rtmp => "",
            StreamingProtocol::Progressive => "mp4",
        }
    }

    /// Media-segment extension used by the packager for this protocol.
    pub const fn segment_extension(self) -> &'static str {
        match self {
            StreamingProtocol::Hls => "ts",
            StreamingProtocol::Dash => "m4s",
            StreamingProtocol::SmoothStreaming => "ismv",
            StreamingProtocol::Hds => "f4f",
            StreamingProtocol::Rtmp => "flv",
            StreamingProtocol::Progressive => "mp4",
        }
    }

    /// Typical extra end-to-end packaging latency added to *live* streams by
    /// this protocol (encode + segment + publish), in seconds. HTTP chunked
    /// protocols add a few seconds; RTMP is sub-second (§4.1).
    pub const fn live_packaging_latency_secs(self) -> f64 {
        match self {
            StreamingProtocol::Hls => 6.0,
            StreamingProtocol::Dash => 4.0,
            StreamingProtocol::SmoothStreaming => 4.0,
            StreamingProtocol::Hds => 6.0,
            StreamingProtocol::Rtmp => 0.5,
            StreamingProtocol::Progressive => f64::INFINITY, // cannot carry live
        }
    }

    /// Video codecs this protocol can encapsulate. HLS historically pins a
    /// fixed codec set (H.264, later H.265); DASH is codec-agnostic (§2).
    pub const fn supported_codecs(self) -> &'static [Codec] {
        match self {
            StreamingProtocol::Hls => &[Codec::H264, Codec::H265],
            StreamingProtocol::Dash => &[Codec::H264, Codec::H265, Codec::Vp9],
            StreamingProtocol::SmoothStreaming => &[Codec::H264],
            StreamingProtocol::Hds => &[Codec::H264],
            StreamingProtocol::Rtmp => &[Codec::H264],
            StreamingProtocol::Progressive => &[Codec::H264, Codec::Vp9],
        }
    }

    /// Short label used in figures ("HLS", "DASH", ...).
    pub const fn label(self) -> &'static str {
        match self {
            StreamingProtocol::Hls => "HLS",
            StreamingProtocol::Dash => "DASH",
            StreamingProtocol::SmoothStreaming => "MSS",
            StreamingProtocol::Hds => "HDS",
            StreamingProtocol::Rtmp => "RTMP",
            StreamingProtocol::Progressive => "Progressive",
        }
    }
}

impl fmt::Display for StreamingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Video encoding formats referenced in §2 (H.264, H.265, VP9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Codec {
    /// ITU-T H.264 / AVC — universally supported.
    H264,
    /// ITU-T H.265 / HEVC — better compression, partial device support.
    H265,
    /// Google VP9 — open codec, DASH/progressive only.
    Vp9,
}

impl Codec {
    /// Compression efficiency relative to H.264 (bits needed for equal
    /// perceptual quality; lower is better).
    pub const fn efficiency_factor(self) -> f64 {
        match self {
            Codec::H264 => 1.0,
            Codec::H265 => 0.6,
            Codec::Vp9 => 0.65,
        }
    }

    /// RFC 6381-style codec string used inside manifests.
    pub const fn rfc6381(self) -> &'static str {
        match self {
            Codec::H264 => "avc1.640028",
            Codec::H265 => "hvc1.1.6.L120.90",
            Codec::Vp9 => "vp09.00.40.08",
        }
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Codec::H264 => "H.264",
            Codec::H265 => "H.265",
            Codec::Vp9 => "VP9",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_codes_round_trip() {
        for (i, p) in StreamingProtocol::ALL.into_iter().enumerate() {
            assert_eq!(p.code() as usize, i);
            assert_eq!(StreamingProtocol::from_code(p.code()), Some(p));
        }
        assert_eq!(StreamingProtocol::from_code(StreamingProtocol::CODE_COUNT as u8), None);
    }

    #[test]
    fn extension_tables_match_table_1() {
        assert_eq!(StreamingProtocol::Hls.manifest_extensions(), &["m3u8", "m3u"]);
        assert_eq!(StreamingProtocol::Dash.manifest_extensions(), &["mpd"]);
        assert_eq!(
            StreamingProtocol::SmoothStreaming.manifest_extensions(),
            &["ism", "isml"]
        );
        assert_eq!(StreamingProtocol::Hds.manifest_extensions(), &["f4m"]);
    }

    #[test]
    fn extensions_are_unique_across_protocols() {
        let mut seen = std::collections::HashSet::new();
        for p in StreamingProtocol::ALL {
            for ext in p.manifest_extensions() {
                assert!(seen.insert(*ext), "duplicate extension {ext}");
            }
        }
    }

    #[test]
    fn http_adaptive_partition() {
        for p in StreamingProtocol::HTTP_ADAPTIVE {
            assert!(p.is_http_adaptive());
        }
        assert!(!StreamingProtocol::Rtmp.is_http_adaptive());
        assert!(!StreamingProtocol::Progressive.is_http_adaptive());
    }

    #[test]
    fn hls_codec_set_is_fixed_dash_is_open() {
        assert!(!StreamingProtocol::Hls.supported_codecs().contains(&Codec::Vp9));
        assert!(StreamingProtocol::Dash.supported_codecs().contains(&Codec::Vp9));
    }

    #[test]
    fn rtmp_has_lowest_live_latency() {
        let rtmp = StreamingProtocol::Rtmp.live_packaging_latency_secs();
        for p in StreamingProtocol::HTTP_ADAPTIVE {
            assert!(rtmp < p.live_packaging_latency_secs());
        }
    }

    #[test]
    fn codec_efficiency_ordering() {
        assert!(Codec::H265.efficiency_factor() < Codec::H264.efficiency_factor());
        assert!(Codec::Vp9.efficiency_factor() < Codec::H264.efficiency_factor());
    }
}
