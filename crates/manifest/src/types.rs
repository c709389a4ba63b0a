//! Protocol-neutral description of a packaged media presentation.

use vmp_core::ladder::BitrateLadder;
use vmp_core::units::{Kbps, Seconds};

/// Errors from manifest writing and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Input text was not valid for the format.
    Parse {
        /// Format being parsed ("HLS", "MPD", ...).
        format: &'static str,
        /// Line number (1-based) where parsing failed, when known.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The presentation description is not expressible in the format.
    Unsupported {
        /// Format.
        format: &'static str,
        /// What was unsupported.
        message: String,
    },
    /// Structurally valid input that exceeds a parser resource cap
    /// (variant/segment/rendition counts, XML nesting). Caps keep a
    /// malformed or hostile manifest from exhausting memory or stack.
    Limit {
        /// Format being parsed.
        format: &'static str,
        /// Which structure hit the cap ("variants", "segments", ...).
        what: &'static str,
        /// The cap that was exceeded.
        limit: usize,
    },
    /// A numeric attribute whose value does not fit the model (a bandwidth
    /// of more than `u32::MAX` kbps). Rejected, never wrapped: a truncating
    /// cast would read `4294967297000` bps as a 1 kbps rung.
    OutOfRange {
        /// Format being parsed.
        format: &'static str,
        /// The attribute that carried the value ("BANDWIDTH", ...).
        attribute: &'static str,
        /// The value as written.
        value: u64,
    },
}

impl ManifestError {
    pub(crate) fn parse(format: &'static str, line: usize, message: impl Into<String>) -> Self {
        ManifestError::Parse { format, line, message: message.into() }
    }

    pub(crate) fn limit(format: &'static str, what: &'static str, limit: usize) -> Self {
        ManifestError::Limit { format, what, limit }
    }

    /// Converts a bits-per-second `attribute` to [`Kbps`], rejecting a
    /// value whose kbps do not fit a `u32`.
    pub(crate) fn kbps(format: &'static str, attribute: &'static str, bps: u64) -> Result<Kbps, Self> {
        u32::try_from(bps / 1000)
            .map(Kbps)
            .map_err(|_| ManifestError::OutOfRange { format, attribute, value: bps })
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Parse { format, line, message } => {
                write!(f, "{format} parse error at line {line}: {message}")
            }
            ManifestError::Unsupported { format, message } => {
                write!(f, "{format} cannot express: {message}")
            }
            ManifestError::Limit { format, what, limit } => {
                write!(f, "{format} input exceeds {what} limit of {limit}")
            }
            ManifestError::OutOfRange { format, attribute, value } => {
                write!(f, "{format} {attribute}={value} is out of range")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Everything a client needs to play a packaged title: the ladder, audio
/// renditions, chunking and addressing. Each protocol writer renders this;
/// each parser recovers it.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaPresentation {
    /// Opaque content identifier used in URLs (already anonymized).
    pub content_token: String,
    /// Video bitrate ladder.
    pub ladder: BitrateLadder,
    /// Audio bitrates offered alongside the video.
    pub audio_bitrates: Vec<Kbps>,
    /// Playback duration of one chunk.
    pub chunk_duration: Seconds,
    /// Total presentation duration (`None` for live/event streams).
    pub total_duration: Option<Seconds>,
    /// Base URL prefix for media segments (scheme + host + path prefix).
    pub base_url: String,
    /// Whether clients may use byte-range addressing instead of chunk URLs.
    pub byte_range_addressing: bool,
}

impl MediaPresentation {
    /// Number of whole chunks in a VoD presentation (the last partial chunk
    /// counts as one). Returns `None` for live streams.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a non-negative chunk count; `as` saturates"
    )]
    pub fn chunk_count(&self) -> Option<u64> {
        let total = self.total_duration?;
        if self.chunk_duration.0 <= 0.0 {
            return Some(0);
        }
        Some((total.0 / self.chunk_duration.0).ceil() as u64)
    }

    /// Whether this describes a live (unbounded) presentation.
    pub fn is_live(&self) -> bool {
        self.total_duration.is_none()
    }

    /// Validates internal consistency (positive chunk duration, non-empty
    /// base URL). The ladder is valid by construction.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.chunk_duration.0 <= 0.0 && !self.byte_range_addressing {
            return Err(ManifestError::Unsupported {
                format: "presentation",
                message: "chunk duration must be positive for chunked addressing".into(),
            });
        }
        if self.base_url.is_empty() {
            return Err(ManifestError::Unsupported {
                format: "presentation",
                message: "base URL must not be empty".into(),
            });
        }
        Ok(())
    }
}

/// A convenient builder for tests and the packager.
#[derive(Debug, Clone)]
pub struct PresentationBuilder {
    inner: MediaPresentation,
}

impl PresentationBuilder {
    /// Starts a builder with required fields.
    pub fn new(content_token: impl Into<String>, ladder: BitrateLadder) -> Self {
        PresentationBuilder {
            inner: MediaPresentation {
                content_token: content_token.into(),
                ladder,
                audio_bitrates: vec![Kbps(128)],
                chunk_duration: Seconds(6.0),
                total_duration: None,
                base_url: "https://example.net/content".into(),
                byte_range_addressing: false,
            },
        }
    }

    /// Sets audio renditions.
    pub fn audio(mut self, bitrates: Vec<Kbps>) -> Self {
        self.inner.audio_bitrates = bitrates;
        self
    }

    /// Sets the chunk duration.
    pub fn chunk_duration(mut self, d: Seconds) -> Self {
        self.inner.chunk_duration = d;
        self
    }

    /// Marks the presentation as VoD with the given total duration.
    pub fn vod(mut self, total: Seconds) -> Self {
        self.inner.total_duration = Some(total);
        self
    }

    /// Sets the media base URL.
    pub fn base_url(mut self, url: impl Into<String>) -> Self {
        self.inner.base_url = url.into();
        self
    }

    /// Enables byte-range addressing.
    pub fn byte_ranges(mut self) -> Self {
        self.inner.byte_range_addressing = true;
        self
    }

    /// Finishes, validating the result.
    pub fn build(self) -> Result<MediaPresentation, ManifestError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> BitrateLadder {
        BitrateLadder::from_bitrates(&[400, 800, 1600]).unwrap()
    }

    #[test]
    fn chunk_count_rounds_up() {
        let p = PresentationBuilder::new("v1", ladder())
            .chunk_duration(Seconds(6.0))
            .vod(Seconds(62.0))
            .build()
            .unwrap();
        assert_eq!(p.chunk_count(), Some(11));
        assert!(!p.is_live());
    }

    #[test]
    fn live_has_no_chunk_count() {
        let p = PresentationBuilder::new("v1", ladder()).build().unwrap();
        assert!(p.is_live());
        assert_eq!(p.chunk_count(), None);
    }

    #[test]
    fn validation_catches_bad_config() {
        let p = PresentationBuilder::new("v1", ladder())
            .chunk_duration(Seconds(0.0))
            .build();
        assert!(p.is_err());
        let p = PresentationBuilder::new("v1", ladder()).base_url("").build();
        assert!(p.is_err());
        // Byte-range addressing tolerates zero chunk duration.
        let p = PresentationBuilder::new("v1", ladder())
            .chunk_duration(Seconds(0.0))
            .byte_ranges()
            .build();
        assert!(p.is_ok());
    }

    #[test]
    fn error_display() {
        let e = ManifestError::parse("HLS", 3, "bad tag");
        assert_eq!(e.to_string(), "HLS parse error at line 3: bad tag");
        let e = ManifestError::kbps("MPD", "bandwidth", 4_294_967_297_000).unwrap_err();
        assert_eq!(e.to_string(), "MPD bandwidth=4294967297000 is out of range");
        assert_eq!(ManifestError::kbps("MPD", "bandwidth", 4_294_967_295_999), Ok(Kbps(u32::MAX)));
    }
}
