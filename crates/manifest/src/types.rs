//! Protocol-neutral description of a packaged media presentation.

use vmp_core::ladder::BitrateLadder;
use vmp_core::units::{Kbps, Seconds};

/// Errors from describing a presentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The presentation description is not expressible in the format.
    Unsupported {
        /// Format.
        format: &'static str,
        /// What was unsupported.
        message: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Unsupported { format, message } => {
                write!(f, "{format} cannot express: {message}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Everything a client needs to play a packaged title: the ladder, audio
/// renditions, chunking and addressing. Each protocol writer renders this.
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

/// Table 1's sample title as the packager publishes it: the
/// `[400, 1600, 3200]` kbps ladder with 128 kbps audio in 6 s chunks, on
/// CDN A under publisher 42. A 40-minute VoD, or an open-ended live event.
/// The writer goldens pin each protocol's rendering of both.
#[cfg(test)]
pub(crate) fn tab1_presentation(live: bool) -> MediaPresentation {
    let ladder = BitrateLadder::from_bitrates(&[400, 1600, 3200]).unwrap();
    let mut builder = PresentationBuilder::new("v009f3c", ladder)
        .audio(vec![Kbps(128)])
        .chunk_duration(Seconds(6.0))
        .base_url("https://edge.cdn-a.example.net/p0042");
    if !live {
        builder = builder.vod(Seconds::from_minutes(40.0));
    }
    builder.build().unwrap()
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
        let e = PresentationBuilder::new("v1", ladder()).base_url("").build().unwrap_err();
        assert_eq!(e.to_string(), "presentation cannot express: base URL must not be empty");
    }
}

