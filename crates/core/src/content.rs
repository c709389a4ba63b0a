//! Content assets: videos, catalogues, live vs on-demand.

use crate::ids::{CatalogueId, VideoId};
use crate::units::Seconds;
use serde::Serialize;
use std::fmt;

/// Whether a title is a live stream or video-on-demand. §4.3 shows many
/// multi-CDN publishers segregate the two classes by CDN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum ContentClass {
    /// Live (linear) content: low capture-to-eyeball latency matters.
    Live,
    /// Stored video-on-demand content.
    Vod,
}

impl ContentClass {
    /// Both classes.
    pub const ALL: [ContentClass; 2] = [ContentClass::Live, ContentClass::Vod];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<ContentClass> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }
}

impl fmt::Display for ContentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentClass::Live => f.write_str("live"),
            ContentClass::Vod => f.write_str("VoD"),
        }
    }
}

/// A single video title as known to a publisher's management plane.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VideoAsset {
    /// Anonymized video ID.
    pub id: VideoId,
    /// Catalogue (series) membership, if any — §6 studies a popular
    /// catalogue syndicated to 10 syndicators.
    pub catalogue: Option<CatalogueId>,
    /// Full duration of the master file (for live, the event duration).
    pub duration: Seconds,
    /// Live or VoD.
    pub class: ContentClass,
}

impl VideoAsset {
    /// Creates a VoD asset.
    pub fn vod(id: VideoId, duration: Seconds) -> Self {
        Self { id, catalogue: None, duration, class: ContentClass::Vod }
    }

    /// Creates a live asset.
    pub fn live(id: VideoId, duration: Seconds) -> Self {
        Self { id, catalogue: None, duration, class: ContentClass::Live }
    }

    /// Assigns the asset to a catalogue.
    pub fn in_catalogue(mut self, cat: CatalogueId) -> Self {
        self.catalogue = Some(cat);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let v = VideoAsset::vod(VideoId::new(1), Seconds::from_minutes(42.0));
        assert_eq!(v.class, ContentClass::Vod);
        assert!(v.catalogue.is_none());
        let v = v.in_catalogue(CatalogueId::new(9));
        assert_eq!(v.catalogue, Some(CatalogueId::new(9)));

        let l = VideoAsset::live(VideoId::new(2), Seconds::from_hours(2.0));
        assert_eq!(l.class, ContentClass::Live);
    }
}
