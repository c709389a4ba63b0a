//! The per-view telemetry record — the unit of the whole study.
//!
//! §3 enumerates the fields available per view: an anonymized publisher ID;
//! a URL which anonymizes the video ID *but retains the manifest file
//! extension*; device model; operating system; HTTP user-agent (browser
//! views) or SDK + SDK version (app views); the CDN(s) used during the view;
//! the set of available bitrates; viewing time; and delivery performance
//! (average bitrate, rebuffering). §6 additionally uses an owned/syndicated
//! flag per (publisher, video) pair, client geography, ISP and connection
//! type.
//!
//! [`ViewRecord`] carries all of that except delivery performance, which no
//! analysis of the store reads: §6's QoE comparisons play their own
//! sessions. Note the protocol is **not** stored as a field: analytics must
//! re-infer it from `manifest_url`, exactly as the paper does (Table 1).
//!
//! A record owns no heap block of its own. The CDNs are a [`CdnSet`]
//! bitmask; the ladder, the user-agent and the manifest URL's text are
//! shared by every record of a (publisher, snapshot) cell, each record
//! holding a reference to them. A [`ManifestUrl`] is a range of the cell's
//! one URL text, so dropping a record frees nothing until the last record
//! of its cell goes.

use crate::cdn::CdnSet;
use crate::content::ContentClass;
use crate::device::DeviceModel;
use crate::geo::{ConnectionType, Isp, Region};
use crate::ids::{PublisherId, SessionId, VideoId};
use crate::platform::Os;
use crate::sdk::PlayerBuild;
use crate::time::SnapshotId;
use crate::units::{Kbps, Seconds};
use serde::Serialize;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A manifest URL: the range `start..end` of a text that may hold many
/// URLs back to back. Generation writes every URL of a (publisher,
/// snapshot) cell into one exact-size text, and each record of the cell
/// holds its range of it, so a record's URL is not a heap block of its own.
///
/// It reads as a `&str` (`Deref`), compares as its text, and prints
/// (`Debug`) and serializes as a plain string, the forms a `String` field
/// had.
#[derive(Clone)]
pub struct ManifestUrl {
    text: Arc<str>,
    start: u32,
    end: u32,
}

impl ManifestUrl {
    /// The URL `text[range]`, or `None` when `range` is not a `str` range
    /// of `text` or ends beyond `u32::MAX`.
    pub fn new(text: Arc<str>, range: Range<usize>) -> Option<ManifestUrl> {
        text.get(range.clone())?;
        let start = u32::try_from(range.start).ok()?;
        let end = u32::try_from(range.end).ok()?;
        Some(ManifestUrl { text, start, end })
    }

    /// The URL.
    pub fn as_str(&self) -> &str {
        // `new` checked the range, so the lookup always succeeds.
        let range = usize::try_from(self.start).ok().zip(usize::try_from(self.end).ok());
        range.and_then(|(start, end)| self.text.get(start..end)).unwrap_or_default()
    }

    /// The whole text this URL is a range of (shared by its cell).
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }
}

impl Deref for ManifestUrl {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// A URL that is its own whole text. A text of 4 GiB or more, which no URL
/// is, reads as empty.
impl From<&str> for ManifestUrl {
    fn from(url: &str) -> ManifestUrl {
        ManifestUrl::new(url.into(), 0..url.len()).unwrap_or_else(|| ManifestUrl::from(""))
    }
}

impl PartialEq for ManifestUrl {
    fn eq(&self, other: &ManifestUrl) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for ManifestUrl {}

impl fmt::Debug for ManifestUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for ManifestUrl {
    fn to_json(&self) -> serde::Json {
        self.as_str().to_json()
    }
}

/// How the player identified itself: browser views report a user-agent,
/// app views report the SDK and version (§3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum PlayerIdentity {
    /// Browser view: HTTP user-agent string. A function of (device, SDK
    /// version), so the records of one cell share one allocation.
    UserAgent(Arc<str>),
    /// App view: SDK + version.
    Sdk(PlayerBuild),
}

/// Ownership flag for the (publisher, video) pair (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OwnershipFlag {
    /// The publisher owns this content.
    Owned,
    /// The publisher syndicates this content from its owner.
    Syndicated {
        /// The content owner the title was licensed from.
        owner: PublisherId,
    },
}

impl OwnershipFlag {
    /// True when the view was of syndicated content.
    pub const fn is_syndicated(self) -> bool {
        matches!(self, OwnershipFlag::Syndicated { .. })
    }
}

/// One view (playback session) as reported by the monitoring library.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViewRecord {
    /// Session identifier (unique per view).
    pub session: SessionId,
    /// Snapshot (two-day window) this view belongs to.
    pub snapshot: SnapshotId,
    /// Anonymized publisher.
    pub publisher: PublisherId,
    /// Anonymized video ID (also derivable from the URL in real data; kept
    /// explicit to avoid string parsing in hot analytics paths).
    pub video: VideoId,
    /// Manifest URL with anonymized path but true extension — the *only*
    /// protocol signal available to analytics (Table 1). Its text is shared
    /// with the other records of the cell.
    pub manifest_url: ManifestUrl,
    /// Device model.
    pub device: DeviceModel,
    /// Operating system.
    pub os: Os,
    /// User-agent or SDK+version.
    pub player: PlayerIdentity,
    /// The set of CDNs that served chunks during this view (chunks may come
    /// from multiple CDNs in one view, §3 footnote 4).
    pub cdns: CdnSet,
    /// The bitrate ladder advertised in the manifest. A constant of the
    /// (publisher, snapshot) cell, shared by every record of it.
    pub available_bitrates: Arc<[Kbps]>,
    /// Viewing time (media watched).
    pub viewing_time: Seconds,
    /// Live or VoD.
    pub class: ContentClass,
    /// Owned vs syndicated.
    pub ownership: OwnershipFlag,
    /// Client region.
    pub region: Region,
    /// Client ISP.
    pub isp: Isp,
    /// Access connection type.
    pub connection: ConnectionType,
}

impl ViewRecord {
    /// View-hours contributed by this view.
    pub fn view_hours(&self) -> f64 {
        self.viewing_time.hours()
    }

    /// Highest advertised bitrate, if the ladder is non-empty.
    pub fn top_bitrate(&self) -> Option<Kbps> {
        self.available_bitrates.iter().copied().max()
    }
}

/// A telemetry sample with a Horvitz–Thompson sampling weight.
///
/// The real platform ingests every view (100B+ of them); the simulator
/// generates a stratified sample per (publisher, snapshot) and tags each
/// record with how many true views it represents. All analytics aggregate
/// `weight` (for view counts) and `weight × hours` (for view-hours), so the
/// scale-down is unbiased.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampledView {
    /// The underlying telemetry record, exactly as the player reported it.
    pub record: ViewRecord,
    /// Number of true views this sample represents (≥ 0).
    pub weight: f64,
}

impl SampledView {
    /// Weighted view-hours contributed by this sample.
    pub fn weighted_hours(&self) -> f64 {
        self.weight * self.record.view_hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdn::CdnName;
    use crate::platform::BrowserTech;
    use crate::sdk::{SdkKind, SdkVersion};

    fn sample() -> ViewRecord {
        ViewRecord {
            session: SessionId::new(1),
            snapshot: SnapshotId::LAST,
            publisher: PublisherId::new(10),
            video: VideoId::new(77),
            manifest_url: "https://edge.cdn-a.example.net/p10/v77/master.m3u8".into(),
            device: DeviceModel::Roku,
            os: DeviceModel::Roku.os(),
            player: PlayerIdentity::Sdk(PlayerBuild::new(
                SdkKind::RokuSceneGraph,
                SdkVersion::new(7, 2),
            )),
            cdns: [CdnName::A, CdnName::B].into_iter().collect(),
            available_bitrates: [Kbps(800), Kbps(1600), Kbps(3200)].into(),
            viewing_time: Seconds::from_minutes(45.0),
            class: ContentClass::Vod,
            ownership: OwnershipFlag::Owned,
            region: Region::UsOther,
            isp: Isp::Z,
            connection: ConnectionType::Wired,
        }
    }

    #[test]
    fn view_hours_from_viewing_time() {
        assert!((sample().view_hours() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn top_bitrate() {
        assert_eq!(sample().top_bitrate(), Some(Kbps(3200)));
    }

    #[test]
    fn ownership_flag() {
        assert!(!OwnershipFlag::Owned.is_syndicated());
        assert!(OwnershipFlag::Syndicated { owner: PublisherId::new(1) }.is_syndicated());
    }

    #[test]
    fn browser_views_carry_user_agent() {
        let mut v = sample();
        v.device = DeviceModel::DesktopBrowser(BrowserTech::Html5);
        v.player = PlayerIdentity::UserAgent("Mozilla/5.0".into());
        match v.player {
            PlayerIdentity::UserAgent(ua) => assert!(ua.starts_with("Mozilla")),
            _ => panic!("expected user agent"),
        }
    }

    #[test]
    fn serde_round_trip() {
        // The wire shape: ids as raw indexes, enums by variant name, the
        // CDN set as its ids, seconds as a float.
        let shape = r#"{"session":1,"snapshot":53,"publisher":10,"video":77,
            "manifest_url":"https://edge.cdn-a.example.net/p10/v77/master.m3u8",
            "device":"Roku","os":"RokuOs",
            "player":{"Sdk":{"sdk":"RokuSceneGraph","version":{"major":7,"minor":2}}},
            "cdns":[0,1],"available_bitrates":[800,1600,3200],"viewing_time":2700.0,
            "class":"Vod","ownership":"Owned","region":"UsOther","isp":"Z","connection":"Wired"}"#;
        let json = serde_json::to_string(&sample()).unwrap();
        let parse = |text: &str| serde_json::from_str::<serde_json::Value>(text).unwrap();
        assert_eq!(parse(&json), parse(shape));
    }

    #[test]
    fn serde_keeps_the_plain_forms_of_a_shared_url_and_the_cdn_set() {
        let mut v = sample();
        let text: Arc<str> = "https://a/p1/v1/master.m3u8https://b/p1/v2.mpd".into();
        let second = text.rfind("https").unwrap();
        v.manifest_url = ManifestUrl::new(Arc::clone(&text), second..text.len()).unwrap();
        let json = serde_json::to_string(&v).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("manifest_url").and_then(|u| u.as_str()), Some("https://b/p1/v2.mpd"));
        let cdns = value.get("cdns").and_then(|c| c.as_array()).unwrap();
        assert_eq!(cdns.iter().map(|c| c.as_u64()).collect::<Vec<_>>(), [Some(0), Some(1)]);
    }

    #[test]
    fn manifest_url_is_its_range_of_the_text() {
        let text: Arc<str> = "https://h/é.m3u8|rtmp://h/live/x".into();
        let first = ManifestUrl::new(Arc::clone(&text), 0..17).unwrap();
        let second = ManifestUrl::new(Arc::clone(&text), 18..text.len()).unwrap();
        assert_eq!(&*first, "https://h/é.m3u8");
        assert_eq!(second.as_str(), "rtmp://h/live/x");
        assert!(Arc::ptr_eq(first.text(), second.text()));
        // Past the end, inside a character, or reversed: no URL.
        assert!(ManifestUrl::new(Arc::clone(&text), 0..text.len() + 1).is_none());
        assert!(ManifestUrl::new(Arc::clone(&text), 0..11).is_none());
        assert!(ManifestUrl::new(Arc::clone(&text), Range { start: 5, end: 4 }).is_none());
        // Equal text is equal, shared or not; it prints as a `String` does.
        let own = ManifestUrl::from("rtmp://h/live/x");
        assert_eq!(own, second);
        assert_eq!(format!("{own:?}"), format!("{:?}", String::from("rtmp://h/live/x")));
    }

    #[test]
    fn serde_round_trip_with_a_user_agent() {
        let mut v = sample();
        v.device = DeviceModel::MobileBrowser;
        v.player = PlayerIdentity::UserAgent("Mozilla/5.0 (Mobile; html5-player/7.1)".into());
        let json = serde_json::to_string(&v).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let agent = value.get("player").and_then(|p| p.get("UserAgent"));
        assert_eq!(agent.and_then(|a| a.as_str()), Some("Mozilla/5.0 (Mobile; html5-player/7.1)"));
    }

    #[test]
    fn sampled_view_weighting() {
        let s = SampledView { record: sample(), weight: 40.0 };
        assert!((s.weighted_hours() - 30.0).abs() < 1e-9); // 0.75 h × 40
    }
}
