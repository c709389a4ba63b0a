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

use crate::content::ContentClass;
use crate::device::DeviceModel;
use crate::geo::{ConnectionType, Isp, Region};
use crate::ids::{CdnId, PublisherId, SessionId, VideoId};
use crate::platform::Os;
use crate::sdk::PlayerBuild;
use crate::time::SnapshotId;
use crate::units::{Kbps, Seconds};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the player identified itself: browser views report a user-agent,
/// app views report the SDK and version (§3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlayerIdentity {
    /// Browser view: HTTP user-agent string. A function of (device, SDK
    /// version), so the records of one cell share one allocation.
    UserAgent(Arc<str>),
    /// App view: SDK + version.
    Sdk(PlayerBuild),
}

/// Ownership flag for the (publisher, video) pair (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// protocol signal available to analytics (Table 1).
    pub manifest_url: String,
    /// Device model.
    pub device: DeviceModel,
    /// Operating system.
    pub os: Os,
    /// User-agent or SDK+version.
    pub player: PlayerIdentity,
    /// CDN(s) that served chunks during this view (chunks may come from
    /// multiple CDNs in one view, §3 footnote 4).
    pub cdns: Vec<CdnId>,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
            cdns: vec![CdnId::new(0), CdnId::new(1)],
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
        let v = sample();
        let json = serde_json::to_string(&v).unwrap();
        let back: ViewRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn serde_round_trip_with_a_user_agent() {
        let mut v = sample();
        v.device = DeviceModel::MobileBrowser;
        v.player = PlayerIdentity::UserAgent("Mozilla/5.0 (Mobile; html5-player/7.1)".into());
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains(r#"{"UserAgent":"Mozilla/5.0 (Mobile; html5-player/7.1)"}"#), "{json}");
        let back: ViewRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn sampled_view_weighting() {
        let s = SampledView { record: sample(), weight: 40.0 };
        assert!((s.weighted_hours() - 30.0).abs() < 1e-9); // 0.75 h × 40
    }
}
