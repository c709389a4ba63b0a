//! Device SDKs / application frameworks and their versions (§2, §5).
//!
//! Publishers build one app per device SDK, and must keep supporting old SDK
//! versions until users upgrade. The *Unique SDKs* complexity metric of §5
//! counts distinct (SDK, version) pairs plus distinct browsers a publisher
//! supports — the paper's proxy for the number of player code bases (up to
//! ~85 for the largest publishers).

use crate::device::DeviceModel;
use crate::platform::BrowserTech;
use serde::Serialize;
use std::fmt;

/// A device SDK / application framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum SdkKind {
    /// Apple AVFoundation (iPhone/iPad apps).
    AvFoundation,
    /// Android ExoPlayer (Android phone/tablet apps).
    ExoPlayer,
    /// Roku SceneGraph SDK.
    RokuSceneGraph,
    /// Apple tvOS SDK.
    TvOsSdk,
    /// Amazon Fire App Builder.
    FireAppBuilder,
    /// Google Cast receiver SDK (Chromecast).
    CastSdk,
    /// Samsung Tizen TV SDK.
    TizenSdk,
    /// LG webOS TV SDK.
    WebOsSdk,
    /// Vizio SmartCast SDK.
    SmartCastSdk,
    /// Microsoft Xbox XDK.
    XboxXdk,
    /// Sony PlayStation SDK.
    PlayStationSdk,
    /// Browser player code base (one per player technology).
    BrowserPlayer(BrowserTech),
}

impl SdkKind {
    /// The SDK used to build an app for `device`.
    pub const fn for_device(device: DeviceModel) -> SdkKind {
        match device {
            DeviceModel::IPhone | DeviceModel::IPad => SdkKind::AvFoundation,
            DeviceModel::AndroidPhone | DeviceModel::AndroidTablet => SdkKind::ExoPlayer,
            DeviceModel::Roku => SdkKind::RokuSceneGraph,
            DeviceModel::AppleTv => SdkKind::TvOsSdk,
            DeviceModel::FireTv => SdkKind::FireAppBuilder,
            DeviceModel::Chromecast => SdkKind::CastSdk,
            DeviceModel::SamsungTv => SdkKind::TizenSdk,
            DeviceModel::LgTv => SdkKind::WebOsSdk,
            DeviceModel::VizioTv => SdkKind::SmartCastSdk,
            DeviceModel::Xbox => SdkKind::XboxXdk,
            DeviceModel::PlayStation => SdkKind::PlayStationSdk,
            DeviceModel::DesktopBrowser(t) => SdkKind::BrowserPlayer(t),
            DeviceModel::MobileBrowser => SdkKind::BrowserPlayer(BrowserTech::Html5),
        }
    }

    /// Stable label for telemetry / reports.
    pub const fn label(self) -> &'static str {
        match self {
            SdkKind::AvFoundation => "AVFoundation",
            SdkKind::ExoPlayer => "ExoPlayer",
            SdkKind::RokuSceneGraph => "RokuSceneGraph",
            SdkKind::TvOsSdk => "tvOS-SDK",
            SdkKind::FireAppBuilder => "FireAppBuilder",
            SdkKind::CastSdk => "CastSDK",
            SdkKind::TizenSdk => "TizenSDK",
            SdkKind::WebOsSdk => "webOS-SDK",
            SdkKind::SmartCastSdk => "SmartCastSDK",
            SdkKind::XboxXdk => "XboxXDK",
            SdkKind::PlayStationSdk => "PS-SDK",
            SdkKind::BrowserPlayer(BrowserTech::Html5) => "HTML5-Player",
            SdkKind::BrowserPlayer(BrowserTech::Flash) => "Flash-Player",
            SdkKind::BrowserPlayer(BrowserTech::Silverlight) => "Silverlight-Player",
        }
    }
}

impl fmt::Display for SdkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A major.minor SDK version. Users lag behind releases, so a publisher
/// typically supports a window of versions per SDK (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SdkVersion {
    /// Major version.
    pub major: u16,
    /// Minor version.
    pub minor: u16,
}

impl SdkVersion {
    /// Creates a version.
    pub const fn new(major: u16, minor: u16) -> Self {
        Self { major, minor }
    }

    /// The next minor release.
    pub const fn next_minor(self) -> Self {
        Self { major: self.major, minor: self.minor + 1 }
    }

    /// The next major release (minor resets to 0).
    pub const fn next_major(self) -> Self {
        Self { major: self.major + 1, minor: 0 }
    }
}

impl fmt::Display for SdkVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// A concrete player build: one (SDK, version) pair. Distinct builds are the
/// unit of the *Unique SDKs* complexity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct PlayerBuild {
    /// The SDK / framework.
    pub sdk: SdkKind,
    /// The supported SDK version.
    pub version: SdkVersion,
}

impl PlayerBuild {
    /// Creates a build descriptor.
    pub const fn new(sdk: SdkKind, version: SdkVersion) -> Self {
        Self { sdk, version }
    }
}

impl fmt::Display for PlayerBuild {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} v{}", self.sdk, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_device_maps_to_an_sdk() {
        for d in DeviceModel::ALL {
            // Must not panic and must be stable.
            let sdk = SdkKind::for_device(d);
            assert_eq!(sdk, SdkKind::for_device(d));
        }
    }

    #[test]
    fn browser_players_map_per_technology() {
        assert_eq!(
            SdkKind::for_device(DeviceModel::DesktopBrowser(BrowserTech::Flash)),
            SdkKind::BrowserPlayer(BrowserTech::Flash)
        );
        assert_eq!(
            SdkKind::for_device(DeviceModel::MobileBrowser),
            SdkKind::BrowserPlayer(BrowserTech::Html5)
        );
    }

    #[test]
    fn version_ordering_and_bumps() {
        let v = SdkVersion::new(2, 3);
        assert!(v < v.next_minor());
        assert!(v.next_minor() < v.next_major());
        assert_eq!(v.next_major(), SdkVersion::new(3, 0));
        assert_eq!(v.to_string(), "2.3");
    }

    #[test]
    fn player_build_identity() {
        let a = PlayerBuild::new(SdkKind::ExoPlayer, SdkVersion::new(2, 9));
        let b = PlayerBuild::new(SdkKind::ExoPlayer, SdkVersion::new(2, 9));
        let c = PlayerBuild::new(SdkKind::ExoPlayer, SdkVersion::new(2, 10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: std::collections::HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
