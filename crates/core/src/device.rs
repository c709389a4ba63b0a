//! Concrete device models and their platform/OS classification.
//!
//! The telemetry reports a device model string per view (§3); analytics maps
//! the model to a platform. The catalogue below covers the devices named in
//! the paper (iPhone, iPad, Roku, AppleTV, FireTV, Chromecast, Samsung TV,
//! Xbox, ...) plus representative desktop browsers for the browser platform.

use crate::platform::{BrowserTech, Os, Platform};
use serde::Serialize;
use std::fmt;

/// A specific playback device model (Fig 10's within-platform breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DeviceModel {
    // Mobile / tablet apps.
    /// Apple iPhone (mobile app).
    IPhone,
    /// Apple iPad (tablet app).
    IPad,
    /// Android phone (mobile app).
    AndroidPhone,
    /// Android tablet (tablet app).
    AndroidTablet,
    // Streaming set-top boxes.
    /// Roku streaming player.
    Roku,
    /// Apple TV (tvOS).
    AppleTv,
    /// Amazon Fire TV.
    FireTv,
    /// Google Chromecast.
    Chromecast,
    // Smart TVs.
    /// Samsung smart TV (Tizen).
    SamsungTv,
    /// LG smart TV (webOS).
    LgTv,
    /// Vizio smart TV.
    VizioTv,
    // Game consoles.
    /// Microsoft Xbox.
    Xbox,
    /// Sony PlayStation.
    PlayStation,
    // Browsers (device = browser + technology).
    /// Desktop/laptop browser playing through a given player technology.
    DesktopBrowser(BrowserTech),
    /// Mobile-device browser (counted under the Browser platform, §4.2).
    MobileBrowser,
}

impl DeviceModel {
    /// Complete device catalogue (one entry per variant).
    pub const ALL: [DeviceModel; 16] = [
        DeviceModel::IPhone,
        DeviceModel::IPad,
        DeviceModel::AndroidPhone,
        DeviceModel::AndroidTablet,
        DeviceModel::Roku,
        DeviceModel::AppleTv,
        DeviceModel::FireTv,
        DeviceModel::Chromecast,
        DeviceModel::SamsungTv,
        DeviceModel::LgTv,
        DeviceModel::VizioTv,
        DeviceModel::Xbox,
        DeviceModel::PlayStation,
        DeviceModel::DesktopBrowser(BrowserTech::Html5),
        DeviceModel::DesktopBrowser(BrowserTech::Flash),
        DeviceModel::DesktopBrowser(BrowserTech::Silverlight),
    ];

    /// Number of distinct dimension codes: the 16 catalogue entries plus
    /// `MobileBrowser` (which is attributed to the Browser platform but is
    /// not part of the desktop catalogue).
    pub const CODE_COUNT: usize = 17;

    /// Dense dictionary code for columnar storage: `ALL` order, with
    /// `MobileBrowser` as the final code.
    pub const fn code(self) -> u8 {
        match self {
            DeviceModel::IPhone => 0,
            DeviceModel::IPad => 1,
            DeviceModel::AndroidPhone => 2,
            DeviceModel::AndroidTablet => 3,
            DeviceModel::Roku => 4,
            DeviceModel::AppleTv => 5,
            DeviceModel::FireTv => 6,
            DeviceModel::Chromecast => 7,
            DeviceModel::SamsungTv => 8,
            DeviceModel::LgTv => 9,
            DeviceModel::VizioTv => 10,
            DeviceModel::Xbox => 11,
            DeviceModel::PlayStation => 12,
            DeviceModel::DesktopBrowser(BrowserTech::Html5) => 13,
            DeviceModel::DesktopBrowser(BrowserTech::Flash) => 14,
            DeviceModel::DesktopBrowser(BrowserTech::Silverlight) => 15,
            DeviceModel::MobileBrowser => 16,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<DeviceModel> {
        if (code as usize) < Self::ALL.len() {
            Some(Self::ALL[code as usize])
        } else if code as usize == Self::CODE_COUNT - 1 {
            Some(DeviceModel::MobileBrowser)
        } else {
            None
        }
    }

    /// Platform category this device belongs to (mobile *browser* views are
    /// attributed to the Browser platform, matching §4.2's accounting).
    pub const fn platform(self) -> Platform {
        match self {
            DeviceModel::IPhone
            | DeviceModel::IPad
            | DeviceModel::AndroidPhone
            | DeviceModel::AndroidTablet => Platform::MobileApp,
            DeviceModel::Roku
            | DeviceModel::AppleTv
            | DeviceModel::FireTv
            | DeviceModel::Chromecast => Platform::SetTopBox,
            DeviceModel::SamsungTv | DeviceModel::LgTv | DeviceModel::VizioTv => Platform::SmartTv,
            DeviceModel::Xbox | DeviceModel::PlayStation => Platform::GameConsole,
            DeviceModel::DesktopBrowser(_) | DeviceModel::MobileBrowser => Platform::Browser,
        }
    }

    /// Operating system reported with this device.
    pub const fn os(self) -> Os {
        match self {
            DeviceModel::IPhone | DeviceModel::IPad => Os::Ios,
            DeviceModel::AndroidPhone | DeviceModel::AndroidTablet => Os::Android,
            DeviceModel::Roku => Os::RokuOs,
            DeviceModel::AppleTv => Os::TvOs,
            DeviceModel::FireTv => Os::FireOs,
            DeviceModel::Chromecast => Os::Android,
            DeviceModel::SamsungTv => Os::Tizen,
            DeviceModel::LgTv => Os::WebOs,
            DeviceModel::VizioTv => Os::Tizen,
            DeviceModel::Xbox | DeviceModel::PlayStation => Os::ConsoleOs,
            DeviceModel::DesktopBrowser(_) => Os::Windows,
            DeviceModel::MobileBrowser => Os::Android,
        }
    }

    /// Browser player technology, if this is a browser device.
    pub const fn browser_tech(self) -> Option<BrowserTech> {
        match self {
            DeviceModel::DesktopBrowser(t) => Some(t),
            DeviceModel::MobileBrowser => Some(BrowserTech::Html5),
            _ => None,
        }
    }

    /// Whether the device can only play HLS (Apple's restriction, §2/§4.1).
    /// Recent Apple devices allow limited DASH, which we model as HLS-only
    /// for the study window.
    pub const fn hls_only(self) -> bool {
        matches!(
            self,
            DeviceModel::IPhone | DeviceModel::IPad | DeviceModel::AppleTv
        )
    }

    /// Device model string as it would appear in telemetry.
    pub const fn model_string(self) -> &'static str {
        match self {
            DeviceModel::IPhone => "iPhone",
            DeviceModel::IPad => "iPad",
            DeviceModel::AndroidPhone => "AndroidPhone",
            DeviceModel::AndroidTablet => "AndroidTablet",
            DeviceModel::Roku => "Roku",
            DeviceModel::AppleTv => "AppleTV",
            DeviceModel::FireTv => "FireTV",
            DeviceModel::Chromecast => "Chromecast",
            DeviceModel::SamsungTv => "SamsungTV",
            DeviceModel::LgTv => "LGTV",
            DeviceModel::VizioTv => "VizioTV",
            DeviceModel::Xbox => "Xbox",
            DeviceModel::PlayStation => "PlayStation",
            DeviceModel::DesktopBrowser(BrowserTech::Html5) => "Browser/HTML5",
            DeviceModel::DesktopBrowser(BrowserTech::Flash) => "Browser/Flash",
            DeviceModel::DesktopBrowser(BrowserTech::Silverlight) => "Browser/Silverlight",
            DeviceModel::MobileBrowser => "MobileBrowser",
        }
    }

    /// Parses a telemetry model string back into a device model.
    pub fn from_model_string(s: &str) -> Option<DeviceModel> {
        Self::ALL
            .into_iter()
            .chain(std::iter::once(DeviceModel::MobileBrowser))
            .find(|d| d.model_string() == s)
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.model_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_platform_has_a_device() {
        for platform in Platform::ALL {
            assert!(
                DeviceModel::ALL.iter().any(|d| d.platform() == platform),
                "no device for {platform}"
            );
        }
    }

    #[test]
    fn model_string_round_trip() {
        for d in DeviceModel::ALL {
            assert_eq!(DeviceModel::from_model_string(d.model_string()), Some(d));
        }
        assert_eq!(
            DeviceModel::from_model_string("MobileBrowser"),
            Some(DeviceModel::MobileBrowser)
        );
        assert_eq!(DeviceModel::from_model_string("Toaster"), None);
    }

    #[test]
    fn apple_devices_are_hls_only() {
        assert!(DeviceModel::IPhone.hls_only());
        assert!(DeviceModel::IPad.hls_only());
        assert!(DeviceModel::AppleTv.hls_only());
        assert!(!DeviceModel::Roku.hls_only());
        assert!(!DeviceModel::AndroidPhone.hls_only());
    }

    #[test]
    fn mobile_browser_counts_as_browser_platform() {
        assert_eq!(DeviceModel::MobileBrowser.platform(), Platform::Browser);
        assert_eq!(
            DeviceModel::MobileBrowser.browser_tech(),
            Some(BrowserTech::Html5)
        );
    }

    #[test]
    fn dimension_code_round_trip() {
        let mut seen = [false; DeviceModel::CODE_COUNT];
        for d in DeviceModel::ALL.into_iter().chain([DeviceModel::MobileBrowser]) {
            let code = d.code();
            assert_eq!(DeviceModel::from_code(code), Some(d));
            assert!(!seen[code as usize], "duplicate code for {d}");
            seen[code as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(DeviceModel::from_code(DeviceModel::CODE_COUNT as u8), None);
    }

    #[test]
    fn set_top_catalogue_matches_fig_10c() {
        let set_tops: Vec<_> = DeviceModel::ALL
            .iter()
            .filter(|d| d.platform() == Platform::SetTopBox)
            .collect();
        assert_eq!(set_tops.len(), 4); // Roku, AppleTV, FireTV, Chromecast
    }
}
