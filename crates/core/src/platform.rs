//! Playback platforms (the paper's *device playback* dimension, §4.2, Fig 5).
//!
//! Video is consumed either through a browser (desktop/laptop/tablet/mobile
//! browsers) or through native apps on four device families: mobile devices,
//! smart TVs, streaming set-top boxes, and game consoles. The paper is
//! explicit that "set-top box" means *streaming* set-top boxes (Roku,
//! AppleTV, FireTV, ...), not cable boxes, and that set-tops are kept
//! distinct from smart TVs because they need their own SDKs.

use serde::Serialize;
use std::fmt;

/// The five platform categories of Fig 5 / Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Platform {
    /// Browser-based playback (HTML5 / Flash / Silverlight players).
    Browser,
    /// Native mobile/tablet apps (iOS, Android).
    MobileApp,
    /// Streaming set-top boxes (Roku, AppleTV, FireTV, Chromecast).
    SetTopBox,
    /// Smart TV native apps (Samsung, LG, Vizio, ...).
    SmartTv,
    /// Game consoles (Xbox, PlayStation).
    GameConsole,
}

impl Platform {
    /// All platforms in presentation order.
    pub const ALL: [Platform; 5] = [
        Platform::Browser,
        Platform::MobileApp,
        Platform::SetTopBox,
        Platform::SmartTv,
        Platform::GameConsole,
    ];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<Platform> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }

    /// Whether playback uses an app (device SDK) rather than a browser.
    pub const fn is_app_based(self) -> bool {
        !matches!(self, Platform::Browser)
    }

    /// "Large screen" platforms (TV-attached), which the paper notes drive
    /// longer view durations and 4K adoption.
    pub const fn is_large_screen(self) -> bool {
        matches!(
            self,
            Platform::SetTopBox | Platform::SmartTv | Platform::GameConsole
        )
    }

    /// Figure label.
    pub const fn label(self) -> &'static str {
        match self {
            Platform::Browser => "Browser",
            Platform::MobileApp => "Mobile",
            Platform::SetTopBox => "SetTop",
            Platform::SmartTv => "SmartTV",
            Platform::GameConsole => "Console",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Browser player implementation technology (Fig 10(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum BrowserTech {
    /// Native HTML5 `<video>` + MSE players (JavaScript).
    Html5,
    /// Adobe Flash plugin players.
    Flash,
    /// Microsoft Silverlight plugin players.
    Silverlight,
}

impl BrowserTech {
    /// All browser technologies.
    pub const ALL: [BrowserTech; 3] =
        [BrowserTech::Html5, BrowserTech::Flash, BrowserTech::Silverlight];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<BrowserTech> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }

    /// Whether the technology requires an external plugin.
    pub const fn is_plugin(self) -> bool {
        !matches!(self, BrowserTech::Html5)
    }

    /// Figure label.
    pub const fn label(self) -> &'static str {
        match self {
            BrowserTech::Html5 => "HTML5",
            BrowserTech::Flash => "Flash",
            BrowserTech::Silverlight => "Silverlight",
        }
    }
}

impl fmt::Display for BrowserTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Operating systems reported in the telemetry (§3 field list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Os {
    /// Apple iOS / iPadOS.
    Ios,
    /// Google Android.
    Android,
    /// Roku OS.
    RokuOs,
    /// Apple tvOS.
    TvOs,
    /// Amazon Fire OS.
    FireOs,
    /// Samsung Tizen.
    Tizen,
    /// LG webOS.
    WebOs,
    /// Microsoft Windows.
    Windows,
    /// Apple macOS.
    MacOs,
    /// Desktop Linux.
    Linux,
    /// Xbox / PlayStation system software.
    ConsoleOs,
}

impl fmt::Display for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Os::Ios => "iOS",
            Os::Android => "Android",
            Os::RokuOs => "Roku OS",
            Os::TvOs => "tvOS",
            Os::FireOs => "Fire OS",
            Os::Tizen => "Tizen",
            Os::WebOs => "webOS",
            Os::Windows => "Windows",
            Os::MacOs => "macOS",
            Os::Linux => "Linux",
            Os::ConsoleOs => "Console OS",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_partition() {
        let apps: Vec<_> = Platform::ALL.iter().filter(|p| p.is_app_based()).collect();
        assert_eq!(apps.len(), 4);
        assert!(!Platform::Browser.is_app_based());
    }

    #[test]
    fn large_screen_platforms() {
        assert!(Platform::SetTopBox.is_large_screen());
        assert!(Platform::SmartTv.is_large_screen());
        assert!(Platform::GameConsole.is_large_screen());
        assert!(!Platform::Browser.is_large_screen());
        assert!(!Platform::MobileApp.is_large_screen());
    }

    #[test]
    fn html5_is_not_a_plugin() {
        assert!(!BrowserTech::Html5.is_plugin());
        assert!(BrowserTech::Flash.is_plugin());
        assert!(BrowserTech::Silverlight.is_plugin());
    }

    #[test]
    fn dimension_codes_round_trip() {
        for (i, p) in Platform::ALL.into_iter().enumerate() {
            assert_eq!(p.code() as usize, i);
            assert_eq!(Platform::from_code(p.code()), Some(p));
        }
        assert_eq!(Platform::from_code(Platform::CODE_COUNT as u8), None);
        for t in BrowserTech::ALL {
            assert_eq!(BrowserTech::from_code(t.code()), Some(t));
        }
        assert_eq!(BrowserTech::from_code(BrowserTech::CODE_COUNT as u8), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Platform::SetTopBox.to_string(), "SetTop");
        assert_eq!(BrowserTech::Html5.to_string(), "HTML5");
        assert_eq!(Os::Ios.to_string(), "iOS");
    }
}
