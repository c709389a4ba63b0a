//! The calibration tables: every global curve the generator uses, each
//! annotated with the paper statement it encodes. Changing a figure's
//! calibration means editing exactly one constant here.

use vmp_core::geo::Isp;
use vmp_core::platform::{BrowserTech, Platform};
use vmp_core::protocol::StreamingProtocol;
use vmp_stats::curves::Trend;

/// Per-publisher-size scale anchor: the paper's confidential `X` daily
/// view-hours. The absolute value is arbitrary (the paper hides it); all
/// bucket analyses are relative to it.
pub const X_VIEW_HOURS: f64 = 100.0;

/// Number of view-hour decades the population spans (buckets `<X` through
/// `10^5X..10^6X`, Fig 3(b)/12(b)).
pub const SIZE_DECADES: usize = 7;

/// Fraction of publishers per size bucket (Fig 3(b): the 100X–1000X bucket
/// holds >35% of publishers; extremes are thin).
pub const SIZE_BUCKET_WEIGHTS: [f64; SIZE_DECADES] =
    [0.05, 0.12, 0.20, 0.36, 0.17, 0.07, 0.03];

/// Probability that a publisher supports a protocol, vs study progress.
/// Encodes Fig 2(a): HLS ≈ 91% throughout, DASH 10% → 43%, MSS ≈ 40%,
/// HDS declining to 19%, RTMP residual, progressive niche.
pub fn protocol_support(proto: StreamingProtocol) -> Trend {
    match proto {
        StreamingProtocol::Hls => Trend::Constant(0.91),
        StreamingProtocol::Dash => {
            Trend::Logistic { floor: 0.10, ceil: 0.54, midpoint: 0.62, steepness: 7.0 }
        }
        StreamingProtocol::SmoothStreaming => Trend::Linear { start: 0.42, end: 0.40 },
        StreamingProtocol::Hds => Trend::Linear { start: 0.36, end: 0.19 },
        StreamingProtocol::Rtmp => Trend::Decay { start: 0.20, floor: 0.03, rate: 3.0 },
        StreamingProtocol::Progressive => Trend::Constant(0.10),
    }
}

/// Size leverage on protocol support: multiplier applied to non-HLS support
/// probabilities, as a function of normalized size (0 = smallest decade,
/// 1 = largest). Encodes "publishers with more view-hours tend to support
/// more protocols" (Fig 3(b)).
pub fn protocol_size_boost(size01: f64) -> f64 {
    0.42 + 1.2 * size01
}

/// Relative preference weight a publisher's control plane gives a protocol
/// when several are eligible for a device. DASH preference is split by
/// whether the publisher is one of the few large DASH-first publishers
/// (Fig 2(b) vs 2(c): DASH view-hours are driven by `N` large publishers;
/// without them DASH serves <5% of view-hours, and half of DASH supporters
/// use it for ≤20% of their traffic, Fig 4).
pub fn protocol_preference(proto: StreamingProtocol, dash_first: bool, t: f64) -> f64 {
    match proto {
        StreamingProtocol::Hls => 0.92,
        StreamingProtocol::Dash => {
            if dash_first {
                // Ramp up as the publisher migrates traffic to DASH.
                Trend::Logistic { floor: 0.2, ceil: 6.0, midpoint: 0.55, steepness: 9.0 }.at(t)
            } else {
                0.10
            }
        }
        StreamingProtocol::SmoothStreaming => 1.05,
        StreamingProtocol::Hds => 1.0,
        StreamingProtocol::Rtmp => Trend::Decay { start: 0.45, floor: 0.004, rate: 5.0 }.at(t),
        StreamingProtocol::Progressive => 0.05,
    }
}

/// Device ↔ protocol compatibility weight (0 = cannot play). Encodes §2's
/// constraints: Apple devices are HLS-only; Silverlight speaks MSS; Flash
/// speaks HDS/RTMP; MSE browsers and Android favor DASH capability, etc.
pub fn device_protocol_weight(
    device: vmp_core::device::DeviceModel,
    proto: StreamingProtocol,
) -> f64 {
    use vmp_core::device::DeviceModel as D;
    use StreamingProtocol as P;
    if device.hls_only() {
        return if proto == P::Hls { 1.0 } else { 0.0 };
    }
    match device {
        D::DesktopBrowser(BrowserTech::Flash) => match proto {
            P::Hds => 1.0,
            P::Rtmp => 0.5,
            P::Progressive => 0.3,
            P::Hls => 0.2,
            _ => 0.0,
        },
        D::DesktopBrowser(BrowserTech::Silverlight) => match proto {
            P::SmoothStreaming => 1.0,
            _ => 0.0,
        },
        D::DesktopBrowser(BrowserTech::Html5) | D::MobileBrowser => match proto {
            P::Hls => 1.0,
            P::Dash => 0.8,
            P::Progressive => 0.15,
            _ => 0.0,
        },
        D::AndroidPhone | D::AndroidTablet => match proto {
            P::Hls => 1.0,
            P::Dash => 0.9,
            P::SmoothStreaming => 0.1,
            P::Progressive => 0.1,
            _ => 0.0,
        },
        D::Xbox => match proto {
            P::SmoothStreaming => 1.0,
            P::Dash => 0.5,
            P::Hls => 0.3,
            _ => 0.0,
        },
        D::PlayStation => match proto {
            P::Hls => 0.8,
            P::SmoothStreaming => 0.5,
            P::Dash => 0.5,
            _ => 0.0,
        },
        D::Roku | D::FireTv => match proto {
            P::Hls => 1.0,
            P::Dash => 0.6,
            P::SmoothStreaming => 0.55,
            _ => 0.0,
        },
        D::Chromecast => match proto {
            P::Hls => 1.0,
            P::Dash => 0.8,
            // §5's triaging example: a Chromecast + SmoothStreaming + CDN
            // interaction failure — the combination exists but is rare.
            P::SmoothStreaming => 0.1,
            _ => 0.0,
        },
        D::SamsungTv | D::LgTv | D::VizioTv => match proto {
            P::Hls => 1.0,
            P::Dash => 0.5,
            P::SmoothStreaming => 0.55,
            _ => 0.0,
        },
        // Apple devices handled by the hls_only() early return.
        D::IPhone | D::IPad | D::AppleTv => 0.0,
    }
}

/// Probability a publisher supports a platform (Fig 7: browsers/mobile near
/// universal; set-top <20% → >50%; smart TV <20% → >60%; consoles modest).
pub fn platform_support(platform: Platform) -> Trend {
    match platform {
        Platform::Browser => Trend::Constant(0.98),
        Platform::MobileApp => Trend::Linear { start: 0.88, end: 0.97 },
        Platform::SetTopBox => {
            Trend::Logistic { floor: 0.085, ceil: 0.58, midpoint: 0.5, steepness: 6.0 }
        }
        Platform::SmartTv => {
            Trend::Logistic { floor: 0.13, ceil: 0.78, midpoint: 0.55, steepness: 6.0 }
        }
        Platform::GameConsole => Trend::Linear { start: 0.32, end: 0.55 },
    }
}

/// Size leverage on app-platform support (browsers/mobile stay universal).
pub fn platform_size_boost(platform: Platform, size01: f64) -> f64 {
    match platform {
        Platform::Browser | Platform::MobileApp => 1.0,
        _ => 0.70 + 0.75 * size01,
    }
}

/// Size leverage on *when* a publisher adopts an app platform: larger
/// publishers were the first movers on set-tops/TVs, so their adoption
/// clock runs ahead of study time.
pub fn platform_adoption_time(platform: Platform, size01: f64, t: f64) -> f64 {
    match platform {
        Platform::Browser | Platform::MobileApp => t,
        _ => (t + 0.35 * (size01 - 0.35)).clamp(0.0, 1.0),
    }
}

/// Global mix of *views* (not hours) across platforms (Fig 6(c)): browser
/// share falls, mobile views grow, set-top views reach ≈20%.
pub fn platform_view_share(platform: Platform) -> Trend {
    match platform {
        Platform::Browser => Trend::Linear { start: 0.62, end: 0.27 },
        Platform::MobileApp => Trend::Linear { start: 0.28, end: 0.34 },
        Platform::SetTopBox => {
            Trend::Logistic { floor: 0.060, ceil: 0.215, midpoint: 0.55, steepness: 6.5 }
        }
        Platform::SmartTv => Trend::Linear { start: 0.02, end: 0.035 },
        Platform::GameConsole => Trend::Linear { start: 0.035, end: 0.045 },
    }
}

/// Per-platform view-duration model (hours): (median, multiplicative
/// spread) of a lognormal. Encodes Fig 8: >60% of set-top views exceed
/// 0.2 h while only ≈24% of mobile/browser views do — this is what turns
/// 20% of views into ≈40% of view-hours for set-tops (Fig 6(a) vs 6(c)).
/// The set-top median is fitted so that share averages ≈40% over seeds
/// 1–32 (40.8%), not at one seed.
pub fn duration_model(platform: Platform) -> (f64, f64) {
    match platform {
        Platform::Browser => (0.085, 3.0),
        Platform::MobileApp => (0.068, 3.0),
        Platform::SetTopBox => (0.275, 2.5),
        Platform::SmartTv => (0.15, 2.5),
        Platform::GameConsole => (0.22, 2.5),
    }
}

/// Browser player technology mix over time (Fig 10(a)): HTML5 ≈25% → ≈60%
/// of browser view-hours, Flash ≈60% → ≈40% (the paper's "much more modest
/// drop" than Chrome's view-count stats), Silverlight fading.
pub fn browser_tech_share(tech: BrowserTech) -> Trend {
    match tech {
        BrowserTech::Html5 => Trend::Linear { start: 0.15, end: 0.55 },
        BrowserTech::Flash => Trend::Linear { start: 0.68, end: 0.43 },
        BrowserTech::Silverlight => Trend::Decay { start: 0.17, floor: 0.02, rate: 3.0 },
    }
}

/// Mobile device mix (Fig 10(b)): Android view-hours rise to parity.
pub fn mobile_device_share(android: bool) -> Trend {
    if android {
        Trend::Linear { start: 0.33, end: 0.50 }
    } else {
        Trend::Linear { start: 0.67, end: 0.50 }
    }
}

/// Set-top device mix (Fig 10(c)): Roku dominant; AppleTV/FireTV
/// non-negligible; Chromecast small.
pub fn settop_device_share(device: vmp_core::device::DeviceModel) -> Trend {
    use vmp_core::device::DeviceModel as D;
    match device {
        D::Roku => Trend::Linear { start: 0.60, end: 0.52 },
        D::AppleTv => Trend::Linear { start: 0.22, end: 0.22 },
        D::FireTv => Trend::Linear { start: 0.10, end: 0.18 },
        D::Chromecast => Trend::Linear { start: 0.08, end: 0.08 },
        _ => Trend::Constant(0.0),
    }
}

/// Smart-TV device mix.
pub fn smarttv_device_share(device: vmp_core::device::DeviceModel) -> Trend {
    use vmp_core::device::DeviceModel as D;
    match device {
        D::SamsungTv => Trend::Constant(0.50),
        D::LgTv => Trend::Constant(0.30),
        D::VizioTv => Trend::Constant(0.20),
        _ => Trend::Constant(0.0),
    }
}

/// Probability a publisher's rotation includes each major CDN (Fig 11(a):
/// A ≈80% of publishers, C ≈30%, others lower; stable over time).
pub fn cdn_membership_weight(cdn: vmp_core::cdn::CdnName) -> f64 {
    use vmp_core::cdn::CdnName as C;
    match cdn {
        C::A => 0.80,
        C::B => 0.24,
        C::C => 0.30,
        C::D => 0.18,
        C::E => 0.14,
        C::Minor(_) => 0.012,
    }
}

/// Per-CDN traffic weight trend (Fig 11(b)): A's view-hour dominance erodes
/// while B and C grow to comparable shares.
pub fn cdn_traffic_weight(cdn: vmp_core::cdn::CdnName) -> Trend {
    use vmp_core::cdn::CdnName as C;
    match cdn {
        C::A => Trend::Linear { start: 1.60, end: 0.80 },
        C::B => Trend::Linear { start: 0.45, end: 1.25 },
        C::C => Trend::Linear { start: 0.60, end: 0.85 },
        C::D => Trend::Constant(0.30),
        C::E => Trend::Constant(0.22),
        C::Minor(_) => Trend::Constant(0.08),
    }
}

/// Per-(CDN, ISP, time) delivery quality factor, the bandwidth multiplier
/// of §6's QoE sessions. CDN A's edge degrades over the study while B and C
/// invest — the §4.3 traffic-share shift has a performance story behind
/// it. ISP X is the stronger access network (Fig 15's "ISP X on CDN A" vs
/// "ISP Y on CDN B" panels need both).
pub fn cdn_quality(cdn: vmp_core::cdn::CdnName, isp: Isp, t: f64) -> f64 {
    use vmp_core::cdn::CdnName as C;
    let cdn_factor = match cdn {
        C::A => 1.15 - 0.25 * t,
        C::B => 0.85 + 0.30 * t,
        C::C => 1.00,
        C::D => 0.80,
        C::E => 0.75,
        C::Minor(_) => 0.60,
    };
    let isp_factor = match isp {
        Isp::X => 1.10,
        Isp::Y => 0.90,
        Isp::Z => 1.00,
    };
    cdn_factor * isp_factor
}

/// Number of CDNs by normalized size at study progress `t` (Fig 12(b)/(c):
/// smallest publishers use 1; >10⁵X publishers use 4–5; weighted average
/// ≈4.5 at the end while the plain average only just exceeds 2).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the count is clamped to 1..=5"
)]
pub fn cdn_count(size01: f64, t: f64, jitter: f64) -> usize {
    let growth = 0.75 + 0.25 * t;
    let raw = 0.9 + size01.powf(2.2) * 5.3 * growth + jitter;
    (raw.floor() as usize).clamp(1, 5)
}

/// §4.3 segregation probabilities among multi-CDN live+VoD publishers:
/// 30% keep at least one VoD-only CDN, 19% at least one live-only CDN.
/// Both are fitted so the measured shares average the paper's values over
/// seeds 1–32 (29.2% and 19.4%), not at one seed.
pub const VOD_ONLY_CDN_PROB: f64 = 0.30;
/// See [`VOD_ONLY_CDN_PROB`].
pub const LIVE_ONLY_CDN_PROB: f64 = 0.25;

/// SDK-version window growth: versions of one SDK a publisher must support,
/// as a function of size (decades above X). Together with the device count
/// this produces the §5 *unique SDKs* slope of ≈1.8× per decade (max ≈85
/// code bases for the largest publishers).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the count is clamped to 1..=8"
)]
pub fn sdk_versions_per_kind(size_decades: f64, jitter: f64) -> usize {
    let raw = 1.0 + 0.92 * size_decades.max(0.0) + jitter;
    (raw.floor() as usize).clamp(1, 8)
}

/// Catalogue size (distinct video titles) by view-hours: `titles ∝ VH^0.55`
/// gives the §5 protocol-titles slope of ≈3.8× per decade once multiplied
/// by the protocol count.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the count is clamped to 1..=200,000"
)]
pub fn title_count(vh_day: f64) -> u64 {
    let titles = 3.0 * (vh_day / X_VIEW_HOURS).max(0.01).powf(0.55);
    (titles.round() as u64).clamp(1, 200_000)
}

/// Number of large "DASH-first" publishers (the paper's unnamed `N`).
pub const DASH_FIRST_PUBLISHERS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bucket_weights_sum_to_one() {
        let sum: f64 = SIZE_BUCKET_WEIGHTS.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn protocol_support_endpoints_match_fig2a() {
        let last = 1.0;
        assert!((protocol_support(StreamingProtocol::Hls).at(last) - 0.91).abs() < 0.01);
        // The raw curve tops out above the paper's 43% because the
        // size-leverage multiplier (mean < 1 over the population) brings
        // the composed support back down to Fig 2(a)'s level.
        let dash_end = protocol_support(StreamingProtocol::Dash).at(last);
        assert!((0.45..=0.60).contains(&dash_end), "dash end {dash_end}");
        let mean_boost = protocol_size_boost(0.45);
        assert!((0.34..=0.52).contains(&(dash_end * mean_boost)), "composed {}", dash_end * mean_boost);
        let dash_start = protocol_support(StreamingProtocol::Dash).at(0.0);
        assert!(dash_start < 0.15, "dash start {dash_start}");
        assert!((protocol_support(StreamingProtocol::Hds).at(last) - 0.19).abs() < 0.01);
    }

    #[test]
    fn apple_devices_only_weight_hls() {
        use vmp_core::device::DeviceModel as D;
        for d in [D::IPhone, D::IPad, D::AppleTv] {
            for p in StreamingProtocol::ALL {
                let w = device_protocol_weight(d, p);
                if p == StreamingProtocol::Hls {
                    assert!(w > 0.0);
                } else {
                    assert_eq!(w, 0.0);
                }
            }
        }
    }

    #[test]
    fn every_device_can_play_something() {
        for d in vmp_core::device::DeviceModel::ALL {
            let total: f64 = StreamingProtocol::ALL
                .iter()
                .map(|p| device_protocol_weight(d, *p))
                .sum();
            assert!(total > 0.0, "{d} cannot play anything");
        }
    }

    #[test]
    fn duration_models_encode_fig8() {
        // P(duration > 0.2h) via the lognormal CDF: median m, spread s →
        // z = ln(0.2/m)/ln(s); P = 1 - Φ(z).
        let p_over = |platform: Platform| {
            let (m, s) = duration_model(platform);
            let z = (0.2f64 / m).ln() / s.ln();
            1.0 - vmp_stats::special::std_normal_cdf(z)
        };
        let settop = p_over(Platform::SetTopBox);
        let mobile = p_over(Platform::MobileApp);
        let browser = p_over(Platform::Browser);
        assert!(settop > 0.60, "set-top P(>0.2h) = {settop}");
        assert!((0.15..0.32).contains(&mobile), "mobile P(>0.2h) = {mobile}");
        assert!((0.15..0.35).contains(&browser), "browser P(>0.2h) = {browser}");
    }

    #[test]
    fn cdn_quality_table_shape() {
        use vmp_core::cdn::CdnName;
        // A degrades, B improves.
        assert!(cdn_quality(CdnName::A, Isp::Z, 0.0) > cdn_quality(CdnName::A, Isp::Z, 1.0));
        assert!(cdn_quality(CdnName::B, Isp::Z, 1.0) > cdn_quality(CdnName::B, Isp::Z, 0.0));
        // ISP X beats ISP Y on the same CDN.
        assert!(cdn_quality(CdnName::C, Isp::X, 0.5) > cdn_quality(CdnName::C, Isp::Y, 0.5));
        // Minors are worst.
        assert!(cdn_quality(CdnName::Minor(0), Isp::Z, 0.5) < cdn_quality(CdnName::E, Isp::Z, 0.5));
    }

    #[test]
    fn cdn_counts_match_fig12_extremes() {
        // Smallest publishers: single CDN regardless of time.
        assert_eq!(cdn_count(0.0, 0.0, 0.0), 1);
        assert_eq!(cdn_count(0.0, 1.0, 0.0), 1);
        // Largest publishers end with 4–5.
        assert!(cdn_count(1.0, 1.0, 0.0) >= 4);
        assert!(cdn_count(1.0, 1.0, 0.4) == 5);
    }

    #[test]
    fn sdk_windows_hit_85_codebases_at_the_top() {
        // Largest publisher: ~14 SDK kinds × window ≈ 5-6 → ≈85.
        let window = sdk_versions_per_kind(5.5, 0.5);
        assert!((5..=8).contains(&window), "window {window}");
    }

    #[test]
    fn title_count_slope_is_sublinear() {
        let t1 = title_count(1_000.0) as f64;
        let t2 = title_count(10_000.0) as f64;
        let ratio = t2 / t1;
        assert!((3.0..4.5).contains(&ratio), "per-decade title growth {ratio}");
    }

    #[test]
    fn platform_view_shares_normalize_roughly() {
        for t in [0.0, 0.5, 1.0] {
            let sum: f64 = Platform::ALL
                .iter()
                .map(|p| platform_view_share(*p).at(t))
                .sum();
            // Weights are renormalized per publisher over its supported
            // platforms, so only rough normalization matters here.
            assert!((0.85..1.15).contains(&sum), "t={t} sum={sum}");
        }
    }
}
