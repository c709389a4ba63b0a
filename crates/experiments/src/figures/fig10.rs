//! Fig 10: view-hour shares of specific devices within one platform.

use crate::context::ReproContext;
use crate::figures::helpers::endpoints;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Series;
use vmp_analytics::store::ViewStore;
use vmp_core::device::DeviceModel;
use vmp_core::platform::{BrowserTech, Platform};

/// Share series within one platform (views of other platforms excluded).
///
/// Labels are a function of the device model (telemetry sets `os` from the
/// device), so the whole figure is a device-code column scan: one pass per
/// segment accumulating each *candidate* label's hours (every label a
/// device of the platform can carry, sorted) and the platform total in row
/// order — the same ordered additions the per-label rescans performed. A
/// candidate becomes a line only if some row carried it, so the line set
/// and order are the observed labels, sorted, without a discovery pass
/// over the store.
fn within_platform_series(
    store: &ViewStore,
    title: &str,
    platform: Platform,
    label_of: impl Fn(DeviceModel) -> Option<String>,
) -> Series {
    let mut series = Series::new(title, "snapshot");
    let mut in_platform = [false; DeviceModel::CODE_COUNT];
    let mut label_lut: [Option<String>; DeviceModel::CODE_COUNT] =
        std::array::from_fn(|_| None);
    for (code, (inside, label)) in (0u8..).zip(in_platform.iter_mut().zip(&mut label_lut)) {
        if let Some(device) = DeviceModel::from_code(code) {
            if device.platform() == platform {
                *inside = true;
                *label = label_of(device);
            }
        }
    }
    let mut labels: Vec<String> = label_lut.iter().flatten().cloned().collect();
    labels.sort();
    labels.dedup();
    let group_of: [Option<usize>; DeviceModel::CODE_COUNT] = std::array::from_fn(|code| {
        label_lut[code].as_ref().and_then(|l| labels.iter().position(|x| x == l))
    });

    let mut observed = vec![false; labels.len()];
    let mut lines: Vec<Vec<(String, f64)>> = vec![Vec::new(); labels.len()];
    for seg in store.iter_segments() {
        let mut platform_hours = 0.0f64;
        let mut with = vec![0.0f64; labels.len()];
        for (i, &code) in seg.devices().iter().enumerate() {
            let code = code as usize;
            if !in_platform[code] {
                continue;
            }
            let h = seg.weighted_hours(i);
            platform_hours += h;
            if let Some(g) = group_of[code] {
                observed[g] = true;
                with[g] += h;
            }
        }
        for (g, w) in with.into_iter().enumerate() {
            let share = if platform_hours > 0.0 { 100.0 * w / platform_hours } else { 0.0 };
            lines[g].push((seg.snapshot().to_string(), share));
        }
    }
    for ((label, points), seen) in labels.into_iter().zip(lines).zip(observed) {
        if seen {
            series.line(label, points);
        }
    }
    series
}

/// Runs the Fig 10 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig10", "Fig 10: device shares within platforms");

    let browsers = within_platform_series(
        &ctx.store,
        "Fig 10(a): browser view-hours by player technology",
        Platform::Browser,
        |d| d.browser_tech().map(|t| t.label().to_string()),
    );
    let mobile = within_platform_series(
        &ctx.store,
        "Fig 10(b): mobile view-hours by OS",
        Platform::MobileApp,
        |d| Some(d.os().to_string()),
    );
    let settop = within_platform_series(
        &ctx.store,
        "Fig 10(c): set-top view-hours by device",
        Platform::SetTopBox,
        |d| Some(d.model_string().to_string()),
    );

    // Paper: HTML5 ≈25% → ≈60%; Flash ≈60% → ≈40%; Android rises to parity
    // with iOS; Roku dominant among set-tops with AppleTV/FireTV visible.
    if let Some((h5_start, h5_end)) = endpoints(&browsers, BrowserTech::Html5.label()) {
        result.checks.push(Check::in_range("fig10a: HTML5 ≈25% at start", h5_start, 15.0, 35.0));
        result.checks.push(Check::in_range("fig10a: HTML5 ≈60% at end", h5_end, 48.0, 70.0));
    }
    if let Some((flash_start, flash_end)) = endpoints(&browsers, BrowserTech::Flash.label()) {
        result.checks.push(Check::in_range("fig10a: Flash ≈60% at start", flash_start, 48.0, 70.0));
        result.checks.push(Check::in_range("fig10a: Flash ≈40% at end (modest drop)", flash_end, 28.0, 50.0));
    }
    if let (Some((android_start, android_end)), Some((_, ios_end))) =
        (endpoints(&mobile, "Android"), endpoints(&mobile, "iOS"))
    {
        result.checks.push(Check::new(
            "fig10b: Android view-hours rise significantly",
            android_end > android_start + 5.0,
            format!("{android_start:.1}% → {android_end:.1}%"),
        ));
        result.checks.push(Check::new(
            "fig10b: Android and iOS comparable at the end",
            (android_end - ios_end).abs() < 18.0,
            format!("Android {android_end:.1}% vs iOS {ios_end:.1}%"),
        ));
    }
    if let Some((_, roku_end)) = endpoints(&settop, DeviceModel::Roku.model_string()) {
        let others_end = [DeviceModel::AppleTv, DeviceModel::FireTv, DeviceModel::Chromecast]
            .iter()
            .filter_map(|d| endpoints(&settop, d.model_string()).map(|e| e.1))
            .fold(0.0, f64::max);
        result.checks.push(Check::new(
            "fig10c: Roku dominant among set-tops",
            roku_end > others_end,
            format!("Roku {roku_end:.1}% vs next {others_end:.1}%"),
        ));
        let appletv_end =
            endpoints(&settop, DeviceModel::AppleTv.model_string()).map(|e| e.1).unwrap_or(0.0);
        result.checks.push(Check::in_range(
            "fig10c: AppleTV non-negligible",
            appletv_end,
            8.0,
            40.0,
        ));
    }

    result.series.push(browsers);
    result.series.push(mobile);
    result.series.push(settop);
    result
}
