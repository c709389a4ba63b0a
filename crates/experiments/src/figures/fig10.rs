//! Fig 10: view-hour shares of specific devices within one platform.

use crate::context::ReproContext;
use crate::figures::helpers::endpoints;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::columns::Segment;
use vmp_analytics::report::Series;
use vmp_core::device::DeviceModel;
use vmp_core::platform::{BrowserTech, Platform};

/// The label a device carries within its platform's panel.
type LabelOf = fn(DeviceModel) -> Option<String>;

/// The three within-platform breakdowns, in panel order: title, platform
/// and the label a device of it carries.
const BREAKDOWNS: [(&str, Platform, LabelOf); 3] = [
    ("Fig 10(a): browser view-hours by player technology", Platform::Browser, |d| {
        d.browser_tech().map(|t| t.label().to_string())
    }),
    ("Fig 10(b): mobile view-hours by OS", Platform::MobileApp, |d| Some(d.os().to_string())),
    ("Fig 10(c): set-top view-hours by device", Platform::SetTopBox, |d| {
        Some(d.model_string().to_string())
    }),
];

/// Fig 10's label groups. Labels are a function of the device model
/// (telemetry sets `os` from the device), so the whole figure is a
/// device-code column scan: each panel's *candidate* labels are every
/// label a device of its platform can carry, sorted; a candidate becomes a
/// line only if some row carried it, so the line set and order are the
/// observed labels, sorted, without a discovery pass over the store.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Candidate labels per panel.
    labels: [Vec<String>; 3],
    /// Per device code: its panel (the platform it belongs to) and its
    /// label group there, if it carries one.
    group_of: [Option<(usize, Option<usize>)>; DeviceModel::CODE_COUNT],
}

/// One snapshot's shares (%) of each panel's candidate labels within the
/// panel's platform, and whether any row carried each label.
#[derive(Debug)]
pub(crate) struct DeviceShares {
    shares: [Vec<f64>; 3],
    observed: [Vec<bool>; 3],
}

impl Plan {
    pub(crate) fn new() -> Plan {
        let mut label_lut: [[Option<String>; DeviceModel::CODE_COUNT]; 3] =
            std::array::from_fn(|_| std::array::from_fn(|_| None));
        let mut panel_of = [None; DeviceModel::CODE_COUNT];
        for (code, panel) in (0u8..).zip(panel_of.iter_mut()) {
            let Some(device) = DeviceModel::from_code(code) else { continue };
            for (p, (_, platform, label_of)) in BREAKDOWNS.iter().enumerate() {
                if device.platform() == *platform {
                    *panel = Some(p);
                    label_lut[p][usize::from(code)] = label_of(device);
                }
            }
        }
        let labels: [Vec<String>; 3] = std::array::from_fn(|p| {
            let mut labels: Vec<String> = label_lut[p].iter().flatten().cloned().collect();
            labels.sort();
            labels.dedup();
            labels
        });
        let group_of = std::array::from_fn(|code| {
            panel_of[code].map(|p| {
                let group = label_lut[p][code].as_ref();
                (p, group.and_then(|l| labels[p].iter().position(|x| x == l)))
            })
        });
        Plan { labels, group_of }
    }

    /// One pass over a segment's device column: each panel's platform total
    /// and each label's hours accumulate in row order — the same ordered
    /// additions a per-panel scan performs, since a row belongs to at most
    /// one platform.
    pub(crate) fn visit(&self, seg: &Segment) -> DeviceShares {
        let mut platform_hours = [0.0f64; 3];
        let mut with: [Vec<f64>; 3] = std::array::from_fn(|p| vec![0.0; self.labels[p].len()]);
        let mut observed: [Vec<bool>; 3] =
            std::array::from_fn(|p| vec![false; self.labels[p].len()]);
        let (devices, hours) = (seg.devices(), seg.hours());
        for run in seg.cells() {
            for i in run.rows.clone() {
                let Some((p, group)) = self.group_of[usize::from(devices[i])] else { continue };
                let h = run.weight * hours[i];
                platform_hours[p] += h;
                if let Some(g) = group {
                    observed[p][g] = true;
                    with[p][g] += h;
                }
            }
        }
        let shares = std::array::from_fn(|p| {
            let total = platform_hours[p];
            with[p].iter().map(|w| if total > 0.0 { 100.0 * w / total } else { 0.0 }).collect()
        });
        DeviceShares { shares, observed }
    }
}

/// Panel `p`'s share series over every snapshot of the sweep.
fn within_platform_series(sweep: &Sweep, p: usize) -> Series {
    let (title, _, _) = BREAKDOWNS[p];
    let mut series = Series::new(title, "snapshot");
    for (g, label) in sweep.devices.labels[p].iter().enumerate() {
        if !sweep.snapshots.iter().any(|s| s.devices.observed[p][g]) {
            continue;
        }
        let points = sweep
            .snapshots
            .iter()
            .map(|s| (s.snapshot.to_string(), s.devices.shares[p][g]))
            .collect();
        series.line(label.clone(), points);
    }
    series
}

/// Runs the Fig 10 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig10", "Fig 10: device shares within platforms");
    let sweep = Sweep::of(ctx);
    if sweep.last_or_fail(&mut result).is_none() {
        return result;
    }
    let [browsers, mobile, settop] = std::array::from_fn(|p| within_platform_series(&sweep, p));

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
