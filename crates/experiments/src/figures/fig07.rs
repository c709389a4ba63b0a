//! Fig 7: percentage of publishers supporting each platform, over time.

use crate::context::ReproContext;
use crate::figures::helpers::{endpoints, share_series};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_core::platform::Platform;

/// Runs the Fig 7 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig07", "Fig 7: % of publishers supporting each platform");
    let sweep = Sweep::of(ctx);
    if sweep.last_or_fail(&mut result).is_none() {
        return result;
    }
    let series = share_series(
        "% of publishers supporting each platform",
        &Platform::ALL,
        &sweep.per_snapshot(|s| Some(&s.platform.publishers)),
    );

    // Paper: set-top grows <20% → >50%; smart TV <20% → >60%; browser and
    // mobile near-universal throughout.
    if let Some((settop_start, settop_end)) = endpoints(&series, "SetTop") {
        result.checks.push(Check::in_range("fig7: set-top <25% of publishers at start", settop_start, 5.0, 27.0));
        result.checks.push(Check::in_range("fig7: set-top >50% of publishers at end", settop_end, 44.0, 70.0));
    }
    if let Some((tv_start, tv_end)) = endpoints(&series, "SmartTV") {
        result.checks.push(Check::in_range("fig7: smart TV <25% at start", tv_start, 5.0, 27.0));
        result.checks.push(Check::in_range("fig7: smart TV >60% at end", tv_end, 50.0, 78.0));
    }
    if let Some((_, browser_end)) = endpoints(&series, "Browser") {
        result.checks.push(Check::in_range("fig7: browser near-universal", browser_end, 90.0, 100.0));
    }
    if let Some((mobile_start, mobile_end)) = endpoints(&series, "Mobile") {
        result.checks.push(Check::new(
            "fig7: mobile app support grows toward universal",
            mobile_end >= mobile_start && mobile_end > 85.0,
            format!("{mobile_start:.1}% → {mobile_end:.1}%"),
        ));
    }

    result.series.push(series);
    result
}
