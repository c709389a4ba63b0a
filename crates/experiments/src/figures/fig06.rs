//! Fig 6: platform shares of view-hours and of views, over time.

use crate::context::ReproContext;
use crate::figures::helpers::{endpoints, share_series};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_core::platform::Platform;

/// Runs the Fig 6 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig06", "Fig 6: platform usage over 27 months");
    let sweep = Sweep::of(ctx);
    if sweep.last_or_fail(&mut result).is_none() {
        return result;
    }

    let a = share_series(
        "Fig 6(a): % of view-hours per platform",
        &Platform::ALL,
        &sweep.per_snapshot(|s| Some(&s.platform.hours)),
    );
    let b = share_series(
        "Fig 6(b): % of view-hours per platform, excluding the 3 largest publishers",
        &Platform::ALL,
        &sweep.per_snapshot(|s| s.platform_without_largest.as_ref()),
    );
    let c = share_series(
        "Fig 6(c): % of views per platform",
        &Platform::ALL,
        &sweep.per_snapshot(|s| Some(&s.platform_views)),
    );

    // Paper endpoints: browser VH 60% → <25%; set-top VH grows to ≈40%
    // (largest share); smart TV stays <5%; mobile steady 20-25%; set-top
    // *views* only ≈20% (long-view effect).
    if let Some((browser_start, browser_end)) = endpoints(&a, "Browser") {
        result.checks.push(Check::in_range("fig6a: browser ≈60% of VH at start", browser_start, 48.0, 70.0));
        result.checks.push(Check::in_range("fig6a: browser <25% of VH at end", browser_end, 10.0, 28.0));
    }
    if let Some((settop_start, settop_end)) = endpoints(&a, "SetTop") {
        result.checks.push(Check::in_range("fig6a: set-top <20% of VH at start", settop_start, 5.0, 22.0));
        result.checks.push(Check::in_range("fig6a: set-top ≈40% of VH at end", settop_end, 30.0, 50.0));
    }
    if let Some((_, tv_end)) = endpoints(&a, "SmartTV") {
        result.checks.push(Check::in_range("fig6a: smart TV <5-ish% of VH at end", tv_end, 0.0, 9.0));
    }
    if let Some((_, mobile_end)) = endpoints(&a, "Mobile") {
        result.checks.push(Check::in_range("fig6a: mobile ≈20-25% of VH at end", mobile_end, 14.0, 32.0));
    }
    if let Some((_, settop_views_end)) = endpoints(&c, "SetTop") {
        result.checks.push(Check::in_range("fig6c: set-top ≈20% of views at end", settop_views_end, 13.0, 28.0));
    }
    // Set-top leads all platforms by VH at the end.
    let settop_end = endpoints(&a, "SetTop").map(|e| e.1).unwrap_or(0.0);
    let others_max = ["Browser", "Mobile", "SmartTV", "Console"]
        .iter()
        .filter_map(|l| endpoints(&a, l).map(|e| e.1))
        .fold(0.0, f64::max);
    result.checks.push(Check::new(
        "fig6a: set-top has the largest VH share at the end",
        settop_end > others_max,
        format!("set-top {settop_end:.1}% vs next {others_max:.1}%"),
    ));
    // Fig 6(b): without the giants, mobile overtakes but trends stay
    // qualitatively similar (set-top still grows).
    if let Some((settop_wo_start, settop_wo_end)) = endpoints(&b, "SetTop") {
        result.checks.push(Check::new(
            "fig6b: set-top still grows without the 3 largest",
            settop_wo_end > settop_wo_start,
            format!("{settop_wo_start:.1}% → {settop_wo_end:.1}%"),
        ));
    }

    result.series.push(a);
    result.series.push(b);
    result.series.push(c);
    result
}
