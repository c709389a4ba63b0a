//! Fig 8: CDF of individual view duration per platform (last snapshot).

use crate::context::ReproContext;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::columns::Segment;
use vmp_analytics::report::Table;
use vmp_core::platform::Platform;
use vmp_stats::Cdf;

/// One platform's view-duration quantiles (hours) and share of views
/// longer than 0.2 h (%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DurationRow {
    pub platform: Platform,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub over: f64,
}

/// Every platform's duration row over one segment (platforms with no
/// views are left out).
pub(crate) fn durations(seg: &Segment) -> Vec<DurationRow> {
    let mut rows = Vec::new();
    for platform in Platform::ALL {
        // View-weighted durations (each sample counts `weight` views),
        // straight off the platform and hours columns and the run weights.
        let mut durations = Vec::new();
        let mut weights = Vec::new();
        let code = platform.code();
        let (platforms, hours) = (seg.platforms(), seg.hours());
        for run in seg.cells() {
            for i in run.rows.clone() {
                if platforms[i] == code {
                    durations.push(hours[i]);
                    weights.push(run.weight);
                }
            }
        }
        let Some(cdf) = Cdf::weighted(&durations, &weights) else {
            continue;
        };
        rows.push(DurationRow {
            platform,
            p25: cdf.quantile(0.25),
            p50: cdf.quantile(0.50),
            p75: cdf.quantile(0.75),
            over: 100.0 * (1.0 - cdf.at(0.2)),
        });
    }
    rows
}

/// Runs the Fig 8 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig08", "Fig 8: view duration CDF per platform");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };

    let mut table = Table::new(
        "View duration quantiles (hours) and P(>0.2h), per platform",
        vec!["platform", "p25", "p50", "p75", "P(>0.2h) %"],
    );
    for row in &last.durations {
        table.row(vec![
            row.platform.label().to_string(),
            format!("{:.3}", row.p25),
            format!("{:.3}", row.p50),
            format!("{:.3}", row.p75),
            format!("{:.1}", row.over),
        ]);
    }

    // Paper: >60% of set-top views exceed 0.2 h; only ≈24% of mobile and
    // browser views do.
    let get = |p: Platform| last.durations.iter().find(|r| r.platform == p).map(|r| r.over);
    if let Some(settop) = get(Platform::SetTopBox) {
        result.checks.push(Check::in_range("fig8: set-top P(>0.2h) >60%", settop, 55.0, 90.0));
    }
    if let Some(mobile) = get(Platform::MobileApp) {
        result.checks.push(Check::in_range("fig8: mobile P(>0.2h) ≈24%", mobile, 12.0, 34.0));
    }
    if let Some(browser) = get(Platform::Browser) {
        result.checks.push(Check::in_range("fig8: browser P(>0.2h) ≈24%", browser, 12.0, 36.0));
    }
    if let (Some(settop), Some(mobile)) = (get(Platform::SetTopBox), get(Platform::MobileApp)) {
        result.checks.push(Check::new(
            "fig8: set-top views are much longer than mobile views",
            settop > mobile + 20.0,
            format!("set-top {settop:.1}% vs mobile {mobile:.1}%"),
        ));
    }

    result.tables.push(table);
    result
}
