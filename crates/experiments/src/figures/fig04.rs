//! Fig 4: CDF across publishers of the share of their view-hours served via
//! DASH and via HLS (supporters only, last snapshot).

use crate::context::ReproContext;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;
use vmp_stats::Cdf;

/// Runs the Fig 4 regeneration.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "quantile labels are percentages in 0..=100"
)]
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig04", "Fig 4: per-publisher view-hour share via DASH / HLS");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };

    let mut table = Table::new(
        "CDF of % view-hours via protocol (supporting publishers only)",
        vec!["quantile", "DASH", "HLS"],
    );
    let (dash, hls) = (&last.dash_shares, &last.hls_shares);
    let dash_cdf = Cdf::new(dash);
    let hls_cdf = Cdf::new(hls);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        table.row(vec![
            format!("p{}", (q * 100.0) as u32),
            dash_cdf.as_ref().map(|c| format!("{:.1}", c.quantile(q))).unwrap_or_default(),
            hls_cdf.as_ref().map(|c| format!("{:.1}", c.quantile(q))).unwrap_or_default(),
        ]);
    }

    // Paper: half of DASH supporters use it for ≤20% of their view-hours;
    // half of HLS supporters use it for ≥85%.
    if let Some(c) = &dash_cdf {
        let median = c.quantile(0.5);
        result.checks.push(Check::in_range(
            "fig4: median DASH share among supporters ≤20%",
            median,
            0.0,
            28.0,
        ));
    }
    if let Some(c) = &hls_cdf {
        let median = c.quantile(0.5);
        result.checks.push(Check::in_range(
            "fig4: median HLS share among supporters ≥85%",
            median,
            70.0,
            100.0,
        ));
    }
    result.checks.push(Check::new(
        "fig4: both protocols have supporters",
        !dash.is_empty() && !hls.is_empty(),
        format!("{} DASH / {} HLS supporters", dash.len(), hls.len()),
    ));

    result.tables.push(table);
    result.notes.push(
        "Large DASH-first publishers push the DASH curve's upper tail; most supporters keep \
         DASH a minority of their traffic (the paper's 'ecosystem maturity' point)."
            .into(),
    );
    result
}
