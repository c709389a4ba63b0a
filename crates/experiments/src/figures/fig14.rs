//! Fig 14: prevalence of content syndication.

use crate::context::ReproContext;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;

/// Runs the Fig 14 regeneration.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "quantile labels are percentages in 0..=100"
)]
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig14", "Fig 14: syndication prevalence");
    let sweep = Sweep::of(ctx);
    if sweep.last_or_fail(&mut result).is_none() {
        return result;
    }
    let reach = &sweep.reach;

    let mut table = Table::new(
        "CDF across owners of % of full syndicators used",
        vec!["quantile", "% of syndicators"],
    );
    if let Some(cdf) = reach.cdf() {
        for q in [0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0] {
            table.row(vec![format!("p{}", (q * 100.0) as u32), format!("{:.1}", cdf.quantile(q))]);
        }
        // Paper: >80% of owners use ≥1 syndicator; 20% of owners reach
        // ≈1/3 of all full syndicators.
        let with_any = 100.0 * reach.owners_with_any();
        result.checks.push(Check::in_range("fig14: >80% of owners use ≥1 syndicator", with_any, 72.0, 100.0));
        let p80 = cdf.quantile(0.80);
        result.checks.push(Check::in_range(
            "fig14: top 20% of owners reach ≈1/3 of syndicators",
            p80,
            18.0,
            45.0,
        ));
    } else {
        result.checks.push(Check::new("fig14: reach CDF exists", false, "no owners observed"));
    }
    result.notes.push(format!(
        "{} full syndicators observed; reach measured from per-(publisher, video) ownership \
         flags in telemetry, as in §6.",
        reach.total_syndicators
    ));
    result.tables.push(table);
    result
}
