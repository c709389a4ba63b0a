//! Fig 16: rebuffering-ratio distributions for owner vs syndicator clients.

use crate::context::ReproContext;
use crate::figures::fig15::panels;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;

/// Runs the Fig 16 regeneration.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "labels are percentages in 0..=100"
)]
pub fn run(_ctx: &ReproContext) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig16", "Fig 16: rebuffering ratio, owner vs syndicator (S7)");
    for (label, cmp) in panels(&mut result) {
        let mut table = Table::new(
            format!("Rebuffering-ratio CDF on {label}"),
            vec!["quantile", "owner O", "syndicator S7"],
        );
        let (Some(o), Some(s)) = (cmp.owner.rebuffer_cdf(), cmp.syndicator.rebuffer_cdf()) else {
            result.checks.push(Check::new(
                format!("fig16 ({label}): sessions ran"),
                false,
                "no session played",
            ));
            continue;
        };
        for q in [0.5, 0.75, 0.9, 0.95] {
            table.row(vec![
                format!("p{}", (q * 100.0) as u32),
                format!("{:.4}", o.quantile(q)),
                format!("{:.4}", s.quantile(q)),
            ]);
        }
        let reduction = 100.0 * cmp.p90_rebuffer_reduction();
        result.checks.push(Check::in_range(
            format!("fig16 ({label}): owner's p90 rebuffering ≈40% lower"),
            reduction,
            15.0,
            75.0,
        ));
        result.tables.push(table);
    }
    result
}
