//! Fig 9: number of platforms supported per publisher.

use crate::context::ReproContext;
use crate::figures::helpers::{count_share_check, counts_figure, endpoints, share_at_least};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};

/// Runs the Fig 9 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig09", "Fig 9: platforms per publisher");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };
    let (counts, hist, buckets, series) = counts_figure(
        "platforms",
        &last.platform_counts,
        &sweep.per_snapshot(|s| s.platform.average_counts.as_ref()),
    );

    // Paper: >85% of publishers support more than one platform and those
    // carry >95% of VH; ≈30% support all five and carry >60% of VH;
    // weighted average ≈4.5 at the end, plain average >3; growth ≈48%/37%.
    let (multi_pubs, multi_vh) = share_at_least(&counts, 2);
    result.checks.push(Check::in_range("fig9a: >85% of publishers multi-platform", multi_pubs, 78.0, 100.25));
    result.checks.push(Check::in_range("fig9a: multi-platform publishers carry >95% of VH", multi_vh, 90.0, 100.25));
    let all5 = counts.get(&5);
    result.checks.push(count_share_check("fig9a: ≈30% support all 5 platforms", all5.map(|s| s.0), 5, 18.0, 45.0));
    result.checks.push(count_share_check("fig9a: all-5 publishers carry >60% of VH", all5.map(|s| s.1), 5, 50.0, 95.0));
    if let (Some((avg_start, avg_end)), Some((w_start, w_end))) =
        (endpoints(&series, "average"), endpoints(&series, "weighted average"))
    {
        result.checks.push(Check::in_range("fig9c: plain average >3 at end", avg_end, 2.7, 4.2));
        result.checks.push(Check::in_range("fig9c: weighted average ≈4.5 at end", w_end, 3.8, 5.0));
        let avg_growth = 100.0 * (avg_end / avg_start - 1.0);
        let w_growth = 100.0 * (w_end / w_start - 1.0);
        result.checks.push(Check::in_range("fig9c: plain average grows ≈48%", avg_growth, 20.0, 75.0));
        result.checks.push(Check::in_range("fig9c: weighted average grows ≈37%", w_growth, 12.0, 65.0));
    }

    result.tables.push(hist);
    result.tables.push(buckets);
    result.series.push(series);
    result
}
