//! Fig 3: number of streaming protocols per publisher.

use crate::context::ReproContext;
use crate::figures::helpers::{count_share_check, counts_figure, endpoints, share_at_least};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};

/// Runs the Fig 3 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig03", "Fig 3: protocols per publisher");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };
    let (counts, hist, buckets, series) = counts_figure(
        "protocols",
        &last.protocol_counts,
        &sweep.per_snapshot(|s| s.protocol.average_counts.as_ref()),
    );

    // Paper: 38% of publishers use 1 protocol but account for <10% of VH;
    // multi-protocol publishers carry >90% of VH; averages just under 2
    // (plain) and ≈2.2 (weighted).
    let one = counts.get(&1);
    result.checks.push(count_share_check("fig3a: ≈38% of publishers use 1 protocol", one.map(|s| s.0), 1, 22.0, 50.0));
    result.checks.push(count_share_check("fig3a: 1-protocol publishers carry <10% of VH", one.map(|s| s.1), 1, 0.0, 12.0));
    let (multi_pubs, multi_vh) = share_at_least(&counts, 2);
    result.checks.push(Check::new(
        "§4.4: >90% of VH from multi-protocol publishers",
        multi_vh > 88.0,
        format!("{multi_vh:.1}% of VH from {multi_pubs:.1}% of publishers"),
    ));
    if let (Some((_, avg_end)), Some((_, weighted_end))) =
        (endpoints(&series, "average"), endpoints(&series, "weighted average"))
    {
        result.checks.push(Check::in_range("fig3c: plain average a bit below 2", avg_end, 1.4, 2.3));
        result.checks.push(Check::in_range("fig3c: weighted average ≈2.2", weighted_end, 1.9, 2.8));
        result.checks.push(Check::new(
            "fig3c: weighted average above plain average",
            weighted_end > avg_end,
            format!("weighted {weighted_end:.2} vs plain {avg_end:.2}"),
        ));
    }

    result.tables.push(hist);
    result.tables.push(buckets);
    result.series.push(series);
    result
}
