//! Fig 11: CDN usage across publishers and view-hours, over time.

use crate::context::ReproContext;
use crate::figures::helpers::{endpoints, share_series};
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_core::cdn::CdnName;

/// Runs the Fig 11 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("fig11", "Fig 11: CDN prevalence over 27 months");
    let sweep = Sweep::of(ctx);
    let (Some(_), Some(latest)) = (sweep.last_or_fail(&mut result), sweep.latest()) else {
        return result;
    };

    let a = share_series(
        "Fig 11(a): % of publishers using each major CDN",
        &CdnName::MAJORS,
        &sweep.per_snapshot(|s| Some(&s.cdn.publishers)),
    );
    let b = share_series(
        "Fig 11(b): % of view-hours served by each major CDN",
        &CdnName::MAJORS,
        &sweep.per_snapshot(|s| Some(&s.cdn.hours)),
    );

    // Paper: CDN A used by ≈80% of publishers (C ≈30%), stable over time;
    // by view-hours A loses dominance — A, B, C each end at 20–35% with the
    // top-5 CDNs carrying >93% of all view-hours.
    if let Some((a_start, a_end)) = endpoints(&a, "CDN-A") {
        result.checks.push(Check::in_range("fig11a: CDN A ≈80% of publishers", a_end, 65.0, 92.0));
        result.checks.push(Check::new(
            "fig11a: membership roughly stable",
            (a_end - a_start).abs() < 15.0,
            format!("{a_start:.1}% → {a_end:.1}%"),
        ));
    }
    if let Some((_, c_end)) = endpoints(&a, "CDN-C") {
        result.checks.push(Check::in_range("fig11a: CDN C ≈30% of publishers", c_end, 20.0, 45.0));
    }
    if let (Some((a_vh_start, a_vh_end)), Some((_, b_vh_end)), Some((_, c_vh_end))) = (
        endpoints(&b, "CDN-A"),
        endpoints(&b, "CDN-B"),
        endpoints(&b, "CDN-C"),
    ) {
        result.checks.push(Check::new(
            "fig11b: CDN A's VH share declines",
            a_vh_end < a_vh_start,
            format!("{a_vh_start:.1}% → {a_vh_end:.1}%"),
        ));
        for (name, v) in [("A", a_vh_end), ("B", b_vh_end), ("C", c_vh_end)] {
            result.checks.push(Check::in_range(
                format!("fig11b: CDN {name} ends at 20-35% of VH"),
                v,
                15.0,
                42.0,
            ));
        }
    }
    // Top-5 concentration (§4.3: >93%).
    let shares = &latest.cdn.hours;
    let top5: f64 = CdnName::MAJORS.iter().filter_map(|c| shares.get(c)).sum();
    result.checks.push(Check::in_range("§4.3: top-5 CDNs carry >93% of VH", top5, 88.0, 100.0));
    let distinct = shares.len();
    result.notes.push(format!(
        "{distinct} distinct CDNs observed in the last snapshot (paper: 36 across the study)."
    ));

    result.series.push(a);
    result.series.push(b);
    result
}
