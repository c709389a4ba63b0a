//! Fig 13: management-complexity measures vs publisher view-hours
//! (log-log scatter + OLS fit).

use crate::context::ReproContext;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::complexity::{complexity_fit, ComplexityMeasure, ComplexityPoint};
use vmp_analytics::report::Table;
use vmp_core::time::SnapshotId;

/// Runs the Fig 13 regeneration.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig13", "Fig 13: complexity measures vs publisher view-hours");
    let sweep = Sweep::of(ctx);
    let Some(last) = sweep.last_or_fail(&mut result) else {
        return result;
    };
    // Catalogue size comes from the publisher's management plane (the paper
    // uses distinct video-ID counts where available).
    let titles_of = |publisher| {
        ctx.dataset.profile(publisher).map(|p| p.plane(SnapshotId::LAST).titles).unwrap_or(1)
    };

    let mut table = Table::new(
        "Log-log OLS fits (growth per 10x view-hours)",
        vec!["measure", "growth/decade (measured)", "growth/decade (paper)", "r^2", "p-value", "max"],
    );

    for measure in [
        ComplexityMeasure::Combinations,
        ComplexityMeasure::ProtocolTitles,
        ComplexityMeasure::UniqueSdks,
    ] {
        let points: Vec<ComplexityPoint> =
            last.complexity.iter().map(|p| p.point(measure, &titles_of)).collect();
        let fit = match complexity_fit(&points) {
            Ok(f) => f,
            Err(e) => {
                result.checks.push(Check::new(
                    format!("{measure:?} fit exists"),
                    false,
                    e,
                ));
                continue;
            }
        };
        let growth = fit.growth_per_decade();
        let paper = measure.paper_growth_per_decade();
        let max = points.iter().map(|p| p.complexity).fold(0.0, f64::max);
        table.row(vec![
            format!("{measure:?}"),
            format!("{growth:.2}x"),
            format!("{paper:.2}x"),
            format!("{:.3}", fit.r_squared),
            format!("{:.1e}", fit.p_value),
            format!("{max:.0}"),
        ]);

        // Sub-linear growth with strong significance is the core claim.
        result.checks.push(Check::new(
            format!("{measure:?}: sub-linear (growth/decade < 10x)"),
            growth > 1.0 && growth < 10.0,
            format!("{growth:.2}x per decade"),
        ));
        result.checks.push(Check::new(
            format!("{measure:?}: fit significant (p < 0.05, paper < 1e-9)"),
            fit.p_value < 0.05,
            format!("p = {:.2e}", fit.p_value),
        ));
        let (lo, hi) = match measure {
            ComplexityMeasure::Combinations => (1.25, 2.6),
            ComplexityMeasure::ProtocolTitles => (2.6, 5.5),
            ComplexityMeasure::UniqueSdks => (1.25, 2.6),
        };
        result.checks.push(Check::in_range(
            format!("{measure:?}: growth/decade near paper's {paper:.2}x"),
            growth,
            lo,
            hi,
        ));
        if measure == ComplexityMeasure::UniqueSdks {
            result.checks.push(Check::in_range(
                "fig13c: largest publisher maintains ≈85 code bases",
                max,
                35.0,
                130.0,
            ));
        }
    }

    result.tables.push(table);
    result.notes.push(
        "Combinations and unique SDKs are measured from observed telemetry (an under-estimate, \
         like the paper's); protocol-titles uses the management plane's catalogue size."
            .into(),
    );
    result
}
