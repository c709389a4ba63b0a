//! Fig 15: average-bitrate distributions for owner vs syndicator clients
//! (California iPads over WiFi, two ISP×CDN panels).

use crate::context::ReproContext;
use crate::figures::helpers::catalogue_ladders;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;
use vmp_core::cdn::CdnName;
use vmp_core::geo::Isp;
use vmp_syndication::qoe::{qoe_comparison, QoeComparison, QoeScenario};

/// Simulated views per side per panel.
const SESSIONS: usize = 150;

/// The two panels of Figs 15/16 (shared with fig16); none, after a
/// failed check in `result`, when the catalogue lacks a ladder.
pub fn panels(result: &mut ExperimentResult) -> Vec<(&'static str, QoeComparison)> {
    let Some([owner, s7]) = catalogue_ladders(result, ["O", "S7"]) else { return Vec::new() };
    vec![
        (
            "ISP X, CDN A",
            qoe_comparison(&owner, &s7, QoeScenario::new(Isp::X, CdnName::A, SESSIONS), 1715),
        ),
        (
            "ISP Y, CDN B",
            qoe_comparison(&owner, &s7, QoeScenario::new(Isp::Y, CdnName::B, SESSIONS), 1716),
        ),
    ]
}

/// Runs the Fig 15 regeneration.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "labels are percentages in 0..=100"
)]
pub fn run(_ctx: &ReproContext) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig15", "Fig 15: average bitrate, owner vs syndicator (S7)");
    for (label, cmp) in panels(&mut result) {
        let mut table = Table::new(
            format!("Average bitrate CDF on {label} (kbps)"),
            vec!["quantile", "owner O", "syndicator S7"],
        );
        let (Some(o), Some(s)) = (cmp.owner.bitrate_cdf(), cmp.syndicator.bitrate_cdf()) else {
            result.checks.push(Check::new(
                format!("fig15 ({label}): sessions ran"),
                false,
                "no session played",
            ));
            continue;
        };
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            table.row(vec![
                format!("p{}", (q * 100.0) as u32),
                format!("{:.0}", o.quantile(q)),
                format!("{:.0}", s.quantile(q)),
            ]);
        }
        let ratio = cmp.median_bitrate_ratio();
        result.checks.push(Check::in_range(
            format!("fig15 ({label}): owner's median bitrate ≈2.5x the syndicator's"),
            ratio,
            1.7,
            3.6,
        ));
        result.tables.push(table);
    }
    result.notes.push(
        "Same content, same clients, same ISP×CDN; the sides differ in ladder (Fig 17) and \
         the modeled operational gap (see DESIGN.md substitutions)."
            .into(),
    );
    result
}
