//! Fig 17: bitrate ladders chosen by the owner and ten syndicators for the
//! same video ID (iPads over WiFi).

use crate::figures::helpers::catalogue_ladders;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::report::Table;
use vmp_syndication::catalogue::FIG17_LADDERS;

/// Runs the Fig 17 regeneration.
pub fn run() -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig17", "Fig 17: bitrate ladders of owner O and syndicators S1-S10");
    let mut table = Table::new(
        "Ladders for one video ID (kbps)",
        vec!["publisher", "rungs", "min", "max", "ladder"],
    );
    for (label, bitrates) in FIG17_LADDERS {
        let Some([ladder]) = catalogue_ladders(&mut result, [label]) else { continue };
        table.row(vec![
            label.to_string(),
            ladder.len().to_string(),
            ladder.min().bitrate.0.to_string(),
            ladder.max().bitrate.0.to_string(),
            bitrates.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(" "),
        ]);
    }

    result.tables.push(table);
    let Some([owner, s1, s2, s9]) = catalogue_ladders(&mut result, ["O", "S1", "S2", "S9"]) else {
        return result;
    };
    result.checks.push(Check::new(
        "fig17: owner uses 9 bitrates topping 8192 kbps",
        owner.len() == 9 && owner.max().bitrate.0 > 8192,
        format!("{} rungs, top {}", owner.len(), owner.max().bitrate),
    ));
    result.checks.push(Check::new(
        "fig17: S2 has only 3 bitrates, S9 has 14",
        s2.len() == 3 && s9.len() == 14,
        format!("S2: {}, S9: {}", s2.len(), s9.len()),
    ));
    let ratio = owner.max().bitrate.0 as f64 / s1.max().bitrate.0 as f64;
    result.checks.push(Check::in_range(
        "fig17: owner's top rung ≈7x S1's (just above 1024)",
        ratio,
        5.5,
        9.0,
    ));
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn ladders_match_figure_shape() {
        let r = super::run();
        assert!(r.all_passed(), "{:?}", r.failures());
        assert_eq!(r.tables[0].rows.len(), 11);
    }
}
