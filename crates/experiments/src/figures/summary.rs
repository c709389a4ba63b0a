//! §4.4: the paper's summary aggregates, re-measured in one place.

use crate::context::ReproContext;
use crate::figures::sweep::Sweep;
use crate::result::{Check, ExperimentResult};
use vmp_analytics::perpub::{count_histogram, PublisherCount};
use vmp_analytics::report::Table;
use vmp_core::protocol::StreamingProtocol;

/// Runs the §4.4 summary.
pub fn run(ctx: &ReproContext) -> ExperimentResult {
    let mut result = ExperimentResult::new("summary", "§4.4 summary aggregates");
    let sweep = Sweep::of(ctx);
    let (Some(last), Some(latest)) = (sweep.last_or_fail(&mut result), sweep.latest()) else {
        return result;
    };

    let mut table = Table::new("Headline aggregates (last snapshot)", vec!["statistic", "value"]);

    // "No single alternative dominates": HLS and DASH roughly even by VH.
    let vh = &latest.protocol.hours;
    let hls = vh.get(&StreamingProtocol::Hls).copied().unwrap_or(0.0);
    let dash = vh.get(&StreamingProtocol::Dash).copied().unwrap_or(0.0);
    table.row(vec!["HLS % of VH".into(), format!("{hls:.1}")]);
    table.row(vec!["DASH % of VH".into(), format!("{dash:.1}")]);
    result.checks.push(Check::new(
        "§4.4: HLS and DASH view-hours roughly even",
        (hls - dash).abs() < 20.0 && hls > 25.0 && dash > 25.0,
        format!("HLS {hls:.1}% vs DASH {dash:.1}%"),
    ));

    // ">90% of VH from publishers with >1 protocol / CDN / platform".
    for (name, vh_multi) in [
        ("protocols", multi_vh(&last.protocol_counts)),
        ("CDNs", multi_vh(&last.cdn_counts)),
        ("platforms", multi_vh(&last.platform_counts)),
    ] {
        table.row(vec![format!("% of VH from multi-{name} publishers"), format!("{vh_multi:.1}")]);
        result.checks.push(Check::in_range(
            format!("§4.4: >90% of VH from multi-{name} publishers"),
            vh_multi,
            85.0,
            100.25,
        ));
    }

    // Weighted average counts: protocols 2.2, CDNs 4.5, platforms 4.5.
    for (name, expected, lo, hi, w) in [
        ("protocols", 2.2, 1.9, 2.8, weighted_avg(&last.protocol_counts)),
        ("CDNs", 4.5, 3.7, 5.0, weighted_avg(&last.cdn_counts)),
        ("platforms", 4.5, 3.8, 5.0, weighted_avg(&last.platform_counts)),
    ] {
        table.row(vec![format!("weighted avg # {name}"), format!("{w:.2} (paper {expected})")]);
        result.checks.push(Check::in_range(
            format!("§4.4: weighted average {name} ≈{expected}"),
            w,
            lo,
            hi,
        ));
    }

    result.tables.push(table);
    result
}

fn multi_vh(counts: &[PublisherCount]) -> f64 {
    let hist = count_histogram(counts);
    hist.iter().filter(|(c, _)| **c >= 2).map(|(_, (_, vh))| vh).sum()
}

fn weighted_avg(counts: &[PublisherCount]) -> f64 {
    let total: f64 = counts.iter().map(|c| c.view_hours).sum();
    if total <= 0.0 {
        return 0.0;
    }
    counts.iter().map(|c| c.count as f64 * c.view_hours).sum::<f64>() / total
}
