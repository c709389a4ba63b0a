//! Shared plumbing for figure drivers.
//!
//! The scan figures render what the store's sweep (`sweep.rs`) gathered:
//! per-snapshot share maps become series here, and per-publisher counts
//! become the three count artifacts of Figs 3, 9 and 12. The scenario
//! drivers (`resilience`, `monitor`, `live_event`) share the grading of a
//! cohort's alert stream and their replay-fingerprint fold here.

use std::collections::BTreeMap;
use std::fmt::Display;
use vmp_analytics::perpub::PublisherCount;
use vmp_analytics::report::Series;
use vmp_core::ladder::BitrateLadder;
use vmp_core::time::SnapshotId;
use vmp_core::units::Seconds;
use vmp_faults::FaultProfile;
use vmp_monitor::{score_alerts, Alert, Cell, HealthMonitor};
use vmp_session::cohort::deliver_in_end_order;
use vmp_session::hooks::SessionEnd;
use vmp_syndication::catalogue::ladder_of;

use crate::result::{Check, ExperimentResult};

/// One FNV-1a step over `bytes`: the fold behind every scenario's replay
/// fingerprint (seeded with the 64-bit offset basis).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The static catalogue's ladders for `labels`, in order. A label the
/// catalogue lacks is reported as a failed check that names it, never as
/// a panic.
pub fn catalogue_ladders<const N: usize>(
    result: &mut ExperimentResult,
    labels: [&str; N],
) -> Option<[BitrateLadder; N]> {
    let ladders = labels.map(|label| (label, ladder_of(label)));
    let missing: Vec<&str> =
        ladders.iter().filter(|(_, ladder)| ladder.is_none()).map(|(label, _)| *label).collect();
    if !missing.is_empty() {
        result.checks.push(Check::new(
            "static catalogue ladders present",
            false,
            format!("ladder_of({}) missing from the catalogue", missing.join(", ")),
        ));
    }
    let found: Vec<BitrateLadder> = ladders.into_iter().filter_map(|(_, ladder)| ladder).collect();
    found.try_into().ok()
}

/// Runs a scenario body over a fresh result. A cohort that cannot be built
/// (the runner's construction error) is reported as a failed check, never
/// as a panic or a silently smaller population.
pub fn scenario(
    id: &str,
    title: &str,
    body: impl FnOnce(&mut ExperimentResult) -> Result<(), String>,
) -> ExperimentResult {
    let mut result = ExperimentResult::new(id, title);
    if let Err(error) = body(&mut result) {
        result.checks.push(Check::new("scenario cohorts construct", false, error));
    }
    result
}

/// Credit window past a fault's end when scoring alerts: sessions that
/// absorbed the fault but only finished (and were only counted) after it
/// cleared, plus the sliding window's retention of their damage.
pub const SCORING_SLACK: Seconds = Seconds(600.0);

/// The health plane's verdict on one cohort.
#[derive(Debug)]
pub struct AlertGrade {
    /// The alerts raised over the completion stream, in raise order.
    pub alerts: Vec<Alert>,
    /// Share of alerts a scheduled fault window explains.
    pub precision: f64,
    /// Share of scorable fault windows some alert caught.
    pub recall: f64,
    /// Mean seconds from a window opening to its first alert.
    pub ttd: Option<f64>,
    /// Top-ranked culprit, rendered.
    pub top_culprit: Option<String>,
    /// Top-ranked culprit cell, for localization checks.
    pub top_cell: Option<Cell>,
    /// FNV-1a over the full alert stream and culprit ranking.
    pub fingerprint: u64,
}

/// Streams a cohort's completions into a fresh health monitor, in
/// fault-clock end order, and scores the alert stream against the injected
/// plan itself (`None` = nothing injected, or reported rather than scored).
pub fn grade_alerts(ends: &[SessionEnd], profile: Option<&FaultProfile>) -> AlertGrade {
    let mut monitor = HealthMonitor::with_defaults();
    deliver_in_end_order(ends, &mut monitor);
    monitor.finish();
    let (precision, recall, ttd) = match profile {
        Some(p) => {
            let score = score_alerts(monitor.alerts(), p, SCORING_SLACK);
            (score.precision(), score.recall(), score.mean_time_to_detect())
        }
        // A silent detector under no faults is perfectly precise.
        None => (1.0, 1.0, None),
    };
    let culprits = monitor.culprits();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for alert in monitor.alerts() {
        fingerprint = fnv1a(fingerprint, alert.to_string().as_bytes());
    }
    for culprit in &culprits {
        fingerprint = fnv1a(fingerprint, culprit.describe().as_bytes());
    }
    AlertGrade {
        alerts: monitor.alerts().to_vec(),
        precision,
        recall,
        ttd,
        top_culprit: culprits.first().map(|c| c.describe()),
        top_cell: culprits.first().map(|c| c.cell),
        fingerprint,
    }
}

/// Minimum share of a publisher's view-hours for a dimension value to count
/// as "supported" (filters the rare device-fallback views).
pub const SUPPORT_FLOOR: f64 = 0.01;

/// Builds a share series for a fixed set of dimension values from
/// per-snapshot share maps: one line per value, in value order, one point
/// per snapshot (a value a snapshot never saw plots 0).
pub fn share_series<V: Ord + Display>(
    title: &str,
    values: &[V],
    per_snapshot: &[(SnapshotId, &BTreeMap<V, f64>)],
) -> Series {
    let mut series = Series::new(title, "snapshot");
    for value in values {
        let points = per_snapshot
            .iter()
            .map(|(snapshot, shares)| {
                (snapshot.to_string(), shares.get(value).copied().unwrap_or(0.0))
            })
            .collect();
        series.line(value.to_string(), points);
    }
    series
}

/// A count histogram: `count → (% of publishers, % of view-hours)`.
pub type CountHistogram = BTreeMap<usize, (f64, f64)>;

/// Builds the three per-publisher-count artifacts shared by Figs 3, 9, 12
/// from the latest snapshot's per-publisher counts and the per-snapshot
/// (plain, weighted) average counts, after the exact histogram the checks
/// read:
/// (a) count histogram by % publishers / % view-hours,
/// (b) count distribution bucketed by publisher view-hours,
/// (c) average and weighted-average count per snapshot.
pub fn counts_figure(
    dim_name: &str,
    counts: &[PublisherCount],
    averages: &[(SnapshotId, &(f64, f64))],
) -> (CountHistogram, vmp_analytics::report::Table, vmp_analytics::report::Table, Series) {
    use vmp_analytics::perpub::{count_histogram, counts_by_size_bucket};
    use vmp_analytics::report::Table;

    let mut hist_table = Table::new(
        format!("(a) number of {dim_name} per publisher (last snapshot)"),
        vec!["count", "% of publishers", "% of view-hours"],
    );
    let histogram = count_histogram(counts);
    for (count, (pubs, vh)) in &histogram {
        hist_table.row(vec![count.to_string(), format!("{pubs:.1}"), format!("{vh:.1}")]);
    }

    let mut bucket_table = Table::new(
        format!("(b) number of {dim_name} bucketed by publisher view-hours"),
        vec!["bucket", "% of publishers", "count distribution within bucket"],
    );
    for (bucket, (share, dist)) in
        counts_by_size_bucket(counts, vmp_synth::trends::X_VIEW_HOURS)
    {
        let label = if bucket == 0 {
            "<X".to_string()
        } else {
            format!("10^{}X..10^{}X", bucket - 1, bucket)
        };
        let dist_text = dist
            .iter()
            .map(|(c, p)| format!("{c}:{p:.0}%"))
            .collect::<Vec<_>>()
            .join(" ");
        bucket_table.row(vec![label, format!("{share:.1}"), dist_text]);
    }

    let mut series = Series::new(
        format!("(c) average number of {dim_name} per publisher over time"),
        "snapshot",
    );
    series.line("average", averages.iter().map(|(s, (a, _))| (s.to_string(), *a)).collect());
    series.line(
        "weighted average",
        averages.iter().map(|(s, (_, w))| (s.to_string(), *w)).collect(),
    );

    (histogram, hist_table, bucket_table, series)
}

/// [`Check::in_range`] on a share at exactly `count`; when no publisher has
/// that count there is nothing to measure, and the check fails saying so.
pub fn count_share_check(name: &str, share: Option<f64>, count: usize, lo: f64, hi: f64) -> Check {
    match share {
        Some(value) => Check::in_range(name, value, lo, hi),
        None => Check::new(name, false, format!("no publisher has a count of {count}")),
    }
}

/// Shares of publishers and of view-hours with a count of at least `min`.
pub fn share_at_least(hist: &CountHistogram, min: usize) -> (f64, f64) {
    hist.range(min..).fold((0.0, 0.0), |(pubs, vh), (_, (p, v))| (pubs + p, vh + v))
}

/// First and last y values of a named line in a series.
pub fn endpoints(series: &Series, line: &str) -> Option<(f64, f64)> {
    let (_, points) = series.lines.iter().find(|(name, _)| name == line)?;
    Some((points.first()?.1, points.last()?.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::protocol::StreamingProtocol;

    #[test]
    fn endpoints_reads_series() {
        let mut s = Series::new("t", "x");
        s.line("HLS", vec![("a".into(), 80.0), ("b".into(), 91.0)]);
        assert_eq!(endpoints(&s, "HLS"), Some((80.0, 91.0)));
        assert_eq!(endpoints(&s, "DASH"), None);
    }

    #[test]
    fn share_series_plots_missing_values_as_zero() {
        let first = SnapshotId::FIRST;
        let shares = BTreeMap::from([(StreamingProtocol::Hls, 80.0)]);
        let values = [StreamingProtocol::Hls, StreamingProtocol::Dash];
        let s = share_series("t", &values, &[(first, &shares)]);
        assert_eq!(s.lines.len(), 2);
        assert_eq!(s.lines[0].1, vec![(first.to_string(), 80.0)]);
        assert_eq!(s.lines[1].1, vec![(first.to_string(), 0.0)]);
        let empty = share_series::<StreamingProtocol>("t", &[StreamingProtocol::Hls], &[]);
        assert!(empty.lines[0].1.is_empty());
    }
}
