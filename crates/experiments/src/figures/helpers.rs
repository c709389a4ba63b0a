//! Shared plumbing for figure drivers.
//!
//! The store-backed helpers run on the columnar kernel: a figure names a
//! [`DimSpec`] instead of a row extractor, and any [`SegmentSource`] —
//! the full store or a masked view — can back a series. The scenario
//! drivers (`resilience`, `monitor`, `live_event`) share the grading of a
//! cohort's alert stream and their replay-fingerprint fold here.

use std::fmt::Display;
use vmp_analytics::columns::{self, DimSpec, SegmentSource, ShareMetric};
use vmp_analytics::report::Series;
use vmp_core::units::Seconds;
use vmp_faults::FaultProfile;
use vmp_monitor::{score_alerts, Alert, Cell, HealthMonitor};
use vmp_session::cohort::deliver_in_end_order;
use vmp_session::hooks::SessionEnd;

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

/// Which share to plot over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareKind {
    /// % of publishers supporting the value (Fig 2(a), 7, 11(a)).
    Publishers,
    /// % of view-hours carried by the value (Fig 2(b), 6(a), 11(b)).
    ViewHours,
    /// % of views carried by the value (Fig 6(c)).
    Views,
}

/// Minimum share of a publisher's view-hours for a dimension value to count
/// as "supported" (filters the rare device-fallback views).
pub const SUPPORT_FLOOR: f64 = 0.01;

/// Builds a per-snapshot share series for a fixed set of dimension values.
/// Snapshots are rolled up in parallel (one segment per worker) and lines
/// assembled in fixed value/snapshot order.
pub fn share_series<S, V>(
    source: &S,
    title: &str,
    values: &[V],
    spec: DimSpec<V>,
    kind: ShareKind,
) -> Series
where
    S: SegmentSource,
    V: Ord + Clone + Display + Send,
{
    let metric = match kind {
        ShareKind::Publishers => ShareMetric::Publishers { floor: SUPPORT_FLOOR },
        ShareKind::ViewHours => ShareMetric::ViewHours,
        ShareKind::Views => ShareMetric::Views,
    };
    let per_snapshot = columns::share_by_snapshot(source, spec, metric);
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

/// Builds the three per-publisher-count artifacts shared by Figs 3, 9, 12:
/// (a) count histogram by % publishers / % view-hours,
/// (b) count distribution bucketed by publisher view-hours,
/// (c) average and weighted-average count per snapshot.
pub fn counts_figure<S: SegmentSource, V: Ord>(
    source: &S,
    dim_name: &str,
    spec: DimSpec<V>,
) -> (vmp_analytics::report::Table, vmp_analytics::report::Table, Series) {
    use vmp_analytics::perpub::{
        count_histogram, counts_by_size_bucket, counts_per_publisher, CountsOverTime,
    };
    use vmp_analytics::report::Table;

    let last =
        source.live_metas().last().map(|m| m.snapshot).expect("store has data");
    let counts = counts_per_publisher(source, last, spec, SUPPORT_FLOOR);

    let mut hist_table = Table::new(
        format!("(a) number of {dim_name} per publisher (last snapshot)"),
        vec!["count", "% of publishers", "% of view-hours"],
    );
    for (count, (pubs, vh)) in count_histogram(&counts) {
        hist_table.row(vec![count.to_string(), format!("{pubs:.1}"), format!("{vh:.1}")]);
    }

    let mut bucket_table = Table::new(
        format!("(b) number of {dim_name} bucketed by publisher view-hours"),
        vec!["bucket", "% of publishers", "count distribution within bucket"],
    );
    for (bucket, (share, dist)) in
        counts_by_size_bucket(&counts, vmp_synth::trends::X_VIEW_HOURS)
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

    let over_time = CountsOverTime::compute(source, spec, SUPPORT_FLOOR);
    let mut series = Series::new(
        format!("(c) average number of {dim_name} per publisher over time"),
        "snapshot",
    );
    series.line(
        "average",
        over_time.points.iter().map(|(s, a, _)| (s.to_string(), *a)).collect(),
    );
    series.line(
        "weighted average",
        over_time.points.iter().map(|(s, _, w)| (s.to_string(), *w)).collect(),
    );

    (hist_table, bucket_table, series)
}

/// Extracts `(count → (%pubs, %vh))` back out of a counts histogram table.
pub fn histogram_entry(table: &vmp_analytics::report::Table, count: usize) -> Option<(f64, f64)> {
    let row = table.rows.iter().find(|r| r[0] == count.to_string())?;
    Some((row[1].parse().ok()?, row[2].parse().ok()?))
}

/// Share of publishers (and of view-hours) with count ≥ `min` in a counts
/// histogram table.
pub fn share_with_at_least(table: &vmp_analytics::report::Table, min: usize) -> (f64, f64) {
    let mut pubs = 0.0;
    let mut vh = 0.0;
    for row in &table.rows {
        if row[0].parse::<usize>().map(|c| c >= min).unwrap_or(false) {
            pubs += row[1].parse::<f64>().unwrap_or(0.0);
            vh += row[2].parse::<f64>().unwrap_or(0.0);
        }
    }
    (pubs, vh)
}

/// First and last y values of a named line in a series.
pub fn endpoints(series: &Series, line: &str) -> Option<(f64, f64)> {
    let (_, points) = series.lines.iter().find(|(name, _)| name == line)?;
    Some((points.first()?.1, points.last()?.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_analytics::store::ViewStore;
    use vmp_core::protocol::StreamingProtocol;

    #[test]
    fn endpoints_reads_series() {
        let mut s = Series::new("t", "x");
        s.line("HLS", vec![("a".into(), 80.0), ("b".into(), 91.0)]);
        assert_eq!(endpoints(&s, "HLS"), Some((80.0, 91.0)));
        assert_eq!(endpoints(&s, "DASH"), None);
    }

    #[test]
    fn share_series_runs_on_empty_store() {
        let store = ViewStore::ingest(vec![]);
        let s = share_series(
            &store,
            "t",
            &[StreamingProtocol::Hls],
            vmp_analytics::columns::PROTOCOL,
            ShareKind::ViewHours,
        );
        assert_eq!(s.lines.len(), 1);
        assert!(s.lines[0].1.is_empty());
    }
}
