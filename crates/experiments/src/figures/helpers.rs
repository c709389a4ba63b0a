//! Shared plumbing for figure drivers.
//!
//! The store-backed helpers run on the columnar kernel: a figure names a
//! [`DimSpec`] instead of a row extractor, and any [`SegmentSource`] —
//! the full store or a masked view — can back a series. The scenario
//! drivers (`resilience`, `monitor`, `live_event`) share their static
//! fixtures and their replay-fingerprint fold here.

use std::fmt::Display;
use vmp_analytics::columns::{self, DimSpec, SegmentSource, ShareMetric};
use vmp_analytics::report::Series;
use vmp_cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp_core::cdn::CdnName;
use vmp_core::ladder::BitrateLadder;

use crate::result::Check;

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

/// The scenarios' static fixtures, whose construction is fallible only on
/// programmer error.
#[derive(Debug)]
pub struct ScenarioSetup {
    /// The five-rung 400–6400 kbps ladder every scenario session plays.
    pub ladder: BitrateLadder,
    /// Equal-weight, all-scope strategy over the scenario's CDNs.
    pub strategy: CdnStrategy,
}

/// Builds the fixtures for a scenario delivering over `cdns`.
pub fn scenario_setup(cdns: &[CdnName]) -> Option<ScenarioSetup> {
    let ladder = BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400]).ok()?;
    let assignments =
        cdns.iter().map(|&cdn| CdnAssignment { cdn, weight: 1.0, scope: CdnScope::All }).collect();
    let strategy = CdnStrategy::new(assignments).ok()?;
    Some(ScenarioSetup { ladder, strategy })
}

/// The failed check a scenario reports when [`scenario_setup`] is `None`.
pub fn setup_failed() -> Check {
    Check::new("static fixtures construct", false, "ladder/strategy construction failed")
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
