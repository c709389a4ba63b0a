//! Snapshot types and their JSON rendering.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::metrics::bucket_bound;

/// Frozen distribution of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket (inclusive upper bound, count) pairs; zero-count buckets
    /// are omitted to keep exports small.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bucket bound.
    pub overflow: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw bucket counts (dense, one per bound).
    pub(crate) fn from_raw(
        counts: Vec<u64>,
        overflow: u64,
        sum: u64,
        count: u64,
        max: u64,
    ) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_bound(i), *c))
            .collect();
        let mut snap = HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
            overflow,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
        };
        snap.p50 = snap.quantile(0.50);
        snap.p90 = snap.quantile(0.90);
        snap.p99 = snap.quantile(0.99);
        snap
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the containing bucket; observations in the overflow bucket
    /// resolve to the recorded max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for &(bound, bucket_count) in &self.buckets {
            let next = cumulative + bucket_count;
            if (next as f64) >= target {
                let into = (target - cumulative as f64) / bucket_count as f64;
                // The bucket's true lower edge comes from the 1-2-5 series,
                // not the previous *non-empty* bucket (buckets are sparse).
                let lo = series_lower_edge(bound);
                let hi = bound.min(self.max).max(lo);
                return lo as f64 + into * (hi - lo) as f64;
            }
            cumulative = next;
        }
        self.max as f64
    }
}

/// Point-in-time copy of an entire registry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Compact JSON. Serialization of this plain-data tree cannot fail;
    /// an error maps to the empty document rather than a panic.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// Exclusive lower edge of the bucket with inclusive upper bound `bound`
/// in the 1-2-5 series: prev(1·10^k) = 5·10^(k-1), prev(2·10^k) = 1·10^k,
/// prev(5·10^k) = 2·10^k; the first bucket starts at 0.
fn series_lower_edge(bound: u64) -> u64 {
    if bound <= 1 {
        0
    } else if bound.to_string().starts_with('5') {
        bound / 5 * 2
    } else {
        bound / 2
    }
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q");
        // 100 observations of 10 → every quantile sits in the (5, 10] bucket.
        for _ in 0..100 {
            h.record(10);
        }
        let snap = h.snapshot();
        assert!(snap.p50 > 5.0 && snap.p50 <= 10.0, "p50 = {}", snap.p50);
        assert!(snap.p99 > snap.p50 - 5.0);
        assert_eq!(snap.max, 10);
    }

    #[test]
    fn empty_histogram_has_zero_quantiles() {
        let reg = MetricsRegistry::new();
        let snap = reg.histogram("empty").snapshot();
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn json_snapshot_is_parseable() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.histogram("lat").record(123);
        let json = reg.snapshot().to_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(
            value.get("counters").and_then(|c| c.get("a.b")).and_then(|v| v.as_u64()),
            Some(1)
        );
    }
}
