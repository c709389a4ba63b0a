//! Descriptive statistics: summaries, weighted means, empirical CDFs and
//! log-scale histograms — the workhorses behind every figure in §4.

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (type-7 interpolation).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample or one
    /// containing non-finite values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        // All values are finite, so total order and partial order agree.
        sorted.sort_by(f64::total_cmp);
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return None;
        };
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            median: quantile_sorted(&sorted, 0.5),
            max,
        })
    }
}

/// Weighted arithmetic mean; returns `None` if the total weight is not
/// positive or lengths differ.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> Option<f64> {
    if values.len() != weights.len() {
        return None;
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    let acc: f64 = values.iter().zip(weights).map(|(v, w)| v * w).sum();
    Some(acc / total)
}

/// Quantile of an already-sorted slice using linear interpolation between
/// order statistics (R type 7, the default of most stats packages).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "`q` is clamped to [0, 1], so both ranks index the slice"
)]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// An empirical cumulative distribution function over a finite sample,
/// optionally weighted (the paper's CDFs across publishers are unweighted;
/// CDFs across views weight by view or view-hours).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Sorted sample points.
    xs: Vec<f64>,
    /// Cumulative probabilities aligned with `xs` (last = 1.0).
    ps: Vec<f64>,
}

impl Cdf {
    /// Builds an unweighted empirical CDF. Returns `None` for an empty or
    /// non-finite sample.
    pub fn new(values: &[f64]) -> Option<Cdf> {
        let weights = vec![1.0; values.len()];
        Cdf::weighted(values, &weights)
    }

    /// Builds a weighted empirical CDF. Returns `None` if inputs are empty,
    /// lengths differ, any value is non-finite, or total weight ≤ 0.
    pub fn weighted(values: &[f64], weights: &[f64]) -> Option<Cdf> {
        if values.is_empty()
            || values.len() != weights.len()
            || values.iter().any(|v| !v.is_finite())
            || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
        {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut pairs: Vec<(f64, f64)> =
            values.iter().copied().zip(weights.iter().copied()).collect();
        // Values are finite (checked above): total order agrees with
        // partial order.
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut xs = Vec::with_capacity(pairs.len());
        let mut ps = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (x, w) in pairs {
            acc += w;
            if xs.last() == Some(&x) {
                if let Some(p) = ps.last_mut() {
                    *p = acc / total;
                }
            } else {
                xs.push(x);
                ps.push(acc / total);
            }
        }
        // Guard against float accumulation drift.
        if let Some(last) = ps.last_mut() {
            *last = 1.0;
        }
        Some(Cdf { xs, ps })
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => {
                // Find the last equal x (there can be only one by dedup).
                self.ps[i]
            }
            Err(0) => 0.0,
            Err(i) => self.ps[i - 1],
        }
    }

    /// Smallest sample value `x` with `P(X <= x) >= q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        for (x, p) in self.xs.iter().zip(&self.ps) {
            if *p >= q - 1e-12 {
                return *x;
            }
        }
        // Construction guarantees a non-empty support.
        self.xs.last().copied().unwrap_or(f64::NAN)
    }

    /// The distinct support points with their cumulative probabilities,
    /// ready for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ps.iter().copied())
    }

    /// Number of distinct support points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the CDF has no points (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Fixed-bin histogram (linear or log10 bins).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    log10: bool,
    counts: Vec<u64>,
    /// Observations below `lo` / above `hi`.
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a linear-bin histogram over `[lo, hi)` with `bins` bins.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Result<Histogram, String> {
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) || bins == 0 {
            return Err(format!("invalid histogram [{lo}, {hi}) x{bins}"));
        }
        Ok(Histogram { lo, hi, log10: false, counts: vec![0; bins], underflow: 0, overflow: 0 })
    }

    /// Creates a log10-bin histogram over `[lo, hi)`; bounds must be > 0.
    pub fn log(lo: f64, hi: f64, bins: usize) -> Result<Histogram, String> {
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) || lo <= 0.0 || bins == 0 {
            return Err(format!("invalid log histogram [{lo}, {hi}) x{bins}"));
        }
        Ok(Histogram {
            lo: lo.log10(),
            hi: hi.log10(),
            log10: true,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records an observation.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "`x` lies in [lo, hi) here and the index is clamped to the table"
    )]
    pub fn record(&mut self, x: f64) {
        let x = if self.log10 {
            if x <= 0.0 {
                self.underflow += 1;
                return;
            }
            x.log10()
        } else {
            x
        };
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Under/overflow counts.
    pub fn outliers(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn weighted_mean_cases() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), Some(2.0));
        assert_eq!(weighted_mean(&[1.0, 3.0], &[0.0, 2.0]), Some(3.0));
        assert_eq!(weighted_mean(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(weighted_mean(&[1.0], &[0.0]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&v, 0.0), 10.0);
        assert_eq!(quantile_sorted(&v, 1.0), 40.0);
        assert!((quantile_sorted(&v, 0.5) - 25.0).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone_ends_at_one() {
        let c = Cdf::new(&[3.0, 1.0, 2.0, 2.0]).unwrap();
        let pts: Vec<_> = c.points().collect();
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!((c.at(2.0) - 0.75).abs() < 1e-12);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(99.0), 1.0);
    }

    #[test]
    fn weighted_cdf() {
        let c = Cdf::weighted(&[1.0, 2.0], &[1.0, 3.0]).unwrap();
        assert!((c.at(1.0) - 0.25).abs() < 1e-12);
        assert_eq!(c.at(2.0), 1.0);
        assert_eq!(c.quantile(0.2), 1.0);
        assert_eq!(c.quantile(0.9), 2.0);
    }

    #[test]
    fn cdf_rejects_bad_input() {
        assert!(Cdf::new(&[]).is_none());
        assert!(Cdf::new(&[f64::NAN]).is_none());
        assert!(Cdf::weighted(&[1.0], &[-1.0]).is_none());
        assert!(Cdf::weighted(&[1.0], &[0.0]).is_none());
    }

    #[test]
    fn linear_histogram_bins() {
        let mut h = Histogram::linear(0.0, 10.0, 5).unwrap();
        for x in [0.0, 1.9, 2.0, 5.5, 9.99, -1.0, 10.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.outliers(), (1, 1));
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn log_histogram_spans_decades() {
        let mut h = Histogram::log(1.0, 100_000.0, 5).unwrap();
        for x in [1.0, 10.0, 100.0, 1_000.0, 10_000.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[1, 1, 1, 1, 1]);
        h.record(0.0); // non-positive goes to underflow
        assert_eq!(h.outliers().0, 1);
    }

    #[test]
    fn histogram_rejects_bad_config() {
        assert!(Histogram::linear(5.0, 5.0, 3).is_err());
        assert!(Histogram::linear(0.0, 1.0, 0).is_err());
        assert!(Histogram::log(0.0, 10.0, 3).is_err());
    }
}
