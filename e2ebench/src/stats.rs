//! Order statistics over run samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark driver
//! computes when it judges run-to-run spread; `spread` is the driver's
//! steadiness measure, (q3 − q1) ÷ median.

use serde::{Deserialize, Serialize};

/// Median, quartiles, minimum and sample count of one metric over runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Middle value (mean of the middle two for even counts).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Number of samples.
    pub n: u64,
}

impl Summary {
    /// Summarises `values`; `None` when empty or any value is NaN.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values)?;
        let (q1, median, q3) = quartiles_sorted(&sorted)?;
        let min = *sorted.first()?;
        Some(Summary { median, q1, q3, min, n: u64::try_from(sorted.len()).ok()? })
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median, so constant-zero counts read as perfectly steady).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// The median of `values`; `None` when empty or any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles_sorted(&sorted(values)?).map(|(_, m, _)| m)
}

/// `(q1, median, q3)` of an ascending slice. A single sample is its own
/// quartiles (Python raises there; a one-run smoke set still needs a row).
fn quartiles_sorted(data: &[f64]) -> Option<(f64, f64, f64)> {
    let m = data.len();
    if m == 1 {
        let only = *data.first()?;
        return Some((only, only, only));
    }
    let cut = |i: usize| -> Option<f64> {
        const N: usize = 4;
        let j = (i * (m + 1) / N).clamp(1, m - 1);
        // Negative when `j` was clamped up: Python extrapolates there too.
        // usize → f64 is exact for any sample count a run can hold.
        let delta = (i * (m + 1)) as f64 - (j * N) as f64;
        let lo = *data.get(j - 1)?;
        let hi = *data.get(j)?;
        Some((lo * (N as f64 - delta) + hi * delta) / N as f64)
    };
    Some((cut(1)?, cut(2)?, cut(3)?))
}
