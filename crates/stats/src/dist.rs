//! Distribution samplers.
//!
//! The ecosystem model needs heavy-tailed publisher sizes (Pareto / Zipf),
//! lognormal view durations, normal jitter, exponential inter-arrivals and
//! categorical mixes. Each sampler is a small struct implementing
//! [`Distribution`], validated at construction.

use crate::rng::Rng;

/// A sampleable distribution over `f64` (or an index for [`Discrete`]).
pub trait Distribution {
    /// The sample type.
    type Output;
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> Self::Output;
}

/// Normal (Gaussian) distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution. `std_dev` must be finite and ≥ 0.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, String> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(format!("invalid normal parameters mean={mean}, sd={std_dev}"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution for Normal {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        // Marsaglia polar method; discard the second variate to stay
        // stateless (simplicity over a 2x constant factor).
        loop {
            let u = 2.0 * rng.f64() - 1.0;
            let v = 2.0 * rng.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std_dev * u * factor;
            }
        }
    }
}

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// Parameterized by the *log-space* mean and standard deviation, like the
/// conventional definition; use [`LogNormal::from_median_spread`] for the
/// more intuitive "median and multiplicative spread" form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates from log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, String> {
        Ok(LogNormal { norm: Normal::new(mu, sigma)? })
    }

    /// Creates from a median and a multiplicative spread factor: ~68% of
    /// samples fall in `[median / spread, median * spread]`.
    pub fn from_median_spread(median: f64, spread: f64) -> Result<Self, String> {
        if median <= 0.0 || spread < 1.0 {
            return Err(format!("invalid lognormal median={median}, spread={spread}"));
        }
        LogNormal::new(median.ln(), spread.ln())
    }

    /// Infallible [`LogNormal::from_median_spread`]: clamps `median` to a
    /// positive floor and `spread` to ≥ 1 instead of erroring, for callers
    /// whose inputs are already range-checked and who must not panic
    /// (rule D2 forbids `expect` in library code).
    pub fn clamped_median_spread(median: f64, spread: f64) -> Self {
        let median = if median.is_finite() && median > 0.0 { median } else { f64::MIN_POSITIVE };
        let spread = if spread.is_finite() && spread > 1.0 { spread } else { 1.0 };
        LogNormal {
            norm: Normal { mean: median.ln(), std_dev: spread.ln() },
        }
    }

    /// The distribution median (`exp(mu)`).
    pub fn median(&self) -> f64 {
        self.norm.mean().exp()
    }
}

impl Distribution for LogNormal {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution with the given rate (λ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution; `rate` must be finite and > 0.
    pub fn new(rate: f64) -> Result<Self, String> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("invalid exponential rate={rate}"));
        }
        Ok(Exponential { rate })
    }

    /// Mean (`1 / rate`).
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Distribution for Exponential {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - rng.f64()).ln() / self.rate
    }
}

/// Pareto (type I) distribution: heavy-tailed sizes with scale `x_min` and
/// shape `alpha`. Used for publisher view-hour magnitudes, which the paper
/// shows span five orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution; both parameters must be > 0.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, String> {
        if x_min <= 0.0 || alpha <= 0.0 || !x_min.is_finite() || !alpha.is_finite() {
            return Err(format!("invalid pareto x_min={x_min}, alpha={alpha}"));
        }
        Ok(Pareto { x_min, alpha })
    }
}

impl Distribution for Pareto {
    type Output = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        self.x_min / (1.0 - rng.f64()).powf(1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// inversion over precomputed cumulative weights. Used for title popularity
/// inside a catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("zipf needs at least one rank".into());
        }
        if s < 0.0 || !s.is_finite() {
            return Err(format!("invalid zipf exponent s={s}"));
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Ok(Zipf { cumulative })
    }

    /// The degenerate single-rank distribution (always samples rank 0).
    /// The infallible fallback for callers whose `n` is data-driven and
    /// who must not panic (rule D2).
    pub fn unit() -> Self {
        Zipf { cumulative: vec![1.0] }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (n ≥ 1 by construction); provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Distribution for Zipf {
    /// Zero-based rank index (0 = most popular).
    type Output = usize;

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.total_cmp(&u))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Categorical distribution over arbitrary weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Creates a categorical distribution from non-negative weights, at
    /// least one of which must be positive.
    pub fn new(weights: &[f64]) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("discrete distribution needs at least one weight".into());
        }
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err("weights must be finite and non-negative".into());
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err("at least one weight must be positive".into());
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += *w / total;
            cumulative.push(acc);
        }
        Ok(Discrete { cumulative })
    }

    /// Infallible [`Discrete::new`]: degrades to a single always-zero
    /// category when the weights are empty, negative, non-finite, or all
    /// zero, so data-driven mixes can fall back to their first entry
    /// instead of panicking (rule D2).
    pub fn new_or_unit(weights: &[f64]) -> Self {
        Discrete::new(weights).unwrap_or_else(|_| Discrete { cumulative: vec![1.0] })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Distribution for Discrete {
    /// Category index.
    type Output = usize;

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.total_cmp(&u))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution<Output = f64>, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0).unwrap();
        let m = mean_of(&d, 1, 20_000);
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        let mut rng = Rng::seed_from(2);
        let var: f64 = (0..20_000)
            .map(|_| {
                let x = d.sample(&mut rng) - 10.0;
                x * x
            })
            .sum::<f64>()
            / 20_000.0;
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let d = Normal::new(5.0, 0.0).unwrap();
        let mut rng = Rng::seed_from(1);
        assert_eq!(d.sample(&mut rng), 5.0);
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median_spread(8.0, 2.0).unwrap();
        assert!((d.median() - 8.0).abs() < 1e-9);
        let mut rng = Rng::seed_from(3);
        let mut xs: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[5000];
        assert!((med / 8.0 - 1.0).abs() < 0.1, "median {med}");
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::from_median_spread(0.0, 2.0).is_err());
        assert!(LogNormal::from_median_spread(5.0, 0.5).is_err());
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25).unwrap();
        assert_eq!(d.mean(), 4.0);
        let m = mean_of(&d, 4, 20_000);
        assert!((m - 4.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn pareto_respects_minimum_and_is_heavy_tailed() {
        let d = Pareto::new(1.0, 1.1).unwrap();
        let mut rng = Rng::seed_from(5);
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| *x >= 1.0));
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(max > 100.0, "expected heavy tail, max {max}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let d = Zipf::new(100, 1.0).unwrap();
        let mut rng = Rng::seed_from(6);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 10);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let d = Zipf::new(4, 0.0).unwrap();
        let mut rng = Rng::seed_from(7);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn discrete_matches_weights() {
        let d = Discrete::new(&[1.0, 3.0, 0.0, 6.0]).unwrap();
        let mut rng = Rng::seed_from(8);
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0);
        let p1 = counts[1] as f64 / 100_000.0;
        let p3 = counts[3] as f64 / 100_000.0;
        assert!((p1 - 0.3).abs() < 0.01, "p1 {p1}");
        assert!((p3 - 0.6).abs() < 0.01, "p3 {p3}");
    }

    #[test]
    fn discrete_rejects_bad_weights() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[0.0, 0.0]).is_err());
        assert!(Discrete::new(&[1.0, -2.0]).is_err());
        assert!(Discrete::new(&[f64::INFINITY]).is_err());
    }
}
