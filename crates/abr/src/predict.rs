//! Throughput prediction from past chunk downloads.

use vmp_core::units::Kbps;
use std::collections::VecDeque;

/// A throughput predictor fed one observation per completed chunk.
pub trait ThroughputPredictor {
    /// Records an observed per-chunk throughput.
    fn observe(&mut self, throughput: Kbps);
    /// Current estimate, or `None` before any observation.
    fn estimate(&self) -> Option<Kbps>;
    /// Clears history (e.g. after a CDN switch).
    fn reset(&mut self);
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaPredictor {
    /// Creates an EWMA with smoothing `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> EwmaPredictor {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        EwmaPredictor { alpha, value: None }
    }
}

impl ThroughputPredictor for EwmaPredictor {
    fn observe(&mut self, throughput: Kbps) {
        let x = throughput.0 as f64;
        self.value = Some(match self.value {
            None => x,
            Some(v) => (1.0 - self.alpha) * v + self.alpha * x,
        });
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the estimate is clamped at 0 kbps; `as` saturates at u32::MAX"
    )]
    fn estimate(&self) -> Option<Kbps> {
        self.value.map(|v| Kbps(v.max(0.0) as u32))
    }

    fn reset(&mut self) {
        self.value = None;
    }
}

/// Harmonic mean of the last `window` observations — robust to throughput
/// spikes, the standard estimator in rate-based ABR literature.
#[derive(Debug, Clone)]
pub struct HarmonicMeanPredictor {
    window: usize,
    history: VecDeque<f64>,
}

impl HarmonicMeanPredictor {
    /// Creates a predictor over the last `window ≥ 1` chunks.
    pub fn new(window: usize) -> HarmonicMeanPredictor {
        assert!(window >= 1, "window must be at least 1");
        HarmonicMeanPredictor { window, history: VecDeque::with_capacity(window) }
    }
}

impl ThroughputPredictor for HarmonicMeanPredictor {
    fn observe(&mut self, throughput: Kbps) {
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back((throughput.0 as f64).max(1.0));
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a harmonic mean of non-negative kbps samples; `as` saturates"
    )]
    fn estimate(&self) -> Option<Kbps> {
        if self.history.is_empty() {
            return None;
        }
        let inv_sum: f64 = self.history.iter().map(|x| 1.0 / x).sum();
        Some(Kbps((self.history.len() as f64 / inv_sum) as u32))
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut p = EwmaPredictor::new(0.3);
        assert_eq!(p.estimate(), None);
        for _ in 0..100 {
            p.observe(Kbps(4000));
        }
        assert_eq!(p.estimate(), Some(Kbps(4000)));
        p.reset();
        assert_eq!(p.estimate(), None);
    }

    #[test]
    fn ewma_tracks_changes_gradually() {
        let mut p = EwmaPredictor::new(0.2);
        p.observe(Kbps(1000));
        p.observe(Kbps(5000));
        let e = p.estimate().unwrap().0;
        assert!(e > 1000 && e < 5000, "estimate {e}");
    }

    #[test]
    fn harmonic_mean_is_spike_robust() {
        let mut p = HarmonicMeanPredictor::new(5);
        for _ in 0..4 {
            p.observe(Kbps(1000));
        }
        p.observe(Kbps(100_000)); // spike
        let e = p.estimate().unwrap().0;
        // Harmonic mean stays close to 1000; arithmetic would be ~20800.
        assert!(e < 1300, "estimate {e}");
    }

    #[test]
    fn harmonic_window_slides() {
        let mut p = HarmonicMeanPredictor::new(2);
        p.observe(Kbps(1000));
        p.observe(Kbps(1000));
        p.observe(Kbps(9000));
        p.observe(Kbps(9000));
        assert_eq!(p.estimate(), Some(Kbps(9000)));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        EwmaPredictor::new(0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn bad_window_panics() {
        HarmonicMeanPredictor::new(0);
    }
}
