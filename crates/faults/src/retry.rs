//! Bounded exponential backoff with deterministic jitter.
//!
//! The player retries failed chunk fetches under a [`RetryPolicy`]. Jitter
//! is drawn from the *session* RNG, so the whole schedule is a pure function
//! of the seed — the same seed replays the same waits, byte for byte. The
//! schedule is monotone non-decreasing by construction: the jitter span is
//! constrained to `[0, backoff_factor - 1)`, so a jittered attempt can never
//! overtake the un-jittered floor of the next one, and the cap only ever
//! flattens the tail.

use vmp_core::units::Seconds;
use vmp_stats::Rng;

/// Retry/backoff/timeout configuration for chunk and manifest fetches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per CDN before escalating to broker failover.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Seconds,
    /// Multiplier between consecutive backoffs (must be > 1).
    pub backoff_factor: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Seconds,
    /// Jitter span as a fraction of the raw backoff, in
    /// `[0, backoff_factor - 1)`; the drawn multiplier is `1 + jitter·u`
    /// with `u ∈ [0, 1)`.
    pub jitter: f64,
    /// Chunk-fetch timeout; a download exceeding it counts as a failure.
    /// [`Seconds::ZERO`] disables timeouts (the default, so fault-free
    /// simulations reproduce historical outputs exactly).
    pub timeout: Seconds,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Seconds(0.5),
            backoff_factor: 2.0,
            max_backoff: Seconds(8.0),
            jitter: 0.5,
            timeout: Seconds::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a chunk-fetch timeout armed — what the
    /// resilience experiments run under.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy { timeout: Seconds(10.0), ..RetryPolicy::default() }
    }

    /// Validates the policy invariants (positive base, factor > 1, jitter
    /// within the monotonicity bound, non-negative timeout).
    pub fn validate(&self) -> Result<(), String> {
        if self.base_backoff.0 <= 0.0 || !self.base_backoff.0.is_finite() {
            return Err("base backoff must be positive".into());
        }
        if self.backoff_factor <= 1.0 || !self.backoff_factor.is_finite() {
            return Err("backoff factor must be > 1".into());
        }
        if self.max_backoff.0 < self.base_backoff.0 {
            return Err("max backoff must be >= base backoff".into());
        }
        if self.jitter < 0.0 || self.jitter >= self.backoff_factor - 1.0 {
            return Err("jitter must be in [0, backoff_factor - 1) to keep the schedule monotone".into());
        }
        if self.timeout.0 < 0.0 {
            return Err("timeout must be non-negative".into());
        }
        Ok(())
    }

    /// Whether chunk-fetch timeouts are armed.
    pub fn timeouts_enabled(&self) -> bool {
        self.timeout.0 > 0.0
    }

    /// Backoff before retry number `attempt` (0-based), with jitter drawn
    /// from `rng`. Consumes exactly one RNG draw per call.
    #[expect(clippy::cast_possible_wrap, reason = "the exponent is clamped to 64")]
    pub fn backoff(&self, attempt: u32, rng: &mut Rng) -> Seconds {
        let raw = self.base_backoff.0 * self.backoff_factor.powi(attempt.min(64) as i32);
        let jittered = raw * (1.0 + self.jitter * rng.f64());
        Seconds(jittered.min(self.max_backoff.0))
    }

    /// The full backoff schedule for every retry in the budget.
    pub fn schedule(&self, rng: &mut Rng) -> Vec<Seconds> {
        (0..self.max_retries).map(|a| self.backoff(a, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_disables_timeouts() {
        let p = RetryPolicy::default();
        assert!(p.validate().is_ok());
        assert!(!p.timeouts_enabled());
        assert!(RetryPolicy::resilient().timeouts_enabled());
        assert!(RetryPolicy::resilient().validate().is_ok());
    }

    #[test]
    fn schedule_is_monotone_and_capped() {
        let p = RetryPolicy { max_retries: 10, ..RetryPolicy::default() };
        let mut rng = Rng::seed_from(3);
        let schedule = p.schedule(&mut rng);
        assert_eq!(schedule.len(), 10);
        for pair in schedule.windows(2) {
            assert!(pair[1].0 >= pair[0].0, "schedule must be non-decreasing: {schedule:?}");
        }
        for delay in &schedule {
            assert!(delay.0 >= p.base_backoff.0 && delay.0 <= p.max_backoff.0);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = RetryPolicy::resilient();
        let a = p.schedule(&mut Rng::seed_from(9));
        let b = p.schedule(&mut Rng::seed_from(9));
        assert_eq!(a, b);
        let c = p.schedule(&mut Rng::seed_from(10));
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn invalid_policies_rejected() {
        let p = RetryPolicy { backoff_factor: 1.0, ..RetryPolicy::default() };
        assert!(p.validate().is_err());
        // jitter >= factor - 1 breaks monotonicity
        let p = RetryPolicy { jitter: 1.5, ..RetryPolicy::default() };
        assert!(p.validate().is_err());
        let p = RetryPolicy { max_backoff: Seconds(0.1), ..RetryPolicy::default() };
        assert!(p.validate().is_err());
    }
}
