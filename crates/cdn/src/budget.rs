//! Shared per-CDN retry budget.
//!
//! Per-session exponential backoff bounds how hard *one* player hammers a
//! failing CDN, but a flash crowd multiplies that by tens of thousands of
//! sessions retrying in lockstep — a retry storm that turns a brownout
//! into an outage. The industry fix (SRE retry budgets, adaptive retry
//! throttling in AWS SDKs) is a *shared* ledger: retries across all
//! sessions against one CDN draw from a common token bucket, and when the
//! bucket is dry a would-be retry converts into an immediate failover
//! instead of another request at the struggling backend.
//!
//! [`RetryBudget`] is that ledger on the virtual clock. Tokens refill at a
//! fixed rate but only on *forward* progress (the high-water mark of
//! observed virtual time), so the sequential session replay — which visits
//! timestamps out of global order — cannot mint extra tokens by revisiting
//! the past. That gives the hard bound the proptests pin down: total
//! granted retries ≤ `capacity + refill_per_sec × horizon` regardless of
//! how many sessions retry or in what order.

use parking_lot::Mutex;
use std::collections::HashMap;
use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;

/// Tuning for the shared retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetConfig {
    /// Burst size: tokens available instantly at the start of an incident.
    pub capacity: f64,
    /// Steady-state retry rate the CDN is willing to absorb (tokens per
    /// virtual second).
    pub refill_per_sec: f64,
}

impl Default for BudgetConfig {
    fn default() -> BudgetConfig {
        BudgetConfig { capacity: 100.0, refill_per_sec: 2.0 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    /// High-water mark of observed virtual time; refill only moves forward.
    last: Seconds,
}

/// Everything the budget mutates, under one lock: the per-CDN buckets and
/// the grant/deny tallies always change together.
#[derive(Debug, Default)]
struct Ledger {
    buckets: HashMap<CdnName, Bucket>,
    granted: u64,
    denied: u64,
}

/// A shared token bucket of retries per CDN.
///
/// Thread-safe and cheaply cloneable via `&self` methods behind a mutex,
/// mirroring [`Broker`](crate::broker::Broker)'s interior-mutability
/// style so one budget can be shared across a whole session population.
pub struct RetryBudget {
    config: BudgetConfig,
    state: Mutex<Ledger>,
    obs_exhausted: vmp_obs::Counter,
}

impl std::fmt::Debug for RetryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("RetryBudget")
            .field("config", &self.config)
            .field("granted", &state.granted)
            .field("denied", &state.denied)
            .finish()
    }
}

impl RetryBudget {
    /// A budget with the given tuning (capacity and refill clamped to be
    /// non-negative).
    pub fn new(config: BudgetConfig) -> RetryBudget {
        RetryBudget {
            config: BudgetConfig {
                capacity: config.capacity.max(0.0),
                refill_per_sec: config.refill_per_sec.max(0.0),
            },
            state: Mutex::new(Ledger::default()),
            obs_exhausted: vmp_obs::counter("cdn.retry_budget_exhausted"),
        }
    }

    /// Asks the shared ledger for permission to retry against `cdn` at
    /// virtual time `now`. `true` spends one token; `false` means the
    /// budget is exhausted and the caller must fail over immediately
    /// instead of retrying.
    #[expect(clippy::cast_possible_truncation, reason = "dense CDN indexes are below 36")]
    pub fn try_spend(&self, cdn: CdnName, now: Seconds) -> bool {
        let mut state = self.state.lock();
        let bucket = state
            .buckets
            .entry(cdn)
            .or_insert(Bucket { tokens: self.config.capacity, last: Seconds(0.0) });
        if now.0 > bucket.last.0 {
            bucket.tokens = (bucket.tokens + (now.0 - bucket.last.0) * self.config.refill_per_sec)
                .min(self.config.capacity);
            bucket.last = now;
        }
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            state.granted += 1;
            true
        } else {
            state.denied += 1;
            self.obs_exhausted.inc();
            vmp_obs::session_trace::emit(
                vmp_obs::session_trace::TraceEventKind::RetryDenied,
                now.0,
                cdn.dense_index() as u8,
                0,
                0.0,
            );
            false
        }
    }

    /// Retries granted across all CDNs.
    pub fn granted(&self) -> u64 {
        self.state.lock().granted
    }

    /// Retries denied (converted to immediate failover) across all CDNs.
    pub fn denied(&self) -> u64 {
        self.state.lock().denied
    }

    /// The hard upper bound on grants for one CDN over a run whose
    /// virtual clock never exceeds `horizon`: the initial burst plus
    /// everything the refill rate can mint. Independent of session count
    /// and arrival order.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a non-negative grant bound; `as` saturates"
    )]
    pub fn max_grants(&self, horizon: Seconds) -> u64 {
        (self.config.capacity + self.config.refill_per_sec * horizon.0.max(0.0)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(capacity: f64, refill: f64) -> RetryBudget {
        RetryBudget::new(BudgetConfig { capacity, refill_per_sec: refill })
    }

    #[test]
    fn burst_is_bounded_by_capacity() {
        let b = budget(5.0, 0.0);
        let granted = (0..50).filter(|_| b.try_spend(CdnName::A, Seconds(0.0))).count();
        assert_eq!(granted, 5);
        assert_eq!(b.denied(), 45);
    }

    #[test]
    fn refill_only_moves_forward() {
        let b = budget(1.0, 1.0);
        assert!(b.try_spend(CdnName::A, Seconds(10.0)));
        assert!(!b.try_spend(CdnName::A, Seconds(10.0)));
        // A session earlier in the virtual timeline cannot rewind the
        // clock to mint tokens.
        assert!(!b.try_spend(CdnName::A, Seconds(3.0)));
        // Forward progress refills.
        assert!(b.try_spend(CdnName::A, Seconds(11.0)));
    }

    #[test]
    fn budgets_are_per_cdn() {
        let b = budget(1.0, 0.0);
        assert!(b.try_spend(CdnName::A, Seconds(0.0)));
        assert!(!b.try_spend(CdnName::A, Seconds(0.0)));
        assert!(b.try_spend(CdnName::B, Seconds(0.0)), "CDN B has its own bucket");
    }

    #[test]
    fn grants_respect_the_analytic_bound() {
        let b = budget(10.0, 0.5);
        let horizon = Seconds(100.0);
        let mut granted = 0u64;
        for i in 0..10_000u64 {
            // Scatter timestamps non-monotonically across the horizon.
            let t = Seconds(((i * 37) % 101) as f64);
            if b.try_spend(CdnName::A, t) {
                granted += 1;
            }
        }
        assert!(granted <= b.max_grants(horizon), "{granted} > bound {}", b.max_grants(horizon));
        assert_eq!(granted, b.granted());
    }
}
