//! CDN brokering: per-view CDN selection.
//!
//! §2: "some publishers use a CDN broker to select the best CDN for a given
//! client view... even some publishers who only use a single CDN use a CDN
//! broker for management services such as monitoring and fault isolation."
//! The broker here supports weighted selection (the default management-plane
//! behaviour) and QoE-aware selection driven by exponentially-decayed
//! per-CDN performance scores, plus mid-stream failover.
//!
//! The *fault isolation* half of §2's broker description is the health
//! gate: per-CDN [`CircuitBreaker`]s fed by fetch successes/failures.
//! A CDN that fails `failure_threshold` consecutive fetches is quarantined
//! — [`Broker::select_at`] and [`Broker::failover_at`] skip it — and
//! half-opens after a cooldown on the virtual clock, admitting probe
//! traffic again.

use crate::strategy::{CdnAssignment, CdnStrategy};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::units::Seconds;
use vmp_faults::{BreakerConfig, CircuitBreaker};
use vmp_stats::{Discrete, Distribution, Rng};

/// Broker selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerPolicy {
    /// Pick proportionally to configured weights.
    Weighted,
    /// Pick the CDN with the best decayed QoE score (exploration ε = 10%).
    QoeAware,
}

/// Decayed per-CDN performance score (higher is better).
#[derive(Debug, Default, Clone, Copy)]
struct Score {
    value: f64,
    samples: u64,
}

/// Counters every broker bumps, resolved once per process: generation
/// builds a broker per (publisher, snapshot) cell, and five registry
/// lookups per cell are five lock round-trips nobody needs.
#[derive(Debug)]
struct BrokerMetrics {
    selections: vmp_obs::Counter,
    failovers: vmp_obs::Counter,
    reports: vmp_obs::Counter,
    circuit_trips: vmp_obs::Counter,
    quarantine_skips: vmp_obs::Counter,
}

impl BrokerMetrics {
    fn get() -> &'static BrokerMetrics {
        static METRICS: OnceLock<BrokerMetrics> = OnceLock::new();
        METRICS.get_or_init(|| BrokerMetrics {
            selections: vmp_obs::counter("cdn.broker_selections"),
            failovers: vmp_obs::counter("cdn.broker_failovers"),
            reports: vmp_obs::counter("cdn.broker_qoe_reports"),
            circuit_trips: vmp_obs::counter("cdn.circuit_trips"),
            quarantine_skips: vmp_obs::counter("cdn.quarantine_skips"),
        })
    }
}

/// A CDN broker shared across concurrent sessions (hence the mutex; the
/// paper's broker aggregates telemetry from all clients).
#[derive(Debug)]
pub struct Broker {
    policy: BrokerPolicy,
    scores: Mutex<HashMap<CdnName, Score>>,
    /// Per-CDN circuit breakers (the §2 fault-isolation service).
    breakers: Mutex<HashMap<CdnName, CircuitBreaker>>,
    breaker_config: BreakerConfig,
    /// EWMA decay for score updates.
    alpha: f64,
    /// Exploration probability under [`BrokerPolicy::QoeAware`].
    epsilon: f64,
    metrics: &'static BrokerMetrics,
}

impl Broker {
    /// Creates a broker with the default circuit-breaker tuning.
    pub fn new(policy: BrokerPolicy) -> Broker {
        Broker::with_breaker(policy, BreakerConfig::default())
    }

    /// Creates a broker with explicit circuit-breaker tuning.
    pub fn with_breaker(policy: BrokerPolicy, breaker_config: BreakerConfig) -> Broker {
        Broker {
            policy,
            scores: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            breaker_config,
            alpha: 0.2,
            epsilon: 0.1,
            metrics: BrokerMetrics::get(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> BrokerPolicy {
        self.policy
    }

    /// Selects the CDN for a new view of `class` content under `strategy`,
    /// ignoring breaker state (virtual time zero). Equivalent to
    /// [`Broker::select_at`] before any failure has been recorded.
    pub fn select(
        &self,
        strategy: &CdnStrategy,
        class: ContentClass,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        self.select_at(strategy, class, Seconds::ZERO, rng)
    }

    /// Selects the CDN for a new view at virtual time `now`, skipping
    /// quarantined CDNs (open circuit breakers). When *every* eligible CDN
    /// is quarantined the gate stands aside and the full eligible set is
    /// used — serving degraded traffic beats serving nothing.
    /// Returns `None` when the strategy has no CDN admitting the class.
    pub fn select_at(
        &self,
        strategy: &CdnStrategy,
        class: ContentClass,
        now: Seconds,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        self.select_from(&strategy.eligible(class), None, now, rng)
    }

    /// [`Broker::select_at`] for a caller that selects many views under one
    /// strategy and prepared the class's eligible list once: `eligible` is
    /// [`CdnStrategy::eligible`] for the class and `table` is
    /// `Discrete::new` over its weights, in order. Same draws, same
    /// counters and the same health gate as `select_at`.
    pub fn select_prepared(
        &self,
        eligible: &[CdnAssignment],
        table: &Discrete,
        now: Seconds,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        self.select_from(eligible, Some(table), now, rng)
    }

    /// Selection over an eligible list; `table`, when given, is the
    /// weighted table of the *whole* list.
    #[expect(
        clippy::expect_used,
        reason = "scores are averages of finite measurements, so `partial_cmp` never returns None"
    )]
    fn select_from(
        &self,
        eligible: &[CdnAssignment],
        table: Option<&Discrete>,
        now: Seconds,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        if eligible.is_empty() {
            return None;
        }
        // One lock for the whole gate. `Some` once a quarantined CDN has
        // been seen; a broker that never recorded a failure allocates
        // nothing here.
        let mut healthy: Option<Vec<CdnAssignment>> = None;
        {
            let mut breakers = self.breakers.lock();
            if !breakers.is_empty() {
                for (i, a) in eligible.iter().enumerate() {
                    let open = breakers.get_mut(&a.cdn).is_some_and(|b| !b.allows(now));
                    match (&mut healthy, open) {
                        (None, true) => healthy = Some(eligible[..i].to_vec()),
                        (Some(h), false) => h.push(*a),
                        _ => {}
                    }
                }
            }
        }
        // The prepared table covers the whole list, so it survives only
        // when the gate removed nothing.
        let (pool, table) = match &healthy {
            None => (eligible, table),
            Some(h) => {
                self.metrics.quarantine_skips.inc();
                // Everything quarantined: the gate stands aside.
                if h.is_empty() { (eligible, table) } else { (h.as_slice(), None) }
            }
        };
        self.metrics.selections.inc();
        match self.policy {
            BrokerPolicy::Weighted => {
                let index = match table {
                    Some(table) => table.sample(rng),
                    None => {
                        let weights: Vec<f64> = pool.iter().map(|a| a.weight).collect();
                        Discrete::new(&weights).ok()?.sample(rng)
                    }
                };
                Some(pool[index].cdn)
            }
            BrokerPolicy::QoeAware => {
                if rng.chance(self.epsilon) {
                    // Explore uniformly.
                    return Some(rng.choose(pool).cdn);
                }
                let scores = self.scores.lock();
                pool.iter()
                    .max_by(|a, b| {
                        let sa = scores.get(&a.cdn).map(|s| s.value).unwrap_or(f64::MAX);
                        let sb = scores.get(&b.cdn).map(|s| s.value).unwrap_or(f64::MAX);
                        sa.partial_cmp(&sb).expect("scores are finite")
                    })
                    .map(|a| a.cdn)
            }
        }
    }

    /// Picks a different CDN after a mid-stream failure on `failed`,
    /// ignoring breaker state (virtual time zero). See
    /// [`Broker::failover_at`] for the contract.
    pub fn failover(
        &self,
        strategy: &CdnStrategy,
        class: ContentClass,
        failed: CdnName,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        self.failover_at(strategy, class, failed, Seconds::ZERO, rng)
    }

    /// Picks a different CDN after a mid-stream failure on `failed` at
    /// virtual time `now`, preferring non-quarantined alternatives (falling
    /// back to quarantined ones when every alternative's breaker is open).
    ///
    /// # Contract
    ///
    /// Returns `None` **if and only if** the strategy has no eligible CDN
    /// other than `failed` — i.e. a single-CDN strategy (or one whose only
    /// other CDNs don't admit `class`). `None` means the view has nowhere
    /// left to go: callers **must** treat it as a fatal, session-ending
    /// condition and record the view with
    /// `ExitCause::FatalCdnFailure` (§4 counts such views), not silently
    /// keep fetching from the failed CDN.
    pub fn failover_at(
        &self,
        strategy: &CdnStrategy,
        class: ContentClass,
        failed: CdnName,
        now: Seconds,
        rng: &mut Rng,
    ) -> Option<CdnName> {
        let alternatives: Vec<_> = strategy
            .eligible(class)
            .into_iter()
            .filter(|a| a.cdn != failed)
            .collect();
        if alternatives.is_empty() {
            return None;
        }
        let healthy: Vec<_> = alternatives
            .iter()
            .copied()
            .filter(|a| !self.quarantined(a.cdn, now))
            .collect();
        self.metrics.failovers.inc();
        let pool = if healthy.is_empty() { &alternatives } else { &healthy };
        Some(rng.choose(pool).cdn)
    }

    /// Records a fetch failure against `cdn` at virtual time `now`,
    /// feeding its circuit breaker. Bumps `cdn.circuit_trips` and emits a
    /// `BreakerOpen` session-trace event when this failure trips the breaker.
    #[expect(clippy::cast_possible_truncation, reason = "dense CDN indexes are below 36")]
    pub fn record_fetch_failure(&self, cdn: CdnName, now: Seconds) {
        let mut breakers = self.breakers.lock();
        let breaker = breakers
            .entry(cdn)
            .or_insert_with(|| CircuitBreaker::new(self.breaker_config));
        if breaker.record_failure(now) {
            self.metrics.circuit_trips.inc();
            vmp_obs::session_trace::emit(
                vmp_obs::session_trace::TraceEventKind::BreakerOpen,
                now.0,
                cdn.dense_index() as u8,
                0,
                breaker.open_until().0 - now.0,
            );
        }
    }

    /// Records a successful fetch from `cdn`: resets its failure streak and
    /// closes a half-open breaker.
    pub fn record_fetch_success(&self, cdn: CdnName) {
        if let Some(b) = self.breakers.lock().get_mut(&cdn) {
            b.record_success();
        }
    }

    /// Whether `cdn` is currently quarantined (breaker open) at `now`.
    /// Advances `Open → HalfOpen` transitions as a side effect, so a query
    /// after the cooldown admits probe traffic.
    pub fn quarantined(&self, cdn: CdnName, now: Seconds) -> bool {
        self.breakers
            .lock()
            .get_mut(&cdn)
            .map(|b| !b.allows(now))
            .unwrap_or(false)
    }

    /// Total circuit-breaker trips across all CDNs.
    pub fn circuit_trips(&self) -> u64 {
        self.breakers.lock().values().map(|b| b.trips()).sum()
    }

    /// Reports an observed per-view QoE score for a CDN (e.g. average
    /// bitrate over rebuffering-penalized time). Higher is better.
    pub fn report(&self, cdn: CdnName, score: f64) {
        if !score.is_finite() {
            return;
        }
        self.metrics.reports.inc();
        let mut scores = self.scores.lock();
        let entry = scores.entry(cdn).or_default();
        if entry.samples == 0 {
            entry.value = score;
        } else {
            entry.value = (1.0 - self.alpha) * entry.value + self.alpha * score;
        }
        entry.samples += 1;
    }

    /// The current score for a CDN, if any views were reported.
    pub fn score(&self, cdn: CdnName) -> Option<f64> {
        let scores = self.scores.lock();
        scores.get(&cdn).filter(|s| s.samples > 0).map(|s| s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CdnAssignment, CdnScope};

    fn strategy() -> CdnStrategy {
        CdnStrategy::new(vec![
            CdnAssignment { cdn: CdnName::A, weight: 3.0, scope: CdnScope::All },
            CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::All },
        ])
        .unwrap()
    }

    #[test]
    fn weighted_selection_follows_weights() {
        let broker = Broker::new(BrokerPolicy::Weighted);
        let s = strategy();
        let mut rng = Rng::seed_from(1);
        let mut a = 0;
        for _ in 0..10_000 {
            if broker.select(&s, ContentClass::Vod, &mut rng) == Some(CdnName::A) {
                a += 1;
            }
        }
        let share = a as f64 / 10_000.0;
        assert!((share - 0.75).abs() < 0.03, "share {share}");
    }

    #[test]
    fn qoe_aware_prefers_better_cdn() {
        let broker = Broker::new(BrokerPolicy::QoeAware);
        let s = strategy();
        for _ in 0..50 {
            broker.report(CdnName::A, 1000.0);
            broker.report(CdnName::B, 4000.0);
        }
        let mut rng = Rng::seed_from(2);
        let mut b = 0;
        for _ in 0..1000 {
            if broker.select(&s, ContentClass::Vod, &mut rng) == Some(CdnName::B) {
                b += 1;
            }
        }
        // ε = 10% exploration, half of which still lands on B.
        assert!(b > 900, "B selected {b}");
    }

    #[test]
    fn unknown_cdns_are_explored_first() {
        let broker = Broker::new(BrokerPolicy::QoeAware);
        broker.report(CdnName::A, 9000.0);
        // B has no data → treated as +∞ → gets picked (optimistic start).
        let s = strategy();
        let mut rng = Rng::seed_from(3);
        let pick = broker.select(&s, ContentClass::Vod, &mut rng);
        assert_eq!(pick, Some(CdnName::B));
    }

    #[test]
    fn failover_avoids_failed_cdn() {
        let broker = Broker::new(BrokerPolicy::Weighted);
        let s = strategy();
        let mut rng = Rng::seed_from(4);
        for _ in 0..100 {
            let next = broker.failover(&s, ContentClass::Vod, CdnName::A, &mut rng);
            assert_eq!(next, Some(CdnName::B));
        }
        // Single-CDN strategy has no failover target.
        let single = CdnStrategy::single(CdnName::A);
        assert_eq!(broker.failover(&single, ContentClass::Vod, CdnName::A, &mut rng), None);
    }

    #[test]
    fn segregation_respected_by_selection() {
        let s = CdnStrategy::new(vec![
            CdnAssignment { cdn: CdnName::A, weight: 1.0, scope: CdnScope::VodOnly },
            CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::LiveOnly },
        ])
        .unwrap();
        let broker = Broker::new(BrokerPolicy::Weighted);
        let mut rng = Rng::seed_from(5);
        for _ in 0..50 {
            assert_eq!(broker.select(&s, ContentClass::Vod, &mut rng), Some(CdnName::A));
            assert_eq!(broker.select(&s, ContentClass::Live, &mut rng), Some(CdnName::B));
        }
    }

    #[test]
    fn circuit_breaker_quarantines_after_consecutive_failures() {
        let broker = Broker::new(BrokerPolicy::Weighted);
        let s = strategy();
        let mut rng = Rng::seed_from(21);
        for t in 0..3 {
            broker.record_fetch_failure(CdnName::A, Seconds(t as f64));
        }
        assert!(broker.quarantined(CdnName::A, Seconds(10.0)));
        assert_eq!(broker.circuit_trips(), 1);
        // Selection avoids the quarantined CDN entirely.
        for _ in 0..200 {
            assert_eq!(
                broker.select_at(&s, ContentClass::Vod, Seconds(10.0), &mut rng),
                Some(CdnName::B)
            );
        }
        // Failover from B has nowhere healthy to go but A; it still serves.
        assert_eq!(
            broker.failover_at(&s, ContentClass::Vod, CdnName::B, Seconds(10.0), &mut rng),
            Some(CdnName::A)
        );
    }

    #[test]
    fn prepared_selection_matches_select_at() {
        let s = CdnStrategy::new(vec![
            CdnAssignment { cdn: CdnName::A, weight: 3.0, scope: CdnScope::All },
            CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::All },
            CdnAssignment { cdn: CdnName::C, weight: 2.0, scope: CdnScope::All },
        ])
        .unwrap();
        let eligible = s.eligible(ContentClass::Vod);
        let weights: Vec<f64> = eligible.iter().map(|a| a.weight).collect();
        let table = Discrete::new(&weights).unwrap();
        let broker = Broker::new(BrokerPolicy::Weighted);
        // Nothing quarantined, then B, then every CDN.
        for quarantine in [&[][..], &[CdnName::B][..], &[CdnName::A, CdnName::C][..]] {
            for cdn in quarantine {
                for t in 0..3 {
                    broker.record_fetch_failure(*cdn, Seconds(t as f64));
                }
            }
            let mut plain = Rng::seed_from(31);
            let mut prepared = Rng::seed_from(31);
            for _ in 0..200 {
                let now = Seconds(10.0);
                assert_eq!(
                    broker.select_prepared(&eligible, &table, now, &mut prepared),
                    broker.select_at(&s, ContentClass::Vod, now, &mut plain),
                );
            }
            assert_eq!(plain, prepared, "same number of draws");
        }
        let empty = Discrete::new_or_unit(&[]);
        assert_eq!(broker.select_prepared(&[], &empty, Seconds::ZERO, &mut Rng::seed_from(1)), None);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        let broker = Broker::with_breaker(
            BrokerPolicy::Weighted,
            vmp_faults::BreakerConfig {
                failure_threshold: 2,
                cooldown: Seconds(30.0),
                ..vmp_faults::BreakerConfig::default()
            },
        );
        broker.record_fetch_failure(CdnName::C, Seconds(0.0));
        broker.record_fetch_failure(CdnName::C, Seconds(1.0));
        assert!(broker.quarantined(CdnName::C, Seconds(5.0)));
        // Cooldown elapsed: probe traffic admitted, success closes.
        assert!(!broker.quarantined(CdnName::C, Seconds(40.0)));
        broker.record_fetch_success(CdnName::C);
        assert!(!broker.quarantined(CdnName::C, Seconds(41.0)));
        // A fresh streak is needed to trip again.
        broker.record_fetch_failure(CdnName::C, Seconds(42.0));
        assert!(!broker.quarantined(CdnName::C, Seconds(43.0)));
    }

    #[test]
    fn success_resets_failure_streak() {
        let broker = Broker::new(BrokerPolicy::Weighted);
        for t in 0..2 {
            broker.record_fetch_failure(CdnName::B, Seconds(t as f64));
        }
        broker.record_fetch_success(CdnName::B);
        broker.record_fetch_failure(CdnName::B, Seconds(3.0));
        assert!(!broker.quarantined(CdnName::B, Seconds(4.0)));
        assert_eq!(broker.circuit_trips(), 0);
    }

    #[test]
    fn report_ewma_converges() {
        let broker = Broker::new(BrokerPolicy::QoeAware);
        for _ in 0..100 {
            broker.report(CdnName::C, 2000.0);
        }
        let s = broker.score(CdnName::C).unwrap();
        assert!((s - 2000.0).abs() < 1e-6);
        broker.report(CdnName::C, f64::NAN); // ignored
        assert!((broker.score(CdnName::C).unwrap() - 2000.0).abs() < 1e-6);
        assert_eq!(broker.score(CdnName::D), None);
    }
}
