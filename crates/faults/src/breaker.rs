//! Circuit breaker: the broker-side health gate for one CDN.
//!
//! §2's brokers provide "monitoring and fault isolation" even for
//! single-CDN publishers; the isolation half is this state machine. After
//! `failure_threshold` *consecutive* fetch failures the breaker opens and
//! the CDN is quarantined: selection and failover skip it. After `cooldown`
//! virtual seconds it half-opens and admits a *bounded* number of probes
//! (`half_open_max_probes`); one success closes it, one failure re-opens it
//! for another cooldown.
//!
//! The probe cap matters under surge: before it existed, `allows` admitted
//! *all* traffic in `HalfOpen`, so a flash crowd would slam a recovering
//! CDN with thousands of simultaneous "probes" and knock it straight back
//! over.
//!
//! Time is a caller-supplied virtual clock ([`Seconds`]), never wall time,
//! so breaker behaviour replays exactly under the same seed.

use vmp_core::units::Seconds;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Quarantine length after a trip (virtual seconds).
    pub cooldown: Seconds,
    /// Maximum probe requests admitted per `HalfOpen` episode. Further
    /// [`CircuitBreaker::allows`] calls report the CDN as unavailable until
    /// a probe outcome arrives (success closes, failure re-opens).
    pub half_open_max_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown: Seconds(120.0), half_open_max_probes: 3 }
    }
}

/// Where the breaker is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; traffic flows.
    Closed,
    /// Quarantined; no traffic until the cooldown elapses.
    Open,
    /// Cooldown elapsed; a bounded number of probes admitted.
    HalfOpen,
}

/// Per-CDN circuit breaker.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Seconds,
    trips: u64,
    /// Probes admitted in the current `HalfOpen` episode.
    probes_admitted: u32,
    /// When the current `HalfOpen` probe episode began. After a further
    /// full cooldown with no probe verdict, a fresh (still bounded) probe
    /// batch is armed so an unlucky breaker cannot stay quarantined
    /// forever.
    half_open_since: Seconds,
}

impl CircuitBreaker {
    /// A closed breaker with the given config.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: Seconds::ZERO,
            trips: 0,
            probes_admitted: 0,
            half_open_since: Seconds::ZERO,
        }
    }

    /// Whether traffic may be sent at virtual time `now`. Transitions
    /// `Open → HalfOpen` when the cooldown has elapsed. In `HalfOpen`, at
    /// most [`BreakerConfig::half_open_max_probes`] calls return `true` per
    /// episode — the fix for the probe thundering herd, where a surge of
    /// admission checks all counted as "probe traffic" and hammered the
    /// recovering CDN.
    pub fn allows(&mut self, now: Seconds) -> bool {
        if self.state == BreakerState::Open && now.0 >= self.open_until.0 {
            self.state = BreakerState::HalfOpen;
            self.probes_admitted = 0;
            self.half_open_since = now;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // Probe slots can be consumed by admission checks whose
                // session never actually lands on this CDN; without a
                // verdict the episode would stall. After a further full
                // cooldown, arm a fresh bounded batch — at most
                // `half_open_max_probes` probes per cooldown, never a herd.
                if self.probes_admitted >= self.config.half_open_max_probes
                    && now.0 >= self.half_open_since.0 + self.config.cooldown.0
                {
                    self.probes_admitted = 0;
                    self.half_open_since = now;
                }
                if self.probes_admitted < self.config.half_open_max_probes {
                    self.probes_admitted += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a fetch failure at virtual time `now`. Returns `true` when
    /// this failure tripped the breaker open (for counters/events).
    pub fn record_failure(&mut self, now: Seconds) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                // The probe failed: straight back to quarantine.
                self.trip(now);
                true
            }
            BreakerState::Open => {
                // In-flight traffic from before the trip; extend quarantine.
                self.open_until = Seconds(self.open_until.0.max(now.0 + self.config.cooldown.0));
                false
            }
        }
    }

    /// Records a successful fetch: closes a half-open breaker and resets
    /// the consecutive-failure count.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.probes_admitted = 0;
        }
    }

    fn trip(&mut self, now: Seconds) {
        self.state = BreakerState::Open;
        self.open_until = Seconds(now.0 + self.config.cooldown.0);
        self.consecutive_failures = 0;
        self.probes_admitted = 0;
        self.trips += 1;
    }

    /// Current state as of the last transition (call [`allows`] to advance
    /// time-based transitions first).
    ///
    /// [`allows`]: CircuitBreaker::allows
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// When the current quarantine ends (meaningful while [`BreakerState::Open`]).
    pub fn open_until(&self) -> Seconds {
        self.open_until
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Seconds(60.0),
            ..BreakerConfig::default()
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker();
        assert!(!b.record_failure(Seconds(1.0)));
        assert!(!b.record_failure(Seconds(2.0)));
        b.record_success(); // breaks the streak
        assert!(!b.record_failure(Seconds(3.0)));
        assert!(!b.record_failure(Seconds(4.0)));
        assert!(b.record_failure(Seconds(5.0)), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn quarantine_blocks_until_cooldown() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        assert!(!b.allows(Seconds(10.0)));
        assert!(!b.allows(Seconds(61.9)));
        assert!(b.allows(Seconds(62.0)), "cooldown elapsed at 2 + 60");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        assert!(b.allows(Seconds(100.0)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(Seconds(100.0)));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        assert!(b.allows(Seconds(100.0)));
        assert!(b.record_failure(Seconds(100.0)));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(Seconds(159.0)));
        assert!(b.allows(Seconds(160.0)));
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn failures_while_open_extend_quarantine() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        // Straggler failure at t=50 pushes the re-open horizon to 110.
        assert!(!b.record_failure(Seconds(50.0)));
        assert!(!b.allows(Seconds(62.0)));
        assert!(b.allows(Seconds(110.0)));
    }

    /// The thundering-herd regression: a surge of admission checks against
    /// a half-open breaker must admit only `half_open_max_probes` probes,
    /// not the whole crowd.
    #[test]
    fn half_open_probes_are_capped_per_episode() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        // 1000 sessions all check at once after the cooldown.
        let admitted = (0..1000).filter(|_| b.allows(Seconds(100.0))).count();
        assert_eq!(admitted, 3, "only the configured probe count gets through");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A probe failure re-opens; the next episode gets a fresh cap.
        assert!(b.record_failure(Seconds(100.0)));
        assert!(!b.allows(Seconds(101.0)));
        let admitted = (0..1000).filter(|_| b.allows(Seconds(200.0))).count();
        assert_eq!(admitted, 3, "probe cap resets per half-open episode");
        // A probe success closes the breaker and lifts the cap entirely.
        b.record_success();
        let admitted = (0..1000).filter(|_| b.allows(Seconds(201.0))).count();
        assert_eq!(admitted, 1000);
    }

    /// Probe slots burned by checks that never produce a verdict must not
    /// quarantine the CDN forever: a further full cooldown re-arms one
    /// bounded batch.
    #[test]
    fn exhausted_probe_episode_rearms_after_another_cooldown() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(Seconds(t as f64));
        }
        assert_eq!((0..10).filter(|_| b.allows(Seconds(100.0))).count(), 3);
        // Still inside the probe episode: no new slots.
        assert!(!b.allows(Seconds(120.0)));
        // A full cooldown later with no verdict: fresh bounded batch.
        assert_eq!((0..10).filter(|_| b.allows(Seconds(160.0))).count(), 3);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }
}
