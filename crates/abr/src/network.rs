//! Markov-modulated access-network bandwidth models.
//!
//! Each client connection is a three-state Markov chain (congested /
//! nominal / good). The chain steps once per chunk download; within a state,
//! throughput is lognormal around the state's median. Profiles are
//! parameterized by connection type (§6 compares like-for-like WiFi/4G/
//! wired) and an ISP×CDN quality factor so the same model family can
//! express the paper's "ISP X on CDN A" vs "ISP Y on CDN B" scenarios.

use vmp_core::geo::ConnectionType;
use vmp_core::units::{Kbps, Seconds};
use vmp_stats::{Distribution, LogNormal, Rng};

/// The hidden congestion state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Congested,
    Nominal,
    Good,
}

/// A parameterized bandwidth profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Median throughput per state, kbps.
    medians: [f64; 3],
    /// Multiplicative spread of the lognormal within a state.
    spread: f64,
    /// Row-stochastic transition matrix (per chunk step).
    transitions: [[f64; 3]; 3],
    /// Base round-trip time.
    pub rtt: Seconds,
}

impl NetworkProfile {
    /// Profile for a connection type with a quality multiplier
    /// (1.0 = nominal; the §6 ISP×CDN pairs use 0.5–1.5).
    pub fn for_connection(conn: ConnectionType, quality: f64) -> NetworkProfile {
        assert!(quality > 0.0 && quality.is_finite(), "quality must be positive");
        let (base, spread, rtt_ms, stickiness) = match conn {
            // (nominal median kbps, spread, RTT ms, same-state prob)
            ConnectionType::Wifi => (9_000.0, 1.8, 30.0, 0.80),
            ConnectionType::Cellular4g => (5_000.0, 2.2, 60.0, 0.65),
            ConnectionType::Wired => (16_000.0, 1.4, 20.0, 0.90),
        };
        let rest = (1.0 - stickiness) / 2.0;
        NetworkProfile {
            medians: [base * quality * 0.25, base * quality, base * quality * 2.0],
            spread,
            transitions: [
                [stickiness, 1.0 - stickiness, 0.0],
                [rest, stickiness, rest],
                [0.0, 1.0 - stickiness, stickiness],
            ],
            rtt: Seconds(rtt_ms / 1000.0),
        }
    }

    /// Scales the whole profile's throughput (CDN quality factor).
    pub fn scaled(mut self, factor: f64) -> NetworkProfile {
        assert!(factor > 0.0 && factor.is_finite());
        for m in &mut self.medians {
            *m *= factor;
        }
        self
    }
}

/// A live bandwidth process for one session.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    profile: NetworkProfile,
    state: State,
    samplers: [LogNormal; 3],
}

impl NetworkModel {
    /// Starts a session's bandwidth process in the nominal state.
    pub fn new(profile: NetworkProfile) -> NetworkModel {
        let samplers = profile
            .medians
            .map(|m| LogNormal::clamped_median_spread(m.max(1.0), profile.spread));
        NetworkModel { profile, state: State::Nominal, samplers }
    }

    /// Advances the chain one step and samples the throughput available for
    /// the next chunk download.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "throughput samples are non-negative kbps; `as` saturates at u32::MAX"
    )]
    pub fn next_throughput(&mut self, rng: &mut Rng) -> Kbps {
        let [congested_row, nominal_row, good_row] = self.profile.transitions;
        let [to_congested, to_nominal, _] = match self.state {
            State::Congested => congested_row,
            State::Nominal => nominal_row,
            State::Good => good_row,
        };
        let u = rng.f64();
        self.state = if u < to_congested {
            State::Congested
        } else if u < to_congested + to_nominal {
            State::Nominal
        } else {
            State::Good
        };
        let [congested, nominal, good] = &self.samplers;
        let sampler = match self.state {
            State::Congested => congested,
            State::Nominal => nominal,
            State::Good => good,
        };
        let sample = sampler.sample(rng).max(50.0);
        Kbps(sample as u32)
    }

    /// Round-trip time to the edge (jittered ±30%).
    pub fn rtt(&self, rng: &mut Rng) -> Seconds {
        Seconds(self.profile.rtt.0 * rng.range_f64(0.7, 1.3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_throughput(conn: ConnectionType, quality: f64, seed: u64) -> f64 {
        let mut model = NetworkModel::new(NetworkProfile::for_connection(conn, quality));
        let mut rng = Rng::seed_from(seed);
        (0..5000).map(|_| model.next_throughput(&mut rng).0 as f64).sum::<f64>() / 5000.0
    }

    #[test]
    fn wired_beats_wifi_beats_cellular_in_stability() {
        // Mean ordering (wired > wifi > 4g at equal quality).
        let wired = mean_throughput(ConnectionType::Wired, 1.0, 1);
        let wifi = mean_throughput(ConnectionType::Wifi, 1.0, 1);
        let cell = mean_throughput(ConnectionType::Cellular4g, 1.0, 1);
        assert!(wired > wifi, "wired {wired} vs wifi {wifi}");
        assert!(wifi > cell, "wifi {wifi} vs cell {cell}");
    }

    #[test]
    fn quality_factor_scales_throughput() {
        let good = mean_throughput(ConnectionType::Wifi, 1.5, 2);
        let poor = mean_throughput(ConnectionType::Wifi, 0.5, 2);
        let ratio = good / poor;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_is_never_zero() {
        let mut model =
            NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Cellular4g, 0.1));
        let mut rng = Rng::seed_from(3);
        for _ in 0..2000 {
            assert!(model.next_throughput(&mut rng).0 >= 50);
        }
    }

    #[test]
    fn rtt_jitters_around_base() {
        let model = NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
        let mut rng = Rng::seed_from(4);
        for _ in 0..100 {
            let rtt = model.rtt(&mut rng).0;
            assert!((0.021..=0.039).contains(&rtt), "rtt {rtt}");
        }
    }

    #[test]
    fn chain_visits_all_states() {
        let mut model = NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
        let mut rng = Rng::seed_from(5);
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..5000 {
            let t = model.next_throughput(&mut rng).0 as f64;
            if t < 4000.0 {
                saw_low = true;
            }
            if t > 12_000.0 {
                saw_high = true;
            }
        }
        assert!(saw_low && saw_high);
    }

    #[test]
    fn scaled_profile() {
        let base = NetworkProfile::for_connection(ConnectionType::Wired, 1.0);
        let scaled = base.clone().scaled(0.5);
        assert!((scaled.medians[1] - base.medians[1] * 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn zero_quality_panics() {
        NetworkProfile::for_connection(ConnectionType::Wifi, 0.0);
    }
}
