//! Bitrate adaptation algorithms.
//!
//! Three families from the literature the paper cites (§1/§2 reference
//! buffer-based, throughput-based and utility-based adaptation):
//!
//! * [`ThroughputRule`] — rate-based: pick the highest rung under
//!   `safety × predicted throughput`.
//! * [`Bba`] — buffer-based (BBA-style): map buffer occupancy linearly from
//!   a reservoir to a cushion onto the ladder.
//! * [`Bola`] — Lyapunov utility maximization (BOLA-style): maximize
//!   `(utility + γ) / chunk cost` where utility is log-relative bitrate.

use vmp_core::ladder::BitrateLadder;
use vmp_core::units::{Kbps, Seconds};

/// Player state visible to the ABR decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbrState {
    /// Current buffer occupancy.
    pub buffer: Seconds,
    /// Predicted throughput, if any downloads completed yet.
    pub predicted_throughput: Option<Kbps>,
    /// Bitrate of the previously downloaded chunk ([`Kbps::ZERO`] at start).
    pub last_bitrate: Kbps,
    /// Nominal chunk duration.
    pub chunk_duration: Seconds,
}

/// An adaptive bitrate algorithm: picks the next chunk's rung.
pub trait AbrAlgorithm: Send {
    /// Chooses the bitrate for the next chunk.
    fn choose(&self, ladder: &BitrateLadder, state: &AbrState) -> Kbps;
    /// Short name for telemetry.
    fn name(&self) -> &'static str;
}

/// Rate-based rule with a safety factor.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputRule {
    /// Fraction of predicted throughput to spend (0 < safety ≤ 1).
    pub safety: f64,
}

impl ThroughputRule {
    /// The default tuning, as a constant: `&ThroughputRule::DEFAULT` is a
    /// `&'static dyn AbrAlgorithm` with no allocation.
    pub const DEFAULT: ThroughputRule = ThroughputRule { safety: 0.8 };
}

impl Default for ThroughputRule {
    fn default() -> Self {
        ThroughputRule::DEFAULT
    }
}

impl AbrAlgorithm for ThroughputRule {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a non-negative budget in kbps; `as` saturates far above any ladder rung"
    )]
    fn choose(&self, ladder: &BitrateLadder, state: &AbrState) -> Kbps {
        match state.predicted_throughput {
            None => ladder.min().bitrate, // conservative start
            Some(t) => {
                let budget = Kbps((t.0 as f64 * self.safety) as u32);
                ladder.best_under(budget).bitrate
            }
        }
    }

    fn name(&self) -> &'static str {
        "throughput"
    }
}

/// Buffer-based algorithm (BBA-0 shape).
#[derive(Debug, Clone, Copy)]
pub struct Bba {
    /// Below this buffer level always pick the lowest rung.
    pub reservoir: Seconds,
    /// At this buffer level and above pick the highest rung.
    pub cushion: Seconds,
}

impl Bba {
    /// The default tuning, as a constant (see [`ThroughputRule::DEFAULT`]).
    pub const DEFAULT: Bba = Bba { reservoir: Seconds(10.0), cushion: Seconds(40.0) };
}

impl Default for Bba {
    fn default() -> Self {
        Bba::DEFAULT
    }
}

impl AbrAlgorithm for Bba {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the buffer lies between reservoir and cushion, so the index is within the ladder"
    )]
    fn choose(&self, ladder: &BitrateLadder, state: &AbrState) -> Kbps {
        let rungs = ladder.rungs();
        if state.buffer.0 <= self.reservoir.0 {
            return ladder.min().bitrate;
        }
        if state.buffer.0 >= self.cushion.0 {
            return rungs[rungs.len() - 1].bitrate;
        }
        let span = (self.cushion.0 - self.reservoir.0).max(1e-9);
        let frac = (state.buffer.0 - self.reservoir.0) / span;
        let idx = (frac * (rungs.len() - 1) as f64).floor() as usize;
        rungs[idx.min(rungs.len() - 1)].bitrate
    }

    fn name(&self) -> &'static str {
        "bba"
    }
}

/// BOLA-style utility maximizer.
#[derive(Debug, Clone, Copy)]
pub struct Bola {
    /// Buffer target the control parameter is derived from.
    pub buffer_target: Seconds,
}

impl Bola {
    /// The default tuning, as a constant (see [`ThroughputRule::DEFAULT`]).
    pub const DEFAULT: Bola = Bola { buffer_target: Seconds(25.0) };
}

impl Default for Bola {
    fn default() -> Self {
        Bola::DEFAULT
    }
}

impl AbrAlgorithm for Bola {
    fn choose(&self, ladder: &BitrateLadder, state: &AbrState) -> Kbps {
        let rungs = ladder.rungs();
        let min_b = ladder.min().bitrate.0 as f64;
        // Utility: log of bitrate relative to the lowest rung.
        let utility = |bitrate: Kbps| (bitrate.0 as f64 / min_b).ln();
        let max_utility = utility(ladder.max().bitrate);
        let chunk = state.chunk_duration.0.max(0.1);
        // Derive V and gamma so the highest rung is picked exactly at the
        // buffer target (standard BOLA-U parameterization).
        let gamma = 1.0;
        let v = (self.buffer_target.0 / chunk - 1.0).max(0.1) / (max_utility + gamma);
        let buffer_chunks = state.buffer.0 / chunk;
        let mut best = ladder.min().bitrate;
        let mut best_score = f64::MIN;
        for rung in rungs {
            let score =
                (v * (utility(rung.bitrate) + gamma) - buffer_chunks) / (rung.bitrate.0 as f64);
            if score > best_score {
                best_score = score;
                best = rung.bitrate;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "bola"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> BitrateLadder {
        BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400]).unwrap()
    }

    fn state(buffer: f64, throughput: Option<u32>) -> AbrState {
        AbrState {
            buffer: Seconds(buffer),
            predicted_throughput: throughput.map(Kbps),
            last_bitrate: Kbps(800),
            chunk_duration: Seconds(6.0),
        }
    }

    #[test]
    fn throughput_rule_respects_safety_margin() {
        let rule = ThroughputRule { safety: 0.8 };
        // 0.8 × 2500 = 2000 → best under is 1600.
        assert_eq!(rule.choose(&ladder(), &state(20.0, Some(2500))), Kbps(1600));
        // 0.8 × 10000 = 8000 → top rung.
        assert_eq!(rule.choose(&ladder(), &state(20.0, Some(10_000))), Kbps(6400));
        // Starved prediction → lowest rung.
        assert_eq!(rule.choose(&ladder(), &state(20.0, Some(300))), Kbps(400));
        // Cold start → lowest rung.
        assert_eq!(rule.choose(&ladder(), &state(0.0, None)), Kbps(400));
    }

    #[test]
    fn bba_maps_buffer_to_ladder_monotonically() {
        let bba = Bba::default();
        let l = ladder();
        let mut last = 0;
        for buffer in [0.0, 5.0, 12.0, 20.0, 28.0, 36.0, 45.0] {
            let b = bba.choose(&l, &state(buffer, Some(99_999))).0;
            assert!(b >= last, "not monotone at buffer {buffer}");
            last = b;
        }
        assert_eq!(bba.choose(&l, &state(0.0, None)), Kbps(400));
        assert_eq!(bba.choose(&l, &state(60.0, None)), Kbps(6400));
    }

    #[test]
    fn bba_ignores_throughput_entirely() {
        let bba = Bba::default();
        let l = ladder();
        assert_eq!(
            bba.choose(&l, &state(25.0, Some(100))),
            bba.choose(&l, &state(25.0, Some(100_000)))
        );
    }

    #[test]
    fn bola_increases_with_buffer() {
        let bola = Bola::default();
        let l = ladder();
        let low = bola.choose(&l, &state(2.0, None)).0;
        let mid = bola.choose(&l, &state(15.0, None)).0;
        let high = bola.choose(&l, &state(30.0, None)).0;
        assert!(low <= mid && mid <= high, "{low} {mid} {high}");
        // BOLA's V/γ trade-off may start one rung above the floor, but at a
        // near-empty buffer it must stay in the bottom of the ladder and at
        // the target it must reach the top.
        assert!(low <= 800, "low-buffer choice too aggressive: {low}");
        assert_eq!(high, 6400);
    }

    #[test]
    fn all_algorithms_stay_on_ladder() {
        let l = ladder();
        let valid = l.bitrates();
        let algos: Vec<Box<dyn AbrAlgorithm>> = vec![
            Box::new(ThroughputRule::default()),
            Box::new(Bba::default()),
            Box::new(Bola::default()),
        ];
        for algo in &algos {
            for buffer in [0.0, 10.0, 25.0, 50.0] {
                for tput in [None, Some(100), Some(3000), Some(50_000)] {
                    let choice = algo.choose(&l, &state(buffer, tput));
                    assert!(valid.contains(&choice), "{} off ladder: {choice}", algo.name());
                }
            }
        }
    }

    #[test]
    fn single_rung_ladder_is_trivial() {
        let l = BitrateLadder::from_bitrates(&[1200]).unwrap();
        assert_eq!(ThroughputRule::default().choose(&l, &state(0.0, Some(50))), Kbps(1200));
        assert_eq!(Bba::default().choose(&l, &state(50.0, None)), Kbps(1200));
        assert_eq!(Bola::default().choose(&l, &state(5.0, None)), Kbps(1200));
    }
}
