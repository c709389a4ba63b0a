//! Guideline-based bitrate ladder construction.
//!
//! §6 notes that although publishers choose ladders independently, they tend
//! to follow streaming-protocol guidelines — e.g. HLS recommends at least
//! one rung under 192 kbps and successive rungs within a 1.5–2×
//! multiplicative step. [`LadderSpec`] captures those rules; the builder
//! produces deterministic ladders.

use vmp_core::error::CoreError;
use vmp_core::ladder::{BitrateLadder, LadderRung, Resolution};
use vmp_core::protocol::Codec;
use vmp_core::units::Kbps;

/// Declarative ladder specification.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderSpec {
    /// Lowest rung bitrate.
    pub floor: Kbps,
    /// Highest rung bitrate.
    pub top: Kbps,
    /// Number of rungs (≥ 1).
    pub rungs: usize,
    /// Video codec for every rung.
    pub codec: Codec,
}

impl LadderSpec {
    /// A guideline-compliant spec: floor at 145 kbps (under the 192
    /// guideline), geometric steps to `top` with however many rungs keep the
    /// step ratio within 1.5–2.0.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a step count of at least 1; `as` saturates"
    )]
    pub fn guideline(top: Kbps) -> LadderSpec {
        let floor = Kbps(145);
        let span = (top.0.max(floor.0 + 1) as f64) / floor.0 as f64;
        // Choose the fewest rungs whose uniform step stays ≤ 2.0.
        let steps = (span.ln() / 2.0f64.ln()).ceil().max(1.0) as usize;
        LadderSpec { floor, top, rungs: steps + 1, codec: Codec::H264 }
    }

    /// Builds the ladder: geometric interpolation between floor and top.
    pub fn build(&self) -> Result<BitrateLadder, CoreError> {
        if self.rungs == 0 {
            return Err(CoreError::invalid("ladder spec needs at least one rung"));
        }
        if self.top < self.floor {
            return Err(CoreError::invalid("ladder top below floor"));
        }
        if self.rungs == 1 {
            return BitrateLadder::new(vec![rung(self.top, self.codec)]);
        }
        let lo = self.floor.0 as f64;
        let hi = self.top.0 as f64;
        let ratio = (hi / lo).powf(1.0 / (self.rungs - 1) as f64);
        let mut bitrates = Vec::with_capacity(self.rungs);
        let mut current = lo;
        for _ in 0..self.rungs {
            let rounded = round_to_ladder_grid(current);
            // Ensure strict ascent even after rounding.
            let value = match bitrates.last() {
                Some(&prev) if rounded <= prev => prev + 1,
                _ => rounded,
            };
            bitrates.push(value);
            current *= ratio;
        }
        // Pin the endpoints exactly (there are at least two rungs here).
        if let [first, .., last] = bitrates.as_mut_slice() {
            (*first, *last) = (self.floor.0, self.top.0);
        }
        BitrateLadder::new(bitrates.into_iter().map(|b| rung(Kbps(b), self.codec)).collect())
    }
}

fn rung(bitrate: Kbps, codec: Codec) -> LadderRung {
    LadderRung { bitrate, resolution: Resolution::for_bitrate(bitrate), codec }
}

/// Rounds a raw bitrate to the conventional ladder grid: two significant
/// digits below 1 Mbps, steps of 100 kbps above.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "positive kbps rounded to the ladder grid; `as` saturates"
)]
fn round_to_ladder_grid(raw: f64) -> u32 {
    if raw < 1000.0 {
        ((raw / 10.0).round() as u32 * 10).max(10)
    } else {
        (raw / 100.0).round() as u32 * 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guideline_spec_is_compliant() {
        for top in [1000u32, 3000, 6000, 8500, 20_000] {
            let ladder = LadderSpec::guideline(Kbps(top)).build().unwrap();
            // The HLS guidelines: a floor under 192 kbps and steps of at
            // most 2× (+5 % slack for grid rounding).
            assert!(
                ladder.min().bitrate <= Kbps(192) && ladder.max_step_ratio() <= 2.0 * 1.05,
                "top {top}: floor {}, step {}",
                ladder.min().bitrate,
                ladder.max_step_ratio()
            );
            assert_eq!(ladder.max().bitrate, Kbps(top));
        }
    }

    #[test]
    fn explicit_spec_builds_requested_rungs() {
        let spec = LadderSpec { floor: Kbps(200), top: Kbps(6400), rungs: 6, codec: Codec::H264 };
        let ladder = spec.build().unwrap();
        assert_eq!(ladder.len(), 6);
        assert_eq!(ladder.min().bitrate, Kbps(200));
        assert_eq!(ladder.max().bitrate, Kbps(6400));
        // Geometric: each step should be ≈ 2.0 here ((6400/200)^(1/5) = 2).
        assert!(ladder.max_step_ratio() < 2.1);
    }

    #[test]
    fn single_rung_ladder() {
        let spec = LadderSpec { floor: Kbps(800), top: Kbps(800), rungs: 1, codec: Codec::H264 };
        let ladder = spec.build().unwrap();
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder.max().bitrate, Kbps(800));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let zero = LadderSpec { floor: Kbps(100), top: Kbps(200), rungs: 0, codec: Codec::H264 };
        assert!(zero.build().is_err());
        let inverted = LadderSpec { floor: Kbps(500), top: Kbps(100), rungs: 3, codec: Codec::H264 };
        assert!(inverted.build().is_err());
    }

    #[test]
    fn grid_rounding() {
        assert_eq!(round_to_ladder_grid(147.3), 150);
        assert_eq!(round_to_ladder_grid(994.0), 990);
        assert_eq!(round_to_ladder_grid(1523.0), 1500);
        assert_eq!(round_to_ladder_grid(3.0), 10);
    }
}
