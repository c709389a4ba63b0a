//! Bitrate ladders: the set of encodings a title is offered at.
//!
//! A ladder is the central §6 object — Fig 17 compares the ladders chosen by
//! a content owner and ten syndicators for the same video ID (3 to 14 rungs,
//! top rungs from ~1 Mbps to >8 Mbps). The *types* live here; guideline-
//! based construction lives in `vmp-packaging`.

use crate::protocol::Codec;
use crate::units::Kbps;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// A video frame size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// Standard ladder resolutions from 234p to 2160p (4K).
    pub const STANDARD: [Resolution; 8] = [
        Resolution { width: 416, height: 234 },
        Resolution { width: 640, height: 360 },
        Resolution { width: 768, height: 432 },
        Resolution { width: 960, height: 540 },
        Resolution { width: 1280, height: 720 },
        Resolution { width: 1920, height: 1080 },
        Resolution { width: 2560, height: 1440 },
        Resolution { width: 3840, height: 2160 },
    ];

    /// The standard resolution appropriate for an H.264 encoding at
    /// `bitrate`, following common ladder guidelines (≈ the HLS authoring
    /// spec's pairings).
    pub fn for_bitrate(bitrate: Kbps) -> Resolution {
        let idx = match bitrate.0 {
            0..=400 => 0,
            401..=900 => 1,
            901..=1600 => 2,
            1601..=2500 => 3,
            2501..=5000 => 4,
            5001..=9000 => 5,
            9001..=14000 => 6,
            _ => 7,
        };
        Resolution::STANDARD[idx]
    }

    /// Total pixel count.
    pub const fn pixels(self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// One rung of a bitrate ladder: a complete encoding of the title.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LadderRung {
    /// Video bitrate.
    pub bitrate: Kbps,
    /// Frame size.
    pub resolution: Resolution,
    /// Video codec.
    pub codec: Codec,
}

impl LadderRung {
    /// Creates a rung with the guideline resolution for its bitrate.
    pub fn h264(bitrate: Kbps) -> LadderRung {
        LadderRung { bitrate, resolution: Resolution::for_bitrate(bitrate), codec: Codec::H264 }
    }
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} ({})", self.bitrate, self.resolution, self.codec)
    }
}

/// An ordered bitrate ladder (ascending by bitrate, unique bitrates).
///
/// The rungs are immutable once built and shared: cloning a ladder (every
/// playback session takes its own) copies a pointer, not the rungs.
///
/// ```
/// use vmp_core::ladder::BitrateLadder;
/// use vmp_core::units::Kbps;
///
/// let ladder = BitrateLadder::from_bitrates(&[3200, 400, 800, 1600]).unwrap();
/// assert_eq!(ladder.min().bitrate, Kbps(400));       // sorted ascending
/// assert_eq!(ladder.max().bitrate, Kbps(3200));
/// assert_eq!(ladder.best_under(Kbps(1000)).bitrate, Kbps(800));
/// assert!(BitrateLadder::from_bitrates(&[]).is_err()); // never empty
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BitrateLadder {
    rungs: Arc<[LadderRung]>,
}

impl BitrateLadder {
    /// Builds a ladder from rungs; sorts ascending and rejects empty input
    /// or duplicate bitrates.
    pub fn new(mut rungs: Vec<LadderRung>) -> Result<BitrateLadder, crate::error::CoreError> {
        if rungs.is_empty() {
            return Err(crate::error::CoreError::invalid("ladder must have at least one rung"));
        }
        rungs.sort_by_key(|r| r.bitrate);
        if rungs.iter().zip(rungs.iter().skip(1)).any(|(lo, hi)| lo.bitrate == hi.bitrate) {
            return Err(crate::error::CoreError::invalid("duplicate bitrate in ladder"));
        }
        Ok(BitrateLadder { rungs: rungs.into() })
    }

    /// Convenience: an all-H.264 ladder from bare bitrates.
    pub fn from_bitrates(bitrates: &[u32]) -> Result<BitrateLadder, crate::error::CoreError> {
        BitrateLadder::new(bitrates.iter().map(|b| LadderRung::h264(Kbps(*b))).collect())
    }

    /// The rungs, ascending by bitrate.
    pub fn rungs(&self) -> &[LadderRung] {
        &self.rungs
    }

    /// Bare bitrates, ascending, in one shared block: the ladder a cell
    /// advertises in every record.
    pub fn bitrates(&self) -> Arc<[Kbps]> {
        self.rungs.iter().map(|r| r.bitrate).collect()
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Never true (construction rejects empty ladders).
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Lowest rung. A ladder is never empty: `new` and deserialization
    /// both reject one.
    pub fn min(&self) -> LadderRung {
        let [lowest, ..] = *self.rungs else { return self.max() };
        lowest
    }

    /// Highest rung.
    pub fn max(&self) -> LadderRung {
        self.rungs[self.rungs.len() - 1]
    }

    /// The largest ratio between consecutive rungs (the HLS guideline wants
    /// ≤ 2.0); 1.0 for a single-rung ladder.
    pub fn max_step_ratio(&self) -> f64 {
        self.rungs
            .iter()
            .zip(self.rungs.iter().skip(1))
            .map(|(lo, hi)| hi.bitrate.0 as f64 / lo.bitrate.0 as f64)
            .fold(1.0, f64::max)
    }

    /// The rung with the highest bitrate not exceeding `budget`, or the
    /// lowest rung when even that exceeds the budget.
    pub fn best_under(&self, budget: Kbps) -> LadderRung {
        self.rungs
            .iter()
            .rev()
            .find(|r| r.bitrate <= budget)
            .copied()
            .unwrap_or_else(|| self.min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_for_bitrate_is_monotone() {
        let mut last = 0u64;
        for b in [200u32, 600, 1200, 2000, 3000, 6000, 10_000, 20_000] {
            let r = Resolution::for_bitrate(Kbps(b));
            assert!(r.pixels() >= last, "resolution not monotone at {b}");
            last = r.pixels();
        }
    }

    #[test]
    fn ladder_sorts_and_rejects_duplicates() {
        let l = BitrateLadder::from_bitrates(&[3000, 800, 1600]).unwrap();
        assert_eq!(l.bitrates()[..], [Kbps(800), Kbps(1600), Kbps(3000)]);
        assert!(BitrateLadder::from_bitrates(&[]).is_err());
        assert!(BitrateLadder::from_bitrates(&[500, 500]).is_err());
    }

    #[test]
    fn min_max_and_step_ratio() {
        let l = BitrateLadder::from_bitrates(&[400, 800, 2400]).unwrap();
        assert_eq!(l.min().bitrate, Kbps(400));
        assert_eq!(l.max().bitrate, Kbps(2400));
        assert!((l.max_step_ratio() - 3.0).abs() < 1e-12);
        let single = BitrateLadder::from_bitrates(&[1000]).unwrap();
        assert_eq!(single.max_step_ratio(), 1.0);
    }

    #[test]
    fn best_under_budget() {
        let l = BitrateLadder::from_bitrates(&[400, 800, 1600]).unwrap();
        assert_eq!(l.best_under(Kbps(1000)).bitrate, Kbps(800));
        assert_eq!(l.best_under(Kbps(5000)).bitrate, Kbps(1600));
        assert_eq!(l.best_under(Kbps(100)).bitrate, Kbps(400));
        assert_eq!(l.best_under(Kbps(800)).bitrate, Kbps(800));
    }
}
