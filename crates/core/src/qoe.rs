//! Per-view quality-of-experience summary.
//!
//! The two delivery-performance measures the paper uses (§6) are the
//! *average bitrate* of a view and its *rebuffering ratio* (fraction of the
//! view spent stalled).

use crate::units::{Kbps, Seconds};
use serde::Serialize;

/// Quality-of-experience summary emitted at the end of a playback session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct QoeSummary {
    /// Time-weighted average video bitrate over the view.
    pub avg_bitrate: Kbps,
    /// Total media time actually played.
    pub played: Seconds,
    /// Total time spent rebuffering (stalled) after startup.
    pub rebuffer_time: Seconds,
    /// Join/startup delay before the first frame.
    pub startup_delay: Seconds,
    /// Number of mid-stream bitrate switches.
    pub bitrate_switches: u32,
    /// Number of mid-stream CDN switches.
    pub cdn_switches: u32,
}

impl QoeSummary {
    /// Rebuffering ratio: stall time over (play + stall) time; the paper's
    /// "fraction of the view that experiences rebuffering". Zero for an
    /// empty view.
    pub fn rebuffer_ratio(&self) -> f64 {
        let denom = self.played.0 + self.rebuffer_time.0;
        if denom <= 0.0 {
            0.0
        } else {
            self.rebuffer_time.0 / denom
        }
    }

    /// Total wall-clock duration of the view (startup + play + stalls).
    pub fn wall_time(&self) -> Seconds {
        Seconds(self.startup_delay.0 + self.played.0 + self.rebuffer_time.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuffer_ratio_bounds() {
        let q = QoeSummary {
            avg_bitrate: Kbps(3000),
            played: Seconds(90.0),
            rebuffer_time: Seconds(10.0),
            startup_delay: Seconds(1.0),
            bitrate_switches: 3,
            cdn_switches: 0,
        };
        assert!((q.rebuffer_ratio() - 0.1).abs() < 1e-12);
        assert!((q.wall_time().0 - 101.0).abs() < 1e-12);
    }

    #[test]
    fn empty_view_is_safe() {
        let q = QoeSummary::default();
        assert_eq!(q.rebuffer_ratio(), 0.0);
        assert_eq!(q.wall_time(), Seconds::ZERO);
    }
}
