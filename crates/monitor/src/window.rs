//! Fixed-size ring of per-tick aggregate buckets.
//!
//! Memory is O(window) per cell no matter how long the stream runs: bucket
//! `tick % len` is reused once the window slides past it. Each bucket is a
//! bag of commutative sums, so views landing in the same tick can arrive in
//! any order without changing the aggregate — the property the proptests
//! pin down.

/// Per-tick sums for one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BucketStats {
    /// Views that ended in this tick.
    pub views: u64,
    /// Fatal exits among them.
    pub fatal: u64,
    /// Join failures (fatal before the first frame).
    pub joins: u64,
    /// Total retried fetch attempts.
    pub retries: u64,
    /// Total stall seconds.
    pub rebuffer: f64,
    /// Total played seconds.
    pub played: f64,
    /// Sum of per-view average bitrates (kbps), over views that played.
    pub bitrate_sum: f64,
    /// Sum of squared per-view average bitrates (for window variance).
    pub bitrate_sq: f64,
    /// Views contributing to `bitrate_sum`.
    pub bitrate_n: u64,
}

impl BucketStats {
    fn merge(&mut self, other: &BucketStats) {
        self.views += other.views;
        self.fatal += other.fatal;
        self.joins += other.joins;
        self.retries += other.retries;
        self.rebuffer += other.rebuffer;
        self.played += other.played;
        self.bitrate_sum += other.bitrate_sum;
        self.bitrate_sq += other.bitrate_sq;
        self.bitrate_n += other.bitrate_n;
    }
}

/// Aggregate over the last `window` ticks of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// The merged sums.
    pub totals: BucketStats,
}

impl WindowStats {
    /// Stall time over stall-plus-play time, the paper's rebuffer ratio.
    pub fn rebuffer_ratio(&self) -> Option<f64> {
        let denom = self.totals.rebuffer + self.totals.played;
        (denom > 0.0).then(|| self.totals.rebuffer / denom)
    }

    /// Fraction of views that exited fatally.
    pub fn fatal_rate(&self) -> Option<f64> {
        (self.totals.views > 0).then(|| self.totals.fatal as f64 / self.totals.views as f64)
    }

    /// Fraction of views that never joined.
    pub fn join_failure_rate(&self) -> Option<f64> {
        (self.totals.views > 0).then(|| self.totals.joins as f64 / self.totals.views as f64)
    }

    /// Mean retried attempts per view.
    pub fn retry_rate(&self) -> Option<f64> {
        (self.totals.views > 0).then(|| self.totals.retries as f64 / self.totals.views as f64)
    }

    /// Mean of per-view average bitrates, kbps.
    pub fn mean_bitrate(&self) -> Option<f64> {
        (self.totals.bitrate_n > 0)
            .then(|| self.totals.bitrate_sum / self.totals.bitrate_n as f64)
    }

    /// Sample variance of per-view average bitrates (kbps²), for the
    /// detector's sampling-noise estimate.
    pub fn bitrate_variance(&self) -> Option<f64> {
        let n = self.totals.bitrate_n as f64;
        let mean = self.mean_bitrate()?;
        Some((self.totals.bitrate_sq / n - mean * mean).max(0.0))
    }
}

/// The ring itself: `len` buckets, each tagged with the tick it currently
/// holds so stale laps are excluded without ever being zeroed eagerly.
#[derive(Debug, Clone)]
pub struct RingWindow {
    /// `(tick_tag, sums)`; slot `i` holds some tick with `tick % len == i`.
    slots: Vec<(u64, BucketStats)>,
}

/// Tag for a slot that has never been written ( u64::MAX is unreachable as
/// a real tick: it would need ~10^13 years of fault clock at 60s buckets).
const EMPTY: u64 = u64::MAX;

impl RingWindow {
    /// A ring of `len` (≥ 1) per-tick buckets.
    pub fn new(len: usize) -> RingWindow {
        RingWindow { slots: vec![(EMPTY, BucketStats::default()); len.max(1)] }
    }

    /// Window length in ticks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no bucket has ever been written.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|(tag, _)| *tag == EMPTY)
    }

    /// The bucket for `tick`, lazily reclaiming the slot from an older lap.
    #[expect(clippy::cast_possible_truncation, reason = "the remainder is below the slot count")]
    pub fn bucket_mut(&mut self, tick: u64) -> &mut BucketStats {
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(tick % len) as usize];
        if slot.0 != tick {
            *slot = (tick, BucketStats::default());
        }
        &mut slot.1
    }

    /// Sums every bucket still inside the window ending at `tick`
    /// (inclusive): ticks in `(tick - len, tick]`.
    pub fn aggregate(&self, tick: u64) -> WindowStats {
        let len = self.slots.len() as u64;
        let oldest = tick.saturating_sub(len - 1);
        let mut totals = BucketStats::default();
        for (tag, stats) in &self.slots {
            if *tag != EMPTY && *tag >= oldest && *tag <= tick {
                totals.merge(stats);
            }
        }
        WindowStats { totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_view(fatal: bool) -> BucketStats {
        BucketStats {
            views: 1,
            fatal: fatal as u64,
            joins: 0,
            retries: 2,
            rebuffer: 1.0,
            played: 9.0,
            bitrate_sum: 1000.0,
            bitrate_sq: 1000.0 * 1000.0,
            bitrate_n: 1,
        }
    }

    #[test]
    fn ring_slides_and_reclaims_slots() {
        let mut ring = RingWindow::new(3);
        for tick in 0..5 {
            ring.bucket_mut(tick).merge(&one_view(false));
        }
        // Window at tick 4 covers ticks 2..=4 only.
        assert_eq!(ring.aggregate(4).totals.views, 3);
        // Ticks 0 and 1 were reclaimed by ticks 3 and 4 (same slots mod 3),
        // so a window ending back at tick 1 finds nothing left.
        assert_eq!(ring.aggregate(1).totals.views, 0);
        assert!(!ring.is_empty());
    }

    #[test]
    fn stale_laps_are_excluded_without_writes() {
        let mut ring = RingWindow::new(4);
        ring.bucket_mut(0).merge(&one_view(true));
        // Far in the future, nothing from tick 0 leaks into the window even
        // though its slot was never overwritten.
        assert_eq!(ring.aggregate(100).totals.views, 0);
        assert_eq!(ring.aggregate(3).totals.views, 1);
    }

    #[test]
    fn window_rates_derive_from_sums() {
        let mut ring = RingWindow::new(2);
        ring.bucket_mut(0).merge(&one_view(true));
        ring.bucket_mut(1).merge(&one_view(false));
        let w = ring.aggregate(1);
        assert_eq!(w.fatal_rate(), Some(0.5));
        assert_eq!(w.retry_rate(), Some(2.0));
        assert_eq!(w.rebuffer_ratio(), Some(2.0 / 20.0));
        assert_eq!(w.mean_bitrate(), Some(1000.0));
        assert_eq!(WindowStats::default().fatal_rate(), None);
    }
}
