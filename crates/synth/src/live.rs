//! Flash-crowd arrival synthesis for live events.
//!
//! VoD sessions arrive as an (approximately) memoryless trickle; a live
//! event does not. Viewers pile in around the start in a *join storm*:
//! arrivals ramp steeply just before kickoff, peak in the opening minutes,
//! and decay to a steady in-event rate. [`JoinStorm`] samples those
//! correlated arrival offsets from a piecewise-linear intensity driven by
//! inverse-transform sampling on the seeded RNG, so a storm replays
//! byte-identically and the peak-to-baseline ratio is an explicit,
//! assertable parameter (the `live_event` experiment runs a 100× step).

use vmp_core::units::Seconds;
use vmp_stats::Rng;

/// The arrival intensity of a flash crowd joining a live event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinStorm {
    /// When the event (and the storm peak) starts on the virtual clock.
    pub event_start: Seconds,
    /// Pre-event ramp: arrivals climb from the baseline rate to the peak
    /// over this long before `event_start`.
    pub ramp: Seconds,
    /// Post-peak decay: arrivals fall back toward the baseline over this
    /// long after `event_start`.
    pub decay: Seconds,
    /// Peak arrival intensity relative to baseline (the "100×" in a 100×
    /// join storm).
    pub peak_ratio: f64,
}

impl JoinStorm {
    /// A storm peaking `peak_ratio`× over baseline at `event_start`, with
    /// a 2-minute ramp and a 5-minute decay.
    pub fn new(event_start: Seconds, peak_ratio: f64) -> JoinStorm {
        JoinStorm {
            event_start,
            ramp: Seconds(120.0),
            decay: Seconds(300.0),
            peak_ratio: peak_ratio.max(1.0),
        }
    }

    /// Relative arrival intensity at `t` (1.0 = baseline, `peak_ratio` =
    /// storm peak). Piecewise linear: baseline → ramp up → peak at
    /// `event_start` → decay → baseline.
    pub fn intensity(&self, t: Seconds) -> f64 {
        let dt = t.0 - self.event_start.0;
        let peak = self.peak_ratio;
        if dt < -self.ramp.0 || dt > self.decay.0 {
            1.0
        } else if dt <= 0.0 {
            // Ramp up toward the peak.
            1.0 + (peak - 1.0) * (1.0 + dt / self.ramp.0)
        } else {
            // Decay back to baseline.
            1.0 + (peak - 1.0) * (1.0 - dt / self.decay.0)
        }
    }

    /// Samples `count` arrival offsets in `[window_start, window_end)`
    /// distributed according to the storm intensity, sorted ascending.
    /// Inverse-transform sampling over the discretized intensity: one RNG
    /// draw per arrival, deterministic for a given seeded `rng`.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the span is non-negative and the cell count is clamped"
    )]
    pub fn sample_arrivals(
        &self,
        count: usize,
        window_start: Seconds,
        window_end: Seconds,
        rng: &mut Rng,
    ) -> Vec<Seconds> {
        let joins = vmp_obs::counter("session.join_storm");
        let span = (window_end.0 - window_start.0).max(f64::MIN_POSITIVE);
        // Discretize the intensity into a CDF (1-second resolution capped
        // at 4096 cells keeps this O(count + cells) and deterministic).
        let cells = (span.ceil() as usize).clamp(1, 4096);
        let cell_width = span / cells as f64;
        let mut cdf = Vec::with_capacity(cells);
        let mut total = 0.0;
        for i in 0..cells {
            let mid = Seconds(window_start.0 + (i as f64 + 0.5) * cell_width);
            total += self.intensity(mid) * cell_width;
            cdf.push(total);
        }
        let mut arrivals = Vec::with_capacity(count);
        for _ in 0..count {
            let target = rng.f64() * total;
            let cell = cdf.partition_point(|&c| c < target).min(cells - 1);
            let cell_start = if cell == 0 { 0.0 } else { cdf[cell - 1] };
            let mass = (cdf[cell] - cell_start).max(f64::MIN_POSITIVE);
            let frac = ((target - cell_start) / mass).clamp(0.0, 1.0);
            arrivals.push(Seconds(window_start.0 + (cell as f64 + frac) * cell_width));
            joins.inc();
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> JoinStorm {
        JoinStorm::new(Seconds(600.0), 100.0)
    }

    #[test]
    fn intensity_peaks_at_event_start() {
        let s = storm();
        assert!((s.intensity(Seconds(600.0)) - 100.0).abs() < 1e-9);
        assert!((s.intensity(Seconds(0.0)) - 1.0).abs() < 1e-9);
        assert!((s.intensity(Seconds(2000.0)) - 1.0).abs() < 1e-9);
        // Halfway up the ramp and halfway down the decay.
        assert!((s.intensity(Seconds(540.0)) - 50.5).abs() < 1e-9);
        assert!((s.intensity(Seconds(750.0)) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn arrivals_concentrate_around_the_event() {
        let s = storm();
        let mut rng = Rng::seed_from(7);
        let arrivals = s.sample_arrivals(2000, Seconds(0.0), Seconds(1800.0), &mut rng);
        assert_eq!(arrivals.len(), 2000);
        let in_storm = arrivals
            .iter()
            .filter(|t| t.0 >= 480.0 && t.0 <= 900.0)
            .count();
        // The storm window is ~23% of the timeline but the peak is 100×:
        // the overwhelming majority of arrivals land inside it.
        assert!(in_storm as f64 > 0.85 * 2000.0, "only {in_storm} of 2000 in the storm");
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        assert!(arrivals.iter().all(|t| (0.0..1800.0).contains(&t.0)));
    }

    #[test]
    fn arrivals_replay_byte_identically() {
        let s = storm();
        let run = || {
            let mut rng = Rng::seed_from(42);
            s.sample_arrivals(500, Seconds(0.0), Seconds(1800.0), &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flat_storm_is_roughly_uniform() {
        let s = JoinStorm::new(Seconds(600.0), 1.0);
        let mut rng = Rng::seed_from(3);
        let arrivals = s.sample_arrivals(4000, Seconds(0.0), Seconds(1000.0), &mut rng);
        let first_half = arrivals.iter().filter(|t| t.0 < 500.0).count();
        assert!((1600..=2400).contains(&first_half), "skewed: {first_half}");
    }
}
