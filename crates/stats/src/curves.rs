//! Deterministic adoption/decline curves over the study window.
//!
//! §4 shows technology adoption following familiar S-shapes (DASH rising
//! from 10% → 43% of publishers; HDS declining; set-top support climbing
//! from <20% → >50%). The ecosystem generator describes each such trend as a
//! [`Trend`] evaluated at study progress `t ∈ [0, 1]`.

/// A scalar trend over normalized study time `t ∈ [0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Trend {
    /// Constant level.
    Constant(f64),
    /// Straight line from `start` at t=0 to `end` at t=1.
    Linear {
        /// Value at the start of the study.
        start: f64,
        /// Value at the end of the study.
        end: f64,
    },
    /// Logistic S-curve between `floor` and `ceil`, centered at `midpoint`
    /// (in study-progress units) with `steepness` controlling the ramp.
    Logistic {
        /// Lower asymptote.
        floor: f64,
        /// Upper asymptote.
        ceil: f64,
        /// Study progress at which the curve crosses the midpoint.
        midpoint: f64,
        /// Ramp steepness (≈ 4–12 gives a visible S within the window).
        steepness: f64,
    },
    /// Exponential decay from `start` toward `floor` with rate `rate`.
    Decay {
        /// Value at the start of the study.
        start: f64,
        /// Asymptotic floor.
        floor: f64,
        /// Decay rate (per unit study-progress).
        rate: f64,
    },
    /// Piecewise-linear interpolation through `(t, value)` knots; `t` values
    /// must be strictly increasing and within `[0, 1]`.
    Piecewise(Vec<(f64, f64)>),
}

impl Trend {
    /// Evaluates the trend at progress `t` (clamped to `[0, 1]`).
    pub fn at(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        match self {
            Trend::Constant(v) => *v,
            Trend::Linear { start, end } => start + (end - start) * t,
            Trend::Logistic { floor, ceil, midpoint, steepness } => {
                let z = steepness * (t - midpoint);
                floor + (ceil - floor) / (1.0 + (-z).exp())
            }
            Trend::Decay { start, floor, rate } => floor + (start - floor) * (-rate * t).exp(),
            Trend::Piecewise(knots) => {
                debug_assert!(!knots.is_empty(), "piecewise trend needs knots");
                let Some(&(t_first, v_first)) = knots.first() else { return 0.0 };
                if t <= t_first {
                    return v_first;
                }
                for w in knots.windows(2) {
                    let [(t0, v0), (t1, v1)] = *w else { continue };
                    if t <= t1 {
                        let frac = if t1 > t0 { (t - t0) / (t1 - t0) } else { 1.0 };
                        return v0 + (v1 - v0) * frac;
                    }
                }
                knots[knots.len() - 1].1
            }
        }
    }

    /// Evaluates and clamps to `[0, 1]`, for probability-valued trends.
    pub fn prob_at(&self, t: f64) -> f64 {
        self.at(t).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_linear() {
        assert_eq!(Trend::Constant(0.4).at(0.7), 0.4);
        let l = Trend::Linear { start: 0.1, end: 0.5 };
        assert!((l.at(0.0) - 0.1).abs() < 1e-12);
        assert!((l.at(1.0) - 0.5).abs() < 1e-12);
        assert!((l.at(0.5) - 0.3).abs() < 1e-12);
        // Clamping.
        assert!((l.at(2.0) - 0.5).abs() < 1e-12);
        assert!((l.at(-1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn logistic_is_monotone_and_bounded() {
        let s = Trend::Logistic { floor: 0.1, ceil: 0.43, midpoint: 0.6, steepness: 8.0 };
        let mut last = f64::MIN;
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            let v = s.at(t);
            assert!((0.1 - 1e-9..=0.43 + 1e-9).contains(&v));
            assert!(v >= last);
            last = v;
        }
        // Midpoint crossing.
        let mid = s.at(0.6);
        assert!((mid - (0.1 + 0.43) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn decay_approaches_floor() {
        let d = Trend::Decay { start: 0.6, floor: 0.35, rate: 3.0 };
        assert!((d.at(0.0) - 0.6).abs() < 1e-12);
        assert!(d.at(1.0) < 0.37);
        assert!(d.at(1.0) > 0.35);
        assert!(d.at(0.5) > d.at(1.0));
    }

    #[test]
    fn piecewise_interpolates() {
        let p = Trend::Piecewise(vec![(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)]);
        assert_eq!(p.at(0.0), 0.0);
        assert!((p.at(0.25) - 0.5).abs() < 1e-12);
        assert_eq!(p.at(0.5), 1.0);
        assert!((p.at(0.75) - 0.75).abs() < 1e-12);
        assert_eq!(p.at(1.0), 0.5);
    }

    #[test]
    fn prob_at_clamps() {
        let l = Trend::Linear { start: -0.5, end: 1.5 };
        assert_eq!(l.prob_at(0.0), 0.0);
        assert_eq!(l.prob_at(1.0), 1.0);
    }
}
