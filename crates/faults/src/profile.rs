//! The fault plan: windows on a virtual timeline, evaluated by pure lookups.
//!
//! A [`FaultProfile`] is an immutable schedule of incidents. Every query is
//! a pure function of `(fault clock, rng)`: the profile never mutates, never
//! consults wall time, and draws from the RNG only while a probabilistic
//! window is actually active — so a session simulated with no active faults
//! consumes exactly the same RNG stream as one simulated with no profile at
//! all. That invariant is what keeps existing figure outputs byte-identical
//! when faults are disabled.

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_stats::Rng;

/// What kind of incident a window describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The CDN serves nothing: every chunk fetch fails outright.
    Outage,
    /// Delivery throughput is multiplied by `factor` (in `(0, 1)`).
    DegradedThroughput {
        /// Throughput multiplier applied while the window is active.
        factor: f64,
    },
    /// All edge caches of the CDN are flushed at the window start (the
    /// duration is ignored; a flush is an instant).
    EdgeCacheFlush,
    /// Cache-miss fetches to the origin fail with probability `error_rate`.
    OriginErrorBurst {
        /// Per-fetch failure probability in `(0, 1]`.
        error_rate: f64,
    },
    /// Manifest fetches fail with probability `failure_rate`.
    ManifestFailure {
        /// Per-fetch failure probability in `(0, 1]`.
        failure_rate: f64,
    },
}

/// One scheduled incident: a kind, a target CDN (or all CDNs), an optional
/// edge-region scope, and a half-open activity interval
/// `[start, start + duration)` on the fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The affected CDN; `None` hits every CDN (a region-wide event).
    pub cdn: Option<CdnName>,
    /// The affected edge region (the `region_index` the session is served
    /// from); `None` hits every region of the target CDN.
    pub region: Option<usize>,
    /// What happens.
    pub kind: FaultKind,
    /// When it starts (virtual seconds).
    pub start: Seconds,
    /// How long it lasts.
    pub duration: Seconds,
}

impl FaultWindow {
    /// Whether the window is active at fault-clock `t`.
    pub fn active_at(&self, t: Seconds) -> bool {
        t.0 >= self.start.0 && t.0 < self.start.0 + self.duration.0
    }

    /// Whether the window targets `cdn`, irrespective of region. Callers
    /// that do not track edge regions (single-CDN `play_with`, manifest
    /// fetches) use this and therefore see region-scoped windows too — a
    /// conservative reading that keeps region-blind paths safe.
    pub fn applies_to(&self, cdn: CdnName) -> bool {
        self.cdn.is_none_or(|c| c == cdn)
    }

    /// Whether the window targets `cdn` as served from edge region
    /// `region`. `None` means the caller's region is unknown, which matches
    /// every window (same conservative reading as [`applies_to`](Self::applies_to)).
    pub fn applies_in(&self, cdn: CdnName, region: Option<usize>) -> bool {
        self.applies_to(cdn)
            && match (self.region, region) {
                (Some(scoped), Some(actual)) => scoped == actual,
                _ => true,
            }
    }

    /// End of the window on the fault timeline.
    pub fn end(&self) -> Seconds {
        Seconds(self.start.0 + self.duration.0)
    }
}

/// A complete, immutable fault plan.
///
/// ```
/// use vmp_core::cdn::CdnName;
/// use vmp_core::units::Seconds;
/// use vmp_faults::FaultProfile;
/// use vmp_stats::Rng;
///
/// let profile = FaultProfile::builder()
///     .outage(CdnName::A, Seconds(600.0), Seconds(300.0))
///     .degrade(CdnName::A, Seconds(300.0), Seconds(1200.0), 0.25)
///     .build();
/// assert!(!profile.outage_active(CdnName::A, Seconds(10.0)));
/// assert!(profile.outage_active(CdnName::A, Seconds(700.0)));
/// assert!(!profile.outage_active(CdnName::B, Seconds(700.0)));
/// assert_eq!(profile.throughput_factor(CdnName::A, Seconds(400.0)), 0.25);
///
/// // Probabilistic faults draw from the caller's RNG only while active, so
/// // identical seeds replay identical incidents.
/// let mut rng = Rng::seed_from(7);
/// assert!(!profile.origin_error(CdnName::A, Seconds(0.0), &mut rng));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultProfile {
    windows: Vec<FaultWindow>,
}

impl FaultProfile {
    /// An empty profile (no faults ever fire).
    pub fn none() -> FaultProfile {
        FaultProfile::default()
    }

    /// Starts building a profile.
    pub fn builder() -> FaultProfileBuilder {
        FaultProfileBuilder { windows: Vec::new() }
    }

    /// All scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the profile schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Latest window end; the timeline horizon.
    pub fn horizon(&self) -> Seconds {
        Seconds(self.windows.iter().map(|w| w.end().0).fold(0.0, f64::max))
    }

    /// Whether a hard outage of `cdn` is active at `t` (region-blind: sees
    /// region-scoped windows too).
    pub fn outage_active(&self, cdn: CdnName, t: Seconds) -> bool {
        self.outage_active_in(cdn, None, t)
    }

    /// Whether a hard outage of `cdn` as served from `region` is active at
    /// `t`. `region: None` means "region unknown" and matches every window.
    pub fn outage_active_in(&self, cdn: CdnName, region: Option<usize>, t: Seconds) -> bool {
        self.windows.iter().any(|w| {
            matches!(w.kind, FaultKind::Outage) && w.applies_in(cdn, region) && w.active_at(t)
        })
    }

    /// Combined throughput multiplier for `cdn` at `t` (product of all
    /// active degradation windows; `1.0` when none, floored at `0.01`).
    pub fn throughput_factor(&self, cdn: CdnName, t: Seconds) -> f64 {
        self.throughput_factor_in(cdn, None, t)
    }

    /// Region-scoped variant of [`throughput_factor`](Self::throughput_factor).
    pub fn throughput_factor_in(&self, cdn: CdnName, region: Option<usize>, t: Seconds) -> f64 {
        let mut factor = 1.0;
        for w in &self.windows {
            if let FaultKind::DegradedThroughput { factor: f } = w.kind {
                if w.applies_in(cdn, region) && w.active_at(t) {
                    factor *= f;
                }
            }
        }
        factor.max(0.01)
    }

    /// Whether an origin fetch for `cdn` at `t` fails. Draws from `rng`
    /// only while at least one burst window is active.
    pub fn origin_error(&self, cdn: CdnName, t: Seconds, rng: &mut Rng) -> bool {
        self.origin_error_in(cdn, None, t, rng)
    }

    /// Region-scoped variant of [`origin_error`](Self::origin_error).
    pub fn origin_error_in(
        &self,
        cdn: CdnName,
        region: Option<usize>,
        t: Seconds,
        rng: &mut Rng,
    ) -> bool {
        let p = self.combined_rate(cdn, region, t, |kind| match kind {
            FaultKind::OriginErrorBurst { error_rate } => Some(error_rate),
            _ => None,
        });
        p > 0.0 && rng.chance(p)
    }

    /// Whether a manifest fetch from `cdn` at `t` fails. Draws from `rng`
    /// only while at least one failure window is active.
    pub fn manifest_failure(&self, cdn: CdnName, t: Seconds, rng: &mut Rng) -> bool {
        let p = self.combined_rate(cdn, None, t, |kind| match kind {
            FaultKind::ManifestFailure { failure_rate } => Some(failure_rate),
            _ => None,
        });
        p > 0.0 && rng.chance(p)
    }

    /// Whether an edge-cache flush of `cdn` fires in the interval
    /// `(since, until]` (flushes are instants at their window start).
    pub fn cache_flush_between(&self, cdn: CdnName, since: Seconds, until: Seconds) -> bool {
        self.cache_flush_between_in(cdn, None, since, until)
    }

    /// Region-scoped variant of [`cache_flush_between`](Self::cache_flush_between).
    pub fn cache_flush_between_in(
        &self,
        cdn: CdnName,
        region: Option<usize>,
        since: Seconds,
        until: Seconds,
    ) -> bool {
        self.windows.iter().any(|w| {
            matches!(w.kind, FaultKind::EdgeCacheFlush)
                && w.applies_in(cdn, region)
                && w.start.0 > since.0
                && w.start.0 <= until.0
        })
    }

    /// Windows active at `t` (any CDN).
    pub fn active_at(&self, t: Seconds) -> Vec<&FaultWindow> {
        self.windows.iter().filter(|w| w.active_at(t)).collect()
    }

    /// The same plan pushed `delta` seconds later on the fault timeline.
    /// Used by monitoring scenarios to buy the detectors a clean baseline
    /// period before the first incident lands.
    pub fn shifted(&self, delta: Seconds) -> FaultProfile {
        assert!(delta.0 >= 0.0, "shift must be non-negative");
        FaultProfile {
            windows: self
                .windows
                .iter()
                .map(|w| FaultWindow { start: Seconds(w.start.0 + delta.0), ..*w })
                .collect(),
        }
    }

    /// Combines the rates of all matching active windows into one failure
    /// probability: `1 - Π(1 - rate)` (independent failure sources).
    fn combined_rate(
        &self,
        cdn: CdnName,
        region: Option<usize>,
        t: Seconds,
        pick: impl Fn(FaultKind) -> Option<f64>,
    ) -> f64 {
        let mut survive = 1.0;
        for w in &self.windows {
            if let Some(rate) = pick(w.kind) {
                if w.applies_in(cdn, region) && w.active_at(t) {
                    survive *= 1.0 - rate;
                }
            }
        }
        1.0 - survive
    }

    // --- named presets -----------------------------------------------------

    /// A 20-minute brownout of one CDN starting at t=300s: throughput drops
    /// to 25%, its edges are flushed at onset, origin fetches fail 60% of
    /// the time, and the middle six minutes are a hard outage. The scenario
    /// the §4.3 multi-CDN strategies exist to absorb.
    pub fn cdn_brownout(cdn: CdnName) -> FaultProfile {
        FaultProfile::builder()
            .degrade(cdn, Seconds(300.0), Seconds(1200.0), 0.25)
            .flush(cdn, Seconds(300.0))
            .origin_errors(cdn, Seconds(300.0), Seconds(1200.0), 0.6)
            .outage(cdn, Seconds(720.0), Seconds(360.0))
            .build()
    }

    /// A 15-minute regional hard outage of one CDN starting at t=600s, with
    /// manifest fetches failing for its whole duration.
    pub fn regional_outage(cdn: CdnName) -> FaultProfile {
        FaultProfile::builder()
            .outage(cdn, Seconds(600.0), Seconds(900.0))
            .manifest_failures(cdn, Seconds(600.0), Seconds(900.0), 0.9)
            .build()
    }

    /// A chronically flaky origin: 35% of cache-miss fetches fail for the
    /// first 30 minutes, with edge flushes at t=300s and t=900s forcing
    /// misses that expose the flakiness.
    pub fn flaky_origin(cdn: CdnName) -> FaultProfile {
        FaultProfile::builder()
            .origin_errors(cdn, Seconds(0.0), Seconds(1800.0), 0.35)
            .flush(cdn, Seconds(300.0))
            .flush(cdn, Seconds(900.0))
            .build()
    }
}

/// Builder for [`FaultProfile`]; methods panic on out-of-range parameters
/// (a malformed plan is a programming error, not a runtime condition).
#[derive(Debug, Clone)]
pub struct FaultProfileBuilder {
    windows: Vec<FaultWindow>,
}

impl FaultProfileBuilder {
    fn push(mut self, cdn: Option<CdnName>, kind: FaultKind, start: Seconds, duration: Seconds) -> Self {
        assert!(start.0 >= 0.0, "fault window start must be non-negative");
        assert!(duration.0 >= 0.0, "fault window duration must be non-negative");
        self.windows.push(FaultWindow { cdn, region: None, kind, start, duration });
        self
    }

    /// Scopes the most recently added window to one edge region (the
    /// `region_index` sessions are served from). Panics when no window has
    /// been added yet.
    #[expect(
        clippy::expect_used,
        reason = "documented builder panic: a window must be added first"
    )]
    pub fn in_region(mut self, region: usize) -> Self {
        let last = self.windows.last_mut().expect("in_region needs a preceding window");
        last.region = Some(region);
        self
    }

    /// Schedules a hard outage of `cdn`.
    pub fn outage(self, cdn: CdnName, start: Seconds, duration: Seconds) -> Self {
        self.push(Some(cdn), FaultKind::Outage, start, duration)
    }

    /// Schedules an outage hitting every CDN (a client-side or region-wide
    /// event).
    pub fn global_outage(self, start: Seconds, duration: Seconds) -> Self {
        self.push(None, FaultKind::Outage, start, duration)
    }

    /// Schedules a degraded-throughput window (`factor` in `(0, 1)`).
    pub fn degrade(self, cdn: CdnName, start: Seconds, duration: Seconds, factor: f64) -> Self {
        assert!(factor > 0.0 && factor < 1.0, "degrade factor must be in (0, 1)");
        self.push(Some(cdn), FaultKind::DegradedThroughput { factor }, start, duration)
    }

    /// Schedules an instantaneous edge-cache flush.
    pub fn flush(self, cdn: CdnName, at: Seconds) -> Self {
        self.push(Some(cdn), FaultKind::EdgeCacheFlush, at, Seconds::ZERO)
    }

    /// Schedules an origin error burst (`error_rate` in `(0, 1]`).
    pub fn origin_errors(self, cdn: CdnName, start: Seconds, duration: Seconds, error_rate: f64) -> Self {
        assert!(error_rate > 0.0 && error_rate <= 1.0, "error rate must be in (0, 1]");
        self.push(Some(cdn), FaultKind::OriginErrorBurst { error_rate }, start, duration)
    }

    /// Schedules a manifest fetch failure window (`failure_rate` in `(0, 1]`).
    pub fn manifest_failures(self, cdn: CdnName, start: Seconds, duration: Seconds, failure_rate: f64) -> Self {
        assert!(failure_rate > 0.0 && failure_rate <= 1.0, "failure rate must be in (0, 1]");
        self.push(Some(cdn), FaultKind::ManifestFailure { failure_rate }, start, duration)
    }

    /// Adds a pre-built window (escape hatch for custom plans).
    pub fn window(mut self, window: FaultWindow) -> Self {
        assert!(window.start.0 >= 0.0 && window.duration.0 >= 0.0, "invalid fault window");
        self.windows.push(window);
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultProfile {
        FaultProfile { windows: self.windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let p = FaultProfile::builder()
            .outage(CdnName::A, Seconds(10.0), Seconds(5.0))
            .build();
        assert!(!p.outage_active(CdnName::A, Seconds(9.999)));
        assert!(p.outage_active(CdnName::A, Seconds(10.0)));
        assert!(p.outage_active(CdnName::A, Seconds(14.999)));
        assert!(!p.outage_active(CdnName::A, Seconds(15.0)));
    }

    #[test]
    fn global_windows_hit_every_cdn() {
        let p = FaultProfile::builder().global_outage(Seconds(0.0), Seconds(1.0)).build();
        for cdn in [CdnName::A, CdnName::B, CdnName::E] {
            assert!(p.outage_active(cdn, Seconds(0.5)));
        }
    }

    #[test]
    fn degradation_factors_multiply_and_floor() {
        let p = FaultProfile::builder()
            .degrade(CdnName::A, Seconds(0.0), Seconds(10.0), 0.5)
            .degrade(CdnName::A, Seconds(5.0), Seconds(10.0), 0.4)
            .build();
        assert_eq!(p.throughput_factor(CdnName::A, Seconds(1.0)), 0.5);
        assert!((p.throughput_factor(CdnName::A, Seconds(6.0)) - 0.2).abs() < 1e-12);
        assert_eq!(p.throughput_factor(CdnName::A, Seconds(20.0)), 1.0);
        assert_eq!(p.throughput_factor(CdnName::B, Seconds(6.0)), 1.0);
    }

    #[test]
    fn inactive_probabilistic_faults_do_not_touch_the_rng() {
        let p = FaultProfile::builder()
            .origin_errors(CdnName::A, Seconds(100.0), Seconds(10.0), 0.9)
            .build();
        let mut rng = Rng::seed_from(1);
        let before = rng.clone();
        assert!(!p.origin_error(CdnName::A, Seconds(0.0), &mut rng));
        assert!(!p.manifest_failure(CdnName::A, Seconds(105.0), &mut rng));
        assert_eq!(rng, before, "no active window may consume RNG state");
        // Active window does draw.
        let _ = p.origin_error(CdnName::A, Seconds(105.0), &mut rng);
        assert_ne!(rng, before);
    }

    #[test]
    fn identical_seeds_replay_identical_incidents() {
        let p = FaultProfile::flaky_origin(CdnName::C);
        let draws = |seed: u64| {
            let mut rng = Rng::seed_from(seed);
            (0..500)
                .map(|i| p.origin_error(CdnName::C, Seconds(i as f64), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert!(draws(42).iter().any(|&b| b), "flaky origin must fire sometimes");
    }

    #[test]
    fn flushes_fire_once_per_crossing() {
        let p = FaultProfile::builder().flush(CdnName::A, Seconds(300.0)).build();
        assert!(!p.cache_flush_between(CdnName::A, Seconds(0.0), Seconds(299.9)));
        assert!(p.cache_flush_between(CdnName::A, Seconds(299.9), Seconds(300.0)));
        assert!(!p.cache_flush_between(CdnName::A, Seconds(300.0), Seconds(400.0)));
        assert!(!p.cache_flush_between(CdnName::B, Seconds(0.0), Seconds(1000.0)));
    }

    #[test]
    fn presets_have_sane_shapes() {
        let brownout = FaultProfile::cdn_brownout(CdnName::A);
        assert!(brownout.outage_active(CdnName::A, Seconds(800.0)));
        assert!(!brownout.outage_active(CdnName::A, Seconds(400.0)));
        assert!(brownout.throughput_factor(CdnName::A, Seconds(400.0)) < 1.0);
        assert!((brownout.horizon().0 - 1500.0).abs() < 1e-9);

        let outage = FaultProfile::regional_outage(CdnName::B);
        assert!(outage.outage_active(CdnName::B, Seconds(1000.0)));
        assert!(FaultProfile::flaky_origin(CdnName::C).horizon().0 >= 1800.0);
        assert!(FaultProfile::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn invalid_degrade_factor_panics() {
        let _ = FaultProfile::builder().degrade(CdnName::A, Seconds(0.0), Seconds(1.0), 1.5);
    }

    #[test]
    fn region_scoped_windows_miss_other_regions_but_hit_blind_callers() {
        let p = FaultProfile::builder()
            .outage(CdnName::A, Seconds(0.0), Seconds(100.0))
            .in_region(2)
            .build();
        // Region-aware queries respect the scope.
        assert!(p.outage_active_in(CdnName::A, Some(2), Seconds(50.0)));
        assert!(!p.outage_active_in(CdnName::A, Some(1), Seconds(50.0)));
        assert!(!p.outage_active_in(CdnName::B, Some(2), Seconds(50.0)));
        // Region-blind queries conservatively match scoped windows.
        assert!(p.outage_active(CdnName::A, Seconds(50.0)));
    }

    #[test]
    fn region_scoped_rates_do_not_touch_rng_elsewhere() {
        let p = FaultProfile::builder()
            .origin_errors(CdnName::A, Seconds(0.0), Seconds(100.0), 0.9)
            .in_region(0)
            .build();
        let mut rng = Rng::seed_from(3);
        let before = rng.clone();
        assert!(!p.origin_error_in(CdnName::A, Some(1), Seconds(50.0), &mut rng));
        assert_eq!(rng, before, "mismatched region must not consume RNG state");
        let _ = p.origin_error_in(CdnName::A, Some(0), Seconds(50.0), &mut rng);
        assert_ne!(rng, before);
    }

    #[test]
    fn shifted_moves_every_window_and_preserves_shape() {
        let base = FaultProfile::cdn_brownout(CdnName::B);
        let moved = base.shifted(Seconds(600.0));
        assert_eq!(moved.windows().len(), base.windows().len());
        assert!((moved.horizon().0 - (base.horizon().0 + 600.0)).abs() < 1e-9);
        assert!(!moved.outage_active(CdnName::B, Seconds(800.0)));
        assert!(moved.outage_active(CdnName::B, Seconds(1400.0)));
        // Zero shift is the identity.
        assert_eq!(base.shifted(Seconds::ZERO), base);
    }
}
