//! The observable wrapper around a [`FaultProfile`].
//!
//! [`FaultInjector`] answers the same pure queries as the profile but
//! counts every injected fault into `vmp-obs` (`faults.injected` plus a
//! per-kind breakdown), so a `--metrics` dump shows how often each kind of
//! incident hit a session; the incident windows themselves are the static
//! [`FaultProfile::windows`]. Counting is lock-free and never touches the
//! RNG, so observability does not perturb determinism.

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_stats::Rng;

use crate::profile::FaultProfile;

/// A fault profile wired into the metrics registry.
pub struct FaultInjector {
    profile: FaultProfile,
    injected: vmp_obs::Counter,
    outages: vmp_obs::Counter,
    degraded: vmp_obs::Counter,
    origin_errors: vmp_obs::Counter,
    manifest_failures: vmp_obs::Counter,
    cache_flushes: vmp_obs::Counter,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector").field("profile", &self.profile).finish()
    }
}

impl FaultInjector {
    /// Wraps a profile.
    pub fn new(profile: FaultProfile) -> FaultInjector {
        FaultInjector {
            profile,
            injected: vmp_obs::counter("faults.injected"),
            outages: vmp_obs::counter("faults.outage_hits"),
            degraded: vmp_obs::counter("faults.degraded_hits"),
            origin_errors: vmp_obs::counter("faults.origin_errors"),
            manifest_failures: vmp_obs::counter("faults.manifest_failures"),
            cache_flushes: vmp_obs::counter("faults.cache_flushes"),
        }
    }

    /// The wrapped plan.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether a hard outage of `cdn` is active at `t`; counted when it is.
    pub fn outage(&self, cdn: CdnName, t: Seconds) -> bool {
        self.outage_in(cdn, None, t)
    }

    /// Region-scoped variant of [`outage`](Self::outage).
    pub fn outage_in(&self, cdn: CdnName, region: Option<usize>, t: Seconds) -> bool {
        let hit = self.profile.outage_active_in(cdn, region, t);
        if hit {
            self.injected.inc();
            self.outages.inc();
        }
        hit
    }

    /// Throughput multiplier for `cdn` at `t`; counted when degraded.
    pub fn throughput_factor(&self, cdn: CdnName, t: Seconds) -> f64 {
        self.throughput_factor_in(cdn, None, t)
    }

    /// Region-scoped variant of [`throughput_factor`](Self::throughput_factor).
    pub fn throughput_factor_in(&self, cdn: CdnName, region: Option<usize>, t: Seconds) -> f64 {
        let factor = self.profile.throughput_factor_in(cdn, region, t);
        if factor < 1.0 {
            self.injected.inc();
            self.degraded.inc();
        }
        factor
    }

    /// Whether an origin fetch fails at `t`; counted when it does.
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
        let hit = self.profile.origin_error_in(cdn, region, t, rng);
        if hit {
            self.injected.inc();
            self.origin_errors.inc();
        }
        hit
    }

    /// Whether a manifest fetch fails at `t`; counted when it does.
    pub fn manifest_failure(&self, cdn: CdnName, t: Seconds, rng: &mut Rng) -> bool {
        let hit = self.profile.manifest_failure(cdn, t, rng);
        if hit {
            self.injected.inc();
            self.manifest_failures.inc();
        }
        hit
    }

    /// Whether an edge flush fires in `(since, until]`; counted when it does.
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
        let hit = self.profile.cache_flush_between_in(cdn, region, since, until);
        if hit {
            self.injected.inc();
            self.cache_flushes.inc();
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_counts_and_matches_profile() {
        let profile = FaultProfile::builder()
            .outage(CdnName::A, Seconds(10.0), Seconds(10.0))
            .degrade(CdnName::B, Seconds(0.0), Seconds(5.0), 0.5)
            .build();
        let inj = FaultInjector::new(profile.clone());
        assert_eq!(inj.outage(CdnName::A, Seconds(15.0)), profile.outage_active(CdnName::A, Seconds(15.0)));
        assert!(inj.outage(CdnName::A, Seconds(15.0)));
        assert!(!inj.outage(CdnName::B, Seconds(15.0)));
        assert_eq!(inj.throughput_factor(CdnName::B, Seconds(1.0)), 0.5);
        assert_eq!(inj.throughput_factor(CdnName::B, Seconds(9.0)), 1.0);
    }

    #[test]
    fn probabilistic_queries_forward_rng_draws() {
        let profile = FaultProfile::builder()
            .origin_errors(CdnName::C, Seconds(0.0), Seconds(100.0), 1.0)
            .build();
        let inj = FaultInjector::new(profile);
        let mut rng = Rng::seed_from(4);
        assert!(inj.origin_error(CdnName::C, Seconds(1.0), &mut rng));
        assert!(!inj.origin_error(CdnName::C, Seconds(200.0), &mut rng));
    }
}
