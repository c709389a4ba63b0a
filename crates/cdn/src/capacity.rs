//! Per-edge capacity model with admission control / load shedding.
//!
//! A flash crowd concentrates correlated requests onto a handful of edges;
//! a real edge has a finite request-service rate and protects itself by
//! shedding load rather than queueing into collapse. [`EdgeCapacity`]
//! models that: virtual time is quantized into accounting buckets and each
//! edge admits at most `capacity × bucket` requests per bucket.
//!
//! The shedding policy implements a *priority floor*: new joins may only
//! use a configured fraction of the bucket (`join_headroom`), so when the
//! edge saturates, sessions already in progress keep streaming while new
//! joins are shed first — degrading the tail of the queue, not everyone at
//! once. A shed request surfaces as the typed
//! [`FetchError::Shed`](crate::error::FetchError), which the player treats
//! like any other retryable failure (backoff, then failover).
//!
//! The simulation replays sessions sequentially, so requests arrive in
//! session order rather than global time order; counts are therefore kept
//! per bucket in a map instead of a single rolling window, making the
//! admission decision deterministic in simulation order.

use std::collections::BTreeMap;
use vmp_core::units::Seconds;

/// Tuning for one CDN's edge capacity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityConfig {
    /// Sustainable request rate per edge (requests per virtual second).
    pub per_edge_rps: f64,
    /// Accounting bucket width (virtual seconds).
    pub bucket: Seconds,
    /// Fraction of a bucket's capacity that *new joins* may consume, in
    /// `(0, 1]`. In-progress sessions may use the full bucket, so they
    /// outrank joins whenever the edge runs hot.
    pub join_headroom: f64,
}

impl Default for CapacityConfig {
    fn default() -> CapacityConfig {
        CapacityConfig { per_edge_rps: 50.0, bucket: Seconds(10.0), join_headroom: 0.7 }
    }
}

impl CapacityConfig {
    /// Requests admitted per bucket at full priority.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a rate times a bucket width, floored at 1; `as` saturates"
    )]
    fn bucket_capacity(&self) -> u64 {
        (self.per_edge_rps * self.bucket.0).max(1.0) as u64
    }

    /// Requests admitted per bucket for new joins (the priority floor
    /// reserves the rest for in-progress sessions).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a capacity times headroom, floored at 1; `as` saturates"
    )]
    fn join_capacity(&self) -> u64 {
        ((self.bucket_capacity() as f64) * self.join_headroom).max(1.0) as u64
    }

    /// Validates the tuning.
    pub fn validate(&self) -> Result<(), String> {
        if self.per_edge_rps <= 0.0 {
            return Err("per_edge_rps must be positive".into());
        }
        if self.bucket.0 <= 0.0 {
            return Err("capacity bucket must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.join_headroom) || self.join_headroom == 0.0 {
            return Err("join_headroom must be in (0, 1]".into());
        }
        Ok(())
    }
}

/// Admission control for one CDN's edge cluster (one ledger per region).
pub struct EdgeCapacity {
    config: CapacityConfig,
    /// Per-region, per-bucket admitted-request counts.
    admitted: Vec<BTreeMap<u64, u64>>,
    shed: u64,
    obs_shed: vmp_obs::Counter,
}

impl std::fmt::Debug for EdgeCapacity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCapacity")
            .field("config", &self.config)
            .field("regions", &self.admitted.len())
            .field("shed", &self.shed)
            .finish()
    }
}

impl EdgeCapacity {
    /// A capacity ledger for `regions` edges.
    pub fn new(regions: usize, config: CapacityConfig) -> Result<EdgeCapacity, String> {
        config.validate()?;
        Ok(EdgeCapacity {
            config,
            admitted: (0..regions).map(|_| BTreeMap::new()).collect(),
            shed: 0,
            obs_shed: vmp_obs::counter("cdn.shed"),
        })
    }

    /// Decides whether the edge serving `region` admits a request at
    /// virtual time `now`. `joining` marks a session's first request (its
    /// join); joins are capped at the `join_headroom` fraction of the
    /// bucket while in-progress requests may fill it completely. A refusal
    /// increments the shed counters; the caller surfaces it as
    /// [`FetchError::Shed`](crate::error::FetchError).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the clock is clamped at 0; bucket numbers fit a u64"
    )]
    pub fn admit(&mut self, region: usize, now: Seconds, joining: bool) -> bool {
        let Some(ledger) = self.admitted.get_mut(region) else {
            return true; // untracked region: no capacity opinion
        };
        let bucket = (now.0.max(0.0) / self.config.bucket.0) as u64;
        let count = ledger.entry(bucket).or_insert(0);
        let limit = if joining {
            self.config.join_capacity()
        } else {
            self.config.bucket_capacity()
        };
        if *count < limit {
            *count += 1;
            true
        } else {
            self.shed += 1;
            self.obs_shed.inc();
            false
        }
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Peak admitted requests in any single (region, bucket) cell.
    pub fn peak_bucket_load(&self) -> u64 {
        self.admitted
            .iter()
            .flat_map(|ledger| ledger.values().copied())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity(rps: f64, headroom: f64) -> EdgeCapacity {
        EdgeCapacity::new(
            2,
            CapacityConfig { per_edge_rps: rps, bucket: Seconds(10.0), join_headroom: headroom },
        )
        .unwrap()
    }

    #[test]
    fn admits_until_bucket_capacity() {
        let mut c = capacity(1.0, 1.0); // 10 requests per 10s bucket
        let admitted = (0..15).filter(|_| c.admit(0, Seconds(1.0), false)).count();
        assert_eq!(admitted, 10);
        assert_eq!(c.shed(), 5);
        // The next bucket has fresh capacity.
        assert!(c.admit(0, Seconds(11.0), false));
    }

    #[test]
    fn joins_are_shed_before_in_progress_sessions() {
        let mut c = capacity(1.0, 0.5); // joins capped at 5 of 10
        let joins = (0..10).filter(|_| c.admit(0, Seconds(0.0), true)).count();
        assert_eq!(joins, 5, "joins stop at the priority floor");
        // In-progress sessions still fit in the remaining capacity.
        let streaming = (0..10).filter(|_| c.admit(0, Seconds(0.0), false)).count();
        assert_eq!(streaming, 5);
        assert_eq!(c.shed(), 10);
    }

    #[test]
    fn regions_are_independent() {
        let mut c = capacity(0.1, 1.0); // 1 request per bucket
        assert!(c.admit(0, Seconds(0.0), false));
        assert!(!c.admit(0, Seconds(0.0), false));
        assert!(c.admit(1, Seconds(0.0), false), "other region unaffected");
        // Untracked regions never shed.
        assert!(c.admit(9, Seconds(0.0), false));
    }

    #[test]
    fn out_of_order_arrivals_land_in_their_own_buckets() {
        let mut c = capacity(0.1, 1.0);
        assert!(c.admit(0, Seconds(50.0), false));
        // An earlier-clock session arrives later in simulation order; its
        // bucket is separate and still has room.
        assert!(c.admit(0, Seconds(5.0), false));
        assert!(!c.admit(0, Seconds(52.0), false));
        assert_eq!(c.peak_bucket_load(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(EdgeCapacity::new(1, CapacityConfig { per_edge_rps: 0.0, ..CapacityConfig::default() }).is_err());
        assert!(EdgeCapacity::new(1, CapacityConfig { bucket: Seconds(0.0), ..CapacityConfig::default() }).is_err());
        assert!(EdgeCapacity::new(1, CapacityConfig { join_headroom: 0.0, ..CapacityConfig::default() }).is_err());
        assert!(EdgeCapacity::new(1, CapacityConfig { join_headroom: 1.5, ..CapacityConfig::default() }).is_err());
    }
}
