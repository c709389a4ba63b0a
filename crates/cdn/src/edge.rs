//! Edge caches: LRU caches in front of the origin.
//!
//! The playback simulator asks an edge for each chunk; a miss adds an
//! origin round trip to the chunk's time-to-first-byte and fills the cache.
//! Popularity-skewed catalogues therefore get realistic hit ratios without
//! any hand-tuned "cache hit probability" constant.

use crate::error::FetchError;
use std::collections::HashMap;
use vmp_core::units::Bytes;

/// Result of an edge lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the edge.
    Hit,
    /// Fetched from the origin and filled.
    Miss,
}

/// A single LRU edge cache keyed by opaque chunk keys.
pub struct EdgeCache {
    capacity: Bytes,
    used: Bytes,
    /// key → (size, last-use tick)
    entries: HashMap<u64, (Bytes, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Cached global-registry handles; resolved once per cache so the
    /// per-chunk path stays lock-free.
    obs_hits: vmp_obs::Counter,
    obs_misses: vmp_obs::Counter,
    obs_evictions: vmp_obs::Counter,
}

impl std::fmt::Debug for EdgeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCache")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl EdgeCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity: Bytes) -> EdgeCache {
        EdgeCache {
            capacity,
            used: Bytes::ZERO,
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            obs_hits: vmp_obs::counter("cdn.cache_hits"),
            obs_misses: vmp_obs::counter("cdn.cache_misses"),
            obs_evictions: vmp_obs::counter("cdn.cache_evictions"),
        }
    }

    /// Looks up `key`; on a miss, admits it with `size`, evicting
    /// least-recently-used entries as needed. Objects larger than the whole
    /// cache are served origin-direct (counted as misses, never admitted).
    pub fn fetch(&mut self, key: u64, size: Bytes) -> CacheOutcome {
        self.clock += 1;
        if let Some((_, last_use)) = self.entries.get_mut(&key) {
            *last_use = self.clock;
            self.hits += 1;
            self.obs_hits.inc();
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        self.obs_misses.inc();
        if size > self.capacity {
            return CacheOutcome::Miss;
        }
        while self.used + size > self.capacity {
            self.evict_lru();
        }
        self.entries.insert(key, (size, self.clock));
        self.used += size;
        CacheOutcome::Miss
    }

    fn evict_lru(&mut self) {
        if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, t))| *t) {
            if let Some((size, _)) = self.entries.remove(&victim) {
                self.used = self.used.saturating_sub(size);
                self.obs_evictions.inc();
            }
        } else {
            // Nothing to evict; avoid infinite loop (can't happen while
            // size <= capacity, defensive only).
            self.used = Bytes::ZERO;
        }
    }

    /// Bytes currently cached.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit ratio in [0, 1]; 0 when nothing was fetched.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops every cached object (an injected edge-cache flush: node
    /// restart, config push, cache poisoning remediation). Hit/miss
    /// counters are preserved; subsequent fetches miss until refilled.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.used = Bytes::ZERO;
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A cluster of edges for one CDN (one edge per region index).
#[derive(Debug)]
pub struct EdgeCluster {
    edges: Vec<EdgeCache>,
}

impl EdgeCluster {
    /// Creates `n` edges of `capacity` each.
    pub fn new(n: usize, capacity: Bytes) -> EdgeCluster {
        EdgeCluster { edges: (0..n).map(|_| EdgeCache::new(capacity)).collect() }
    }

    /// Fetches from the edge serving `region_index`.
    ///
    /// A region index outside the cluster is a caller bug and returns
    /// [`FetchError::RegionOutOfRange`] — it is never silently wrapped
    /// modulo the cluster size, which used to mask routing-table mistakes.
    pub fn fetch(
        &mut self,
        region_index: usize,
        key: u64,
        size: Bytes,
    ) -> Result<CacheOutcome, FetchError> {
        let n = self.edges.len();
        if region_index >= n {
            return Err(FetchError::RegionOutOfRange { region: region_index, edges: n });
        }
        Ok(self.edges[region_index].fetch(key, size))
    }

    /// Flushes every edge in the cluster (an injected CDN-wide cache
    /// flush).
    pub fn flush_all(&mut self) {
        for e in &mut self.edges {
            e.flush();
        }
    }

    /// Aggregate hit ratio across edges.
    pub fn hit_ratio(&self) -> f64 {
        let (mut h, mut m) = (0u64, 0u64);
        for e in &self.edges {
            let (eh, em) = e.stats();
            h += eh;
            m += em;
        }
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the cluster has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut c = EdgeCache::new(Bytes(100));
        assert_eq!(c.fetch(1, Bytes(10)), CacheOutcome::Miss);
        assert_eq!(c.fetch(1, Bytes(10)), CacheOutcome::Hit);
        assert_eq!(c.stats(), (1, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = EdgeCache::new(Bytes(30));
        c.fetch(1, Bytes(10));
        c.fetch(2, Bytes(10));
        c.fetch(3, Bytes(10));
        // Touch 1 so 2 becomes LRU.
        c.fetch(1, Bytes(10));
        // Admitting 4 evicts 2.
        c.fetch(4, Bytes(10));
        assert_eq!(c.fetch(2, Bytes(10)), CacheOutcome::Miss);
        assert_eq!(c.fetch(1, Bytes(10)), CacheOutcome::Hit);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = EdgeCache::new(Bytes(25));
        for k in 0..100 {
            c.fetch(k, Bytes(10));
            assert!(c.used() <= Bytes(25));
            assert!(c.len() <= 2);
        }
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let mut c = EdgeCache::new(Bytes(5));
        assert_eq!(c.fetch(1, Bytes(10)), CacheOutcome::Miss);
        assert_eq!(c.fetch(1, Bytes(10)), CacheOutcome::Miss);
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn skewed_workload_gets_high_hit_ratio() {
        let mut c = EdgeCache::new(Bytes(100));
        // 10 hot objects fit; 1000 accesses mostly to them.
        for i in 0..1000u64 {
            let key = if i % 10 < 9 { i % 10 } else { 100 + i };
            c.fetch(key, Bytes(10));
        }
        assert!(c.hit_ratio() > 0.8, "hit ratio {}", c.hit_ratio());
    }

    #[test]
    fn cluster_routes_by_region() {
        let mut cl = EdgeCluster::new(3, Bytes(100));
        cl.fetch(0, 1, Bytes(10)).unwrap();
        // Same key, different region → different edge → miss.
        assert_eq!(cl.fetch(1, 1, Bytes(10)), Ok(CacheOutcome::Miss));
        // Same region → hit.
        assert_eq!(cl.fetch(0, 1, Bytes(10)), Ok(CacheOutcome::Hit));
        assert_eq!(cl.len(), 3);
        assert!(cl.hit_ratio() > 0.0);
    }

    #[test]
    fn out_of_range_region_is_a_typed_error() {
        let mut cl = EdgeCluster::new(3, Bytes(100));
        assert_eq!(
            cl.fetch(3, 1, Bytes(10)),
            Err(FetchError::RegionOutOfRange { region: 3, edges: 3 })
        );
        // An empty cluster rejects every region instead of panicking.
        let mut empty = EdgeCluster::new(0, Bytes(100));
        assert_eq!(
            empty.fetch(0, 1, Bytes(10)),
            Err(FetchError::RegionOutOfRange { region: 0, edges: 0 })
        );
    }

    #[test]
    fn flush_forces_misses_but_keeps_stats() {
        let mut cl = EdgeCluster::new(2, Bytes(100));
        cl.fetch(0, 1, Bytes(10)).unwrap();
        assert_eq!(cl.fetch(0, 1, Bytes(10)), Ok(CacheOutcome::Hit));
        cl.flush_all();
        assert_eq!(cl.fetch(0, 1, Bytes(10)), Ok(CacheOutcome::Miss));
        // 1 hit, 2 misses survive the flush.
        assert!((cl.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }
}
