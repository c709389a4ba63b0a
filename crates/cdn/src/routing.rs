//! Edge selection: DNS/consistent-hash mapping vs BGP anycast.
//!
//! §4.3 observes that one of the top three CDNs uses anycast, and that
//! anycast is susceptible to BGP route changes that sever ongoing TCP
//! connections — yet this has not blocked reliable video delivery (chunked
//! transfers are short). The model captures exactly that: anycast adds a
//! small per-chunk probability of a connection reset (costing one extra
//! round trip), while DNS mapping is stable.

use vmp_core::cdn::{CdnName, RoutingScheme};
use vmp_core::ids::EdgeId;
use vmp_stats::Rng;

/// Consistent-hash ring mapping client keys to edges.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (point, edge) pairs sorted by point.
    points: Vec<(u64, EdgeId)>,
}

impl HashRing {
    /// Builds a ring with `edges` edges and `replicas` virtual nodes each.
    #[expect(clippy::cast_possible_truncation, reason = "edge counts are far below u32::MAX")]
    pub fn new(edges: usize, replicas: usize) -> HashRing {
        assert!(edges > 0 && replicas > 0, "ring needs edges and replicas");
        let mut points = Vec::with_capacity(edges * replicas);
        for e in 0..edges {
            for r in 0..replicas {
                points.push((hash64((e as u64) << 32 | r as u64), EdgeId::new(e as u32)));
            }
        }
        points.sort();
        points.dedup_by_key(|(p, _)| *p);
        HashRing { points }
    }

    /// The edge responsible for a client key.
    pub fn route(&self, client_key: u64) -> EdgeId {
        let h = hash64(client_key);
        match self.points.binary_search_by_key(&h, |(p, _)| *p) {
            // Past the last point the ring wraps to the first.
            Ok(i) | Err(i) => self.points[i % self.points.len()].1,
        }
    }

    /// Number of distinct ring points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// SplitMix64-style avalanche hash.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Per-chunk connection events produced by the routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Which edge serves the chunk.
    pub edge: EdgeId,
    /// Whether an anycast route flap reset the connection mid-transfer
    /// (costs one reconnect round trip in the session simulator).
    pub connection_reset: bool,
}

/// Routing model for one CDN.
#[derive(Debug, Clone)]
pub struct Router {
    scheme: RoutingScheme,
    ring: HashRing,
    /// Per-chunk probability of an anycast route flap.
    flap_probability: f64,
}

impl Router {
    /// Builds the router for a CDN with `edges` edge clusters.
    pub fn for_cdn(cdn: CdnName, edges: usize) -> Router {
        let scheme = RoutingScheme::for_cdn(cdn);
        Router {
            scheme,
            ring: HashRing::new(edges.max(1), 16),
            // Measured anycast prefix-shift rates are small; one flap per
            // ~2000 chunk downloads keeps the §4.3 observation visible
            // without dominating QoE.
            flap_probability: match scheme {
                RoutingScheme::Anycast => 5e-4,
                RoutingScheme::DnsUnicast => 0.0,
            },
        }
    }

    /// The routing scheme in use.
    pub fn scheme(&self) -> RoutingScheme {
        self.scheme
    }

    /// Routes one chunk request for a client.
    pub fn route_chunk(&self, client_key: u64, rng: &mut Rng) -> RouteDecision {
        match self.scheme {
            RoutingScheme::DnsUnicast => {
                RouteDecision { edge: self.ring.route(client_key), connection_reset: false }
            }
            RoutingScheme::Anycast => {
                let reset = rng.chance(self.flap_probability);
                // Anycast: routing, not DNS, picks the edge; a flap may move
                // the client to a different edge.
                let key = if reset { client_key.wrapping_add(1) } else { client_key };
                RouteDecision { edge: self.ring.route(key), connection_reset: reset }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_balanced() {
        let ring = HashRing::new(8, 64);
        let mut counts = vec![0u32; 8];
        for k in 0..8000u64 {
            let e = ring.route(k);
            assert_eq!(e, ring.route(k));
            counts[e.index()] += 1;
        }
        // Each of 8 edges should get roughly 1000 (±50%).
        for c in counts {
            assert!((500..1500).contains(&c), "imbalanced: {c}");
        }
    }

    #[test]
    fn ring_stability_under_growth() {
        // Consistent hashing: adding an edge should move only ~1/n of keys.
        let small = HashRing::new(8, 64);
        let large = HashRing::new(9, 64);
        let moved = (0..10_000u64)
            .filter(|k| {
                let a = small.route(*k);
                let b = large.route(*k);
                // Keys mapping to the *new* edge are expected to move.
                a != b && b != EdgeId::new(8)
            })
            .count();
        // Collisions between re-hashed points move a few extra keys; the
        // point is that nothing like a full reshuffle (≈ 8/9 of keys) happens.
        assert!(moved < 2_000, "too many keys moved: {moved}");
    }

    #[test]
    fn unicast_never_resets() {
        let r = Router::for_cdn(CdnName::A, 8);
        assert_eq!(r.scheme(), RoutingScheme::DnsUnicast);
        let mut rng = Rng::seed_from(1);
        for k in 0..2000 {
            assert!(!r.route_chunk(k, &mut rng).connection_reset);
        }
    }

    #[test]
    fn anycast_resets_rarely_but_nonzero() {
        let r = Router::for_cdn(CdnName::B, 8);
        assert_eq!(r.scheme(), RoutingScheme::Anycast);
        let mut rng = Rng::seed_from(2);
        let resets = (0..100_000)
            .filter(|k| r.route_chunk(*k, &mut rng).connection_reset)
            .count();
        // Expect ≈ 50 at p = 5e-4.
        assert!((10..200).contains(&resets), "resets {resets}");
    }

    #[test]
    #[should_panic(expected = "ring needs")]
    fn empty_ring_panics() {
        HashRing::new(0, 4);
    }
}
