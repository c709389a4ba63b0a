//! Origin shield with request coalescing.
//!
//! During a synchronized live event every viewer wants the *same* chunk in
//! the *same* few seconds. Without protection, N edges (or N requests
//! racing through one cold edge) translate into N identical origin
//! fetches — the classic cache-stampede that melts an origin exactly when
//! it matters most. An origin shield sits between the edge tier and the
//! origin and *coalesces*: the first miss for a chunk becomes the single
//! origin fetch (the **leader**); every further miss for the same chunk
//! while that fetch is in flight waits on the leader and receives the
//! byte-identical payload (**coalesced**).
//!
//! The simulation replays sessions sequentially, so "in flight" is modeled
//! on the virtual clock: a leader fetch started at time `t` covers all
//! requests for the same key whose clock falls in the same coalescing
//! window, even though the sequential replay has long since completed the
//! leader's session. Callers must consult the shield *before* the edge
//! cache — in a sequential replay the edge fills instantly after the
//! leader, which would otherwise hide every coalescing opportunity.
//!
//! Payloads are deterministic digests of the chunk key, so tests can
//! assert the coalescing invariant the real system cares about: a
//! coalesced response is byte-identical to what a dedicated origin fetch
//! would have returned.

use std::collections::HashMap;
use vmp_core::units::Seconds;

/// How a chunk request resolved at the shield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShieldOutcome {
    /// First miss in the window: this request performs the origin fetch.
    Leader,
    /// A leader fetch for the same chunk is in flight; this request waits
    /// and shares its payload instead of hitting the origin.
    Coalesced,
}

/// Per-CDN origin shield state.
#[derive(Debug)]
pub struct OriginShield {
    /// Width of the coalescing window (virtual seconds) — the modeled
    /// in-flight time of an origin fetch.
    window: Seconds,
    /// key → window bucket of the most recent leader fetch.
    inflight: HashMap<u64, u64>,
    origin_fetches: u64,
    coalesced: u64,
    obs_coalesced: vmp_obs::Counter,
}

impl OriginShield {
    /// A shield whose origin fetches are considered in flight for
    /// `window` virtual seconds.
    pub fn new(window: Seconds) -> OriginShield {
        OriginShield {
            window: Seconds(window.0.max(f64::MIN_POSITIVE)),
            inflight: HashMap::new(),
            origin_fetches: 0,
            coalesced: 0,
            obs_coalesced: vmp_obs::counter("cdn.coalesced"),
        }
    }

    /// Resolves a miss for `key` at virtual time `now`. Exactly one
    /// request per (key, window) becomes the [`ShieldOutcome::Leader`];
    /// the rest coalesce onto it.
    pub fn request(&mut self, key: u64, now: Seconds) -> ShieldOutcome {
        if self.coalesce(key, now) {
            ShieldOutcome::Coalesced
        } else {
            self.begin_fetch(key, now);
            ShieldOutcome::Leader
        }
    }

    /// Returns `true` (and counts a coalesced request) when a leader fetch
    /// for `key` is already in flight at `now`. Callers consult this
    /// *before* the edge cache: in a sequential replay the edge fills the
    /// instant the leader completes, which would otherwise hide every
    /// request that in real time would have raced the leader's fetch.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the clock is clamped at 0; window numbers fit a u64"
    )]
    pub fn coalesce(&mut self, key: u64, now: Seconds) -> bool {
        let bucket = (now.0.max(0.0) / self.window.0) as u64;
        if self.inflight.get(&key) == Some(&bucket) {
            self.coalesced += 1;
            self.obs_coalesced.inc();
            true
        } else {
            false
        }
    }

    /// Registers an origin fetch for `key` starting at `now`: this request
    /// is the leader that later misses in the same window coalesce onto.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the clock is clamped at 0; window numbers fit a u64"
    )]
    pub fn begin_fetch(&mut self, key: u64, now: Seconds) {
        let bucket = (now.0.max(0.0) / self.window.0) as u64;
        self.inflight.insert(key, bucket);
        self.origin_fetches += 1;
    }

    /// The payload the origin returns for `key` — a deterministic digest
    /// standing in for the chunk bytes. Leaders and coalesced followers
    /// both read their payload through this, which is what makes the
    /// byte-identity invariant checkable.
    pub fn payload(key: u64) -> u64 {
        // FNV-1a over the key's little-endian bytes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Origin fetches actually performed (leaders only).
    pub fn origin_fetches(&self) -> u64 {
        self.origin_fetches
    }

    /// Requests that coalesced onto an in-flight fetch.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_leader_per_key_per_window() {
        let mut shield = OriginShield::new(Seconds(4.0));
        assert_eq!(shield.request(42, Seconds(0.5)), ShieldOutcome::Leader);
        assert_eq!(shield.request(42, Seconds(1.0)), ShieldOutcome::Coalesced);
        assert_eq!(shield.request(42, Seconds(3.9)), ShieldOutcome::Coalesced);
        // New window → the fetch is no longer in flight → new leader.
        assert_eq!(shield.request(42, Seconds(4.1)), ShieldOutcome::Leader);
        assert_eq!(shield.origin_fetches(), 2);
        assert_eq!(shield.coalesced(), 2);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let mut shield = OriginShield::new(Seconds(4.0));
        assert_eq!(shield.request(1, Seconds(0.0)), ShieldOutcome::Leader);
        assert_eq!(shield.request(2, Seconds(0.0)), ShieldOutcome::Leader);
        assert_eq!(shield.coalesced(), 0);
    }

    #[test]
    fn payload_is_deterministic_and_key_dependent() {
        assert_eq!(OriginShield::payload(7), OriginShield::payload(7));
        assert_ne!(OriginShield::payload(7), OriginShield::payload(8));
    }

    #[test]
    fn storm_of_simultaneous_misses_costs_one_origin_fetch() {
        let mut shield = OriginShield::new(Seconds(4.0));
        let leaders = (0..500)
            .filter(|_| shield.request(99, Seconds(2.0)) == ShieldOutcome::Leader)
            .count();
        assert_eq!(leaders, 1);
        assert_eq!(shield.origin_fetches(), 1);
        assert_eq!(shield.coalesced(), 499);
    }
}
