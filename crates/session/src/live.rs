//! Live-event playback state: the sliding window and the surge-protection
//! layer of the delivery path.
//!
//! A live event changes the shape of the workload in three correlated ways
//! that VoD never exhibits:
//!
//! 1. **Everyone wants the same bytes.** Chunk keys derive from the event's
//!    *media sequence* (the `#EXT-X-MEDIA-SEQUENCE` counter of a sliding
//!    live playlist, computed here from the clock; no playlist is written),
//!    not from a per-session chunk index, so ten thousand
//!    viewers at the live edge request the *same* chunk in the same few
//!    seconds — synchronized request phases.
//! 2. **The live edge paces everyone.** A chunk does not exist until the
//!    encoder publishes it; a player that drains its buffer waits at the
//!    live edge for the next publish instead of racing ahead.
//! 3. **Arrivals are correlated.** Viewers join in a storm around the
//!    event start (modeled in `vmp-synth`), not as a memoryless trickle.
//!
//! [`LiveWindow`] carries the event timeline into the player, and a
//! [`SurgeLayer`] passed to [`infrastructure_fn`](crate::player::infrastructure_fn)
//! switches on the overload-protection stages from `vmp-cdn`: admission
//! control ([`EdgeCapacity`]) and origin-shield coalescing
//! ([`OriginShield`]) — the shared retry budget is wired separately through
//! [`MultiCdnContext::retry_budget`](crate::player::MultiCdnContext).

use std::collections::BTreeMap;
use vmp_cdn::capacity::EdgeCapacity;
use vmp_cdn::shield::OriginShield;
use vmp_core::cdn::CdnName;
use vmp_core::units::{Kbps, Seconds};

/// The shared timeline of one live event: when it starts, how fast the
/// encoder publishes, and how many segments the manifest window advertises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveWindow {
    /// Virtual-clock time the event (and media sequence 0) starts.
    pub event_start: Seconds,
    /// Publish cadence: one segment every `chunk_duration`.
    pub chunk_duration: Seconds,
    /// Segments advertised by the sliding manifest window.
    pub window_size: u32,
    /// Distinguishes this event's chunk keys from every other content in
    /// the shared edge caches.
    pub salt: u64,
}

impl LiveWindow {
    /// A window for an event starting at `event_start` with a 4-second
    /// cadence and a 6-segment manifest window.
    pub fn new(event_start: Seconds, salt: u64) -> LiveWindow {
        LiveWindow { event_start, chunk_duration: Seconds(4.0), window_size: 6, salt }
    }

    /// The live-edge media sequence at `clock`: the segment currently
    /// being produced, which a viewer joining now targets first (waiting
    /// out its [`publish_time`](LiveWindow::publish_time) if the encoder
    /// has not finished it). Before the event starts this is sequence 0.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative elapsed time; `as` saturates"
    )]
    pub fn sequence_at(&self, clock: Seconds) -> u64 {
        let elapsed = clock.0 - self.event_start.0;
        if elapsed <= 0.0 {
            0
        } else {
            (elapsed / self.chunk_duration.0) as u64
        }
    }

    /// Oldest media sequence still inside the sliding manifest window at
    /// `clock`. A viewer who falls further behind than this has slid out of
    /// the window and must jump forward.
    pub fn oldest_at(&self, clock: Seconds) -> u64 {
        self.sequence_at(clock).saturating_sub(self.window_size.max(1) as u64 - 1)
    }

    /// When segment `sequence` becomes available to fetch.
    pub fn publish_time(&self, sequence: u64) -> Seconds {
        Seconds(self.event_start.0 + (sequence + 1) as f64 * self.chunk_duration.0)
    }

    /// The chunk key every viewer at `sequence` requests for `bitrate` —
    /// shared across sessions, which is what makes live request phases
    /// synchronized at the edge.
    pub fn chunk_key(&self, sequence: u64, bitrate: Kbps) -> u64 {
        sequence ^ (bitrate.0 as u64) << 40 ^ self.salt
    }
}

/// The per-CDN overload-protection state shared by every session in a
/// surge cohort: admission control in front of the edges and an origin
/// shield behind them.
#[derive(Debug)]
pub struct SurgeLayer {
    /// Admission control per CDN.
    pub capacity: BTreeMap<CdnName, EdgeCapacity>,
    /// Origin shield per CDN.
    pub shields: BTreeMap<CdnName, OriginShield>,
}

impl SurgeLayer {
    /// Total requests shed across all CDNs.
    pub fn total_shed(&self) -> u64 {
        self.capacity.values().map(|c| c.shed()).sum()
    }

    /// Total coalesced origin requests across all CDNs.
    pub fn total_coalesced(&self) -> u64 {
        self.shields.values().map(|s| s.coalesced()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> LiveWindow {
        LiveWindow::new(Seconds(100.0), 0xE4E47)
    }

    #[test]
    fn live_edge_advances_with_the_clock() {
        let lw = window();
        assert_eq!(lw.sequence_at(Seconds(0.0)), 0, "pre-event viewers wait for sequence 0");
        assert_eq!(lw.sequence_at(Seconds(100.0)), 0);
        assert_eq!(lw.sequence_at(Seconds(104.5)), 1);
        assert_eq!(lw.sequence_at(Seconds(140.0)), 10);
        assert_eq!(lw.publish_time(0), Seconds(104.0));
        assert_eq!(lw.publish_time(9), Seconds(140.0));
    }

    #[test]
    fn sliding_window_tracks_the_edge() {
        let lw = window();
        assert_eq!(lw.oldest_at(Seconds(100.0)), 0, "window not yet full");
        // At sequence 10 the 6-wide window spans [5, 10].
        assert_eq!(lw.oldest_at(Seconds(140.0)), 5);
    }

    #[test]
    fn chunk_keys_are_shared_across_viewers_but_not_bitrates() {
        let lw = window();
        assert_eq!(lw.chunk_key(3, Kbps(800)), lw.chunk_key(3, Kbps(800)));
        assert_ne!(lw.chunk_key(3, Kbps(800)), lw.chunk_key(3, Kbps(1600)));
        assert_ne!(lw.chunk_key(3, Kbps(800)), lw.chunk_key(4, Kbps(800)));
        let other_event = LiveWindow::new(Seconds(100.0), 0xBEEF);
        assert_ne!(lw.chunk_key(3, Kbps(800)), other_event.chunk_key(3, Kbps(800)));
    }
}
