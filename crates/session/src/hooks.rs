//! Session-completion hooks for streaming consumers.
//!
//! The health plane (`vmp-monitor`) wants to see every finished session *as
//! it finishes*, not in a second pass over collected records. [`SessionEnd`]
//! is the hand-off unit: the full [`SessionOutcome`] plus the serving
//! context only the harness knows (which publisher, which edge region).
//! Anything implementing [`CompletionSink`] can be wired into a cohort loop
//! and fed one completion at a time, in fault-clock order or not — consumers
//! must tolerate out-of-order arrival within a tick, since staggered
//! sessions finish out of order by construction.

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;

use crate::player::{ExitCause, SessionOutcome};

/// One finished session, enriched with serving context.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEnd {
    /// The CDN the broker first assigned — the attribution target when the
    /// session later failed over (a failover away from X is evidence
    /// *against* X, not against the rescuer).
    pub primary_cdn: CdnName,
    /// Edge region index the session was served from, when the harness
    /// tracks regions.
    pub region: Option<usize>,
    /// Serving publisher id, when known.
    pub publisher: Option<u64>,
    /// The complete playback outcome.
    pub outcome: SessionOutcome,
}

impl SessionEnd {
    /// Wraps an outcome, attributing it to the first CDN it used.
    pub fn new(outcome: SessionOutcome) -> SessionEnd {
        let primary_cdn = outcome.cdns.first().copied().unwrap_or(CdnName::A);
        SessionEnd { primary_cdn, region: None, publisher: None, outcome }
    }

    /// Sets the serving region.
    pub fn in_region(mut self, region: usize) -> SessionEnd {
        self.region = Some(region);
        self
    }

    /// Sets the serving publisher.
    pub fn for_publisher(mut self, publisher: u64) -> SessionEnd {
        self.publisher = Some(publisher);
        self
    }

    /// Fault-clock time the session ended.
    pub fn end_clock(&self) -> Seconds {
        self.outcome.end_clock
    }

    /// Whether the session died fatally (retry + failover budgets spent).
    pub fn is_fatal(&self) -> bool {
        self.outcome.exit == ExitCause::FatalCdnFailure
    }

    /// Whether the viewer never saw a frame (fatal exit before any chunk).
    pub fn join_failed(&self) -> bool {
        self.is_fatal() && self.outcome.downloaded.0 == 0.0
    }
}

/// Starts a session-trace scope for a session the harness is about to
/// play, translating the workspace's tag types into the compact dense
/// encodings `vmp-obs` stores. Returns a disarmed no-op scope when
/// session tracing is off.
#[expect(
    clippy::cast_possible_truncation,
    reason = "dense CDN indexes are below 36; regions are clamped below NO_REGION"
)]
pub fn trace_begin(
    session: u64,
    publisher: Option<u64>,
    cdn: Option<CdnName>,
    region: Option<usize>,
    start_clock: Seconds,
) -> vmp_obs::session_trace::SessionScope {
    use vmp_obs::session_trace::{NO_CDN, NO_PUBLISHER, NO_REGION};
    vmp_obs::session_trace::begin(
        session,
        publisher.unwrap_or(NO_PUBLISHER),
        cdn.map_or(NO_CDN, |c| c.dense_index() as u8),
        region.map_or(NO_REGION, |r| r.min(NO_REGION as usize - 1) as u8),
        start_clock.0,
    )
}

/// Completes a trace scope from a finished outcome, offering the session
/// to the tail sampler. The primary-CDN tag follows [`SessionEnd`]'s
/// attribution (first CDN used), and the rebuffer ratio follows the
/// monitor plane's convention: stall time over stall-plus-play time.
#[expect(clippy::cast_possible_truncation, reason = "dense CDN indexes are below 36")]
pub fn trace_finish(scope: vmp_obs::session_trace::SessionScope, outcome: &SessionOutcome) {
    let primary = outcome.cdns.first().map(|c| c.dense_index() as u8);
    let stall = outcome.qoe.rebuffer_time.0;
    let denom = stall + outcome.qoe.played.0;
    let ratio = if denom > 0.0 { stall / denom } else { 0.0 };
    scope.finish_tagged(
        primary,
        outcome.end_clock.0,
        outcome.exit == ExitCause::FatalCdnFailure,
        ratio,
    );
}

/// Receiver of session completions, called once per finished session.
pub trait CompletionSink {
    /// Accepts one completion.
    fn on_session_end(&mut self, end: &SessionEnd);
}

impl<F: FnMut(&SessionEnd)> CompletionSink for F {
    fn on_session_end(&mut self, end: &SessionEnd) {
        self(end)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vmp_core::qoe::QoeSummary;
    use vmp_core::units::Kbps;

    pub(crate) fn outcome(exit: ExitCause, downloaded: f64) -> SessionOutcome {
        SessionOutcome {
            qoe: QoeSummary {
                avg_bitrate: Kbps(1200),
                played: Seconds(downloaded),
                rebuffer_time: Seconds(2.0),
                startup_delay: Seconds(0.5),
                bitrate_switches: 0,
                cdn_switches: 0,
            },
            bitrates_used: vec![],
            cdns: vec![CdnName::C, CdnName::A],
            downloaded: Seconds(downloaded),
            exit,
            retries: 1,
            timeouts: 0,
            end_clock: Seconds(640.0),
        }
    }

    #[test]
    fn attribution_targets_the_first_cdn() {
        let end = SessionEnd::new(outcome(ExitCause::Completed, 300.0)).in_region(2);
        assert_eq!(end.primary_cdn, CdnName::C);
        assert_eq!(end.region, Some(2));
        assert_eq!(end.end_clock(), Seconds(640.0));
        assert!(!end.is_fatal());
        assert!(!end.join_failed());
    }

    #[test]
    fn fatal_zero_download_is_a_join_failure() {
        let end = SessionEnd::new(outcome(ExitCause::FatalCdnFailure, 0.0));
        assert!(end.is_fatal());
        assert!(end.join_failed());
        let end = SessionEnd::new(outcome(ExitCause::FatalCdnFailure, 60.0));
        assert!(end.is_fatal());
        assert!(!end.join_failed());
    }
}
