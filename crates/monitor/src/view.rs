//! The normalized per-view observation the monitor ingests.

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_session::hooks::SessionEnd;

/// One finished view, reduced to exactly the fields the health plane
/// aggregates. Built from a live [`SessionEnd`]; ingesting it is a handful
/// of adds — no allocation, no locks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewEnd {
    /// Primary (first-assigned) CDN — the attribution target.
    pub cdn: CdnName,
    /// Edge region index, when tracked.
    pub region: Option<usize>,
    /// Serving publisher, when tracked.
    pub publisher: Option<u64>,
    /// Fault-clock time the view ended; decides which window bucket it
    /// lands in.
    pub end_clock: Seconds,
    /// Media seconds played.
    pub played: f64,
    /// Seconds stalled after startup.
    pub rebuffer: f64,
    /// Time-weighted average bitrate, kbps (0 when nothing played).
    pub bitrate_kbps: f64,
    /// Failed fetch attempts that were retried or escalated.
    pub retries: u32,
    /// The session died with retry and failover budgets exhausted.
    pub fatal: bool,
    /// The viewer never saw a frame (fatal before the first chunk).
    pub join_failed: bool,
}

impl ViewEnd {
    /// Builds the observation from a streaming session completion.
    pub fn from_end(end: &SessionEnd) -> ViewEnd {
        let q = &end.outcome.qoe;
        ViewEnd {
            cdn: end.primary_cdn,
            region: end.region,
            publisher: end.publisher,
            end_clock: end.outcome.end_clock,
            played: q.played.0,
            rebuffer: q.rebuffer_time.0,
            bitrate_kbps: q.avg_bitrate.0 as f64,
            retries: end.outcome.retries,
            fatal: end.is_fatal(),
            join_failed: end.join_failed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::qoe::QoeSummary;
    use vmp_core::units::Kbps;
    use vmp_session::player::{ExitCause, SessionOutcome};

    #[test]
    fn from_end_copies_the_aggregated_fields() {
        let outcome = SessionOutcome {
            qoe: QoeSummary {
                avg_bitrate: Kbps(2000),
                played: Seconds(120.0),
                rebuffer_time: Seconds(6.0),
                startup_delay: Seconds(1.0),
                bitrate_switches: 1,
                cdn_switches: 0,
            },
            bitrates_used: vec![Kbps(2000)],
            cdns: vec![CdnName::B],
            downloaded: Seconds(120.0),
            exit: ExitCause::FatalCdnFailure,
            retries: 5,
            timeouts: 1,
            end_clock: Seconds(431.0),
        };
        let end = SessionEnd::new(outcome).in_region(1).for_publisher(9);
        let view = ViewEnd::from_end(&end);
        assert_eq!(view.cdn, CdnName::B);
        assert_eq!(view.region, Some(1));
        assert_eq!(view.publisher, Some(9));
        assert_eq!(view.end_clock, Seconds(431.0));
        assert!(view.fatal);
        assert!(!view.join_failed, "played 120s, so the join succeeded");
        assert_eq!(view.retries, 5);
    }
}
