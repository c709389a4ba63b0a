//! The cohort runner: one population loop for every scenario.
//!
//! A cohort is a population of sessions played one after another against
//! *shared* delivery infrastructure (one broker, one router and one edge
//! cluster per CDN), so earlier sessions warm the caches, trip the breakers
//! and spend the budgets later ones meet. [`CohortSpec`] carries only what
//! differs between its callers (the `resilience`, `monitor` and `live_event`
//! scenarios and the `failure_triage` example). What they share is fixed
//! here: 8 anycast sites per router, 2 GB edges, a nominal Wi-Fi network,
//! the throughput-rule ABR, a weighted broker with default breakers over an
//! equal-weight strategy, the 400–6400 kbps ladder, no legacy
//! client-perceived failures (incidents come from the fault plan only), and
//! the resilient retry policy iff the cohort is faulted (a clean cohort keeps
//! the stock policy, so it matches historical fault-free behaviour exactly).

use std::collections::BTreeMap;

use vmp_abr::algorithm::ThroughputRule;
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_cdn::budget::RetryBudget;
use vmp_cdn::edge::EdgeCluster;
use vmp_cdn::routing::Router;
use vmp_cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp_core::cdn::CdnName;
use vmp_core::geo::ConnectionType;
use vmp_core::ladder::BitrateLadder;
use vmp_core::units::{Bytes, Seconds};
use vmp_faults::{FaultInjector, FaultProfile, RetryPolicy};
use vmp_stats::Rng;

use crate::hooks::{trace_begin, trace_finish, CompletionSink, SessionEnd};
use crate::live::{LiveWindow, SurgeLayer};
use crate::player::{infrastructure_fn, MultiCdnContext, PlaybackConfig, Player};

/// What differs between one cohort and the next. The default is a clean,
/// untraced VoD cohort with every protection off; callers name the rest.
#[derive(Debug, Default)]
pub struct CohortSpec<'a> {
    /// CDNs the population is delivered over, equally weighted.
    pub cdns: &'a [CdnName],
    /// Edge regions per CDN; sessions rotate through them.
    pub regions: usize,
    /// Publishers the sessions rotate through (materializes publisher
    /// cells downstream); 0 leaves completions without a publisher.
    pub publishers: u64,
    /// Media length of the title, or of the live event.
    pub content: Seconds,
    /// How long each viewer watches.
    pub watch: Seconds,
    /// The shared event timeline. `Some` makes every session a live one.
    pub live_window: Option<LiveWindow>,
    /// Fault-clock start offset of each session; one session per entry.
    pub arrivals: &'a [Seconds],
    /// Mixed into the master seed, so cohorts of different scenarios draw
    /// from unrelated streams. Session `i` plays on fork `i` of that seed.
    pub rng_salt: u64,
    /// The fault plan, `None` for a clean control.
    pub faults: Option<&'a FaultProfile>,
    /// Broker failover with circuit-breaker health gating. Off models a
    /// naive player riding a broken CDN down, which keeps damage
    /// attributed to the faulted CDN.
    pub failover: bool,
    /// Admission control and origin shields, shared by the whole cohort.
    pub surge: Option<&'a mut SurgeLayer>,
    /// Shared per-CDN retry budget layered over per-session backoff.
    pub retry_budget: Option<&'a RetryBudget>,
    /// When set, session `i` is traced under id `base + i`, in a fresh
    /// exemplar epoch: cohorts replay the same fault-clock range, and an
    /// alert must not cite a previous cohort's look-alikes.
    pub trace_id_base: Option<u64>,
}

/// Arrival offsets of `sessions` sessions staggered evenly over
/// `[0, horizon)`, so an incident hits them mid-stream, at startup, or not
/// at all.
pub fn stagger(sessions: usize, horizon: Seconds) -> Vec<Seconds> {
    (0..sessions).map(|i| Seconds(horizon.0 * i as f64 / sessions as f64)).collect()
}

impl CohortSpec<'_> {
    /// Plays the cohort in arrival order and returns one completion per
    /// arrival, in that order — or the construction error of the first
    /// session (or fixture) that could not be built, never a shorter list.
    pub fn run(mut self, seed: u64) -> Result<Vec<SessionEnd>, String> {
        if self.regions == 0 {
            return Err("a cohort needs at least one edge region".to_string());
        }
        if let (Some(_), Some(recorder)) = (self.trace_id_base, vmp_obs::Recorder::current()) {
            recorder.with_sessions(vmp_obs::TraceCollector::next_epoch);
        }
        let ladder = BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400])
            .map_err(|e| e.to_string())?;
        let assignments =
            self.cdns.iter().map(|&cdn| CdnAssignment { cdn, weight: 1.0, scope: CdnScope::All });
        let strategy = CdnStrategy::new(assignments.collect()).map_err(|e| e.to_string())?;
        let injector = self.faults.map(|p| FaultInjector::new(p.clone()));
        let broker = Broker::new(BrokerPolicy::Weighted);
        let routers: BTreeMap<CdnName, Router> =
            self.cdns.iter().map(|c| (*c, Router::for_cdn(*c, 8))).collect();
        let mut edges: BTreeMap<CdnName, EdgeCluster> = self
            .cdns
            .iter()
            .map(|c| (*c, EdgeCluster::new(self.regions, Bytes(2_000_000_000))))
            .collect();
        let abr = ThroughputRule::default();
        let cohort_rng = Rng::seed_from(seed ^ self.rng_salt);

        let mut ends = Vec::with_capacity(self.arrivals.len());
        for (i, start) in self.arrivals.iter().enumerate() {
            let mut rng = cohort_rng.fork(i as u64);
            let network =
                NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
            let region = i % self.regions;
            let publisher = (i as u64).checked_rem(self.publishers);
            let mut config = match self.live_window {
                Some(_) => PlaybackConfig::live(ladder.clone(), self.content, self.watch),
                None => PlaybackConfig::vod(ladder.clone(), self.content, self.watch),
            };
            config.live_window = self.live_window;
            config.start_offset = *start;
            if injector.is_some() {
                config.retry = RetryPolicy::resilient();
            }
            let mut player = Player::new(config, network, &abr)?;
            let mut infra = infrastructure_fn(
                &routers,
                &mut edges,
                region,
                injector.as_ref(),
                self.surge.as_deref_mut(),
            );
            let mut ctx = MultiCdnContext {
                broker: &broker,
                strategy: &strategy,
                failure_probability: 0.0,
                failover_enabled: self.failover,
                health_gate: self.failover,
                faults: injector.as_ref(),
                retry_budget: self.retry_budget,
                infrastructure: &mut infra,
            };
            let trace = self
                .trace_id_base
                .map(|base| trace_begin(base + i as u64, publisher, None, Some(region), *start));
            let outcome = player.play_multi_cdn(&mut ctx, &mut rng);
            if let Some(scope) = trace {
                trace_finish(scope, &outcome);
            }
            ends.push(SessionEnd { region: Some(region), publisher, ..SessionEnd::new(outcome) });
        }
        Ok(ends)
    }
}

/// Streams completions into `sink` in fault-clock end order — the order a
/// central collector sees them, not start order (sessions that died
/// mid-outage finish early). Same-instant ends are delivered in index
/// order, which keeps replays deterministic.
pub fn deliver_in_end_order(ends: &[SessionEnd], sink: &mut dyn CompletionSink) {
    let mut order: Vec<&SessionEnd> = ends.iter().collect();
    // Stable sort: ties keep their index order.
    order.sort_by(|a, b| {
        a.end_clock().0.partial_cmp(&b.end_clock().0).unwrap_or(std::cmp::Ordering::Equal)
    });
    for end in order {
        sink.on_session_end(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::tests::outcome;
    use crate::player::ExitCause;

    fn spec<'a>(arrivals: &'a [Seconds], faults: Option<&'a FaultProfile>) -> CohortSpec<'a> {
        CohortSpec {
            cdns: &[CdnName::A, CdnName::B, CdnName::C],
            regions: 3,
            publishers: 4,
            content: Seconds(240.0),
            watch: Seconds(60.0),
            arrivals,
            rng_salt: 0xC0_4027,
            faults,
            ..CohortSpec::default()
        }
    }

    #[test]
    fn one_completion_per_arrival_tagged_by_rotation() {
        let profile = FaultProfile::cdn_brownout(CdnName::A);
        let arrivals = stagger(30, profile.horizon());
        let ends = spec(&arrivals, Some(&profile)).run(7).expect("valid spec");
        assert_eq!(ends.len(), arrivals.len());
        assert_eq!((ends[7].region, ends[7].publisher), (Some(1), Some(3)));
        assert_eq!(ends, spec(&arrivals, Some(&profile)).run(7).expect("valid spec"));
        let untracked = CohortSpec { publishers: 0, ..spec(&arrivals, None) }.run(7);
        assert!(untracked.expect("valid spec").iter().all(|e| e.publisher.is_none()));
    }

    #[test]
    fn an_invalid_template_is_an_error_not_a_shorter_cohort() {
        let arrivals = stagger(5, Seconds(100.0));
        let bad = CohortSpec { watch: Seconds(-1.0), ..spec(&arrivals, None) };
        assert_eq!(bad.run(7), Err("durations must be non-negative".to_string()));
        assert!(CohortSpec { cdns: &[], ..spec(&arrivals, None) }.run(7).is_err());
        assert!(CohortSpec { regions: 0, ..spec(&arrivals, None) }.run(7).is_err());
    }

    #[test]
    fn delivery_is_by_end_clock_with_ties_in_index_order() {
        let clocks = [30.0, 10.0, 30.0, 20.0, 10.0];
        let ends: Vec<SessionEnd> = (0u64..)
            .zip(clocks)
            .map(|(i, clock)| {
                let mut out = outcome(ExitCause::Completed, 60.0);
                out.end_clock = Seconds(clock);
                SessionEnd::new(out).for_publisher(i)
            })
            .collect();
        let mut seen = Vec::new();
        deliver_in_end_order(&ends, &mut |e: &SessionEnd| seen.extend(e.publisher));
        assert_eq!(seen, [1, 4, 3, 0, 2]);
    }
}
