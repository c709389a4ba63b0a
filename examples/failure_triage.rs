//! Failure triage: the §5 story. A failure shows up in telemetry; the
//! on-call engineer must localize it within the publisher's management-plane
//! combinations — the product of CDNs × protocols × devices the publisher
//! supports. This example measures that search space per publisher, then
//! closes the loop the way the monitoring plane does: a fault is injected
//! into one CDN's footprint, session completions stream into a
//! [`HealthMonitor`], and the *alert stream* names the culprit cell and the
//! time-to-detect — no raw event scraping.
//!
//! ```sh
//! cargo run --release --example failure_triage
//! ```
//!
//! [`HealthMonitor`]: vmp::monitor::HealthMonitor

use std::collections::BTreeMap;

use vmp::abr::algorithm::ThroughputRule;
use vmp::abr::network::{NetworkModel, NetworkProfile};
use vmp::analytics::complexity::{complexity_fit, complexity_points, ComplexityMeasure};
use vmp::analytics::store::{IngestOptions, IngestPipeline};
use vmp::cdn::broker::{Broker, BrokerPolicy};
use vmp::cdn::edge::EdgeCluster;
use vmp::cdn::routing::Router;
use vmp::cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp::core::prelude::*;
use vmp::faults::{BreakerConfig, FaultInjector, FaultProfile, RetryPolicy};
use vmp::monitor::HealthMonitor;
use vmp::session::hooks::{CompletionSink, SessionEnd};
use vmp::session::player::{infrastructure_fn, MultiCdnContext, PlaybackConfig, Player};
use vmp::stats::Rng;
use vmp::synth::ecosystem::EcosystemConfig;
use vmp::synth::stream::ViewStream;

/// Sessions in the live triage population, staggered across the horizon.
const SESSIONS: usize = 900;

/// Edge regions per CDN.
const REGIONS: usize = 3;

fn main() {
    search_space();
    triage_via_alert_stream();
}

/// Part 1 — how big is the haystack? The per-publisher management-plane
/// combination count the engineer would otherwise search by hand.
fn search_space() {
    let mut stream = ViewStream::new(EcosystemConfig::small());
    let mut pipeline = IngestPipeline::new(IngestOptions::default());
    while let Some(batch) = stream.next_batch() {
        pipeline.push_batch(batch.views);
    }
    let store = pipeline.finish();
    let last = store.latest_snapshot().expect("dataset has views");

    let points = complexity_points(&store, last, ComplexityMeasure::Combinations, &|_| 1);
    let max = points.iter().max_by(|a, b| a.complexity.total_cmp(&b.complexity)).expect("points");
    println!(
        "management-plane combinations: {} publishers; largest search space = {} combinations ({})",
        points.len(),
        max.complexity,
        max.publisher
    );
    let fit = complexity_fit(&points).expect("enough publishers");
    println!(
        "combinations grow {:.2}x per 10x view-hours (r²={:.2}, p={:.1e}) — sub-linear, as in §5\n",
        fit.growth_per_decade(),
        fit.r_squared,
        fit.p_value
    );
}

/// Part 2 — the monitoring plane searches the haystack for you. A brownout
/// is injected into CDN C; completions stream into the health plane as they
/// finish, and the ranked culprit list localizes the incident.
fn triage_via_alert_stream() {
    // Shift the preset so the detectors see a clean baseline first.
    let profile = FaultProfile::cdn_brownout(CdnName::C).shifted(Seconds(600.0));
    let fault_start = profile
        .windows()
        .iter()
        .filter(|w| w.duration.0 > 0.0)
        .map(|w| w.start.0)
        .fold(f64::INFINITY, f64::min);
    println!(
        "injected fault: cdn_brownout(C), first window opens at t={fault_start:.0}s on the fault clock"
    );

    let mut monitor = HealthMonitor::with_defaults();
    run_population(7, &profile, &mut monitor);
    monitor.finish();

    println!("alert stream ({} alerts):", monitor.alerts().len());
    for alert in monitor.alerts().iter().take(6) {
        println!("  {alert}");
    }
    if monitor.alerts().len() > 6 {
        println!("  ... and {} more", monitor.alerts().len() - 6);
    }

    let culprits = monitor.culprits();
    match culprits.first() {
        Some(top) => {
            let detect =
                monitor.alerts().iter().map(|a| a.at().0).fold(f64::INFINITY, f64::min);
            println!("\ntriage verdict: {}", top.describe());
            println!(
                "time-to-detect: {:.0}s after the fault opened (first alert at t={detect:.0}s) — \
                 localized across {} live cells without scanning a single raw event",
                detect - fault_start,
                monitor.cell_count()
            );
        }
        None => println!("\nno alerts raised — nothing to triage in this run"),
    }
}

/// Plays a staggered three-CDN population with failover off (so the damage
/// stays attributed to the faulted CDN) and streams completions into the
/// sink in fault-clock end order — the order a central collector sees.
fn run_population(seed: u64, profile: &FaultProfile, sink: &mut dyn CompletionSink) {
    let injector = FaultInjector::new(profile.clone());
    let horizon = profile.horizon();
    let strategy = CdnStrategy::new(vec![
        CdnAssignment { cdn: CdnName::A, weight: 1.0, scope: CdnScope::All },
        CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::All },
        CdnAssignment { cdn: CdnName::C, weight: 1.0, scope: CdnScope::All },
    ])
    .expect("valid strategy");
    let broker = Broker::with_breaker(BrokerPolicy::Weighted, BreakerConfig::default());
    let routers: BTreeMap<CdnName, Router> =
        strategy.cdns().iter().map(|c| (*c, Router::for_cdn(*c, 8))).collect();
    let mut edges: BTreeMap<CdnName, EdgeCluster> = strategy
        .cdns()
        .iter()
        .map(|c| (*c, EdgeCluster::new(REGIONS, Bytes(2_000_000_000))))
        .collect();
    let abr = ThroughputRule::default();
    let ladder = BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400]).expect("ladder");

    let mut ends: Vec<SessionEnd> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut rng = Rng::seed_from(seed ^ 0x0B5E_44E5).fork(i as u64);
        let network = NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
        let region = i % REGIONS;
        let mut config = PlaybackConfig::vod(
            ladder.clone(),
            Seconds::from_minutes(4.0),
            Seconds::from_minutes(1.0),
        );
        config.start_offset = Seconds(horizon.0 * i as f64 / SESSIONS as f64);
        config.retry = RetryPolicy::resilient();
        let mut player = Player::new(config, network, &abr).expect("valid config");
        let mut infra = infrastructure_fn(&routers, &mut edges, region, Some(&injector));
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy: &strategy,
            failure_probability: 0.0,
            failover_enabled: false,
            health_gate: false,
            faults: Some(&injector),
            retry_budget: None,
            infrastructure: &mut infra,
        };
        let out = player.play_multi_cdn(&mut ctx, &mut rng);
        ends.push(SessionEnd::new(out).in_region(region).for_publisher(i as u64 % 8));
    }

    // Completions reach the collector in end-time order, not start order.
    let mut order: Vec<usize> = (0..ends.len()).collect();
    order.sort_by(|a, b| {
        ends[*a]
            .end_clock()
            .0
            .partial_cmp(&ends[*b].end_clock().0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    for i in order {
        sink.on_session_end(&ends[i]);
    }
}
