//! Multi-CDN failover: a live sports stream with a QoE-aware broker,
//! real edge caches and anycast route flaps — the §2/§4.3 machinery in one
//! session-level scenario.
//!
//! ```sh
//! cargo run --release --example multi_cdn_failover
//! ```

use std::collections::BTreeMap;
use vmp::abr::algorithm::Bba;
use vmp::abr::network::{NetworkModel, NetworkProfile};
use vmp::cdn::broker::{Broker, BrokerPolicy};
use vmp::cdn::edge::EdgeCluster;
use vmp::cdn::routing::Router;
use vmp::cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp::core::prelude::*;
use vmp::core::units::Bytes;
use vmp::packaging::ladder::LadderSpec;
use vmp::session::player::{infrastructure_fn, MultiCdnContext, PlaybackConfig, Player};
use vmp::stats::Rng;

fn main() {
    // A sports publisher: three CDNs, one reserved for live traffic.
    let strategy = CdnStrategy::new(vec![
        CdnAssignment { cdn: CdnName::A, weight: 1.0, scope: CdnScope::All },
        CdnAssignment { cdn: CdnName::B, weight: 1.2, scope: CdnScope::LiveOnly },
        CdnAssignment { cdn: CdnName::C, weight: 0.8, scope: CdnScope::VodOnly },
    ])
    .expect("valid strategy");
    println!(
        "strategy: {} CDNs; live-eligible: {:?}",
        strategy.cdn_count(),
        strategy
            .eligible(ContentClass::Live)
            .iter()
            .map(|a| a.cdn.to_string())
            .collect::<Vec<_>>()
    );

    // Real per-CDN infrastructure: routers (B is anycast) + edge clusters.
    let routers: BTreeMap<CdnName, Router> = CdnName::MAJORS
        .iter()
        .map(|c| (*c, Router::for_cdn(*c, 16)))
        .collect();
    let mut edges: BTreeMap<CdnName, EdgeCluster> = CdnName::MAJORS
        .iter()
        // Four edges: sessions spread over four regions below, and an edge
        // cluster now rejects out-of-range regions instead of silently
        // wrapping them.
        .map(|c| (*c, EdgeCluster::new(4, Bytes(6_000_000_000))))
        .collect();

    // A QoE-aware broker learns per-CDN scores from completed views.
    let broker = Broker::new(BrokerPolicy::QoeAware);
    let ladder = LadderSpec::guideline(Kbps(5000)).build().expect("guideline");
    // Live players hold a small buffer (the live edge!), so the BBA
    // reservoir/cushion must fit inside it.
    let abr = Bba { reservoir: Seconds(3.0), cushion: Seconds(10.0) };

    let mut rng = Rng::seed_from(90);
    let mut totals: BTreeMap<CdnName, (u32, f64)> = BTreeMap::new();
    let mut failovers = 0u32;
    for session in 0..60 {
        let network =
            NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wired, 1.0));
        let config = PlaybackConfig::live(
            ladder.clone(),
            Seconds::from_hours(2.0),
            Seconds::from_minutes(30.0),
        );
        let mut player = Player::new(config, network, &abr).expect("valid config");
        let mut infra = infrastructure_fn(&routers, &mut edges, session % 4, None, None);
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy: &strategy,
            failure_probability: 0.002, // occasional mid-stream CDN trouble
            failover_enabled: true,
            health_gate: false,
            faults: None,
            retry_budget: None,
            infrastructure: &mut infra,
        };
        let outcome = player.play_multi_cdn(&mut ctx, &mut rng);
        failovers += outcome.qoe.cdn_switches;
        let primary = outcome.cdns[0];
        let entry = totals.entry(primary).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += outcome.qoe.avg_bitrate.0 as f64;
        // Feed the broker what the monitoring library saw.
        let score = outcome.qoe.avg_bitrate.0 as f64 * (1.0 - outcome.qoe.rebuffer_ratio());
        broker.report(primary, score);
    }

    println!("\nafter 60 live sessions:");
    for (cdn, (count, bitrate_sum)) in &totals {
        println!(
            "  {cdn}: {count} sessions, avg bitrate {:.0} kbps, broker score {:.0}",
            bitrate_sum / *count as f64,
            broker.score(*cdn).unwrap_or(0.0)
        );
    }
    println!("  mid-stream failovers: {failovers}");
    for cdn in [CdnName::A, CdnName::B] {
        if let Some(cluster) = edges.get(&cdn) {
            println!("  {cdn} edge hit ratio: {:.1}%", 100.0 * cluster.hit_ratio());
        }
    }
}
