//! Failure triage: the §5 story. A failure shows up in telemetry; the
//! on-call engineer must localize it within the publisher's management-plane
//! combinations — the product of CDNs × protocols × devices the publisher
//! supports. This example measures that search space per publisher, then
//! closes the loop the way the monitoring plane does: a fault is injected
//! into one CDN's footprint, the cohort runner ([`CohortSpec`]) plays the
//! population, session completions stream into a [`HealthMonitor`], and the
//! *alert stream* names the culprit cell and the time-to-detect — no raw
//! event scraping.
//!
//! ```sh
//! cargo run --release --example failure_triage
//! ```
//!
//! [`HealthMonitor`]: vmp::monitor::HealthMonitor
//! [`CohortSpec`]: vmp::session::cohort::CohortSpec

use vmp::analytics::complexity::{complexity_fit, ComplexityMeasure, PublisherComplexity};
use vmp::analytics::store::{IngestOptions, IngestPipeline};
use vmp::core::prelude::*;
use vmp::faults::FaultProfile;
use vmp::monitor::HealthMonitor;
use vmp::session::cohort::{deliver_in_end_order, stagger, CohortSpec};
use vmp::synth::ecosystem::EcosystemConfig;
use vmp::synth::stream::ViewStream;

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
    let seg = store.segment(last).expect("the latest snapshot has a segment");

    let points: Vec<_> = PublisherComplexity::of_segment(&seg)
        .iter()
        .map(|p| p.point(ComplexityMeasure::Combinations, &|_| 1))
        .collect();
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

    // 900 sessions staggered across the horizon, played by the cohort runner
    // (the same loop the `monitor` scenario grades), completions streamed into
    // the monitor in fault-clock end order — the order a central collector sees.
    let ends = CohortSpec {
        cdns: &[CdnName::A, CdnName::B, CdnName::C],
        regions: 3,
        publishers: 8,
        content: Seconds::from_minutes(4.0),
        watch: Seconds::from_minutes(1.0),
        arrivals: &stagger(900, profile.horizon()),
        rng_salt: 0x0B5E_44E5,
        faults: Some(&profile),
        failover: false, // damage must stay attributed to the faulted CDN
        ..CohortSpec::default()
    }
    .run(7)
    .expect("valid cohort");
    let mut monitor = HealthMonitor::with_defaults();
    deliver_in_end_order(&ends, &mut monitor);
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
