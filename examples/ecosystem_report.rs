//! Ecosystem report: generate the synthetic publisher ecosystem and print
//! the §4.4-style management-plane summary the way an analyst at the
//! measurement platform would.
//!
//! ```sh
//! cargo run --release --example ecosystem_report
//! ```

use vmp::analytics::columns::{
    per_publisher_segment, publisher_shares, rollup_segment, Metric, CDN, PLATFORM, PROTOCOL,
};
use vmp::analytics::perpub::{count_histogram, publisher_counts};
use vmp::analytics::store::{IngestOptions, IngestPipeline};
use vmp::synth::ecosystem::EcosystemConfig;
use vmp::synth::stream::ViewStream;

fn main() {
    let started = std::time::Instant::now();
    let mut stream = ViewStream::new(EcosystemConfig::small());
    let mut pipeline = IngestPipeline::new(IngestOptions::default());
    while let Some(batch) = stream.next_batch() {
        pipeline.push_batch(batch.views);
    }
    let store = pipeline.finish();
    let dataset = stream.into_dataset();
    let last = store.latest_snapshot().expect("dataset has views");
    let seg = store.segment(last).expect("the latest snapshot has a segment");
    println!(
        "generated {} publishers / {} weighted samples in {:.1}s; reporting {last}",
        dataset.profiles.len(),
        store.len(),
        started.elapsed().as_secs_f64()
    );

    println!("\n-- protocol support (% of publishers) --");
    let protocols = per_publisher_segment(&seg, None, PROTOCOL.column);
    for (proto, share) in publisher_shares(&protocols, PROTOCOL, 0.01) {
        println!("  {proto:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by protocol --");
    let hours = |column| rollup_segment(&seg, None, column, Metric::Hours);
    for (proto, share) in hours(PROTOCOL.column).shares(PROTOCOL) {
        println!("  {proto:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by platform --");
    for (platform, share) in hours(PLATFORM.column).shares(PLATFORM) {
        println!("  {platform:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by CDN --");
    for (cdn, share) in hours(CDN.column).shares(CDN) {
        if share >= 1.0 {
            println!("  {cdn:<12} {share:5.1}%");
        }
    }

    println!("\n-- CDNs per publisher --");
    let counts = publisher_counts(&per_publisher_segment(&seg, None, CDN.column), 0.01);
    for (count, (pubs, vh)) in count_histogram(&counts) {
        println!("  {count} CDN(s): {pubs:5.1}% of publishers, {vh:5.1}% of view-hours");
    }

    let total_vh: f64 = counts.iter().map(|c| c.view_hours).sum();
    println!("\ntotal view-hours in the snapshot window: {total_vh:.0}");
}
