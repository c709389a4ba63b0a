//! Ecosystem report: generate the synthetic publisher ecosystem and print
//! the §4.4-style management-plane summary the way an analyst at the
//! measurement platform would.
//!
//! ```sh
//! cargo run --release --example ecosystem_report
//! ```

use vmp::analytics::columns::{publisher_share, vh_share, CDN, PLATFORM, PROTOCOL};
use vmp::analytics::perpub::{count_histogram, counts_per_publisher};
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
    println!(
        "generated {} publishers / {} weighted samples in {:.1}s; reporting {last}",
        dataset.profiles.len(),
        store.len(),
        started.elapsed().as_secs_f64()
    );

    println!("\n-- protocol support (% of publishers) --");
    for (proto, share) in publisher_share(&store, last, PROTOCOL, 0.01) {
        println!("  {proto:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by protocol --");
    for (proto, share) in vh_share(&store, last, PROTOCOL) {
        println!("  {proto:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by platform --");
    for (platform, share) in vh_share(&store, last, PLATFORM) {
        println!("  {platform:<12} {share:5.1}%");
    }

    println!("\n-- view-hours by CDN --");
    for (cdn, share) in vh_share(&store, last, CDN) {
        if share >= 1.0 {
            println!("  {cdn:<12} {share:5.1}%");
        }
    }

    println!("\n-- CDNs per publisher --");
    let counts = counts_per_publisher(&store, last, CDN, 0.01);
    for (count, (pubs, vh)) in count_histogram(&counts) {
        println!("  {count} CDN(s): {pubs:5.1}% of publishers, {vh:5.1}% of view-hours");
    }

    let total_vh: f64 = counts.iter().map(|c| c.view_hours).sum();
    println!("\ntotal view-hours in the snapshot window: {total_vh:.0}");
}
