//! Metric totals are a function of the work done, not of how many shards
//! did it. One test in its own process, so the global registry is private.

use vmp_synth::stream::ViewStream;
use vmp_synth::EcosystemConfig;

/// Instruments only a played session records. Generation samples views
/// without playing them, so it must leave every one of these untouched.
const SESSION_COUNTERS: [&str; 4] = [
    "session.sessions",
    "session.chunks_fetched",
    "session.rebuffer_events",
    "session.bitrate_switches",
];

/// `cdn.broker_selections`, then the `SESSION_COUNTERS` in order, then the
/// chunk-download histogram's count and sum.
fn totals() -> Vec<u64> {
    let downloads = vmp_obs::histogram("session.chunk_download_us");
    let mut totals = vec![vmp_obs::counter("cdn.broker_selections").get()];
    totals.extend(SESSION_COUNTERS.iter().map(|name| vmp_obs::counter(name).get()));
    totals.extend([downloads.count(), downloads.sum()]);
    totals
}

/// Drains one small stream on `threads` shards; returns the views delivered
/// and what each total moved by.
fn stream_deltas(threads: usize) -> (u64, Vec<u64>) {
    let before = totals();
    let mut stream = ViewStream::new(EcosystemConfig { threads, ..EcosystemConfig::small() });
    let mut views = 0u64;
    while let Some(batch) = stream.next_batch() {
        views += batch.views.len() as u64;
    }
    let deltas = totals().iter().zip(&before).map(|(after, before)| after - before).collect();
    (views, deltas)
}

#[test]
fn metric_totals_do_not_depend_on_shard_count() {
    let (views_1, deltas_1) = stream_deltas(1);
    let (views_4, deltas_4) = stream_deltas(4);
    assert!(views_1 > 0);
    assert_eq!(views_1, views_4);
    assert_eq!(
        deltas_1, deltas_4,
        "totals in order: cdn.broker_selections, {SESSION_COUNTERS:?}, download count, download sum"
    );
    assert!(deltas_1[0] > 0, "the broker selected no CDN");
    assert!(deltas_1[0] <= views_1, "at most one broker selection per view: {deltas_1:?}");
    assert!(deltas_1[1..].iter().all(|&d| d == 0), "generation played a session: {deltas_1:?}");
}
