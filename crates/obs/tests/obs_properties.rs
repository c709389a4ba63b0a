//! Integration tests: concurrency correctness, quantile accuracy, and
//! the JSON shape of snapshots.

use proptest::prelude::*;
use serde_json::Value;
use vmp_obs::MetricsRegistry;

/// The JSON text parsed back as a value tree.
fn parse(json: &str) -> Value {
    serde_json::from_str(json).unwrap()
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    const THREADS: usize = 8;
    const INCREMENTS: u64 = 50_000;
    let reg = MetricsRegistry::new();
    let counter = reg.counter("t.concurrent");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            scope.spawn(move || {
                for _ in 0..INCREMENTS {
                    counter.inc();
                }
            });
        }
    });
    assert_eq!(reg.counter("t.concurrent").get(), THREADS as u64 * INCREMENTS);
}

#[test]
fn concurrent_histogram_records_preserve_count_and_sum() {
    const THREADS: u64 = 8;
    const RECORDS: u64 = 20_000;
    let reg = MetricsRegistry::new();
    let hist = reg.histogram("t.latency");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..RECORDS {
                    // Deterministic per-thread values spanning many buckets.
                    hist.record((t * RECORDS + i) % 10_000 + 1);
                }
            });
        }
    });
    let snap = reg.histogram("t.latency").snapshot();
    assert_eq!(snap.count, THREADS * RECORDS);
    let bucket_total: u64 = snap.buckets.iter().map(|(_, c)| c).sum::<u64>() + snap.overflow;
    assert_eq!(bucket_total, snap.count);
}

#[test]
fn concurrent_lookups_resolve_to_one_counter() {
    let reg = MetricsRegistry::new();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let reg = &reg;
            scope.spawn(move || {
                for _ in 0..1_000 {
                    reg.counter("t.shared").inc();
                }
            });
        }
    });
    assert_eq!(reg.counter("t.shared").get(), 8_000);
}

#[test]
fn quantiles_are_within_bucket_resolution() {
    let reg = MetricsRegistry::new();
    let hist = reg.histogram("t.quantiles");
    // Uniform 1..=1000: true p50 = 500, p90 = 900, p99 = 990.
    for v in 1..=1000u64 {
        hist.record(v);
    }
    let snap = hist.snapshot();
    // 1-2-5 buckets bound relative error by the bucket width; at these
    // magnitudes the containing buckets are (200,500] and (500,1000].
    assert!((200.0..=500.0).contains(&snap.p50), "p50 = {}", snap.p50);
    assert!((500.0..=1000.0).contains(&snap.p90), "p90 = {}", snap.p90);
    assert!((900.0..=1000.0).contains(&snap.p99), "p99 = {}", snap.p99);
    assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99, "quantiles must be monotone");
    assert_eq!(snap.max, 1000);
    assert!((snap.mean() - 500.5).abs() < 1e-9);
}

#[test]
fn snapshot_json_has_all_sections() {
    let reg = MetricsRegistry::new();
    reg.counter("session.chunks").add(7);
    reg.gauge("session.buffer").set(-3);
    reg.histogram("cdn.fetch_ns").record(12_345);
    let snap = reg.snapshot();
    let doc = parse(&snap.to_json());
    assert_eq!(doc.get("counters").and_then(|c| c.get("session.chunks")), Some(&Value::U64(7)));
    assert_eq!(doc.get("gauges").and_then(|g| g.get("session.buffer")), Some(&Value::I64(-3)));
    let hist = doc.get("histograms").and_then(|h| h.get("cdn.fetch_ns")).unwrap();
    assert_eq!(hist.get("count"), Some(&Value::U64(1)));
    assert_eq!(hist.get("max"), Some(&Value::U64(12_345)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any registry contents render to JSON text that parses back to the
    /// snapshot's own value tree, compact or pretty.
    #[test]
    fn snapshot_roundtrips_through_json(
        counters in proptest::collection::vec(("c[a-z]{1,8}\\.[a-z]{1,8}", 0u64..=1_000_000_000), 0..8),
        gauge_vals in proptest::collection::vec(("g[a-z]{1,8}", -500_000i64..=500_000), 0..5),
        samples in proptest::collection::vec(1u64..=5_000_000_000, 0..60),
    ) {
        let reg = MetricsRegistry::new();
        for (name, v) in &counters {
            reg.counter(name).add(*v);
        }
        for (name, v) in &gauge_vals {
            reg.gauge(name).set(*v);
        }
        let hist = reg.histogram("h.samples");
        for s in &samples {
            hist.record(*s);
        }
        let snap = reg.snapshot();
        let tree = serde::Serialize::to_json(&snap);
        prop_assert_eq!(&parse(&snap.to_json()), &tree);
        prop_assert_eq!(&parse(&snap.to_json_pretty()), &tree);
    }
}
