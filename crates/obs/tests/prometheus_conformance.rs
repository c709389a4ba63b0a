//! Prometheus text exposition-format conformance for `to_prometheus`.
//!
//! The exporter must produce what a real scraper can ingest: one `# TYPE`
//! line per metric family, histogram buckets as *cumulative* counts with
//! increasing `le` bounds terminated by `+Inf`, matching `_sum`/`_count`
//! series, and sanitized metric names.

use std::collections::BTreeMap;

use vmp_obs::MetricsRegistry;

/// Parses `name{labels} value` / `name value` sample lines.
fn parse_samples(text: &str) -> Vec<(String, Option<String>, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line has a value");
            let (name, labels) = match series.split_once('{') {
                Some((n, rest)) => (n.to_string(), Some(rest.trim_end_matches('}').to_string())),
                None => (series.to_string(), None),
            };
            (name, labels, value.parse::<f64>().expect("numeric sample value"))
        })
        .collect()
}

#[test]
fn histogram_buckets_are_cumulative_le_labeled_and_inf_terminated() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("session.chunk_ns");
    // Spread observations over several buckets plus the overflow bucket.
    for v in [1u64, 1, 3, 9, 9, 9, 40, 600_000_000_000, 700_000_000_000] {
        h.record(v);
    }
    let text = reg.snapshot().to_prometheus();

    assert!(text.contains("# TYPE session_chunk_ns histogram"));

    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter(|l| l.starts_with("session_chunk_ns_bucket"))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            let le = series
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("le label present");
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
            (bound, value.parse().unwrap())
        })
        .collect();

    // Bounds strictly increasing, counts monotone non-decreasing.
    assert!(buckets.len() >= 4, "expected several buckets, got {buckets:?}");
    for pair in buckets.windows(2) {
        assert!(pair[0].0 < pair[1].0, "le bounds must increase: {buckets:?}");
        assert!(pair[0].1 <= pair[1].1, "cumulative counts must not decrease: {buckets:?}");
    }

    // The +Inf bucket equals _count (it absorbs the overflow bucket too).
    let (last_bound, last_count) = *buckets.last().unwrap();
    assert!(last_bound.is_infinite(), "bucket series must end at +Inf");
    assert_eq!(last_count, 9.0);
    let samples = parse_samples(&text);
    let count = samples
        .iter()
        .find(|(n, _, _)| n == "session_chunk_ns_count")
        .expect("_count series");
    assert_eq!(count.2, 9.0);
    let sum = samples
        .iter()
        .find(|(n, _, _)| n == "session_chunk_ns_sum")
        .expect("_sum series");
    assert_eq!(sum.2 as u64, 1 + 1 + 3 + 9 + 9 + 9 + 40 + 600_000_000_000 + 700_000_000_000);
}

#[test]
fn every_family_has_a_type_line_and_sanitized_name() {
    let reg = MetricsRegistry::new();
    reg.counter("cdn.cache-hits").add(2);
    reg.gauge("session.buffer_ms").set(9);
    reg.histogram("faults.backoff_ns").record(17);
    let text = reg.snapshot().to_prometheus();

    let mut type_lines: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let mut parts = line.split_whitespace().skip(2);
        let name = parts.next().expect("family name").to_string();
        let kind = parts.next().expect("family kind").to_string();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "unsanitized family name {name}"
        );
        type_lines.insert(name, kind);
    }
    assert_eq!(type_lines.get("cdn_cache_hits").map(String::as_str), Some("counter"));
    assert_eq!(type_lines.get("session_buffer_ms").map(String::as_str), Some("gauge"));
    assert_eq!(type_lines.get("faults_backoff_ns").map(String::as_str), Some("histogram"));

    // Every sample belongs to a family with a TYPE line.
    for (name, _, _) in parse_samples(&text) {
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| type_lines.contains_key(*f))
            .unwrap_or(&name);
        assert!(type_lines.contains_key(family), "sample {name} has no # TYPE line");
    }
}
