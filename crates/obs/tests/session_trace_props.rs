//! Property tests for the session-trace sampling plane: arrival-order
//! invariance, reservoir byte bounds, the tail-keep guarantee, JSONL
//! round-trips of the `vmp-session-trace/1` schema, and a reader that
//! rejects what it cannot represent instead of panicking or wrapping.

use proptest::prelude::*;
use serde_json::Value;
use vmp_obs::session_trace::{
    SessionEvent, SessionTrace, TraceCollector, TraceConfig, TraceEventKind, TraceReport, NO_CDN,
    NO_PUBLISHER, NO_REGION,
};

/// splitmix64 — local deterministic stream for population synthesis.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a synthetic population of `n` completed sessions with unique ids
/// and a mix of normal, rebuffering, fatal, denied, and shed outcomes.
fn population(seed: u64, n: usize) -> Vec<SessionTrace> {
    let mut s = seed | 1;
    (0..n as u64)
        .map(|i| {
            let fatal = mix(&mut s).is_multiple_of(7);
            let rebuffer_ratio = (mix(&mut s) % 1000) as f64 / 2500.0; // 0 .. 0.4
            let n_events = 1 + (mix(&mut s) % 12) as usize;
            let events: Vec<SessionEvent> = (0..n_events)
                .map(|j| {
                    let kind = match mix(&mut s) % 12 {
                        0 => TraceEventKind::Retry,
                        1 => TraceEventKind::Rebuffer,
                        2 => TraceEventKind::RetryDenied,
                        3 => TraceEventKind::Shed,
                        4 => TraceEventKind::AbrSwitch,
                        5 => TraceEventKind::Timeout,
                        _ => TraceEventKind::ChunkFetch,
                    };
                    SessionEvent {
                        kind,
                        clock: i as f64 + j as f64 / 16.0,
                        cdn: (mix(&mut s) % 4) as u8,
                        code: (mix(&mut s) % 9000) as u32,
                        value: (mix(&mut s) % 1000) as f64 / 100.0,
                    }
                })
                .collect();
            SessionTrace {
                session: i,
                publisher: if mix(&mut s).is_multiple_of(5) { NO_PUBLISHER } else { mix(&mut s) % 8 },
                cdn: if mix(&mut s).is_multiple_of(9) { NO_CDN } else { (mix(&mut s) % 4) as u8 },
                region: if mix(&mut s).is_multiple_of(9) { NO_REGION } else { (mix(&mut s) % 3) as u8 },
                start_clock: i as f64,
                end_clock: i as f64 + 30.0,
                fatal,
                rebuffer_ratio,
                anomaly: 0, // recomputed by the collector at offer time
                events,
            }
        })
        .collect()
}

/// Whether the collector will class this trace anomalous (mirrors the
/// tail policy: fatal exit, rebuffer over threshold, denial, or shed).
fn is_anomalous(t: &SessionTrace, cfg: &TraceConfig) -> bool {
    t.fatal
        || t.rebuffer_ratio >= cfg.rebuffer_threshold
        || t.has_event(TraceEventKind::RetryDenied)
        || t.has_event(TraceEventKind::Shed)
}

/// Offers the population in the order given by `order` and finalizes.
fn collect(cfg: TraceConfig, traces: &[SessionTrace], order: &[usize]) -> TraceReport {
    let mut c = TraceCollector::new(cfg);
    for &i in order {
        c.offer(traces[i].clone());
    }
    c.into_report()
}

/// A valid trace line with the given primary CDN and region and, on its
/// first event, the given CDN and code.
fn trace_line(cdn: u64, region: u64, event_cdn: u64, code: u64) -> Value {
    let text = format!(
        "{{\"session\":7,\"publisher\":3,\"cdn\":{cdn},\"region\":{region},\"start\":0.0,\
         \"end\":30.0,\"exit\":\"completed\",\"rebuffer_ratio\":0.1,\"anomaly\":[\"rebuffer\"],\
         \"events\":[[\"retry\",1.5,{event_cdn},{code},0.25],[\"rebuffer\",2.0,null,0,1.0]]}}"
    );
    serde_json::from_str(&text).expect("line json")
}

/// An arbitrary JSON tree: every scalar kind over its whole magnitude
/// range, the strings the reader matches on, and containers keyed by the
/// schema's own field names.
fn arbitrary_value(s: &mut u64, depth: u32) -> Value {
    const WORDS: [&str; 8] =
        ["session", "cdn", "events", "exit", "fatal", "rebuffer", "chunk_fetch", "\u{0}é"];
    let word = |s: &mut u64| WORDS[(mix(s) % WORDS.len() as u64) as usize].to_string();
    match mix(s) % if depth == 0 { 6 } else { 8 } {
        0 => Value::Null,
        1 => Value::Bool(mix(s) & 1 == 1),
        2 => Value::U64(mix(s) >> (mix(s) % 64)),
        3 => Value::I64(-((mix(s) >> 1 >> (mix(s) % 63)) as i64) - 1),
        4 => Value::F64(f64::from_bits(mix(s))),
        5 => Value::Str(word(s)),
        6 => Value::Array((0..mix(s) % 7).map(|_| arbitrary_value(s, depth - 1)).collect()),
        _ => Value::Object(
            (0..mix(s) % 7).map(|_| (word(s), arbitrary_value(s, depth - 1))).collect(),
        ),
    }
}

/// Replaces one node of `v`, picked by a random walk from the root, with
/// an arbitrary tree, so every field the reader looks at gets hit.
fn corrupt(v: &mut Value, s: &mut u64) {
    let children: Vec<&mut Value> = match v {
        Value::Object(fields) => fields.iter_mut().map(|(_, child)| child).collect(),
        Value::Array(items) => items.iter_mut().collect(),
        _ => Vec::new(),
    };
    let n = children.len() as u64;
    match children.into_iter().nth((mix(s) % (n + 1)) as usize) {
        Some(child) if !mix(s).is_multiple_of(4) => corrupt(child, s),
        _ => *v = arbitrary_value(s, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The reader is total: handed a wholly arbitrary tree, a valid line
    /// with one node corrupted, or whatever arbitrary text parses to, it
    /// returns — and what it accepts it can render again.
    #[test]
    fn from_json_never_panics(seed in 0u64..u64::MAX, text in "\\PC{0,80}") {
        let mut s = seed | 1;
        let mut corrupted = trace_line(2, 1, 3, 404);
        corrupt(&mut corrupted, &mut s);
        let mut trees = vec![arbitrary_value(&mut s, 3), corrupted];
        trees.extend(serde_json::from_str::<Value>(&text).ok());
        for tree in &trees {
            if let Ok(trace) = SessionTrace::from_json(tree) {
                prop_assert!(trace.to_jsonl().starts_with("{\"session\":"));
            }
        }
    }

    /// An id or code too wide for its field is an error naming the field,
    /// never a wrapped value that reads as some other CDN, region or error
    /// class; the widest value that fits reads back as itself.
    #[test]
    fn out_of_range_ids_and_codes_are_rejected(raw in 0u64..=u64::MAX, shift in 0u32..64) {
        let parse = |line: Value| SessionTrace::from_json(&line);
        let (id_max, code_max) = (u64::from(NO_CDN) - 1, u64::from(u32::MAX));
        let fits = parse(trace_line(id_max, id_max, id_max, code_max)).expect("in range");
        prop_assert_eq!((fits.cdn, fits.region), (NO_CDN - 1, NO_REGION - 1));
        prop_assert_eq!((fits.events[0].cdn, fits.events[0].code), (NO_CDN - 1, u32::MAX));

        let over = (raw >> shift).saturating_add(1);
        let (id, code) = (id_max.saturating_add(over), code_max.saturating_add(over));
        prop_assert_eq!(parse(trace_line(id, 0, 0, 0)), Err("bad `cdn`".to_string()));
        prop_assert_eq!(parse(trace_line(0, id, 0, 0)), Err("bad `region`".to_string()));
        prop_assert_eq!(parse(trace_line(0, 0, id, 0)), Err("bad `event cdn`".to_string()));
        prop_assert_eq!(parse(trace_line(0, 0, 0, code)), Err("bad event code".to_string()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed + same completion multiset ⇒ byte-identical kept set, no
    /// matter what order completions arrive in (threads interleave freely
    /// in sharded generation).
    #[test]
    fn kept_set_is_arrival_order_invariant(
        seed in 0u64..1_000_000,
        n in 20usize..120,
        budget_traces in 4usize..40,
    ) {
        let traces = population(seed, n);
        // A budget that forces eviction for most populations.
        let budget = budget_traces * traces[0].approx_bytes();
        let cfg = TraceConfig { seed, byte_budget: budget, ..TraceConfig::default() };

        let forward: Vec<usize> = (0..n).collect();
        let mut shuffled = forward.clone();
        let mut s = seed ^ 0x53A0_0000_0000_0001;
        for i in (1..shuffled.len()).rev() {
            let j = (mix(&mut s) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let reversed: Vec<usize> = (0..n).rev().collect();

        let a = collect(cfg, &traces, &forward);
        let b = collect(cfg, &traces, &shuffled);
        let c = collect(cfg, &traces, &reversed);
        prop_assert_eq!(a.to_jsonl(), b.to_jsonl());
        prop_assert_eq!(a.to_jsonl(), c.to_jsonl());
    }

    /// The reservoir never holds more than its byte budget (unless a
    /// single trace alone exceeds it), and every offered session is
    /// accounted for as kept or dropped.
    #[test]
    fn reservoir_respects_budget_and_counts_every_session(
        seed in 0u64..1_000_000,
        n in 10usize..100,
        budget_traces in 2usize..30,
    ) {
        let traces = population(seed, n);
        let budget = budget_traces * traces[0].approx_bytes();
        let cfg = TraceConfig { seed, byte_budget: budget, ..TraceConfig::default() };
        let order: Vec<usize> = (0..n).collect();
        let report = collect(cfg, &traces, &order);

        let max_single = traces.iter().map(SessionTrace::approx_bytes).max().unwrap_or(0);
        prop_assert!(
            report.bytes <= budget.max(max_single),
            "kept {} bytes over budget {}", report.bytes, budget
        );
        prop_assert_eq!(report.seen, n as u64);
        prop_assert_eq!(report.kept() + report.dropped, report.seen);
        let recount: usize = report.traces.iter().map(SessionTrace::approx_bytes).sum();
        prop_assert_eq!(report.bytes, recount);
    }

    /// Tail policy: when every anomalous trace fits in the budget
    /// together, none of them is ever dropped — head sampling and byte
    /// pressure can only cost *normal* sessions.
    #[test]
    fn anomalous_sessions_survive_while_budget_remains(
        seed in 0u64..1_000_000,
        n in 10usize..100,
    ) {
        let traces = population(seed, n);
        let cfg = TraceConfig { seed, ..TraceConfig::default() };
        let anomalous_bytes: usize = traces
            .iter()
            .filter(|t| is_anomalous(t, &cfg))
            .map(|t| t.approx_bytes())
            .sum();
        // (The shim has no prop_assume; the default 8 MiB budget always
        // holds these small populations, so the guard never skips in
        // practice — it just keeps the property honest.)
        if anomalous_bytes <= cfg.byte_budget {
            let order: Vec<usize> = (0..n).collect();
            let report = collect(cfg, &traces, &order);
            for t in traces.iter().filter(|t| is_anomalous(t, &cfg)) {
                prop_assert!(
                    report.traces.iter().any(|k| k.session == t.session),
                    "anomalous session {} was dropped with budget to spare", t.session
                );
            }
            prop_assert_eq!(
                report.tail_kept as usize,
                traces.iter().filter(|t| is_anomalous(t, &cfg)).count()
            );
        }
    }

    /// A full report survives a JSONL round-trip byte-identically:
    /// header, every trace line, and every alert line.
    #[test]
    fn report_jsonl_round_trips_byte_identically(
        seed in 0u64..1_000_000,
        n in 5usize..60,
    ) {
        let traces = population(seed, n);
        let cfg = TraceConfig { seed, ..TraceConfig::default() };
        let mut c = TraceCollector::new(cfg);
        for t in &traces {
            c.offer(t.clone());
        }
        c.note_alert("[warning] cdn=A test_alert".to_string(), vec![1, 2, 3]);
        c.note_alert("[critical] publisher=5 empty".to_string(), vec![]);
        let report = c.into_report();
        let text = report.to_jsonl();

        // Reparse every line into a reconstructed report.
        let mut lines = text.lines();
        let header: Value = serde_json::from_str(lines.next().expect("header")).expect("json");
        prop_assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some("vmp-session-trace/1")
        );
        let mut parsed = TraceReport {
            cfg: TraceConfig {
                seed: header.get("seed").and_then(Value::as_u64).expect("seed"),
                head_rate: header.get("head_rate").and_then(Value::as_u64).expect("head_rate"),
                rebuffer_threshold: header
                    .get("rebuffer_threshold")
                    .and_then(Value::as_f64)
                    .expect("threshold"),
                byte_budget: header
                    .get("byte_budget")
                    .and_then(Value::as_u64)
                    .expect("budget") as usize,
            },
            seen: header.get("seen").and_then(Value::as_u64).expect("seen"),
            dropped: header.get("dropped").and_then(Value::as_u64).expect("dropped"),
            tail_kept: header.get("tail_kept").and_then(Value::as_u64).expect("tail_kept"),
            bytes: header.get("bytes").and_then(Value::as_u64).expect("bytes") as usize,
            traces: Vec::new(),
            alerts: Vec::new(),
        };
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("line json");
            if v.get("session").is_some() {
                parsed.traces.push(SessionTrace::from_json(&v).expect("trace parses"));
            } else {
                let alert = v.get("alert").and_then(Value::as_str).expect("alert").to_string();
                let ids = v
                    .get("exemplars")
                    .and_then(Value::as_array)
                    .expect("exemplars")
                    .iter()
                    .filter_map(Value::as_u64)
                    .collect();
                parsed.alerts.push((alert, ids));
            }
        }
        prop_assert_eq!(parsed.to_jsonl(), text);
    }

    /// A trace line reads back and renders the same bytes wherever in the
    /// finite `f64` range its clocks and values lie — the whole floats
    /// beyond `u64`, which `Display` writes as bare integer literals,
    /// included.
    #[test]
    fn wide_clocks_and_values_round_trip(seed in 0u64..u64::MAX) {
        let mut s = seed | 1;
        let mut finite = || loop {
            let x = f64::from_bits(mix(&mut s));
            if x.is_finite() {
                break x;
            }
        };
        let two_64 = 18_446_744_073_709_551_616.0;
        let mut cases = vec![[two_64, -two_64, 1e300, -1e300]];
        cases.extend((0..8).map(|_| [finite(), finite(), finite(), finite()]));
        let mut trace = population(seed, 1).remove(0);
        for [clock, value, start, end] in cases {
            (trace.start_clock, trace.end_clock) = (start, end);
            (trace.events[0].clock, trace.events[0].value) = (clock, value);
            let text = trace.to_jsonl();
            let tree: Value = serde_json::from_str(&text).expect("line json");
            let back = SessionTrace::from_json(&tree).expect("trace parses");
            prop_assert_eq!(back.to_jsonl(), text);
        }
    }
}
