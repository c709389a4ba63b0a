//! Round-trip validity of the Chrome `trace_event` export behind
//! `repro --trace PATH`: drive the monitor with tracing on, render the
//! trace JSON, parse it back, and check the structural invariants Chrome
//! and Perfetto rely on.

use serde_json::Value;
use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_monitor::{HealthMonitor, ViewEnd};

fn view(cdn: CdnName, at: f64, fatal: bool) -> ViewEnd {
    ViewEnd {
        cdn,
        region: Some(0),
        publisher: Some(0),
        end_clock: Seconds(at),
        played: if fatal { 0.0 } else { 300.0 },
        rebuffer: if fatal { 0.0 } else { 1.0 },
        bitrate_kbps: if fatal { 0.0 } else { 2500.0 },
        retries: if fatal { 6 } else { 0 },
        fatal,
        join_failed: fatal,
    }
}

fn str_field<'a>(event: &'a Value, key: &str) -> Option<&'a str> {
    event.get(key).and_then(Value::as_str)
}

#[test]
fn chrome_trace_export_round_trips_as_valid_trace_json() {
    let recorder =
        vmp_obs::Recorder::new(vmp_obs::Collect { chrome_trace: true, ..Default::default() });
    {
        let _installed = recorder.install();
        // A wall-clock span slice plus a monitored outage: every phase the
        // exporter emits (X, C, i, M) lands in the trace.
        let _slice = vmp_obs::span("trace_roundtrip.feed");
        let mut monitor = HealthMonitor::with_defaults();
        for t in 0..16u64 {
            for k in 0..12u64 {
                let cdn = [CdnName::A, CdnName::B, CdnName::C][(k % 3) as usize];
                let fatal = t >= 10 && cdn == CdnName::B;
                monitor.observe(&view(cdn, t as f64 * 60.0 + k as f64, fatal));
            }
        }
        monitor.finish();
        assert!(!monitor.alerts().is_empty(), "the staged outage must alert");
    }

    let json = recorder.chrome_trace().to_json();
    assert_eq!(recorder.chrome_trace().dropped(), 0, "the trace must not overflow here");

    let doc: Value = serde_json::from_str(&json).expect("export must be parseable JSON");
    assert_eq!(str_field(&doc, "displayTimeUnit"), Some("ms"));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("top level must carry a traceEvents array");
    assert!(!events.is_empty());

    for event in events {
        // Fields every Chrome trace viewer requires on every event.
        assert!(str_field(event, "name").is_some(), "event without name: {event:?}");
        assert!(event.get("ts").and_then(Value::as_u64).is_some(), "{event:?}");
        assert!(event.get("pid").and_then(Value::as_u64).is_some(), "{event:?}");
        assert!(event.get("tid").and_then(Value::as_u64).is_some(), "{event:?}");
        let ph = str_field(event, "ph").expect("event without phase");
        match ph {
            // Complete slices must carry a duration.
            "X" => assert!(event.get("dur").and_then(Value::as_u64).is_some(), "{event:?}"),
            // Instants must declare their scope (we always emit global).
            "i" => assert_eq!(str_field(event, "s"), Some("g"), "{event:?}"),
            "C" | "M" => {}
            other => panic!("unexpected phase {other:?}: {event:?}"),
        }
    }

    let with_phase = |ph: &'static str| {
        events.iter().filter(move |e| str_field(e, "ph") == Some(ph))
    };
    // All three trace processes (wall, fault timeline, resources) are
    // named via metadata.
    assert_eq!(with_phase("M").count(), 3);
    // The guarded span produced a wall-clock slice.
    assert!(with_phase("X").any(|e| str_field(e, "name") == Some("trace_roundtrip.feed")));
    // Per-CDN health counters landed on the virtual timeline with args.
    assert!(with_phase("C").any(|e| {
        str_field(e, "name") == Some("monitor cdn=B")
            && e.get("args").and_then(|a| a.get("fatal_rate")).and_then(Value::as_f64).is_some()
    }));
    // The alert stream shows up as instant markers carrying the alert text.
    assert!(with_phase("i").any(|e| {
        str_field(e, "name") == Some("monitor.alert")
            && e.get("args")
                .and_then(|a| a.get("detail"))
                .and_then(Value::as_str)
                .is_some_and(|d| d.contains("cdn=B"))
    }));
}
