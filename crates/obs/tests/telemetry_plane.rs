//! Property coverage for the run-telemetry plane: the resource-sampler
//! ring stays bounded and evicts oldest-first under any push sequence,
//! folded-stack text round-trips through the parser for any profile shape,
//! and a thread records into whichever recorder it has installed.

use proptest::prelude::*;
use vmp_obs::session_trace::{self, TraceConfig};
use vmp_obs::{parse_folded, Collect, MetricsRegistry, Recorder, TimelineRing, TimelineSample};

fn sample_at(t_us: u64) -> TimelineSample {
    TimelineSample {
        t_us,
        rss_bytes: 4096 * t_us,
        counters: std::collections::BTreeMap::new(),
        gauges: std::collections::BTreeMap::new(),
        histograms: std::collections::BTreeMap::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However many samples land, the ring holds at most `capacity`, the
    /// drop counter accounts for the difference exactly, and what remains
    /// is the newest suffix in push order.
    #[test]
    fn timeline_ring_is_bounded_and_keeps_newest(
        capacity in 1usize..48,
        pushes in 0u64..160,
    ) {
        let mut ring = TimelineRing::new(capacity);
        for t in 0..pushes {
            ring.push(sample_at(t));
        }
        let kept = ring.samples().count() as u64;
        prop_assert!(kept as usize <= capacity);
        prop_assert_eq!(kept, pushes.min(capacity as u64));
        prop_assert_eq!(ring.dropped(), pushes - kept);
        let expected_first = pushes - kept;
        for (i, s) in ring.samples().enumerate() {
            prop_assert_eq!(s.t_us, expected_first + i as u64);
        }
    }

    /// Any folded-stack document the profiler could emit parses back to
    /// the same (path, value) sequence.
    #[test]
    fn folded_stack_text_round_trips(
        lines in proptest::collection::vec(
            ("[a-z][a-z0-9_.]{0,12}(;[a-z][a-z0-9_.]{0,12}){0,4}", 1u64..=u64::MAX / 2),
            0..24,
        ),
    ) {
        let text: String =
            lines.iter().map(|(path, v)| format!("{path} {v}\n")).collect();
        let parsed = parse_folded(&text);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}", parsed);
        prop_assert_eq!(parsed.unwrap_or_default(), lines);
    }
}

#[test]
fn ring_with_zero_capacity_clamps_to_one() {
    let mut ring = TimelineRing::new(0);
    ring.push(sample_at(1));
    ring.push(sample_at(2));
    assert_eq!(ring.samples().count(), 1);
    assert_eq!(ring.dropped(), 1);
    assert_eq!(ring.samples().next().map(|s| s.t_us), Some(2));
}

#[test]
fn live_profile_folds_parse_back() {
    // End-to-end: profile real spans, render, re-parse.
    let recorder = vmp_obs::Recorder::new(vmp_obs::Collect { profile: true, ..Default::default() });
    let reg = MetricsRegistry::new();
    {
        let _installed = recorder.install();
        for _ in 0..3 {
            let _outer = vmp_obs::span_in(&reg, "tp_outer");
            let _inner = vmp_obs::span_in(&reg, "tp_inner");
        }
    }
    let folded = recorder.profile().folded_stacks();
    let parsed = parse_folded(&folded).expect("own folded output must parse");
    assert!(
        parsed.iter().any(|(path, v)| path == "tp_outer;tp_inner" && *v > 0),
        "nested path missing from folded output: {folded:?}"
    );
}

#[test]
fn nested_installs_restore_the_previous_recorder() {
    let outer = Recorder::new(Collect { profile: true, ..Collect::default() });
    let inner = Recorder::new(Collect { chrome_trace: true, ..Collect::default() });
    let reg = MetricsRegistry::new();
    let outer_installed = outer.install();
    {
        let _inner_installed = inner.install();
        drop(vmp_obs::span_in(&reg, "tp_inner_only"));
    }
    drop(vmp_obs::span_in(&reg, "tp_outer_only"));
    drop(outer_installed);
    drop(vmp_obs::span_in(&reg, "tp_unrecorded"));
    assert!(Recorder::current().is_none());

    let paths: Vec<String> = outer.profile().entries().into_iter().map(|e| e.path).collect();
    assert_eq!(paths, ["tp_outer_only"]);
    let names: Vec<_> = inner.chrome_trace().events().into_iter().map(|e| e.name).collect();
    assert_eq!(names, ["tp_inner_only"]);
    assert_eq!(reg.histogram("tp_unrecorded").count(), 1, "metrics record without a recorder");
}

#[test]
fn a_taken_session_report_is_taken_once() {
    let sessions = Some(TraceConfig { head_rate: 1, ..TraceConfig::default() });
    let recorder = Recorder::new(Collect { sessions, ..Collect::default() });
    let _installed = recorder.install();
    session_trace::begin(1, 0, 0, 0, 0.0).finish(1.0, false, 0.0);
    let report = recorder.take_session_report().expect("the recorder traces sessions");
    assert_eq!((report.seen, report.kept()), (1, 1));
    // Sessions finished after the report are not kept anywhere.
    session_trace::begin(2, 0, 0, 0, 0.0).finish(1.0, true, 0.0);
    assert!(recorder.take_session_report().is_none());
}
