//! Runs own their recorders: two runs in one process, each on its own
//! thread under its own `Recorder`, share no profile and no session
//! capture, and tracing a run changes none of its results.

use vmp_experiments::{run_standalone, ReproContext, Scale, SCENARIOS};
use vmp_obs::{Collect, Profile, Recorder, TraceConfig, TraceReport};

/// The acceptance seed of the scenario experiments.
const SEED: u64 = 7;

/// Every scenario at [`SEED`], serialized with the wall-clock fields
/// (`wall_time_secs`, `stages`) blanked, under a fresh recorder that
/// traces sessions when `traced` — then that recorder's capture.
fn scenarios(traced: bool) -> (Vec<String>, Option<TraceReport>) {
    let sessions = traced.then(|| TraceConfig { seed: SEED, ..TraceConfig::default() });
    let recorder = Recorder::new(Collect { sessions, ..Collect::default() });
    let installed = recorder.install();
    let results = SCENARIOS
        .iter()
        .map(|id| {
            let mut result = run_standalone(id, SEED).expect("scenario id is registered");
            result.wall_time_secs = 0.0;
            result.stages.clear();
            serde_json::to_string(&result).expect("results serialize")
        })
        .collect();
    drop(installed);
    (results, recorder.take_session_report())
}

#[test]
fn session_tracing_changes_no_scenario_result() {
    let [(traced, capture), (plain, none), (_, again)] = std::thread::scope(|s| {
        [s.spawn(|| scenarios(true)), s.spawn(|| scenarios(false)), s.spawn(|| scenarios(true))]
            .map(|run| run.join().expect("scenario thread"))
    });
    assert!(none.is_none());
    assert_eq!(traced, plain, "tracing sessions must not change a scenario's result");
    let (capture, again) = (capture.expect("traced run"), again.expect("traced run"));
    assert!(capture.kept() > 0 && capture.tail_kept > 0, "the capture kept nothing");
    assert_eq!(capture.to_jsonl(), again.to_jsonl(), "two recorders at one seed differ");
}

/// Builds the quick ecosystem under a fresh profiling recorder, inside a
/// `run.generate` span, then opens the depth-1 span `marker`.
fn profiled_build(marker: &'static str) -> Recorder {
    let recorder = Recorder::new(Collect { profile: true, ..Collect::default() });
    let _installed = recorder.install();
    {
        let _generate = vmp_obs::span("run.generate");
        drop(ReproContext::with_options(Scale::Quick, None, 1, None));
    }
    drop(vmp_obs::span(marker));
    recorder
}

fn count(profile: &Profile, path: &str) -> Option<u64> {
    profile.entries().into_iter().find(|e| e.path == path).map(|e| e.count)
}

#[test]
fn two_contexts_on_two_threads_keep_disjoint_profiles() {
    let markers = ["run.experiments", "run.export"];
    let [a, b] = std::thread::scope(|s| {
        markers.map(|m| s.spawn(move || profiled_build(m))).map(|h| h.join().expect("build"))
    });
    for (mine, theirs, (marker, other)) in
        [(&a, &b, (markers[0], markers[1])), (&b, &a, (markers[1], markers[0]))]
    {
        let stages: Vec<(String, u64)> =
            mine.profile().stages().into_iter().map(|e| (e.path, e.count)).collect();
        assert!(stages.contains(&("run.generate".to_string(), 1)), "{stages:?}");
        assert!(stages.contains(&(marker.to_string(), 1)), "{stages:?}");
        assert_eq!(stages.len(), 2, "{stages:?}");
        assert_eq!(count(mine.profile(), other), None, "{marker}'s profile holds {other}");
        // The generator shards record into their creator's recorder only.
        let snapshots = count(mine.profile(), "synth.snapshot");
        assert!(snapshots.is_some_and(|n| n > 0));
        assert_eq!(snapshots, count(theirs.profile(), "synth.snapshot"));
    }
}
