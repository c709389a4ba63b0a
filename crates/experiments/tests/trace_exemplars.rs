//! Alert→exemplar consistency at the ISSUE's acceptance seed.
//!
//! Runs each monitor preset with session tracing armed and checks that
//! every raised alert carries exemplar traces that actually corroborate
//! it: right id namespace, right cell tags, inside the alert window, and
//! showing degradation evidence on the culprit CDN.

use std::collections::BTreeMap;

use vmp_experiments::figures::monitor::{preset_alerts, preset_trace_base, presets};
use vmp_obs::session_trace::{SessionTrace, TraceConfig, TraceEventKind};
use vmp_obs::{Collect, Recorder};
use vmp_monitor::Cell;

/// ISSUE acceptance seed.
const SEED: u64 = 7;

/// Id stride between preset arms (mirrors `figures::monitor::ARM_STRIDE`).
fn arm_range(preset: usize) -> std::ops::Range<u64> {
    preset_trace_base(preset)..preset_trace_base(preset + 1)
}

#[test]
fn every_preset_alert_carries_culprit_consistent_exemplars_at_seed_7() {
    // One recorder covers all three preset arms; their id namespaces are
    // disjoint, so each alert's exemplars pin it to its arm.
    let recorder = Recorder::new(Collect {
        sessions: Some(TraceConfig {
            seed: SEED,
            // Headroom over the default: three full arms of anomalous
            // traces must fit so the tail policy can't be forced to drop
            // any.
            byte_budget: 64 << 20,
            ..TraceConfig::default()
        }),
        ..Collect::default()
    });
    let per_preset: Vec<_> = {
        let _installed = recorder.install();
        (0..presets().len()).map(|p| preset_alerts(SEED, p)).collect()
    };
    let report = recorder.take_session_report().expect("the recorder traces sessions");
    let by_id: BTreeMap<u64, &SessionTrace> =
        report.traces.iter().map(|t| (t.session, t)).collect();

    for (preset, alerts) in per_preset.iter().enumerate() {
        let (label, culprit, _) = presets()[preset];
        assert!(!alerts.is_empty(), "{label}: preset raised no alerts at seed {SEED}");
        for alert in alerts {
            assert!(
                !alert.exemplars.is_empty(),
                "{label}: alert '{alert}' carries no exemplar traces"
            );
            let mut culprit_corroborated = alert.cell.cdn() != Some(culprit);
            for id in &alert.exemplars {
                assert!(
                    arm_range(preset).contains(id),
                    "{label}: exemplar {id} of '{alert}' is outside this arm's id range"
                );
                let t = by_id
                    .get(id)
                    .unwrap_or_else(|| panic!("{label}: exemplar {id} not in the kept set"));
                // Tag consistency: the trace must belong to the alert cell.
                if let Some(cdn) = alert.cell.cdn() {
                    assert_eq!(
                        t.cdn,
                        cdn.dense_index() as u8,
                        "{label}: exemplar {id} cdn tag disagrees with cell of '{alert}'"
                    );
                }
                if let Some(region) = alert.cell.region() {
                    assert_eq!(
                        t.region, region as u8,
                        "{label}: exemplar {id} region tag disagrees with cell of '{alert}'"
                    );
                }
                if let Cell::Publisher(p) = alert.cell {
                    assert_eq!(
                        t.publisher, p,
                        "{label}: exemplar {id} publisher tag disagrees with cell of '{alert}'"
                    );
                }
                // Window consistency: the session ended inside the window
                // the detector aggregated over.
                assert!(
                    t.end_clock >= alert.window.0 .0 && t.end_clock <= alert.window.1 .0,
                    "{label}: exemplar {id} ended at {} outside window {:?} of '{alert}'",
                    t.end_clock,
                    alert.window
                );
                // Degradation evidence: a fault-path event on the culprit
                // CDN, a stall, an anomaly flag, or a fatal exit. Exemplar
                // lists pad with normal head-sampled sessions when fewer
                // than the limit are anomalous, so only *some* exemplar
                // has to corroborate the culprit first-hand.
                let culprit_dense = culprit.dense_index() as u8;
                let degraded = t.fatal
                    || t.anomaly != 0
                    || t.events.iter().any(|e| {
                        e.kind == TraceEventKind::Rebuffer
                            || (e.cdn == culprit_dense
                                && matches!(
                                    e.kind,
                                    TraceEventKind::ChunkError
                                        | TraceEventKind::Retry
                                        | TraceEventKind::Timeout
                                        | TraceEventKind::ManifestRetry
                                        | TraceEventKind::RetryDenied
                                        | TraceEventKind::BreakerOpen
                                ))
                    });
                culprit_corroborated |= degraded;
            }
            assert!(
                culprit_corroborated,
                "{label}: no exemplar of '{alert}' shows degradation on {culprit:?}"
            );
        }
    }
}
