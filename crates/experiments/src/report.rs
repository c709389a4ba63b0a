//! Unified machine-readable run report (`repro --report PATH`).
//!
//! One document — schema `vmp-report/1` — combining everything the
//! telemetry plane knows about a run: per-experiment wall times and check
//! outcomes, the top-level stage table (depth-1 spans on the driver
//! thread, whose inclusive times partition the run wall clock), the full
//! span profile (folded-stack aggregation), the resource-sampler timeline
//! (RSS + metric levels over time), a complete metrics snapshot, and
//! drop/saturation diagnostics. `repro` writes it as pretty JSON plus a
//! rendered Markdown twin (`PATH` with its extension swapped to `.md`), so
//! the same artifact serves CI gates and humans.
//!
//! [`validate_report`] is the schema check used by tests and CI: it walks
//! a parsed JSON document and verifies every required section and field
//! kind, so a report produced by any future version either still satisfies
//! consumers of `vmp-report/1` or fails loudly.

use serde::Serialize;
use vmp_obs::{ProfileEntry, RegistrySnapshot, Timeline};

use crate::result::ExperimentResult;

/// Schema identifier stamped on every report.
pub const REPORT_SCHEMA: &str = "vmp-report/1";

/// One experiment's outcome, reduced to the fields trend tooling needs.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentSummary {
    /// Experiment ID (`fig02`, `resilience`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Wall-clock seconds this experiment took.
    pub wall_time_secs: f64,
    /// Checks that held.
    pub checks_passed: usize,
    /// Checks that failed.
    pub checks_failed: usize,
    /// Names of failed checks (empty on a clean run).
    pub failed_checks: Vec<String>,
    /// Per-stage seconds from span-histogram deltas during this experiment.
    pub stages: Vec<(String, f64)>,
}

/// Drop and saturation counters that would otherwise hide in raw metrics.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostics {
    /// Trace events retained by the recorder's Chrome trace.
    pub trace_events: u64,
    /// Trace events discarded because the trace was at capacity.
    pub trace_dropped: u64,
    /// Resource-timeline samples evicted from the bounded ring.
    pub timeline_dropped: u64,
    /// Human-readable warnings derived from the counters above (empty when
    /// nothing was lost and every check passed).
    pub warnings: Vec<String>,
}

impl Diagnostics {
    /// Collects drop/saturation state from the current thread's recorder
    /// (none: nothing traced, nothing lost), deriving a warning line per
    /// nonzero loss counter.
    pub fn collect(results: &[ExperimentResult], timeline_dropped: u64) -> Diagnostics {
        let (trace_events, trace_dropped) = vmp_obs::Recorder::current().map_or((0, 0), |r| {
            let trace = r.chrome_trace();
            (trace.len() as u64, trace.dropped())
        });
        let mut warnings = Vec::new();
        if trace_dropped > 0 {
            warnings.push(format!(
                "trace collector saturated: {trace_dropped} events dropped at capacity — \
                 the Chrome trace is truncated"
            ));
        }
        if timeline_dropped > 0 {
            warnings.push(format!(
                "resource timeline ring evicted {timeline_dropped} samples — the \
                 time-series section only covers the tail of the run"
            ));
        }
        let failed: usize = results.iter().map(|r| r.failures().len()).sum();
        if failed > 0 {
            warnings.push(format!("{failed} experiment check(s) failed"));
        }
        Diagnostics { trace_events, trace_dropped, timeline_dropped, warnings }
    }
}

/// The unified run report.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Always [`REPORT_SCHEMA`].
    pub schema: String,
    /// Master seed the run used.
    pub seed: u64,
    /// `full`, `quick`, or `standalone`.
    pub scale: String,
    /// View-volume multiplier (`repro --scale N`; 1 = the paper's default
    /// volume).
    pub scale_factor: u64,
    /// Experiment IDs in run order.
    pub experiment_ids: Vec<String>,
    /// End-to-end wall-clock seconds (ecosystem generation through the
    /// last experiment).
    pub wall_time_secs: f64,
    /// Sum of top-level stage inclusive times — within a few percent of
    /// `wall_time_secs` when span coverage is complete.
    pub stage_seconds_total: f64,
    /// Peak resident-set size observed by the sampler (bytes; 0 when
    /// sampling was off or `/proc` is unavailable).
    pub peak_rss_bytes: u64,
    /// Per-experiment outcomes.
    pub experiments: Vec<ExperimentSummary>,
    /// Top-level stages: depth-1 spans on the driver thread.
    pub stages: Vec<ProfileEntry>,
    /// Full span profile (every aggregated path).
    pub profile: Vec<ProfileEntry>,
    /// Resource-sampler time series.
    pub timeline: Timeline,
    /// Complete metrics snapshot at the end of the run.
    pub metrics: RegistrySnapshot,
    /// Drop/saturation diagnostics.
    pub diagnostics: Diagnostics,
}

impl RunReport {
    /// Assembles the report from the run's results, the current thread's
    /// recorder (its profile) and the global metrics. Call after the last
    /// experiment, on the thread that built the recorder.
    pub fn collect(
        seed: u64,
        scale: &str,
        scale_factor: u64,
        results: &[ExperimentResult],
        wall_time_secs: f64,
        timeline: Timeline,
    ) -> RunReport {
        let (stages, profile) = vmp_obs::Recorder::current()
            .map(|r| (r.profile().stages(), r.profile().entries()))
            .unwrap_or_default();
        let stage_seconds_total = stages.iter().map(|s| s.inclusive_ns as f64 / 1e9).sum();
        let peak_rss_bytes = timeline.peak_rss_bytes().max(vmp_obs::rss_bytes());
        let diagnostics = Diagnostics::collect(results, timeline.dropped);
        RunReport {
            schema: REPORT_SCHEMA.to_string(),
            seed,
            scale: scale.to_string(),
            scale_factor,
            experiment_ids: results.iter().map(|r| r.id.clone()).collect(),
            wall_time_secs,
            stage_seconds_total,
            peak_rss_bytes,
            experiments: results
                .iter()
                .map(|r| ExperimentSummary {
                    id: r.id.clone(),
                    title: r.title.clone(),
                    wall_time_secs: r.wall_time_secs,
                    checks_passed: r.checks.len() - r.failures().len(),
                    checks_failed: r.failures().len(),
                    failed_checks: r.failures().iter().map(|c| c.name.clone()).collect(),
                    stages: r.stages.clone(),
                })
                .collect(),
            stages,
            profile,
            timeline,
            metrics: vmp_obs::snapshot(),
            diagnostics,
        }
    }

    /// Pretty JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(json) => json,
            // Serialization of a value tree cannot fail; keep the seam
            // non-panicking for the panic-policy lint regardless.
            Err(e) => format!("{{\"schema\":\"{REPORT_SCHEMA}\",\"error\":\"{e:?}\"}}"),
        }
    }

    /// Renders the human-readable Markdown twin.
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str(&format!(
            "# Run report ({})\n\nseed `{}` · scale `{}` (×{}) · wall {:.2}s · peak RSS {}\n\n",
            self.schema,
            self.seed,
            self.scale,
            self.scale_factor,
            self.wall_time_secs,
            fmt_bytes(self.peak_rss_bytes),
        ));

        md.push_str("## Experiments\n\n| id | wall (s) | checks | failed |\n| --- | ---: | ---: | --- |\n");
        for e in &self.experiments {
            md.push_str(&format!(
                "| `{}` | {:.3} | {}/{} | {} |\n",
                e.id,
                e.wall_time_secs,
                e.checks_passed,
                e.checks_passed + e.checks_failed,
                if e.failed_checks.is_empty() { "—".to_string() } else { e.failed_checks.join(", ") },
            ));
        }

        md.push_str(&format!(
            "\n## Stages\n\nTop-level stages cover {:.2}s of the {:.2}s run ({:.0}%).\n\n\
             | stage | calls | inclusive (s) | % of wall |\n| --- | ---: | ---: | ---: |\n",
            self.stage_seconds_total,
            self.wall_time_secs,
            percent(self.stage_seconds_total, self.wall_time_secs),
        ));
        for s in &self.stages {
            let secs = s.inclusive_ns as f64 / 1e9;
            md.push_str(&format!(
                "| `{}` | {} | {:.3} | {:.1}% |\n",
                s.path,
                s.count,
                secs,
                percent(secs, self.wall_time_secs),
            ));
        }

        md.push_str(
            "\n## Profile (top paths by exclusive time)\n\n\
             | path | calls | inclusive (s) | exclusive (s) |\n| --- | ---: | ---: | ---: |\n",
        );
        let mut by_exclusive: Vec<&ProfileEntry> = self.profile.iter().collect();
        by_exclusive.sort_by(|a, b| {
            b.exclusive_ns.cmp(&a.exclusive_ns).then_with(|| a.path.cmp(&b.path))
        });
        for p in by_exclusive.iter().take(20) {
            md.push_str(&format!(
                "| `{}` | {} | {:.3} | {:.3} |\n",
                p.path,
                p.count,
                p.inclusive_ns as f64 / 1e9,
                p.exclusive_ns as f64 / 1e9,
            ));
        }

        md.push_str(&format!(
            "\n## Resource timeline\n\n{} samples at {} ms ({} evicted) · peak RSS {}\n",
            self.timeline.samples.len(),
            self.timeline.interval_ms,
            self.timeline.dropped,
            fmt_bytes(self.peak_rss_bytes),
        ));
        if let (Some(first), Some(last)) =
            (self.timeline.samples.first(), self.timeline.samples.last())
        {
            md.push_str(&format!(
                "RSS {} → {} over {:.2}s\n",
                fmt_bytes(first.rss_bytes),
                fmt_bytes(last.rss_bytes),
                (last.t_us.saturating_sub(first.t_us)) as f64 / 1e6,
            ));
        }

        md.push_str(&format!(
            "\n## Diagnostics\n\ntrace events {} (dropped {}) · timeline evicted {}\n",
            self.diagnostics.trace_events,
            self.diagnostics.trace_dropped,
            self.diagnostics.timeline_dropped,
        ));
        for w in &self.diagnostics.warnings {
            md.push_str(&format!("\n> ⚠ {w}\n"));
        }
        md
    }
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 * 1024 {
        format!("{:.2} GiB", bytes as f64 / (1024.0 * 1024.0 * 1024.0))
    } else if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else {
        format!("{bytes} B")
    }
}

/// Validates a parsed `vmp-report/1` document: every required section
/// present with the right shape. Returns the list of violations (empty =
/// valid).
pub fn validate_report(doc: &serde_json::Value) -> Vec<String> {
    fn need(errors: &mut Vec<String>, key: &str, ok: bool) {
        if !ok {
            errors.push(format!("missing or mistyped field `{key}`"));
        }
    }
    let mut errors = Vec::new();
    need(
        &mut errors,
        "schema",
        doc.get("schema").and_then(|v| v.as_str()) == Some(REPORT_SCHEMA),
    );
    need(&mut errors, "seed", doc.get("seed").and_then(|v| v.as_u64()).is_some());
    need(&mut errors, "scale", doc.get("scale").and_then(|v| v.as_str()).is_some());
    need(
        &mut errors,
        "scale_factor",
        doc.get("scale_factor").and_then(|v| v.as_u64()).is_some_and(|s| s >= 1),
    );
    need(
        &mut errors,
        "experiment_ids",
        doc.get("experiment_ids").and_then(|v| v.as_array()).is_some(),
    );
    need(
        &mut errors,
        "wall_time_secs",
        doc.get("wall_time_secs").and_then(|v| v.as_f64()).is_some_and(|w| w >= 0.0),
    );
    need(
        &mut errors,
        "stage_seconds_total",
        doc.get("stage_seconds_total").and_then(|v| v.as_f64()).is_some(),
    );
    need(
        &mut errors,
        "peak_rss_bytes",
        doc.get("peak_rss_bytes").and_then(|v| v.as_u64()).is_some(),
    );

    match doc.get("experiments").and_then(|v| v.as_array()) {
        None => errors.push("missing or mistyped field `experiments`".to_string()),
        Some(rows) => {
            for row in rows {
                for key in ["id", "title"] {
                    if row.get(key).and_then(|v| v.as_str()).is_none() {
                        errors.push(format!("experiment row missing string `{key}`"));
                    }
                }
                for key in ["wall_time_secs"] {
                    if row.get(key).and_then(|v| v.as_f64()).is_none() {
                        errors.push(format!("experiment row missing number `{key}`"));
                    }
                }
            }
        }
    }

    for section in ["stages", "profile"] {
        match doc.get(section).and_then(|v| v.as_array()) {
            None => errors.push(format!("missing or mistyped field `{section}`")),
            Some(rows) => {
                for row in rows {
                    if row.get("path").and_then(|v| v.as_str()).is_none()
                        || row.get("count").and_then(|v| v.as_u64()).is_none()
                        || row.get("inclusive_ns").and_then(|v| v.as_u64()).is_none()
                        || row.get("exclusive_ns").and_then(|v| v.as_u64()).is_none()
                    {
                        errors.push(format!("malformed `{section}` row: {row:?}"));
                    }
                }
            }
        }
    }

    let timeline_ok = doc
        .get("timeline")
        .map(|t| {
            t.get("interval_ms").and_then(|v| v.as_u64()).is_some()
                && t.get("dropped").and_then(|v| v.as_u64()).is_some()
                && t.get("samples").and_then(|v| v.as_array()).is_some()
        })
        .unwrap_or(false);
    need(&mut errors, "timeline", timeline_ok);

    let metrics_ok = doc
        .get("metrics")
        .map(|m| {
            m.get("counters").and_then(|v| v.as_object()).is_some()
                && m.get("histograms").and_then(|v| v.as_object()).is_some()
        })
        .unwrap_or(false);
    need(&mut errors, "metrics", metrics_ok);

    let diagnostics_ok = doc
        .get("diagnostics")
        .map(|d| {
            d.get("trace_dropped").and_then(|v| v.as_u64()).is_some()
                && d.get("warnings").and_then(|v| v.as_array()).is_some()
        })
        .unwrap_or(false);
    need(&mut errors, "diagnostics", diagnostics_ok);

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Check;

    fn demo_results() -> Vec<ExperimentResult> {
        let mut ok = ExperimentResult::new("fig02", "Packaging");
        ok.wall_time_secs = 0.5;
        ok.checks.push(Check::new("a", true, "ok"));
        let mut bad = ExperimentResult::new("fig03", "Codecs");
        bad.checks.push(Check::new("b", false, "off"));
        vec![ok, bad]
    }

    #[test]
    fn report_serializes_validates_and_renders() {
        let results = demo_results();
        let report =
            RunReport::collect(7, "quick", 1, &results, 1.25, vmp_obs::Timeline::empty());
        let json = report.to_json_pretty();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("report JSON parses");
        let errors = validate_report(&doc);
        assert!(errors.is_empty(), "schema violations: {errors:?}");

        let md = report.to_markdown();
        assert!(md.contains("# Run report (vmp-report/1)"));
        assert!(md.contains("`fig02`"));
        assert!(md.contains("## Diagnostics"));
        // The failed check surfaces as a warning.
        assert!(report.diagnostics.warnings.iter().any(|w| w.contains("check(s) failed")));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let doc: serde_json::Value =
            serde_json::from_str("{\"schema\": \"vmp-report/0\"}").expect("parses");
        let errors = validate_report(&doc);
        assert!(errors.iter().any(|e| e.contains("schema")));
        assert!(errors.iter().any(|e| e.contains("metrics")));
        assert!(errors.len() >= 8, "every missing section must be reported: {errors:?}");
    }
}
