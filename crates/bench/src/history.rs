//! Append-only perf history: one JSON line per recorded run.
//!
//! `results/BENCH_history.jsonl` accumulates [`HistoryEntry`] lines across
//! PRs. Each entry flattens one source document into a `name → value` map:
//!
//! - `source: "criterion"` — the merged Criterion results
//!   (`results/BENCH_results.json`, schema `vmp-bench/1`); metrics are
//!   `median_ns` per benchmark, in nanoseconds.
//! - `source: "repro"` — a `vmp-report/1` run report (`repro --report`);
//!   metrics are run/stage/experiment wall seconds plus peak RSS bytes,
//!   prefixed so the two namespaces never collide.
//! - `source: "e2ebench"` — end-to-end medians of a BENCHMARK.json A/B set
//!   (`<workload>.<metric>`, the parent's under `parent.`), written by hand
//!   next to a Criterion canary until `append` learns to ingest the
//!   benchmark's result sets; such a row states its host and conditions in
//!   an extra `conditions` string, which [`parse_history`] ignores.
//!
//! Entries carry no ambient clock reads — the caller (the `vmp-bench`
//! binary or CI) stamps `label`/`recorded_at`, keeping this module usable
//! from library code under the D1 lint rule.

use std::collections::BTreeMap;

use serde::Serialize;
use serde_json::Value;

/// Schema identifier stamped on every history line.
pub const HISTORY_SCHEMA: &str = "vmp-bench-history/1";

/// One recorded run: a flat metric map plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistoryEntry {
    /// Always [`HISTORY_SCHEMA`].
    pub schema: String,
    /// Where the metrics came from: `criterion` or `repro`.
    pub source: String,
    /// Caller-supplied provenance (git SHA, CI run ID, "local", ...).
    pub label: String,
    /// Caller-supplied timestamp string (empty when unknown).
    pub recorded_at: String,
    /// Flat metric map. Criterion entries are `median_ns` nanoseconds;
    /// repro entries are seconds (`run.wall_time_secs`, `stage.*`,
    /// `experiment.*`) or bytes (`run.peak_rss_bytes`).
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryEntry {
    /// Renders the entry as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| {
            format!("{{\"schema\":\"{HISTORY_SCHEMA}\",\"error\":\"{e:?}\"}}")
        })
    }
}

/// Extracts a history entry from a merged Criterion results document
/// (schema `vmp-bench/1`): one metric per benchmark, value = `median_ns`.
pub fn entry_from_bench_results(
    doc: &Value,
    label: &str,
    recorded_at: &str,
) -> Result<HistoryEntry, String> {
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "vmp-bench/1" {
        return Err(format!("expected schema vmp-bench/1, got `{schema}`"));
    }
    let benchmarks = doc
        .get("benchmarks")
        .and_then(|v| v.as_object())
        .ok_or_else(|| "missing `benchmarks` object".to_string())?;
    let mut metrics = BTreeMap::new();
    for (name, bench) in benchmarks {
        let median = bench
            .get("median_ns")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("benchmark `{name}` has no numeric `median_ns`"))?;
        metrics.insert(name.clone(), median);
    }
    if metrics.is_empty() {
        return Err("no benchmarks in document".to_string());
    }
    Ok(HistoryEntry {
        schema: HISTORY_SCHEMA.to_string(),
        source: "criterion".to_string(),
        label: label.to_string(),
        recorded_at: recorded_at.to_string(),
        metrics,
    })
}

/// Extracts a history entry from a `vmp-report/1` run report: overall wall
/// time, peak RSS, per-stage inclusive seconds, per-experiment seconds.
pub fn entry_from_run_report(
    doc: &Value,
    label: &str,
    recorded_at: &str,
) -> Result<HistoryEntry, String> {
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "vmp-report/1" {
        return Err(format!("expected schema vmp-report/1, got `{schema}`"));
    }
    let mut metrics = BTreeMap::new();
    let wall = doc
        .get("wall_time_secs")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| "missing numeric `wall_time_secs`".to_string())?;
    metrics.insert("run.wall_time_secs".to_string(), wall);
    if let Some(rss) = doc.get("peak_rss_bytes").and_then(|v| v.as_u64()) {
        metrics.insert("run.peak_rss_bytes".to_string(), rss as f64);
    }
    for stage in doc.get("stages").and_then(|v| v.as_array()).unwrap_or_default() {
        if let (Some(path), Some(ns)) = (
            stage.get("path").and_then(|v| v.as_str()),
            stage.get("inclusive_ns").and_then(|v| v.as_u64()),
        ) {
            metrics.insert(format!("stage.{path}"), ns as f64 / 1e9);
        }
    }
    for exp in doc.get("experiments").and_then(|v| v.as_array()).unwrap_or_default() {
        if let (Some(id), Some(secs)) = (
            exp.get("id").and_then(|v| v.as_str()),
            exp.get("wall_time_secs").and_then(|v| v.as_f64()),
        ) {
            metrics.insert(format!("experiment.{id}"), secs);
        }
    }
    Ok(HistoryEntry {
        schema: HISTORY_SCHEMA.to_string(),
        source: "repro".to_string(),
        label: label.to_string(),
        recorded_at: recorded_at.to_string(),
        metrics,
    })
}

/// Parses a `BENCH_history.jsonl` document into entries, skipping blank
/// lines. Returns an error naming the first malformed line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: invalid JSON: {e:?}", lineno + 1))?;
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing string `{key}`", lineno + 1))
        };
        let schema = field("schema")?;
        if schema != HISTORY_SCHEMA {
            return Err(format!("line {}: unknown schema `{schema}`", lineno + 1));
        }
        let metrics_obj = doc
            .get("metrics")
            .and_then(|v| v.as_object())
            .ok_or_else(|| format!("line {}: missing `metrics` object", lineno + 1))?;
        let mut metrics = BTreeMap::new();
        for (name, value) in metrics_obj {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("line {}: metric `{name}` is not numeric", lineno + 1))?;
            metrics.insert(name.clone(), value);
        }
        entries.push(HistoryEntry {
            schema,
            source: field("source")?,
            label: field("label")?,
            recorded_at: field("recorded_at")?,
            metrics,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc() -> Value {
        serde_json::from_str(
            r#"{
                "schema": "vmp-bench/1",
                "unit": "ns/iter",
                "benchmarks": {
                    "alpha": {"median_ns": 120.5, "samples": 30},
                    "beta": {"median_ns": 98000.0, "samples": 30}
                }
            }"#,
        )
        .expect("doc parses")
    }

    #[test]
    fn bench_results_flatten_to_median_ns() {
        let entry = entry_from_bench_results(&bench_doc(), "abc123", "2026-08-08")
            .expect("extraction succeeds");
        assert_eq!(entry.source, "criterion");
        assert_eq!(entry.metrics.get("alpha"), Some(&120.5));
        assert_eq!(entry.metrics.get("beta"), Some(&98000.0));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc: Value = serde_json::from_str("{\"schema\": \"nope\"}").expect("parses");
        assert!(entry_from_bench_results(&doc, "x", "").is_err());
        assert!(entry_from_run_report(&doc, "x", "").is_err());
    }

    #[test]
    fn run_report_flattens_stages_and_experiments() {
        let doc: Value = serde_json::from_str(
            r#"{
                "schema": "vmp-report/1",
                "wall_time_secs": 12.5,
                "peak_rss_bytes": 1048576,
                "stages": [
                    {"path": "run.generate", "count": 1, "inclusive_ns": 10000000000, "exclusive_ns": 1}
                ],
                "experiments": [
                    {"id": "fig02", "wall_time_secs": 0.25}
                ]
            }"#,
        )
        .expect("doc parses");
        let entry = entry_from_run_report(&doc, "ci", "").expect("extraction succeeds");
        assert_eq!(entry.source, "repro");
        assert_eq!(entry.metrics.get("run.wall_time_secs"), Some(&12.5));
        assert_eq!(entry.metrics.get("run.peak_rss_bytes"), Some(&1048576.0));
        assert_eq!(entry.metrics.get("stage.run.generate"), Some(&10.0));
        assert_eq!(entry.metrics.get("experiment.fig02"), Some(&0.25));
    }

    #[test]
    fn history_lines_round_trip() {
        let a = entry_from_bench_results(&bench_doc(), "run-1", "t1").expect("extracts");
        let mut b = a.clone();
        b.label = "run-2".to_string();
        let text = format!("{}\n{}\n\n", a.to_json_line(), b.to_json_line());
        let parsed = parse_history(&text).expect("parses");
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn malformed_history_reports_line_number() {
        let err = parse_history("{\"schema\": \"vmp-bench-history/1\"}").expect_err("rejects");
        assert!(err.contains("line 1"), "error should name the line: {err}");
    }
}
