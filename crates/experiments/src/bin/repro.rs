//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [--quick] [--scale N] [--seed N] [--experiment ID] [--json PATH]
//!       [--metrics PATH] [--trace PATH] [--report PATH] [--flame PATH]
//!       [--session-trace PATH] [--sample-ms N] [ID ...]
//! ```
//! With no IDs (or the alias `all`), runs everything in paper order.
//! `--quick` uses the reduced ecosystem (CI-sized); the default is the full
//! EXPERIMENTS.md run. `--scale N` multiplies the view volume (1 = the
//! paper's default ≈1.2M samples). At every scale generation streams
//! straight into ingest and only the columnar segments are kept; above 1
//! this binary also hands ingest a process-unique temp directory, so sealed
//! segments spill to it under an LRU hot cache and RSS stays roughly flat
//! while the row count grows 100×+. `--seed N` overrides the master seed;
//! `--experiment ID` is equivalent to a bare ID; `--metrics PATH` dumps a
//! JSON snapshot of the observability registry after the run; `--trace
//! PATH` records every span, monitor window sample, and alert as Chrome
//! `trace_event` JSON (load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>).
//!
//! Telemetry-plane outputs:
//!
//! - `--report PATH` writes the unified `vmp-report/1` run report (JSON)
//!   plus a rendered Markdown twin next to it (`PATH` with extension
//!   `.md`): per-experiment outcomes, top-level stage table, span profile,
//!   resource timeline, metrics snapshot, and drop diagnostics. Arms the
//!   span profiler and the background resource sampler.
//! - `--flame PATH` writes the aggregated span profile as folded stacks
//!   (`path;to;span COUNT` lines, inferno/flamegraph.pl compatible). Arms
//!   the span profiler.
//! - `--sample-ms N` sets the resource-sampler interval (default 50 ms).
//! - `--session-trace PATH` arms the per-session wide-event tracer and
//!   writes the kept traces as `vmp-session-trace/1` JSONL. Only played
//!   sessions are traced — the `resilience`, `monitor` and `live_event`
//!   scenarios play them; the paper figures' generated views are sampled,
//!   not played, so a figures-only capture holds none. One header
//!   line, one line per kept session (head-sampled ~1/16 of normal
//!   sessions plus *every* anomalous one, under a deterministic byte
//!   budget), and one line per alert with its exemplar trace ids. The
//!   kept set is a pure function of the master seed — two runs at the
//!   same seed produce byte-identical files.
//!
//! When every requested ID is standalone (ablations and scenarios such as
//! `resilience` or `monitor`), the ecosystem is not generated at all.
//!
//! Drop/saturation diagnostics (trace-collector saturation, timeline
//! evictions) are always surfaced on stderr when nonzero, and embedded in
//! `--json` / `--report` output.

use serde::Serialize;
use vmp_experiments::{
    is_standalone, run, run_standalone, Diagnostics, ExperimentResult, ReproContext, RunReport,
    Scale, ABLATIONS, ALL_EXPERIMENTS, SCENARIOS,
};

/// Schema of the `--json` summary document.
const RUN_SCHEMA: &str = "vmp-run/1";

/// The `--json` output: full experiment results plus drop diagnostics.
#[derive(Debug, Serialize)]
struct JsonSummary {
    schema: String,
    seed: u64,
    scale: String,
    scale_factor: u64,
    experiments: Vec<ExperimentResult>,
    diagnostics: Diagnostics,
}

fn main() {
    let mut scale = Scale::Full;
    let mut scale_factor: u64 = 1;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut session_trace_path: Option<String> = None;
    let mut sample_ms: u64 = 50;
    let mut seed: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--scale" => {
                scale_factor = match args.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => {
                        eprintln!("--scale requires a positive integer multiplier");
                        std::process::exit(2);
                    }
                };
            }
            "--ablations" => ids.extend(ABLATIONS.iter().map(|s| s.to_string())),
            "--experiment" => match args.next() {
                Some(id) => push_id(&mut ids, &id),
                None => {
                    eprintln!("--experiment requires an ID");
                    std::process::exit(2);
                }
            },
            "--json" => {
                json_path = args.next();
                if json_path.is_none() {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
            "--metrics" => {
                metrics_path = args.next();
                if metrics_path.is_none() {
                    eprintln!("--metrics requires a path");
                    std::process::exit(2);
                }
            }
            "--trace" => {
                trace_path = args.next();
                if trace_path.is_none() {
                    eprintln!("--trace requires a path");
                    std::process::exit(2);
                }
            }
            "--report" => {
                report_path = args.next();
                if report_path.is_none() {
                    eprintln!("--report requires a path");
                    std::process::exit(2);
                }
            }
            "--flame" => {
                flame_path = args.next();
                if flame_path.is_none() {
                    eprintln!("--flame requires a path");
                    std::process::exit(2);
                }
            }
            "--session-trace" => {
                session_trace_path = args.next();
                if session_trace_path.is_none() {
                    eprintln!("--session-trace requires a path");
                    std::process::exit(2);
                }
            }
            "--sample-ms" => {
                sample_ms = match args.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => {
                        eprintln!("--sample-ms requires a positive integer (milliseconds)");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                seed = match args.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) => Some(n),
                    _ => {
                        eprintln!("--seed requires a u64 value");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick] [--scale N] [--seed N] [--experiment ID] \
                     [--ablations] [--json PATH] [--metrics PATH] [--trace PATH] \
                     [--report PATH] [--flame PATH] [--session-trace PATH] \
                     [--sample-ms N] [ID ...]"
                );
                eprintln!("experiments: all {}", ALL_EXPERIMENTS.join(" "));
                eprintln!("ablations:   {}", ABLATIONS.join(" "));
                eprintln!("scenarios:   {}", SCENARIOS.join(" "));
                return;
            }
            other => push_id(&mut ids, other),
        }
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str())
            && !ABLATIONS.contains(&id.as_str())
            && !SCENARIOS.contains(&id.as_str())
        {
            eprintln!(
                "unknown experiment '{id}'; known: all {} {} {}",
                ALL_EXPERIMENTS.join(" "),
                ABLATIONS.join(" "),
                SCENARIOS.join(" ")
            );
            std::process::exit(2);
        }
    }

    // Tracing must be armed before any work runs so the collector sees
    // every span and monitor sample from the start. Likewise the profiler:
    // arming it here pins this thread as the profiling root, so the
    // depth-1 `run.*` spans below become the report's stage table.
    if trace_path.is_some() {
        vmp_obs::set_tracing(true);
    }
    if report_path.is_some() || flame_path.is_some() {
        vmp_obs::set_profiling(true);
    }
    let sampler = report_path.is_some().then(|| vmp_obs::ResourceSampler::start(sample_ms));

    let started = std::time::Instant::now();
    // Standalone experiments (ablations, fault-injection scenarios) only
    // need a seed; skip the expensive ecosystem generation when no
    // requested ID uses it.
    let needs_ctx = ids.iter().any(|id| !is_standalone(id));
    let master_seed =
        seed.unwrap_or_else(|| vmp_synth::ecosystem::EcosystemConfig::default().seed);
    // Session tracing keys its head sampler and reservoir off the master
    // seed, so it must be armed after the seed is resolved but before any
    // session plays (ecosystem generation included).
    if session_trace_path.is_some() {
        vmp_obs::session_trace::arm(vmp_obs::TraceConfig {
            seed: master_seed,
            ..vmp_obs::TraceConfig::default()
        });
    }
    let scale_name = if !needs_ctx {
        "standalone"
    } else {
        match scale {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    };
    let ctx = if needs_ctx {
        eprintln!(
            "generating ecosystem ({scale_name}, x{scale_factor}), running {} experiment(s)...",
            ids.len()
        );
        // Out-of-core runs spill sealed segments under a process-unique
        // temp directory (removed when the store drops). The directory is
        // chosen here — in the binary — so library code stays free of
        // environment reads.
        let spill_dir = (scale_factor > 1).then(|| {
            std::env::temp_dir().join(format!("vmp-spill-{}", std::process::id()))
        });
        let gen_span = vmp_obs::span("run.generate");
        let ctx = ReproContext::with_options(scale, seed, scale_factor, spill_dir);
        drop(gen_span);
        eprintln!(
            "ecosystem ready: {} publishers, {} weighted view samples, {} snapshots ({:.1}s)",
            ctx.dataset.profiles.len(),
            ctx.store.len(),
            ctx.dataset.snapshots.len(),
            started.elapsed().as_secs_f64()
        );
        Some(ctx)
    } else {
        eprintln!("running {} standalone experiment(s) (no ecosystem needed)...", ids.len());
        None
    };

    let mut results = Vec::new();
    let mut failures = 0usize;
    let experiments_span = vmp_obs::span("run.experiments");
    for id in &ids {
        let result = match &ctx {
            Some(ctx) => run(id, ctx),
            None => run_standalone(id, master_seed),
        }
        .expect("id validated above");
        println!("{result}");
        failures += result.failures().len();
        results.push(result);
    }
    drop(experiments_span);

    // Freeze run telemetry before the export phase: stop the sampler (its
    // final boundary sample lands first) and assemble the report while the
    // profiler is still armed.
    let wall_time_secs = started.elapsed().as_secs_f64();
    let timeline = match sampler {
        Some(s) => s.stop(),
        None => vmp_obs::Timeline::empty(),
    };
    let report = report_path
        .is_some()
        .then(|| {
            RunReport::collect(
                master_seed,
                scale_name,
                scale_factor,
                &results,
                wall_time_secs,
                timeline.clone(),
            )
        });
    let diagnostics = match &report {
        Some(r) => r.diagnostics.clone(),
        None => Diagnostics::collect(&results, timeline.dropped),
    };

    let export_span = vmp_obs::span("run.export");
    // Session-trace finalize comes first: it records the `trace.*`
    // counters, which the `--metrics` snapshot below must include.
    if let Some(path) = session_trace_path {
        match vmp_obs::session_trace::finalize() {
            Some(report) => {
                if let Err(e) = std::fs::write(&path, report.to_jsonl()) {
                    eprintln!("cannot write --session-trace output to {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!(
                    "wrote {path} ({} traces kept of {} sessions, {} tail-kept, \
                     {} dropped, {} bytes)",
                    report.kept(),
                    report.seen,
                    report.tail_kept,
                    report.dropped,
                    report.bytes
                );
            }
            None => eprintln!("warning: session tracing was never armed; {path} not written"),
        }
    }

    if let Some(path) = json_path {
        let summary = JsonSummary {
            schema: RUN_SCHEMA.to_string(),
            seed: master_seed,
            scale: scale_name.to_string(),
            scale_factor,
            experiments: results.clone(),
            diagnostics: diagnostics.clone(),
        };
        let json = serde_json::to_string_pretty(&summary).expect("results serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write --json output to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = metrics_path {
        let snapshot = vmp_obs::snapshot();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_pretty()) {
            eprintln!("cannot write --metrics output to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {path} ({} counters, {} histograms)",
            snapshot.counters.len(),
            snapshot.histograms.len()
        );
    }

    if let Some(path) = trace_path {
        let json = vmp_obs::chrome_trace_json();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write --trace output to {path}: {e}");
            std::process::exit(2);
        }
        let dropped = vmp_obs::trace_dropped();
        eprintln!(
            "wrote {path} ({} trace events{})",
            vmp_obs::trace_events().len(),
            if dropped > 0 { format!(", {dropped} dropped at capacity") } else { String::new() }
        );
    }

    if let (Some(path), Some(report)) = (&report_path, &report) {
        if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
            eprintln!("cannot write --report output to {path}: {e}");
            std::process::exit(2);
        }
        let md_path = std::path::Path::new(path).with_extension("md");
        if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
            eprintln!("cannot write report markdown to {}: {e}", md_path.display());
            std::process::exit(2);
        }
        eprintln!(
            "wrote {path} + {} ({} stages, {} profile paths, {} timeline samples)",
            md_path.display(),
            report.stages.len(),
            report.profile.len(),
            report.timeline.samples.len()
        );
    }
    drop(export_span);

    // The flame file goes last, after the `run.export` span closed, so the
    // folded profile covers every top-level phase of this run.
    if let Some(path) = flame_path {
        let folded = vmp_obs::folded_stacks();
        if folded.is_empty() {
            eprintln!("warning: span profile is empty; {path} will have no stacks");
        }
        if let Err(e) = std::fs::write(&path, &folded) {
            eprintln!("cannot write --flame output to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path} ({} folded stack lines)", folded.lines().count());
    }

    for warning in &diagnostics.warnings {
        eprintln!("warning: {warning}");
    }

    let total_checks: usize = results.iter().map(|r| r.checks.len()).sum();
    eprintln!(
        "\n{} experiments, {}/{} checks passed ({:.1}s total)",
        results.len(),
        total_checks - failures,
        total_checks,
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Pushes an experiment ID, expanding the `all` alias to the full paper
/// sequence.
fn push_id(ids: &mut Vec<String>, id: &str) {
    if id == "all" {
        ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    } else {
        ids.push(id.to_string());
    }
}
