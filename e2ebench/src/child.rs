//! One run: set up a workload, repeat its iteration for the run length,
//! check outputs, and print the metrics.
//!
//! This is the command of `BENCHMARK.json`:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. With
//! `--trace 0` it reports the end-to-end metrics from untraced iterations;
//! with `--trace 1` it alternates untraced and traced iterations (their
//! difference is the tracing overhead), then counts allocations over one
//! more iteration, runs the single-threaded probes, writes
//! `out/trace-<workload>.jsonl` and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;
use vmp_core::units::Seconds;
use vmp_obs::Stopwatch;

use crate::alloc::AllocHooks;
use crate::product;
use crate::schema;
use crate::stats::median;
use crate::trace::{Agg, Tracer};
use crate::workloads::{Env, IterMode, IterOutcome, Prepared, Workload};

/// Set-ups per run: at least `MIN_SETUPS`, then more until they have taken
/// `SETUP_SECONDS` together or `MAX_SETUPS` ran; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 3.0;

/// Arguments of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs.
    pub smoke: bool,
}

impl ChildArgs {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke 0|1]`.
    pub fn parse(args: &[String]) -> Result<ChildArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?);
                }
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {value}: must be in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => trace = Some(parse_switch(flag, value)?),
                "--smoke" => smoke = parse_switch(flag, value)?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(ChildArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

fn parse_switch(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("{flag} takes 0 or 1, not {other}")),
    }
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// Output checks made.
    pub attempted: u64,
    /// The checks that failed, by name.
    pub failures: Vec<String>,
    /// `(name, unit, value)` in definition order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl ChildReport {
    /// The result object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str((*unit).to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failures.len() as u64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        // A tree of finite numbers and strings always renders.
        serde_json::to_string(&line).unwrap_or_default()
    }
}

/// Warm-up, then the real inputs. The warm-up is one smoke-sized
/// iteration: it pays the program's first-use costs (obs registry names,
/// lazy tables, allocator arenas) here, where `setup_s` shows them,
/// instead of in the first timed iteration.
fn set_up(workload: Workload, env: &Env<'_>) -> Result<Prepared, String> {
    let mut silent = Tracer::new(false);
    let mut warm = Prepared::new(workload, env, true)?;
    warm.iterate(false, IterMode::default(), &mut silent, env.allocs)?;
    drop(warm);
    Prepared::new(workload, env, env.smoke)
}

/// Runs one workload for `args.seconds` and reports its metrics.
pub fn run_child(args: &ChildArgs, out_dir: &Path, allocs: &AllocHooks) -> Result<ChildReport, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let env = Env { seed: args.seed, smoke: args.smoke, out_dir, allocs };

    // The first set-up and the first iteration are what a user's one-shot
    // run does in a fresh process, so the peak resident set is read right
    // after them: later set-ups and iterations only add what the allocator
    // happens to keep (freed corpora stranded in other threads' arenas made
    // `VmHWM` at exit bimodal, 272 or 388 MB on `ingest_spill`).
    let clock = Stopwatch::start();
    let mut prepared = set_up(args.workload, &env)?;
    let mut setup_s = vec![clock.elapsed_secs()];
    let mut run = Run::new(args.trace);
    let budget = Stopwatch::start();
    run.iterate(&mut prepared, false, IterMode::default(), allocs)?;
    let peak_rss_mb = peak_rss_mb();
    let mut measured_s = budget.elapsed_secs();

    // Cheap set-ups repeat more often, so their median is as steady as
    // that of the one that generates a corpus.
    let (min_setups, max_setups) = if args.smoke { (1, 1) } else { (MIN_SETUPS, MAX_SETUPS) };
    while setup_s.len() < min_setups
        || (setup_s.len() < max_setups && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Free the previous corpus before building the next.
        drop(prepared);
        let clock = Stopwatch::start();
        prepared = set_up(args.workload, &env)?;
        setup_s.push(clock.elapsed_secs());
    }

    loop {
        // Stop when another iteration of average cost would overrun.
        let enough = !args.trace || run.iterations >= 2;
        if enough && measured_s + measured_s / f64::from(run.iterations) > args.seconds {
            break;
        }
        let budget = Stopwatch::start();
        let traced = args.trace && run.iterations % 2 == 1;
        run.iterate(&mut prepared, traced, IterMode::default(), allocs)?;
        measured_s += budget.elapsed_secs();
    }

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let defs = if args.trace {
        run.layer_metrics(&mut prepared, allocs, &mut metrics)?;
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
        std::fs::write(&path, run.tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        schema::per_layer()
    } else {
        metrics.insert("wall_s".into(), median(&run.walls(false)).unwrap_or(0.0));
        metrics.insert("views_per_s".into(), median(&run.rates()).unwrap_or(0.0));
        metrics.insert("peak_rss_mb".into(), peak_rss_mb);
        metrics.insert("setup_s".into(), median(&setup_s).unwrap_or(0.0));
        schema::end_to_end()
    };
    let metrics = defs
        .into_iter()
        .map(|def| {
            let value = metrics.get(&def.name).copied().unwrap_or(0.0);
            (def.name, def.unit, value)
        })
        .collect();
    Ok(ChildReport { attempted: run.attempted, failures: run.failures, metrics })
}

/// The iterations of one run and the checks made across them.
struct Run {
    tracer: Tracer,
    iterations: u32,
    /// `(traced, outcome, cpu seconds (user, sys))` per iteration.
    records: Vec<(bool, IterOutcome, (f64, f64))>,
    attempted: u64,
    failures: Vec<String>,
}

impl Run {
    fn new(trace: bool) -> Run {
        let mut tracer = Tracer::new(trace);
        tracer.set_enabled(false);
        Run {
            tracer,
            iterations: 0,
            records: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn iterate(
        &mut self,
        prepared: &mut Prepared,
        traced: bool,
        mode: IterMode,
        allocs: &AllocHooks,
    ) -> Result<(), String> {
        self.tracer.set_enabled(traced);
        self.tracer.set_run(self.iterations);
        let cpu = cpu_seconds();
        let outcome = prepared.iterate(self.iterations == 0, mode, &mut self.tracer, allocs)?;
        let cpu_now = cpu_seconds();
        self.tracer.set_enabled(false);
        self.check(&outcome);
        self.records.push((traced, outcome, (cpu_now.0 - cpu.0, cpu_now.1 - cpu.1)));
        self.iterations += 1;
        Ok(())
    }

    /// Counts the iteration's own verdicts, then holds it to the first
    /// iteration: same inputs must give the same bytes and counts.
    fn check(&mut self, outcome: &IterOutcome) {
        let iteration = self.iterations;
        for (what, held) in &outcome.verdicts {
            self.judge(*held, || format!("iteration {iteration}: {what}"));
        }
        let Some((_, first, _)) = self.records.first() else { return };
        let same = first.output_hash == outcome.output_hash
            && first.views == outcome.views
            && first.checks_passed == outcome.checks_passed;
        let (want, got) = (first.output_hash, outcome.output_hash);
        self.judge(same, || {
            format!("iteration {iteration}: output {got:016x} differs from first {want:016x}")
        });
    }

    fn judge(&mut self, held: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !held {
            self.failures.push(describe());
        }
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.records.iter().filter(|(t, ..)| *t == traced).map(|(_, o, _)| o.wall_s).collect()
    }

    /// Views per second of the producing stage, per untraced iteration.
    fn rates(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|(t, ..)| !t)
            .map(|(_, o, _)| o.views as f64 / o.produce_s)
            .collect()
    }

    /// Per-layer metrics: medians over the traced iterations, then the
    /// allocation-counting iteration and the probes.
    fn layer_metrics(
        &mut self,
        prepared: &mut Prepared,
        allocs: &AllocHooks,
        out: &mut BTreeMap<String, f64>,
    ) -> Result<(), String> {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (run, (traced, outcome, cpu)) in (0u32..).zip(&self.records) {
            if !traced {
                continue;
            }
            let agg = self.tracer.aggregate(run);
            for (name, value) in iteration_metrics(&agg, outcome, *cpu) {
                samples.entry(name).or_default().push(value);
            }
        }
        for (name, values) in samples {
            out.insert(name, median(&values).unwrap_or(0.0));
        }
        let untraced = median(&self.walls(false)).unwrap_or(0.0);
        let traced = median(&self.walls(true)).unwrap_or(0.0);
        if untraced > 0.0 {
            out.insert("bench.trace_overhead_pct".into(), (traced / untraced - 1.0) * 100.0);
        }
        out.insert("bench.generator_threads".into(), product::generator_threads() as f64);
        out.insert("bench.iterations".into(), f64::from(self.iterations));

        // Counting slows the allocator, so this iteration's times are not
        // used; its counts repeat exactly.
        let counted_run = self.iterations;
        let mode = IterMode { count_allocs: true, probe_store: true };
        self.iterate(prepared, true, mode, allocs)?;
        let agg = self.tracer.aggregate(counted_run);
        if let Some((_, counted, _)) = self.records.last() {
            let views = counted.views;
            let per_view = |n: u64| if views == 0 { 0.0 } else { n as f64 / views as f64 };
            out.insert("process.allocs_per_view".into(), per_view(counted.allocs.allocs));
            out.insert("process.alloc_bytes_per_view".into(), per_view(counted.allocs.bytes));
            if let Some(push) = agg.get("analytics.push_batch") {
                let pushed = push.count("views").max(1);
                out.insert(
                    "analytics.push_allocs_per_view".into(),
                    push.count("allocs") as f64 / pushed as f64,
                );
            }
            if let Some(probe) = counted.store_probe {
                out.insert("analytics.decode_ns_per_row".into(), probe.decode_ns_per_row);
                out.insert("analytics.rollup_ns_per_row".into(), probe.rollup_ns_per_row);
            }
        }

        let ecosystem = prepared.ecosystem();
        if let Some(config) = ecosystem.clone() {
            let cell = product::probe_cells(config, allocs);
            out.insert("synth.cell_ns_per_view".into(), cell.ns_per_view);
            out.insert("synth.cell_allocs_per_view".into(), cell.allocs_per_view);
            out.insert("synth.cell_alloc_bytes_per_view".into(), cell.alloc_bytes_per_view);
        }
        // The sweep's scenarios set their own session lengths; probe the
        // player at the paper's cap there.
        let sim_cap = ecosystem.as_ref().map_or(Seconds(36.0), |c| c.view_gen.sim_media_cap);
        let sessions = product::probe_sessions(sim_cap)?;
        out.insert("session.play_ns_per_session".into(), sessions.play_ns_per_session);
        out.insert("session.telemetry_build_ns".into(), sessions.telemetry_build_ns);
        out.insert("manifest.url_classify_ns".into(), sessions.url_classify_ns);
        if agg.contains_key(product::experiment_span("fig18")) {
            out.insert("syndication.storage_study_s".into(), product::probe_storage_study());
        }
        Ok(())
    }
}

/// The per-layer metrics one traced iteration yields.
fn iteration_metrics(
    agg: &BTreeMap<&'static str, Agg>,
    outcome: &IterOutcome,
    cpu: (f64, f64),
) -> Vec<(String, f64)> {
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    let secs = |name: &str| get(name).total_s();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wait = get("synth.next_batch");
    let push = get("analytics.push_batch");
    let root = get("bench.iteration");
    let figures = get("experiments.figures");
    let scan: f64 = product::SCAN_FIGURES.iter().map(|id| secs(product::experiment_span(id))).sum();
    let study: f64 =
        product::STUDY_FIGURES.iter().map(|id| secs(product::experiment_span(id))).sum();
    // The wall no product-call span accounts for: glue in the iteration
    // and figure loops, over the timed part of the root span.
    let timed_ns = root
        .total_ns
        .saturating_sub(get("bench.verify").total_ns)
        .saturating_sub(get("bench.clone_batch").total_ns);
    let glue_ns = root.self_ns.saturating_add(figures.self_ns);

    let mut metrics = vec![
        ("synth.stream_new_s".to_string(), secs("synth.stream_new")),
        ("synth.next_batch_wait_s".to_string(), wait.total_s()),
        ("synth.wait_share".to_string(), ratio(wait.total_s(), wait.total_s() + push.total_s())),
        ("synth.views".to_string(), wait.count("views") as f64),
        ("synth.batches".to_string(), wait.calls as f64),
        ("analytics.push_batch_s".to_string(), push.total_s()),
        (
            "analytics.push_ns_per_view".to_string(),
            ratio(push.total_ns as f64, push.count("views") as f64),
        ),
        ("analytics.seal_push_max_ms".to_string(), push.max_ns as f64 / 1e6),
        ("analytics.finish_s".to_string(), secs("analytics.finish")),
        ("analytics.spill_bytes_per_row".to_string(), outcome.spill_bytes_per_row),
        ("analytics.hot_hits".to_string(), outcome.hot_hits as f64),
        ("analytics.hot_misses".to_string(), outcome.hot_misses as f64),
        ("analytics.store_drop_s".to_string(), secs("analytics.store_drop")),
        ("experiments.figures_s".to_string(), figures.total_s()),
        ("experiments.scan_figures_s".to_string(), scan),
        ("experiments.study_figures_s".to_string(), study),
        ("experiments.export_json_s".to_string(), secs("experiments.export_json")),
        ("experiments.export_bytes".to_string(), outcome.export_bytes as f64),
        ("experiments.checks_passed".to_string(), outcome.checks_passed as f64),
        ("experiments.checks_total".to_string(), outcome.checks_total as f64),
        ("process.cpu_user_s".to_string(), cpu.0),
        ("process.cpu_sys_s".to_string(), cpu.1),
        ("bench.harness_self_pct".to_string(), ratio(glue_ns as f64, timed_ns as f64) * 100.0),
    ];
    for id in product::PAPER_FIGURES.iter().chain(product::SCENARIOS.iter()) {
        let driver = get(product::experiment_span(id));
        // Mean per call: a figure runs once, a scenario once per seed.
        let ms = ratio(driver.total_ns as f64 / 1e6, driver.calls as f64);
        metrics.push((format!("experiments.{id}_ms"), ms));
    }
    metrics
}

/// Peak resident set of this process (`VmHWM`), MB; 0 off Linux.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(user, system)` CPU seconds of this process so far; zeros off Linux.
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux.
fn cpu_seconds() -> (f64, f64) {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return (0.0, 0.0) };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(')') else { return (0.0, 0.0) };
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let user = next();
    let system = next();
    (user / TICKS_PER_SECOND, system / TICKS_PER_SECOND)
}
