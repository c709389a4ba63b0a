//! Sets of runs: `run` measures every workload in fresh child processes,
//! `agree` tells whether two sets of the same commit repeat.
//!
//! Every run is a new process, so peak RSS and allocator state are per
//! run; runs are interleaved round-robin across workloads (run 1 of each,
//! then run 2 …) so slow drift of a shared host hits all medians alike.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::product;
use crate::schema::{
    self, LayerValue, Machine, MetricDef, MetricSummary, ResultSet, WorkloadResult,
};
use crate::stats::Summary;
use crate::workloads::Workload;

/// The golden seed of the repository's committed results (`0x5EED_CAFE`).
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// Arguments of `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Untraced runs per workload.
    pub runs: u64,
    /// Seed of the first run; run `i` uses `seed + i`.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: u64,
    /// Tiny inputs, one run, one second.
    pub smoke: bool,
    /// Where to write the result set.
    pub out: Option<PathBuf>,
}

impl RunArgs {
    /// Parses `[--runs N] [--seed N] [--seconds N] [--smoke] [--out PATH]`.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut parsed =
            RunArgs { runs: 10, seed: DEFAULT_SEED, seconds: schema::RUN_SECONDS, smoke: false, out: None };
        let mut sized = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--runs" => {
                    parsed.runs = number()?.max(1);
                    sized = true;
                }
                "--seconds" => {
                    parsed.seconds = number()?.max(1);
                    sized = true;
                }
                "--seed" => parsed.seed = number()?,
                "--out" => parsed.out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.smoke && !sized {
            parsed.runs = 1;
            parsed.seconds = 1;
        }
        Ok(parsed)
    }
}

/// One child's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn spawn_child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    args: &RunArgs,
    trace: bool,
) -> Result<ChildResult, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--smoke", if args.smoke { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{} run at seed {seed} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let line: Value = serde_json::from_str(last).map_err(|e| format!("child result line: {e}"))?;
    let count = |key: &str| {
        line.get(key).and_then(Value::as_u64).ok_or_else(|| format!("result line lacks {key}"))
    };
    let metrics = line
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks metrics")?
        .iter()
        .filter_map(|(name, entry)| {
            entry.get("value").and_then(Value::as_f64).map(|v| (name.clone(), v))
        })
        .collect();
    Ok(ChildResult { attempted: count("attempted")?, failed: count("failed")?, metrics })
}

/// Runs every workload `args.runs` times plus one traced run each, prints
/// every metric by name with its unit, and writes the result set. `Ok`
/// carries whether every output check held.
pub fn run(exe: &Path, out_dir: &Path, args: &RunArgs) -> Result<bool, String> {
    let e2e_defs = schema::end_to_end();
    let layer_defs = schema::per_layer();
    let mut samples: Vec<Vec<ChildResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for i in 0..args.runs {
        for (workload, runs) in Workload::ALL.into_iter().zip(samples.iter_mut()) {
            eprintln!("run {}/{} of {}", i + 1, args.runs, workload.name());
            runs.push(spawn_child(exe, workload, args.seed.wrapping_add(i), args, false)?);
        }
    }

    let mut workloads = Vec::new();
    for (workload, runs) in Workload::ALL.into_iter().zip(samples) {
        eprintln!("traced run of {}", workload.name());
        let traced = spawn_child(exe, workload, args.seed, args, true)?;
        let end_to_end = e2e_defs
            .iter()
            .map(|def| summarise(def, &runs))
            .collect::<Result<Vec<_>, _>>()?;
        let per_layer = layer_defs
            .iter()
            .map(|def| LayerValue {
                name: def.name.clone(),
                unit: def.unit.to_string(),
                value: traced
                    .metrics
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect();
        let sum = |f: fn(&ChildResult) -> u64| {
            runs.iter().map(f).fold(f(&traced), u64::saturating_add)
        };
        workloads.push(WorkloadResult {
            name: workload.name().to_string(),
            attempted: sum(|r| r.attempted),
            failed: sum(|r| r.failed),
            end_to_end,
            per_layer,
        });
    }

    let set = ResultSet {
        schema: schema::RESULTS_SCHEMA.to_string(),
        git_commit: git_commit(),
        machine: machine(),
        seconds: args.seconds,
        runs: args.runs,
        base_seed: args.seed,
        smoke: args.smoke,
        workloads,
    };
    print!("{}", render(&set));
    let path = args.out.clone().unwrap_or_else(|| out_dir.join("results.json"));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let json = serde_json::to_string_pretty(&set).map_err(|e| format!("result set: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(set.workloads.iter().all(|w| w.failed == 0))
}

fn summarise(def: &MetricDef, runs: &[ChildResult]) -> Result<MetricSummary, String> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.iter().find(|(name, _)| *name == def.name).map(|(_, v)| *v))
        .collect();
    let summary =
        Summary::of(&values).ok_or_else(|| format!("no run reported {}", def.name))?;
    Ok(MetricSummary {
        name: def.name.clone(),
        unit: def.unit.to_string(),
        better: def.better.to_string(),
        bound: def.bound.unwrap_or(0.0),
        spread: summary.spread(),
        summary,
    })
}

/// Every metric by name, with unit: end-to-end rows carry median,
/// quartiles, minimum, count and spread against the bound.
pub fn render(set: &ResultSet) -> String {
    let mut out = format!(
        "commit {} · {} ({} cores, {} generator threads) · {} runs × {} s · seeds {}+\n",
        set.git_commit,
        set.machine.cpu_model,
        set.machine.nproc,
        set.machine.generator_threads,
        set.runs,
        set.seconds,
        set.base_seed,
    );
    for w in &set.workloads {
        out.push_str(&format!(
            "\n== {} — {} output checks, {} failed\n",
            w.name, w.attempted, w.failed
        ));
        for m in &w.end_to_end {
            out.push_str(&format!(
                "{:<14} median {:>12.4} {:<4} q1 {:.4} q3 {:.4} min {:.4} n {} spread {:.1}% (bound {:.0}%)\n",
                m.name,
                m.summary.median,
                m.unit,
                m.summary.q1,
                m.summary.q3,
                m.summary.min,
                m.summary.n,
                m.spread * 100.0,
                m.bound * 100.0,
            ));
        }
        for l in &w.per_layer {
            out.push_str(&format!("  {:<36} {:>16.4} {}\n", l.name, l.value, l.unit));
        }
    }
    out
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine() -> Machine {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        cpu_model,
        generator_threads: product::generator_threads() as u64,
    }
}

/// Loads a result set written by [`run`].
pub fn load(path: &Path) -> Result<ResultSet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let set: ResultSet =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if set.schema != schema::RESULTS_SCHEMA {
        return Err(format!("{}: schema {} is not {}", path.display(), set.schema, schema::RESULTS_SCHEMA));
    }
    Ok(set)
}

/// Compares two result sets of the same commit: a row per (metric,
/// workload); `Ok(true)` when every end-to-end median of either set is
/// within its bound of the other, no output check failed, and — for sets
/// taken at the same seeds — the exactly-repeating counts are identical.
pub fn agree(a: &ResultSet, b: &ResultSet) -> Result<(bool, String), String> {
    let mut ok = true;
    let mut out = String::new();
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or_else(|| format!("second set lacks workload {}", wa.name))?;
        if wa.failed + wb.failed > 0 {
            ok = false;
            out.push_str(&format!(
                "FAIL {:<15} output checks failed: {} and {}\n",
                wa.name, wa.failed, wb.failed
            ));
        }
        for ma in &wa.end_to_end {
            let mb = wb
                .end_to_end
                .iter()
                .find(|m| m.name == ma.name)
                .ok_or_else(|| format!("second set lacks {} on {}", ma.name, wa.name))?;
            let (x, y) = (ma.summary.median, mb.summary.median);
            // The worse median against the better one: the share a
            // regression gate would see if the better set were the parent.
            let base = if ma.better == "higher" { x.max(y) } else { x.min(y) };
            let apart = if base == 0.0 { 0.0 } else { (x - y).abs() / base.abs() };
            let within = apart <= ma.bound;
            ok &= within;
            out.push_str(&format!(
                "{} {:<15} {:<12} {:>12.4} vs {:>12.4} {:<4} apart {:>5.1}% (bound {:.0}%)\n",
                if within { "ok  " } else { "FAIL" },
                wa.name,
                ma.name,
                x,
                y,
                ma.unit,
                apart * 100.0,
                ma.bound * 100.0,
            ));
        }
        if a.base_seed != b.base_seed || a.smoke != b.smoke {
            continue;
        }
        for name in schema::EXACT_COUNTS {
            let value = |w: &WorkloadResult| {
                w.per_layer.iter().find(|l| l.name == name).map(|l| l.value)
            };
            let (x, y) = (value(wa), value(wb));
            let same = x == y;
            ok &= same;
            out.push_str(&format!(
                "{} {:<15} {:<32} {:?} vs {:?} (must repeat exactly)\n",
                if same { "ok  " } else { "FAIL" },
                wa.name,
                name,
                x.unwrap_or(0.0),
                y.unwrap_or(0.0),
            ));
        }
    }
    Ok((ok, out))
}
