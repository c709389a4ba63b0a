//! `vmp-lint` — run the workspace static analyzer.
//!
//! ```text
//! vmp-lint [--root PATH] [--json PATH] [--baseline PATH]
//!          [--overflow-baseline PATH] [--write-baseline]
//!          [--explain RULE] [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: 0 clean (after the D2/C3 ratchets), 1 findings, 2 usage/IO
//! error. Output is canonically sorted; two runs over the same tree are
//! byte-identical.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use vmp_lint::baseline::{self, Baseline, RatchetCheck};
use vmp_lint::diag::{render_json, RuleId};
use vmp_lint::engine::analyze;

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    overflow_baseline: Option<PathBuf>,
    write_baseline: bool,
    quiet: bool,
}

fn explain(rule: RuleId) {
    println!("{rule} — {}", rule.summary());
    println!();
    println!("why: {}", rule.rationale());
    println!();
    println!("fixes:");
    for recipe in rule.recipes() {
        println!("  - {recipe}");
    }
}

/// The value of a path-taking flag.
fn path_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    args.next().map(PathBuf::from).ok_or_else(|| format!("{flag} requires a path"))
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: None,
        baseline: None,
        overflow_baseline: None,
        write_baseline: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = path_arg(&mut args, "--root")?,
            "--json" => opts.json = Some(path_arg(&mut args, "--json")?),
            "--baseline" => opts.baseline = Some(path_arg(&mut args, "--baseline")?),
            "--overflow-baseline" => {
                opts.overflow_baseline = Some(path_arg(&mut args, "--overflow-baseline")?)
            }
            "--explain" => {
                let id = args.next().ok_or_else(|| "--explain requires a rule ID".to_string())?;
                let rule = RuleId::parse(&id)
                    .ok_or_else(|| format!("unknown rule `{id}` (try --list-rules)"))?;
                explain(rule);
                return Ok(None);
            }
            "--write-baseline" => opts.write_baseline = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{rule}  {}", rule.summary());
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: vmp-lint [--root PATH] [--json PATH] [--baseline PATH] \
                     [--overflow-baseline PATH] [--write-baseline] [--explain RULE] \
                     [--list-rules] [--quiet]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn main() {
    std::process::exit(match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vmp-lint: {e}");
            2
        }
    });
}

/// The two ratcheted rules and where their baselines live.
struct Ratchet {
    rule: RuleId,
    path: PathBuf,
    base: Baseline,
    check: RatchetCheck,
}

fn run() -> Result<i32, String> {
    let Some(opts) = parse_args()? else { return Ok(0) };
    let report = analyze(&opts.root)?;

    let mut ratchets = Vec::new();
    for (rule, path, default) in [
        (RuleId::D2, &opts.baseline, "lint-baseline.json"),
        (RuleId::C3, &opts.overflow_baseline, "lint-overflow-baseline.json"),
    ] {
        let path = path.clone().unwrap_or_else(|| opts.root.join(default));
        let per_file: BTreeMap<String, usize> = report.per_file(rule);
        let base = Baseline::load(&path)?;
        let check = baseline::check(&per_file, &base);
        if opts.write_baseline {
            let new = Baseline { files: per_file };
            std::fs::write(&path, new.render(rule.as_str()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            if !opts.quiet {
                println!(
                    "baseline written: {} {rule} finding(s) across {} file(s) -> {}",
                    new.total(),
                    new.files.len(),
                    path.display()
                );
            }
        }
        ratchets.push(Ratchet { rule, path, base, check });
    }

    if let Some(json_path) = &opts.json {
        let json = render_json(&report.diagnostics, &report.counts);
        std::fs::write(json_path, json)
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    }

    // Hard-fail diagnostics: everything except the ratcheted rules.
    let ratcheted = [RuleId::D2, RuleId::C3];
    let hard: Vec<_> =
        report.diagnostics.iter().filter(|d| !ratcheted.contains(&d.rule)).collect();
    let mut regressions = 0usize;
    if !opts.quiet {
        for d in &hard {
            println!("{}", d.render());
        }
    }
    for r in &ratchets {
        regressions += r.check.regressions.len();
        if opts.quiet {
            continue;
        }
        for (file, current, allowed) in &r.check.regressions {
            for d in report
                .diagnostics
                .iter()
                .filter(|d| d.rule == r.rule && &d.file == file)
            {
                println!("{}", d.render());
            }
            println!(
                "{file}: {} ratchet violated: {current} finding(s), baseline allows {allowed}",
                r.rule
            );
        }
    }
    if !opts.quiet {
        println!(
            "vmp-lint: {} hard diagnostics ({}), {}",
            hard.len() + regressions,
            RuleId::ALL
                .iter()
                .map(|r| format!("{r}={}", report.count(*r)))
                .collect::<Vec<_>>()
                .join(" "),
            ratchets
                .iter()
                .map(|r| format!(
                    "{} {} current / {} baselined / {} slack",
                    r.rule,
                    report.count(r.rule),
                    r.base.total(),
                    r.check.slack
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
        for r in &ratchets {
            if r.check.slack > 0 && !opts.write_baseline {
                println!(
                    "note: {} baselined {} finding(s) no longer exist — run with \
                     --write-baseline to ratchet {} down",
                    r.check.slack,
                    r.rule,
                    r.path.display()
                );
            }
        }
    }

    Ok(if hard.is_empty() && ratchets.iter().all(|r| r.check.passed()) { 0 } else { 1 })
}
