//! `vmp-lint` — run the workspace static analyzer.
//!
//! ```text
//! vmp-lint [--root PATH] [--json PATH] [--explain RULE] [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error. Output is
//! canonically sorted; two runs over the same tree are byte-identical.

use std::path::PathBuf;

use vmp_lint::diag::{render_json, RuleId};
use vmp_lint::engine::analyze;

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
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
    let mut opts = Options { root: PathBuf::from("."), json: None, quiet: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = path_arg(&mut args, "--root")?,
            "--json" => opts.json = Some(path_arg(&mut args, "--json")?),
            "--explain" => {
                let id = args.next().ok_or_else(|| "--explain requires a rule ID".to_string())?;
                let rule = RuleId::parse(&id)
                    .ok_or_else(|| format!("unknown rule `{id}` (try --list-rules)"))?;
                explain(rule);
                return Ok(None);
            }
            "--quiet" | "-q" => opts.quiet = true,
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{rule}  {}", rule.summary());
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: vmp-lint [--root PATH] [--json PATH] [--explain RULE] \
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

fn run() -> Result<i32, String> {
    let Some(opts) = parse_args()? else { return Ok(0) };
    let report = analyze(&opts.root)?;

    if let Some(json_path) = &opts.json {
        let json = render_json(&report.diagnostics, &report.counts);
        std::fs::write(json_path, json)
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    }
    if !opts.quiet {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        println!(
            "vmp-lint: {} diagnostics ({})",
            report.diagnostics.len(),
            RuleId::ALL
                .iter()
                .map(|r| format!("{r}={}", report.count(*r)))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    Ok(if report.diagnostics.is_empty() { 0 } else { 1 })
}
