//! `vmp-lint` — run the workspace static analyzer.
//!
//! ```text
//! vmp-lint [--root PATH] [--json PATH] [--explain RULE] [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error. Output is
//! canonically sorted; two runs over the same tree are byte-identical.

use std::path::PathBuf;

use vmp_lint::analyze;
use vmp_lint::diag::{count, render_json, RuleId};

const USAGE: &str =
    "usage: vmp-lint [--root PATH] [--json PATH] [--explain RULE] [--list-rules] [--quiet]";

fn main() {
    std::process::exit(run().unwrap_or_else(|e| {
        eprintln!("vmp-lint: {e}");
        2
    }));
}

fn run() -> Result<i32, String> {
    let (mut root, mut json, mut quiet) = (PathBuf::from("."), None, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} requires {what}"));
        match arg.as_str() {
            "--root" => root = PathBuf::from(value("a path")?),
            "--json" => json = Some(PathBuf::from(value("a path")?)),
            "--quiet" | "-q" => quiet = true,
            "--explain" => {
                let id = value("a rule ID")?;
                let rule = RuleId::parse(&id)
                    .ok_or_else(|| format!("unknown rule `{id}` (try --list-rules)"))?;
                println!("{rule} — {}\n\nwhy: {}\n\nfixes:", rule.summary(), rule.rationale());
                for recipe in rule.recipes() {
                    println!("  - {recipe}");
                }
                return Ok(0);
            }
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{rule}  {}", rule.summary());
                }
                return Ok(0);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let diags = analyze(&root)?;
    if let Some(path) = &json {
        std::fs::write(path, render_json(&diags))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if !quiet {
        for d in &diags {
            println!("{}", d.render());
        }
        let counts: Vec<String> =
            RuleId::ALL.iter().map(|&r| format!("{r}={}", count(&diags, r))).collect();
        println!("vmp-lint: {} diagnostics ({})", diags.len(), counts.join(" "));
    }
    Ok(i32::from(!diags.is_empty()))
}
