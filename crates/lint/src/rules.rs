//! The five shipped rules. Each matches short token sequences against a
//! file's code tokens — never inside comments or literals (the lexer
//! guarantees that).

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::{Diagnostic, RuleId};
use crate::engine::{FileClass, SourceFile};
use crate::lexer::{Tok, TokKind};

/// Code-token view of a file: indices into `file.toks` with comments
/// stripped, so sequence matching is formatting-independent.
fn code_indices(file: &SourceFile<'_>) -> Vec<usize> {
    (0..file.toks.len()).filter(|&i| file.toks[i].is_code()).collect()
}

/// Whether the `n` code tokens starting at `ci` are exactly `pat`
/// (`::` must be written as two `":"` atoms).
fn seq_at(file: &SourceFile<'_>, code: &[usize], ci: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, want)| {
        code.get(ci + k).is_some_and(|&ti| file.toks[ti].text == *want)
    })
}

fn tok<'f, 'a>(file: &'f SourceFile<'a>, code: &[usize], ci: usize) -> Option<&'f Tok<'a>> {
    code.get(ci).map(|&ti| &file.toks[ti])
}

fn in_test(file: &SourceFile<'_>, code: &[usize], ci: usize) -> bool {
    code.get(ci).is_some_and(|&ti| file.in_test[ti])
}

fn push(
    diags: &mut Vec<Diagnostic>,
    rule: RuleId,
    file: &SourceFile<'_>,
    t: &Tok<'_>,
    message: String,
) {
    diags.push(Diagnostic::new(rule, file.rel.clone(), t.line, t.col, message));
}

/// The rows of a registry's markdown table: each `|`-led line's 1-based
/// number (saturating, never wrapping) and its trimmed cells.
pub(crate) fn table_rows(text: &str) -> impl Iterator<Item = (u32, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(i, line)| {
        let line = line.trim();
        let number = u32::try_from(i).map_or(u32::MAX, |n| n.saturating_add(1));
        line.starts_with('|')
            .then(|| (number, line.trim_matches('|').split('|').map(str::trim).collect()))
    })
}

/// Paths where unordered-container iteration can leak into figure bytes.
const ORDERED_OUTPUT_PATHS: [&str; 3] =
    ["crates/analytics/src/", "crates/experiments/src/", "crates/monitor/src/"];

/// D1 — nondeterminism sources.
///
/// * Ambient clocks (`SystemTime::now`, `Instant::now`) and environment
///   reads (`env::var*`, `env::args*`, `env!`, `option_env!`) are allowed
///   only in `crates/obs` (the sanctioned wall-clock home — see
///   [`vmp_obs`-style stopwatches]) and in bin entrypoints / examples /
///   tests.
/// * `HashMap` / `HashSet` anywhere in the analytics, experiments, and
///   monitor library paths: iteration order can silently leak into figure
///   output, so those crates use `BTreeMap` or sort before emitting.
pub fn check_nondeterminism(file: &SourceFile<'_>, diags: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Lib {
        return;
    }
    let code = code_indices(file);
    let obs_crate = file.rel.starts_with("crates/obs/");
    let ordered_scope = ORDERED_OUTPUT_PATHS.iter().any(|p| file.rel.starts_with(p));

    // Ambient reads as token patterns (the name is their concatenation);
    // `true` marks a clock.
    const AMBIENT: [(&[&str], bool); 9] = [
        (&["SystemTime", ":", ":", "now"], true),
        (&["Instant", ":", ":", "now"], true),
        (&["env", ":", ":", "var"], false),
        (&["env", ":", ":", "var_os"], false),
        (&["env", ":", ":", "vars"], false),
        (&["env", ":", ":", "args"], false),
        (&["env", ":", ":", "args_os"], false),
        (&["env", "!"], false),
        (&["option_env", "!"], false),
    ];

    for ci in 0..code.len() {
        if in_test(file, &code, ci) {
            continue;
        }
        let Some(t) = tok(file, &code, ci) else { continue };
        for (pat, clock) in AMBIENT {
            if obs_crate || !seq_at(file, &code, ci, pat) {
                continue;
            }
            let name = pat.concat();
            let message = if clock {
                format!(
                    "ambient clock read `{name}` in library code — route wall-clock \
                     access through vmp-obs"
                )
            } else {
                format!("environment read `{name}` in library code")
            };
            push(diags, RuleId::D1, file, t, message);
        }
        if ordered_scope
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(
                diags,
                RuleId::D1,
                file,
                t,
                format!(
                    "`{}` in a deterministic figure path — unordered iteration can \
                     leak into output; use BTreeMap/BTreeSet or sort before emitting",
                    t.text
                ),
            );
        }
    }
}

/// D2 — panic policy for library code.
///
/// Flags `.unwrap()`, `.expect("…")` (string-literal argument — the form
/// `Result::expect`/`Option::expect` takes; parser methods named `expect`
/// taking bytes are not matched), the `panic!` family, and integer-literal
/// slice indexing. Existing findings live in `lint-baseline.json`; the
/// count may only go down.
pub fn check_panic_policy(file: &SourceFile<'_>, diags: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Lib {
        return;
    }
    let code = code_indices(file);
    for ci in 0..code.len() {
        if in_test(file, &code, ci) {
            continue;
        }
        let Some(t) = tok(file, &code, ci) else { continue };
        if seq_at(file, &code, ci, &[".", "unwrap", "(", ")"]) {
            push(
                diags,
                RuleId::D2,
                file,
                t,
                "`.unwrap()` in library code — propagate a typed error or handle the \
                 empty case"
                    .to_string(),
            );
        }
        if seq_at(file, &code, ci, &[".", "expect", "("])
            && tok(file, &code, ci + 3)
                .is_some_and(|a| matches!(a.kind, TokKind::Str | TokKind::RawStr))
        {
            push(
                diags,
                RuleId::D2,
                file,
                t,
                "`.expect(\"…\")` in library code — propagate a typed error or handle \
                 the empty case"
                    .to_string(),
            );
        }
        if t.kind == TokKind::Ident
            && matches!(t.text, "panic" | "unreachable" | "todo" | "unimplemented")
            && seq_at(file, &code, ci + 1, &["!"])
            // `core::panic` in a path (e.g. std::panic::catch_unwind) has
            // no `!`; only the macro form is flagged.
        {
            push(
                diags,
                RuleId::D2,
                file,
                t,
                format!("`{}!` in library code — return an error instead", t.text),
            );
        }
        // ident[0] / foo()[1] / bar[2][3]: a literal index is either a
        // guaranteed-true invariant (assert it) or a latent panic.
        if t.kind == TokKind::Punct
            && t.text == "["
            && tok(file, &code, ci.wrapping_sub(1)).is_some_and(|p| {
                p.kind == TokKind::Ident || p.text == ")" || p.text == "]"
            })
            && ci > 0
            && tok(file, &code, ci + 1).is_some_and(|n| n.kind == TokKind::Int)
            && tok(file, &code, ci + 2).is_some_and(|n| n.text == "]")
        {
            push(
                diags,
                RuleId::D2,
                file,
                t,
                "integer-literal index in library code — use `.get(N)` or prove the \
                 bound"
                    .to_string(),
            );
        }
    }
}

/// Registry entry kinds accepted in `crates/obs/METRICS.md`.
const REGISTRY_KINDS: [&str; 4] = ["counter", "gauge", "histogram", "span"];

/// A parsed `METRICS.md` row.
#[derive(Debug)]
struct RegistryEntry {
    kind: String,
    line: u32,
    used: bool,
}

/// D3 — metric-name registry.
///
/// Extracts every literal obs name — `counter("…")`, `gauge("…")`,
/// `histogram("…")`, `span("…")` — from non-test source and cross-checks
/// `crates/obs/METRICS.md`:
/// no undocumented names, no kind mismatches, no duplicate registry rows,
/// and no registry rows whose name never appears in source.
pub fn check_metric_registry(
    root: &Path,
    sources: &[SourceFile<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    const REGISTRY_REL: &str = "crates/obs/METRICS.md";
    let registry_text = match std::fs::read_to_string(root.join(REGISTRY_REL)) {
        Ok(t) => t,
        Err(_) => {
            diags.push(Diagnostic::new(
                RuleId::D3,
                REGISTRY_REL,
                1,
                1,
                "metric registry crates/obs/METRICS.md is missing".to_string(),
            ));
            return;
        }
    };

    // Parse `| `name` | kind | description |` rows.
    let mut registry: BTreeMap<String, RegistryEntry> = BTreeMap::new();
    for (lineno, cells) in table_rows(&registry_text) {
        let [name_cell, kind_cell, ..] = cells.as_slice() else {
            continue;
        };
        let name = name_cell.trim_matches('`');
        let kind = kind_cell.to_ascii_lowercase();
        if name.is_empty() || *name_cell == name || !REGISTRY_KINDS.contains(&kind.as_str()) {
            continue; // header or separator row
        }
        if registry.contains_key(name) {
            diags.push(Diagnostic::new(
                RuleId::D3,
                REGISTRY_REL,
                lineno,
                1,
                format!("duplicate registry entry `{name}`"),
            ));
        } else {
            registry.insert(name.to_string(), RegistryEntry { kind, line: lineno, used: false });
        }
    }

    // Extraction pass over non-test code.
    for file in sources {
        if file.class == FileClass::TestOrBench {
            continue;
        }
        let code = code_indices(file);
        for ci in 0..code.len() {
            if in_test(file, &code, ci) {
                continue;
            }
            let Some(t) = tok(file, &code, ci) else { continue };
            if t.kind != TokKind::Ident {
                continue;
            }
            let used_kind = match t.text {
                "counter" | "gauge" | "histogram" | "span" => {
                    let lit = tok(file, &code, ci + 2);
                    if seq_at(file, &code, ci + 1, &["("])
                        && lit.is_some_and(|l| l.kind == TokKind::Str)
                    {
                        let kind = if t.text == "span" { "span" } else { t.text };
                        Some((kind, strip_quotes(lit.map_or("", |l| l.text)), *t))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let Some((kind, name, at)) = used_kind else { continue };
            match registry.get_mut(&name) {
                None => push(
                    diags,
                    RuleId::D3,
                    file,
                    &at,
                    format!("{kind} name `{name}` is not registered in crates/obs/METRICS.md"),
                ),
                Some(entry) => {
                    entry.used = true;
                    // A span IS a histogram of nanoseconds; either kind
                    // documents it. Everything else must match exactly.
                    let compatible = entry.kind == kind
                        || (kind == "histogram" && entry.kind == "span")
                        || (kind == "span" && entry.kind == "histogram");
                    if !compatible {
                        push(
                            diags,
                            RuleId::D3,
                            file,
                            &at,
                            format!(
                                "`{name}` is registered as a {} but used as a {kind}",
                                entry.kind
                            ),
                        );
                    }
                }
            }
        }
    }

    // Stale-doc check: a registered name must appear as a string literal
    // somewhere in non-test source. Names created indirectly
    // (span-by-experiment-id) satisfy this via their defining literal.
    let mut seen_literals: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for file in sources {
        if file.class == FileClass::TestOrBench {
            continue;
        }
        for (i, t) in file.toks.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            if t.kind == TokKind::Str {
                seen_literals.insert(strip_quotes(t.text));
            }
        }
    }
    for (name, entry) in &registry {
        if !entry.used && !seen_literals.contains(name) {
            diags.push(Diagnostic::new(
                RuleId::D3,
                REGISTRY_REL,
                entry.line,
                1,
                format!("registry entry `{name}` never appears in source"),
            ));
        }
    }
}

fn strip_quotes(text: &str) -> String {
    let start = text.find('"').map_or(0, |i| i + 1);
    let end = text.rfind('"').unwrap_or(text.len());
    if start <= end {
        text[start..end].to_string()
    } else {
        text.to_string()
    }
}

/// D4 — every non-shim crate root must carry `#![forbid(unsafe_code)]`.
pub fn check_unsafe_hygiene(
    _root: &Path,
    sources: &[SourceFile<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    for file in sources {
        let is_crate_root = file.rel == "src/lib.rs"
            || (file.rel.starts_with("crates/")
                && file.rel.ends_with("/src/lib.rs")
                && file.rel.matches('/').count() == 3);
        if !is_crate_root {
            continue;
        }
        let code = code_indices(file);
        let has_forbid = (0..code.len()).any(|ci| {
            seq_at(file, &code, ci, &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"])
        });
        if !has_forbid {
            diags.push(Diagnostic::new(
                RuleId::D4,
                file.rel.clone(),
                1,
                1,
                "crate root is missing #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_regions;
    use crate::lexer::lex;

    fn file<'a>(rel: &str, class: FileClass, src: &'a str) -> SourceFile<'a> {
        let toks = lex(src);
        let in_test = test_regions(&toks);
        SourceFile { rel: rel.to_string(), class, toks, in_test }
    }

    #[test]
    fn d1_flags_clock_but_not_in_obs_or_strings() {
        let src = "fn f() { let t = Instant::now(); let s = \"Instant::now\"; }";
        let mut diags = Vec::new();
        check_nondeterminism(&file("crates/core/src/x.rs", FileClass::Lib, src), &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("Instant::now"));

        let mut diags = Vec::new();
        check_nondeterminism(&file("crates/obs/src/x.rs", FileClass::Lib, src), &mut diags);
        assert!(diags.is_empty());
    }

    #[test]
    fn d1_hashmap_only_in_figure_paths() {
        let src = "use std::collections::HashMap;";
        let mut diags = Vec::new();
        check_nondeterminism(
            &file("crates/analytics/src/store.rs", FileClass::Lib, src),
            &mut diags,
        );
        assert_eq!(diags.len(), 1);

        let mut diags = Vec::new();
        check_nondeterminism(&file("crates/cdn/src/edge.rs", FileClass::Lib, src), &mut diags);
        assert!(diags.is_empty());
    }

    #[test]
    fn d2_unwrap_and_expect_forms() {
        let src = r#"fn f() { x.unwrap(); y.expect("msg"); self.expect(b'<')?; }"#;
        let mut diags = Vec::new();
        check_panic_policy(&file("crates/core/src/x.rs", FileClass::Lib, src), &mut diags);
        // The byte-argument parser method is NOT flagged.
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn d2_skips_tests_and_bins() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        let mut diags = Vec::new();
        check_panic_policy(&file("crates/core/src/x.rs", FileClass::Lib, src), &mut diags);
        assert!(diags.is_empty());

        let mut diags = Vec::new();
        check_panic_policy(
            &file("crates/e/src/bin/main.rs", FileClass::BinEntry, "fn f() { x.unwrap(); }"),
            &mut diags,
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn d2_literal_index() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        let mut diags = Vec::new();
        check_panic_policy(&file("crates/core/src/x.rs", FileClass::Lib, src), &mut diags);
        assert_eq!(diags.len(), 1);
        // Array literals and variable indices are not flagged.
        let src = "fn f(i: usize) { let a = [1, 2, 3]; let _ = a[i]; }";
        let mut diags = Vec::new();
        check_panic_policy(&file("crates/core/src/x.rs", FileClass::Lib, src), &mut diags);
        assert!(diags.is_empty());
    }

    #[test]
    fn d4_detects_missing_forbid() {
        let with = file("crates/a/src/lib.rs", FileClass::Lib, "#![forbid(unsafe_code)]\n");
        let without = file("crates/b/src/lib.rs", FileClass::Lib, "//! docs\n");
        let nested = file("crates/b/src/inner/mod.rs", FileClass::Lib, "");
        let mut diags = Vec::new();
        check_unsafe_hygiene(Path::new("."), &[with, without, nested], &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].file, "crates/b/src/lib.rs");
    }
}
