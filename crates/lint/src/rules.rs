//! The token rules: D2's literal-index residue and the D3 metric
//! registry. Each matches short token sequences against a file's code
//! tokens — never inside comments or literals (the lexer guarantees that).

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

/// D2 — integer-literal indexing in library code (`ident[0]`,
/// `foo()[1]`, `bar[2][3]`): a literal index is either a guaranteed-true
/// invariant (write it as a slice pattern) or a latent panic. The rest of
/// the panic policy is clippy's (`unwrap_used`, `expect_used`, `panic`, …).
pub fn check_literal_index(file: &SourceFile<'_>, diags: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Lib {
        return;
    }
    let code = code_indices(file);
    for ci in 1..code.len() {
        let Some(t) = tok(file, &code, ci) else { continue };
        if t.text == "["
            && !in_test(file, &code, ci)
            && tok(file, &code, ci - 1)
                .is_some_and(|p| p.kind == TokKind::Ident || p.text == ")" || p.text == "]")
            && tok(file, &code, ci + 1).is_some_and(|n| n.kind == TokKind::Int)
            && tok(file, &code, ci + 2).is_some_and(|n| n.text == "]")
        {
            push(
                diags,
                RuleId::D2,
                file,
                t,
                "integer-literal index in library code — use `.first()` or a slice pattern"
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
