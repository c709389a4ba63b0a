//! The token rules: D2's literal-index residue and the D3 metric
//! registry. Each matches short sequences of a file's code tokens — never
//! inside comments or literals (the lexer guarantees that).

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, RuleId};
use crate::engine::{FileClass, SourceFile};
use crate::lexer::TokKind;

/// Where the metric registry lives.
pub const METRICS_REL: &str = "crates/obs/METRICS.md";

/// Registry entry kinds accepted in `crates/obs/METRICS.md`.
const REGISTRY_KINDS: [&str; 4] = ["counter", "gauge", "histogram", "span"];

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
    for (i, w) in file.toks.windows(4).enumerate() {
        let [prev, open, lit, close] = w else { continue };
        if open.text == "["
            && !file.scope.in_test[i + 1]
            && (prev.kind == TokKind::Ident || prev.text == ")" || prev.text == "]")
            && lit.kind == TokKind::Int
            && close.text == "]"
        {
            let msg = "integer-literal index in library code — use `.first()` or a slice pattern";
            diags.push(file.diag(RuleId::D2, i + 1, msg.to_string()));
        }
    }
}

/// D3 — metric-name registry.
///
/// Extracts every literal obs name — `counter("…")`, `gauge("…")`,
/// `histogram("…")`, `span("…")` — from non-test source and cross-checks
/// the registry text (`None` when `crates/obs/METRICS.md` is missing):
/// no undocumented names, no kind mismatches, no duplicate registry rows,
/// and no registry rows whose name never appears in source.
pub fn check_metric_registry(
    registry_text: Option<&str>,
    sources: &[SourceFile<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(registry_text) = registry_text else {
        let msg = "metric registry crates/obs/METRICS.md is missing";
        diags.push(Diagnostic::new(RuleId::D3, METRICS_REL, 1, 1, msg.to_string()));
        return;
    };

    // Parse `| `name` | kind | description |` rows into name -> (kind, line).
    let mut registry: BTreeMap<&str, (String, u32)> = BTreeMap::new();
    for (lineno, cells) in table_rows(registry_text) {
        let [name_cell, kind_cell, ..] = cells.as_slice() else {
            continue;
        };
        let name = name_cell.trim_matches('`');
        let kind = kind_cell.to_ascii_lowercase();
        if name.is_empty() || *name_cell == name || !REGISTRY_KINDS.contains(&kind.as_str()) {
            continue; // header or separator row
        }
        if registry.contains_key(name) {
            let msg = format!("duplicate registry entry `{name}`");
            diags.push(Diagnostic::new(RuleId::D3, METRICS_REL, lineno, 1, msg));
        } else {
            registry.insert(name, (kind, lineno));
        }
    }

    // One pass over non-test code: check every call site, and collect
    // every string literal for the stale-row check. Names created
    // indirectly (span-by-experiment-id) count via their defining literal.
    let mut seen_literals = BTreeSet::new();
    for file in sources.iter().filter(|f| f.class != FileClass::TestOrBench) {
        for (i, t) in file.toks.iter().enumerate() {
            if file.scope.in_test[i] {
                continue;
            }
            if t.kind == TokKind::Str {
                seen_literals.insert(strip_quotes(t.text));
            }
            let (Some(paren), Some(lit)) = (file.toks.get(i + 1), file.toks.get(i + 2)) else {
                continue;
            };
            let kind = t.text;
            if t.kind != TokKind::Ident
                || !REGISTRY_KINDS.contains(&kind)
                || paren.text != "("
                || lit.kind != TokKind::Str
            {
                continue;
            }
            let name = strip_quotes(lit.text);
            let msg = match registry.get(name.as_str()) {
                None => format!("{kind} name `{name}` is not registered in crates/obs/METRICS.md"),
                // A span IS a histogram of nanoseconds; either kind
                // documents it. Everything else must match exactly.
                Some((registered, _))
                    if registered != kind
                        && !matches!(
                            (kind, registered.as_str()),
                            ("histogram", "span") | ("span", "histogram")
                        ) =>
                {
                    format!("`{name}` is registered as a {registered} but used as a {kind}")
                }
                Some(_) => continue,
            };
            diags.push(file.diag(RuleId::D3, i, msg));
        }
    }
    for (name, (_, line)) in &registry {
        if !seen_literals.contains(*name) {
            let msg = format!("registry entry `{name}` never appears in source");
            diags.push(Diagnostic::new(RuleId::D3, METRICS_REL, *line, 1, msg));
        }
    }
}

fn strip_quotes(text: &str) -> String {
    let start = text.find('"').map_or(0, |i| i + 1);
    let end = text.rfind('"').unwrap_or(text.len());
    text.get(start..end).unwrap_or(text).to_string()
}
