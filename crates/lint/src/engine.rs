//! The analysis engine: workspace walking, file classification,
//! `#[cfg(test)]` region detection, pragma suppression, and rule
//! orchestration.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::diag::{sort_canonical, Diagnostic, RuleId};
use crate::lexer::{lex, Tok, TokKind};
use crate::rules;
use crate::rules_conc;
use crate::rules_overflow;
use crate::syntax;

/// How a file participates in analysis, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileClass {
    /// Library source: full policy applies.
    Lib,
    /// Binary entrypoint (`src/bin/**`, `src/main.rs`): ambient clocks and
    /// env reads are sanctioned here.
    BinEntry,
    /// Examples: demo code, exempt from D1/D2.
    Example,
    /// Tests and benches: exempt from D1/D2 (assertions are their job).
    TestOrBench,
}

/// A lexed source file ready for rule matching.
pub struct SourceFile<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Classification.
    pub class: FileClass,
    /// All tokens, comments included.
    pub toks: Vec<Tok<'a>>,
    /// Per-token flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl std::fmt::Debug for SourceFile<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceFile")
            .field("rel", &self.rel)
            .field("class", &self.class)
            .field("tokens", &self.toks.len())
            .finish()
    }
}

/// Classifies a workspace-relative path, or `None` when the file must not
/// be scanned at all (shims, lint fixtures, generated output).
pub fn classify(rel: &str) -> Option<FileClass> {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"target") || parts.first() == Some(&".git") {
        return None;
    }
    if rel.starts_with("crates/shims/") {
        return None;
    }
    // Lint self-test fixtures contain deliberate violations.
    if rel.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    if parts.contains(&"tests") || parts.contains(&"benches") {
        return Some(FileClass::TestOrBench);
    }
    if parts.contains(&"examples") {
        return Some(FileClass::Example);
    }
    if parts.contains(&"bin") || rel.ends_with("src/main.rs") || rel == "build.rs" {
        return Some(FileClass::BinEntry);
    }
    Some(FileClass::Lib)
}

/// Recursively collects every analyzable `.rs` file under `root`, sorted
/// by relative path so every downstream artifact is deterministic.
pub fn collect_files(root: &Path) -> Result<Vec<(String, FileClass)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(dir_rel) = stack.pop() {
        let dir = root.join(&dir_rel);
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = if dir_rel.as_os_str().is_empty() {
                PathBuf::from(name.as_ref())
            } else {
                dir_rel.join(name.as_ref())
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let ftype =
                entry.file_type().map_err(|e| format!("stat {}: {e}", rel.display()))?;
            if ftype.is_dir() {
                if !matches!(rel_str.as_str(), "target" | ".git" | "results")
                    && rel_str != "crates/shims"
                    && rel_str != "crates/lint/tests/fixtures"
                {
                    stack.push(rel);
                }
            } else if let Some(class) = classify(&rel_str) {
                out.push((rel_str, class));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Marks tokens covered by `#[cfg(test)]` items (typically the trailing
/// `mod tests { ... }`). Detection is lexical: the attribute sequence
/// `# [ cfg ( test ) ]`, any further attributes, then the next item — a
/// balanced `{ ... }` block or a `;`-terminated line.
pub fn test_regions(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> =
        (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let at = |ci: usize, text: &str| -> bool {
        code.get(ci).is_some_and(|&ti| toks[ti].text == text)
    };
    let mut ci = 0usize;
    while ci < code.len() {
        if at(ci, "#")
            && at(ci + 1, "[")
            && at(ci + 2, "cfg")
            && at(ci + 3, "(")
            && at(ci + 4, "test")
            && at(ci + 5, ")")
            && at(ci + 6, "]")
        {
            let start_ti = code[ci];
            let mut cj = ci + 7;
            // Skip any further attributes on the same item.
            while at(cj, "#") && at(cj + 1, "[") {
                let mut depth = 0i32;
                cj += 1;
                while cj < code.len() {
                    if at(cj, "[") {
                        depth += 1;
                    } else if at(cj, "]") {
                        depth -= 1;
                        if depth == 0 {
                            cj += 1;
                            break;
                        }
                    }
                    cj += 1;
                }
            }
            // Find the item body: first `{` (then match braces) or `;`.
            let mut end_ti = toks.len() - 1;
            let mut found = false;
            let mut ck = cj;
            while ck < code.len() {
                if at(ck, ";") {
                    end_ti = code[ck];
                    found = true;
                    break;
                }
                if at(ck, "{") {
                    let mut depth = 0i32;
                    while ck < code.len() {
                        if at(ck, "{") {
                            depth += 1;
                        } else if at(ck, "}") {
                            depth -= 1;
                            if depth == 0 {
                                end_ti = code[ck];
                                found = true;
                                break;
                            }
                        }
                        ck += 1;
                    }
                    break;
                }
                ck += 1;
            }
            if !found {
                end_ti = toks.len() - 1;
            }
            for m in mask.iter_mut().take(end_ti + 1).skip(start_ti) {
                *m = true;
            }
            // Resume scanning after the item.
            while ci < code.len() && code[ci] <= end_ti {
                ci += 1;
            }
            continue;
        }
        ci += 1;
    }
    mask
}

/// One `// vmp-lint: allow(RULE, ...)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// File the pragma lives in.
    pub file: String,
    /// Line of the pragma comment itself.
    pub line: u32,
    /// Column of the comment.
    pub col: u32,
    /// Rules it allows.
    pub rules: Vec<RuleId>,
    /// The line whose diagnostics it suppresses (its own line for trailing
    /// pragmas, the next code line for standalone ones).
    pub target_line: u32,
}

/// Extracts pragmas from a file's comment tokens. Unknown rule IDs inside
/// `allow(...)` produce D5 diagnostics immediately.
pub fn collect_pragmas(file: &SourceFile<'_>, diags: &mut Vec<Diagnostic>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (i, tok) in file.toks.iter().enumerate() {
        if tok.kind != TokKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("vmp-lint:") else { continue };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split(')').next()) else {
            diags.push(Diagnostic::new(
                RuleId::D5,
                file.rel.clone(),
                tok.line,
                tok.col,
                format!("malformed vmp-lint pragma: expected `allow(RULE, ...)`, got `{rest}`"),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for part in args.split(',') {
            let part = part.trim();
            match RuleId::parse(part) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(Diagnostic::new(
                        RuleId::D5,
                        file.rel.clone(),
                        tok.line,
                        tok.col,
                        format!("unknown rule `{part}` in allow pragma"),
                    ));
                    bad = true;
                }
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        // Standalone comment (first token on its line) targets the next
        // code line; a trailing comment targets its own line.
        let standalone = !file.toks[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| t.is_code());
        let target_line = if standalone {
            file.toks[i + 1..]
                .iter()
                .find(|t| t.is_code())
                .map(|t| t.line)
                .unwrap_or(tok.line + 1)
        } else {
            tok.line
        };
        pragmas.push(Pragma {
            file: file.rel.clone(),
            line: tok.line,
            col: tok.col,
            rules,
            target_line,
        });
    }
    pragmas
}

/// A full analysis result.
#[derive(Debug)]
pub struct Report {
    /// All diagnostics after pragma suppression, canonically sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule counts (every rule present, zero included).
    pub counts: Vec<(RuleId, usize)>,
}

impl Report {
    /// Count for one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.counts.iter().find(|(r, _)| *r == rule).map_or(0, |(_, n)| *n)
    }

    /// Per-file counts for one rule (the baseline's shape).
    pub fn per_file(&self, rule: RuleId) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for d in self.diagnostics.iter().filter(|d| d.rule == rule) {
            *map.entry(d.file.clone()).or_insert(0) += 1;
        }
        map
    }
}

/// Runs every rule over the workspace rooted at `root`.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let files = collect_files(root)?;
    let mut texts: Vec<(String, FileClass, String)> = Vec::with_capacity(files.len());
    for (rel, class) in files {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        texts.push((rel, class, text));
    }

    let sources: Vec<SourceFile<'_>> = texts
        .iter()
        .map(|(rel, class, text)| {
            let toks = lex(text);
            let in_test = test_regions(&toks);
            SourceFile { rel: rel.clone(), class: *class, toks, in_test }
        })
        .collect();

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut pragmas: Vec<Pragma> = Vec::new();
    for file in &sources {
        pragmas.extend(collect_pragmas(file, &mut diags));
        rules::check_nondeterminism(file, &mut diags);
        rules::check_panic_policy(file, &mut diags);
        rules_overflow::check_overflow(file, &mut diags);
    }
    rules::check_metric_registry(root, &sources, &mut diags);
    rules::check_unsafe_hygiene(root, &sources, &mut diags);
    let model = syntax::build(&sources);
    rules_conc::check_lock_nesting(&model, &sources, &mut diags);
    rules_conc::check_atomics_registry(root, &model, &sources, &mut diags);

    // Pragma suppression: a diagnostic is dropped when a pragma in the
    // same file allows its rule on its line. Every pragma must earn its
    // keep: unused ones become D5 diagnostics (the suppression of a D5 by
    // another pragma is deliberately not supported).
    let mut used = vec![false; pragmas.len()];
    diags.retain(|d| {
        if d.rule == RuleId::D5 {
            return true;
        }
        let mut suppressed = false;
        for (pi, p) in pragmas.iter().enumerate() {
            if p.file == d.file && p.target_line == d.line && p.rules.contains(&d.rule) {
                used[pi] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (pi, p) in pragmas.iter().enumerate() {
        if !used[pi] {
            diags.push(Diagnostic::new(
                RuleId::D5,
                p.file.clone(),
                p.line,
                p.col,
                format!(
                    "stale pragma: allow({}) suppresses no diagnostic on line {}",
                    p.rules.iter().map(|r| r.as_str()).collect::<Vec<_>>().join(", "),
                    p.target_line
                ),
            ));
        }
    }

    sort_canonical(&mut diags);
    let counts = RuleId::ALL
        .iter()
        .map(|&r| (r, diags.iter().filter(|d| d.rule == r).count()))
        .collect();
    Ok(Report { diagnostics: diags, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/lib.rs"), Some(FileClass::Lib));
        assert_eq!(classify("crates/experiments/src/bin/repro.rs"), Some(FileClass::BinEntry));
        assert_eq!(classify("crates/core/tests/x.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("examples/demo.rs"), Some(FileClass::Example));
        assert_eq!(classify("crates/shims/serde/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/ws/src/lib.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn test_region_masks_trailing_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let toks = lex(src);
        let mask = test_regions(&toks);
        let unwrap_idx = toks.iter().position(|t| t.text == "unwrap").unwrap();
        let c_idx = toks.iter().position(|t| t.text == "c").unwrap();
        assert!(mask[unwrap_idx]);
        assert!(!mask[c_idx]);
    }

    #[test]
    fn test_region_handles_extra_attrs_and_use() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse foo::bar;\nfn live() {}\n";
        let toks = lex(src);
        let mask = test_regions(&toks);
        let bar = toks.iter().position(|t| t.text == "bar").unwrap();
        let live = toks.iter().position(|t| t.text == "live").unwrap();
        assert!(mask[bar]);
        assert!(!mask[live]);
    }
}
