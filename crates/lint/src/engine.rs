//! The analysis engine: workspace walking, file classification, and rule
//! orchestration. Each file is lexed once and walked once by the scope
//! pass ([`crate::syntax::scan`]); every rule reads those two results.

use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{lex, Tok};
use crate::syntax::{scan, Scope};
use crate::{rules, rules_conc};

/// How a file participates in analysis, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileClass {
    /// Library source: full policy applies.
    Lib,
    /// Binary entrypoint (`src/bin/**`, `src/main.rs`) or example: exempt
    /// from D2.
    Entry,
    /// Tests and benches: exempt from D2 (assertions are their job).
    TestOrBench,
}

/// A lexed and scanned source file ready for rule matching.
#[derive(Debug)]
pub struct SourceFile<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Classification.
    pub class: FileClass,
    /// Code tokens (the lexer drops comments).
    pub toks: Vec<Tok<'a>>,
    /// What the scope pass found, indexed by token.
    pub scope: Scope,
}

impl<'a> SourceFile<'a> {
    /// Lexes and scans `text`.
    pub fn new(rel: &str, class: FileClass, text: &'a str) -> SourceFile<'a> {
        let toks = lex(text);
        let scope = scan(&toks);
        SourceFile { rel: rel.to_string(), class, toks, scope }
    }

    /// A diagnostic at token `tok`.
    pub fn diag(&self, rule: RuleId, tok: usize, message: String) -> Diagnostic {
        let (line, col) = self.toks.get(tok).map_or((1, 1), |t| (t.line, t.col));
        Diagnostic::new(rule, self.rel.clone(), line, col, message)
    }

    /// Whether token `tok` is in non-test library code, the only code the
    /// C rules constrain (test-only locks like serialization guards must
    /// not).
    pub fn live_lib(&self, tok: usize) -> bool {
        self.class == FileClass::Lib && !self.scope.in_test.get(tok).copied().unwrap_or(true)
    }
}

/// Directories never walked: build output, VCS state, generated results,
/// the offline shims, and the lint self-test fixtures (deliberate
/// violations).
const SKIPPED_DIRS: [&str; 5] =
    ["target", ".git", "results", "crates/shims", "crates/lint/tests/fixtures"];

/// Classifies a workspace-relative path, or `None` when the file must not
/// be scanned at all (shims, lint fixtures, generated output).
pub fn classify(rel: &str) -> Option<FileClass> {
    let parts: Vec<&str> = rel.split('/').collect();
    let skipped =
        SKIPPED_DIRS.iter().any(|d| rel.strip_prefix(d).is_some_and(|rest| rest.starts_with('/')));
    if skipped || !rel.ends_with(".rs") {
        return None;
    }
    if parts.contains(&"tests") || parts.contains(&"benches") {
        return Some(FileClass::TestOrBench);
    }
    if parts.contains(&"examples")
        || parts.contains(&"bin")
        || rel.ends_with("src/main.rs")
        || rel == "build.rs"
    {
        return Some(FileClass::Entry);
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
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let rel = dir_rel.join(entry.file_name());
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let ftype = entry.file_type().map_err(|e| format!("stat {}: {e}", rel.display()))?;
            if ftype.is_dir() {
                if !SKIPPED_DIRS.contains(&rel_str.as_str()) {
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

/// Runs every rule over the workspace rooted at `root` and returns the
/// diagnostics in canonical order.
pub fn analyze(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut texts = Vec::new();
    for (rel, class) in collect_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        texts.push((rel, class, text));
    }
    let sources: Vec<SourceFile<'_>> =
        texts.iter().map(|(rel, class, text)| SourceFile::new(rel, *class, text)).collect();
    let registry = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();

    let mut diags: Vec<Diagnostic> = Vec::new();
    for file in &sources {
        rules::check_literal_index(file, &mut diags);
    }
    rules::check_metric_registry(registry(rules::METRICS_REL).as_deref(), &sources, &mut diags);
    rules_conc::check_lock_nesting(&sources, &mut diags);
    let atomics = registry(rules_conc::ATOMICS_REGISTRY_REL);
    rules_conc::check_atomics_registry(atomics.as_deref(), &sources, &mut diags);

    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/lib.rs"), Some(FileClass::Lib));
        assert_eq!(classify("crates/experiments/src/bin/repro.rs"), Some(FileClass::Entry));
        assert_eq!(classify("crates/core/tests/x.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("examples/demo.rs"), Some(FileClass::Entry));
        assert_eq!(classify("crates/shims/serde/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/ws/src/lib.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    fn in_test(src: &str, name: &str) -> bool {
        let file = SourceFile::new("crates/x/src/lib.rs", FileClass::Lib, src);
        let at = file.toks.iter().position(|t| t.text == name);
        at.is_some_and(|i| file.scope.in_test[i])
    }

    #[test]
    fn test_region_masks_trailing_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap() }\n}\nfn c() {}\n";
        assert!(in_test(src, "unwrap"));
        assert!(!in_test(src, "c"));
    }

    #[test]
    fn test_region_handles_extra_attrs_and_use() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse foo::bar;\nfn live() {}\n";
        assert!(in_test(src, "bar"));
        assert!(!in_test(src, "live"));
    }
}
