//! Ratchet baselines: existing findings for the ratcheted rules are
//! grandfathered per file — D2 panic-policy debt in `lint-baseline.json`,
//! C3 overflow debt in `lint-overflow-baseline.json` — and each count may
//! only go down.
//!
//! Protocol (identical for both rules):
//! * a finding in a file is tolerated while the file's current count is
//!   within its baselined count;
//! * any file exceeding its baseline (or absent from it) fails the run —
//!   new panic sites cannot ship;
//! * when fixes drop a file below its baseline, the run reports the slack;
//!   `--write-baseline` re-tightens the file (counts can never be ratcheted
//!   up this way — CI separately asserts the committed total is
//!   monotonically non-increasing across commits).

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::json_escape;

/// A parsed baseline: per-file tolerated counts for one ratcheted rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Tolerated findings per workspace-relative file.
    pub files: BTreeMap<String, usize>,
}

impl Baseline {
    /// Total tolerated findings.
    pub fn total(&self) -> usize {
        self.files.values().sum()
    }

    /// Loads a baseline file. A missing file is an empty baseline (every
    /// finding fails), so a deleted baseline can only make the gate
    /// stricter.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Baseline::default())
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the baseline JSON. The format is exactly what
    /// [`Baseline::render`] writes; a minimal scanner is enough and keeps
    /// this crate dependency-free.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut files = BTreeMap::new();
        let Some(files_at) = text.find("\"files\"") else {
            return Err("missing \"files\" object".to_string());
        };
        let rest = &text[files_at..];
        let Some(open) = rest.find('{') else {
            return Err("missing \"files\" object body".to_string());
        };
        let Some(len) = rest[open..].find('}') else {
            return Err("unterminated \"files\" object".to_string());
        };
        let body = &rest[open + 1..open + len];
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let mut halves = pair.rsplitn(2, ':');
            let count = halves.next().map(str::trim).unwrap_or_default();
            let key = halves.next().map(str::trim).unwrap_or_default();
            let key = key.trim_matches('"');
            let count: usize = count
                .parse()
                .map_err(|_| format!("bad count for `{key}`: `{count}`"))?;
            if key.is_empty() {
                return Err("empty file key in baseline".to_string());
            }
            if files.insert(key.to_string(), count).is_some() {
                return Err(format!("duplicate baseline entry for `{key}`"));
            }
        }
        Ok(Baseline { files })
    }

    /// Renders the canonical baseline JSON (sorted keys, stable shape —
    /// byte-identical across runs on the same tree) for the given ratcheted
    /// rule (`D2` for `lint-baseline.json`, `C3` for
    /// `lint-overflow-baseline.json`).
    pub fn render(&self, rule: &str) -> String {
        let mut out = format!("{{\n  \"version\": 1,\n  \"rule\": \"{rule}\",\n");
        out.push_str(&format!("  \"total\": {},\n  \"files\": {{\n", self.total()));
        let n = self.files.len();
        for (i, (file, count)) in self.files.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(file),
                count,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Outcome of comparing current per-file counts against a baseline.
#[derive(Debug, Default)]
pub struct RatchetCheck {
    /// Files whose count rose above the baseline: `(file, current, allowed)`.
    pub regressions: Vec<(String, usize, usize)>,
    /// Findings eliminated relative to the baseline (ratchet slack).
    pub slack: usize,
}

impl RatchetCheck {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares current counts with the baseline.
pub fn check(current: &BTreeMap<String, usize>, baseline: &Baseline) -> RatchetCheck {
    let mut out = RatchetCheck::default();
    for (file, &count) in current {
        let allowed = baseline.files.get(file).copied().unwrap_or(0);
        if count > allowed {
            out.regressions.push((file.clone(), count, allowed));
        } else {
            out.slack += allowed - count;
        }
    }
    // Files fully fixed (present in the baseline, absent now) are slack too.
    for (file, &allowed) in &baseline.files {
        if !current.contains_key(file) {
            out.slack += allowed;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(entries: &[(&str, usize)]) -> Baseline {
        Baseline {
            files: entries.iter().map(|(f, n)| (f.to_string(), *n)).collect(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = baseline(&[("crates/a/src/x.rs", 3), ("crates/b/src/y.rs", 1)]);
        let rendered = b.render("D2");
        let parsed = Baseline::parse(&rendered).expect("round trip");
        assert_eq!(parsed, b);
        assert_eq!(parsed.total(), 4);
        assert!(rendered.contains("\"rule\": \"D2\""));
        assert!(b.render("C3").contains("\"rule\": \"C3\""));
    }

    #[test]
    fn regressions_and_slack() {
        let b = baseline(&[("a.rs", 2), ("b.rs", 1)]);
        let current: BTreeMap<String, usize> =
            [("a.rs".to_string(), 3), ("c.rs".to_string(), 1)].into_iter().collect();
        let check = check(&current, &b);
        assert!(!check.passed());
        assert_eq!(check.regressions.len(), 2); // a.rs over, c.rs new
        assert_eq!(check.slack, 1); // b.rs fully fixed
    }

    #[test]
    fn within_baseline_passes() {
        let b = baseline(&[("a.rs", 2)]);
        let current: BTreeMap<String, usize> = [("a.rs".to_string(), 1)].into_iter().collect();
        let check = check(&current, &b);
        assert!(check.passed());
        assert_eq!(check.slack, 1);
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/lint-baseline.json")).expect("empty");
        assert_eq!(b.total(), 0);
    }
}
