//! Diagnostics: stable rule IDs, deterministic ordering, text and JSON
//! rendering (hand-rolled JSON — this crate depends on nothing).

use std::fmt;

/// Stable rule identifiers. The discriminant order is the severity-free
/// display order; IDs never change meaning once shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Nondeterminism: ambient clocks/env reads outside `crates/obs` and
    /// bin entrypoints; `HashMap`/`HashSet` in deterministic figure paths.
    D1,
    /// Panic policy: `.unwrap()` / `.expect("…")` / `panic!`-family /
    /// integer-literal slice indexing in library code.
    D2,
    /// Metric-name registry: every obs metric/span name must match
    /// `crates/obs/METRICS.md` exactly — no typos, duplicates, or
    /// undocumented names.
    D3,
    /// Unsafe hygiene: `#![forbid(unsafe_code)]` in every non-shim crate
    /// root.
    D4,
    /// Pragma hygiene: a `// vmp-lint: allow(...)` that suppresses nothing
    /// is itself an error.
    D5,
    /// Lock order: the interprocedural lock-order graph (edges = "acquired
    /// while holding") must be acyclic, and no lock may be re-acquired
    /// while held.
    C1,
    /// Atomics registry: every atomic field is declared in
    /// `crates/obs/ATOMICS.md` with an ordering discipline, and every
    /// `Ordering::*` call site conforms to it (checked both directions).
    C2,
    /// Overflow/truncation: lossy `as` casts to narrow integer types and
    /// unchecked `+=`/`*=` on counter-named fields in library code
    /// (ratcheted via `lint-overflow-baseline.json`).
    C3,
}

impl RuleId {
    /// All rules, in ID order.
    pub const ALL: [RuleId; 8] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::C1,
        RuleId::C2,
        RuleId::C3,
    ];

    /// Stable textual ID.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::C1 => "C1",
            RuleId::C2 => "C2",
            RuleId::C3 => "C3",
        }
    }

    /// Parses a textual ID (used by `allow(...)` pragmas and baselines).
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "C1" => Some(RuleId::C1),
            "C2" => Some(RuleId::C2),
            "C3" => Some(RuleId::C3),
            _ => None,
        }
    }

    /// One-line description shown by `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "nondeterminism: ambient clock/env reads outside crates/obs and bin \
                 entrypoints; HashMap/HashSet in deterministic figure paths"
            }
            RuleId::D2 => {
                "panic policy: .unwrap()/.expect(\"…\")/panic!-family/integer-literal \
                 indexing in library code (ratcheted via lint-baseline.json)"
            }
            RuleId::D3 => {
                "metric registry: obs metric/span names must match \
                 crates/obs/METRICS.md (no typos, duplicates, or undocumented names)"
            }
            RuleId::D4 => "unsafe hygiene: #![forbid(unsafe_code)] in every non-shim crate root",
            RuleId::D5 => "pragma hygiene: stale vmp-lint allow(...) pragmas are errors",
            RuleId::C1 => {
                "lock order: the interprocedural lock-order graph must be acyclic \
                 (no acquired-while-holding cycle, no re-acquisition of a held lock)"
            }
            RuleId::C2 => {
                "atomics registry: atomic fields must be declared in \
                 crates/obs/ATOMICS.md with an ordering discipline matching every \
                 Ordering::* call site (both directions)"
            }
            RuleId::C3 => {
                "overflow policy: lossy as-casts to narrow integers and unchecked \
                 +=/*= on counter fields in library code (ratcheted via \
                 lint-overflow-baseline.json)"
            }
        }
    }

    /// Why the rule exists — one sentence, shared verbatim with
    /// `DESIGN.md` (a drift test asserts the docs contain it).
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "Byte-identical replay is the platform's headline guarantee; one \
                 ambient clock read or unordered-map iteration in a figure path \
                 silently breaks it."
            }
            RuleId::D2 => {
                "Library code that panics takes the whole measurement pipeline down \
                 with it; typed errors keep a bad input from costing a run."
            }
            RuleId::D3 => {
                "A metric name that drifts from the registry is a dashboard that \
                 silently flatlines; cross-checking both directions keeps docs and \
                 code in lockstep."
            }
            RuleId::D4 => {
                "Forbidding unsafe code at every crate root makes the memory-safety \
                 argument a grep, not an audit."
            }
            RuleId::D5 => {
                "A suppression that outlives the code it excused is a hole in the \
                 gate; stale pragmas must fail so every allow keeps earning its keep."
            }
            RuleId::C1 => {
                "Two locks taken in opposite orders on two threads deadlock the \
                 management plane in production, not in tests; an acyclic lock-order \
                 graph makes that impossible by construction."
            }
            RuleId::C2 => {
                "Every relaxed atomic is a proof obligation about why stale reads \
                 are safe; the registry forces that argument to be written down and \
                 keeps call sites from quietly strengthening or weakening it."
            }
            RuleId::C3 => {
                "Row and byte counters grow with --scale; a lossy cast or unchecked \
                 add that was fine at 1.2M rows silently truncates at 122M."
            }
        }
    }

    /// Fix recipes printed by `vmp-lint --explain RULE` (and mirrored in
    /// the docs via the same table).
    pub fn recipes(self) -> &'static [&'static str] {
        match self {
            RuleId::D1 => &[
                "route wall-clock reads through vmp_obs::Stopwatch",
                "replace HashMap/HashSet with BTreeMap/BTreeSet in figure paths, or sort before emitting",
            ],
            RuleId::D2 => &[
                "propagate a typed error with ? instead of .unwrap()/.expect(\"…\")",
                "use let-else with a failed-check return for impossible states",
                "replace v[0] with v.first()/.get(N) and handle the None arm",
            ],
            RuleId::D3 => &[
                "register the name in crates/obs/METRICS.md with its kind and description",
                "delete registry rows whose name no longer appears in source",
            ],
            RuleId::D4 => &["add #![forbid(unsafe_code)] to the crate root"],
            RuleId::D5 => &[
                "delete the stale pragma, or move it onto the line it is meant to excuse",
            ],
            RuleId::C1 => &[
                "acquire the two locks in one canonical order everywhere",
                "shrink the critical section: drop the guard (end its block) before calling into code that locks",
                "merge the two locks into one if they always guard the same state",
            ],
            RuleId::C2 => &[
                "register the field in crates/obs/ATOMICS.md with a discipline naming why its orderings are safe",
                "match the call sites to the declared discipline (e.g. relaxed-counter means Relaxed everywhere)",
                "delete registry rows for fields that no longer exist",
            ],
            RuleId::C3 => &[
                "use u32::try_from(x) / try_into() and handle the Err arm",
                "use checked_add/saturating_add on counters that scale with input size",
                "if the bound is provable, say so: // vmp-lint: allow(C3): <why>",
            ],
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: RuleId,
        file: impl Into<String>,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { rule, file: file.into(), line, col, message: message.into() }
    }

    /// `file:line:col: RULE: message` — the grep-able text form.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: {}: {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// Sorts diagnostics into the canonical deterministic order: file, line,
/// column, rule, message.
pub fn sort_canonical(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.col, b.rule, b.message.as_str()))
    });
}

/// Escapes a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let mut buf = String::new();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("\\u{:04x}", c as u32));
                out.push_str(&buf);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a sorted diagnostic list as a stable JSON report. Two runs over
/// the same tree produce byte-identical output: keys are emitted in fixed
/// order and the list is canonically sorted by the caller.
pub fn render_json(diags: &[Diagnostic], counts_by_rule: &[(RuleId, usize)]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"counts\": {");
    for (i, (rule, n)) in counts_by_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{rule}\": {n}"));
    }
    out.push_str("},\n  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}\n",
            d.rule,
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_total() {
        let mut d = vec![
            Diagnostic::new(RuleId::D2, "b.rs", 1, 1, "x"),
            Diagnostic::new(RuleId::D1, "a.rs", 2, 1, "x"),
            Diagnostic::new(RuleId::D1, "a.rs", 1, 5, "x"),
        ];
        sort_canonical(&mut d);
        assert_eq!(d[0].file, "a.rs");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[2].file, "b.rs");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("D9"), None);
    }
}
