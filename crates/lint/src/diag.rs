//! Diagnostics: stable rule IDs, deterministic ordering, text and JSON
//! rendering (hand-rolled JSON — this crate depends on nothing).

use std::fmt;

/// Stable rule identifiers. The discriminant order is the severity-free
/// display order; IDs never change meaning once shipped. D1, D4, D5 and
/// C3 are compiler lints now (DESIGN.md §8), so their IDs are retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Panic policy, the part clippy does not express narrowly:
    /// integer-literal indexing in library code.
    D2,
    /// Metric-name registry: every obs metric/span name must match
    /// `crates/obs/METRICS.md` exactly — no typos, duplicates, or
    /// undocumented names.
    D3,
    /// Lock nesting: no lock is acquired while another guard is held in the
    /// same function, re-acquisition included.
    C1,
    /// Atomics registry: every atomic field is declared in
    /// `crates/obs/ATOMICS.md` with an ordering discipline, and every
    /// `Ordering::*` call site conforms to it (checked both directions).
    C2,
}

impl RuleId {
    /// All rules, in ID order.
    pub const ALL: [RuleId; 4] = [RuleId::D2, RuleId::D3, RuleId::C1, RuleId::C2];

    /// Parses a textual ID (used by `--explain`).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.to_string() == s)
    }

    /// One-line description shown by `--list-rules`.
    pub fn summary(self) -> &'static str {
        self.doc().0
    }

    /// Why the rule exists — one sentence, shared verbatim with
    /// `DESIGN.md` (a drift test asserts the docs contain it).
    pub fn rationale(self) -> &'static str {
        self.doc().1
    }

    /// Fix recipes printed by `vmp-lint --explain RULE`.
    pub fn recipes(self) -> &'static [&'static str] {
        self.doc().2
    }

    /// The rule's summary, rationale and fix recipes.
    fn doc(self) -> (&'static str, &'static str, &'static [&'static str]) {
        match self {
            RuleId::D2 => (
                "panic policy: integer-literal indexing in library code",
                "Library code that panics takes the whole measurement pipeline down \
                 with it; typed errors keep a bad input from costing a run.",
                &[
                    "replace v[0] with v.first() and handle the None arm",
                    "destructure with a slice pattern: let [a, b] = *w else { ... }",
                ],
            ),
            RuleId::D3 => (
                "metric registry: obs metric/span names must match \
                 crates/obs/METRICS.md (no typos, duplicates, or undocumented names)",
                "A metric name that drifts from the registry is a dashboard that \
                 silently flatlines; cross-checking both directions keeps docs and \
                 code in lockstep.",
                &[
                    "register the name in crates/obs/METRICS.md with its kind and description",
                    "delete registry rows whose name no longer appears in source",
                ],
            ),
            RuleId::C1 => (
                "lock nesting: no .lock()/.read()/.write() while another guard is held \
                 (re-entry included)",
                "Two locks taken in opposite orders on two threads deadlock the \
                 management plane in production, not in tests; holding one lock at a \
                 time rules that out.",
                &[
                    "merge the two locks into one if they always guard the same state",
                    "shrink the critical section: end the first guard's block, or drop(guard), before taking the next lock",
                ],
            ),
            RuleId::C2 => (
                "atomics registry: atomic fields must be declared in \
                 crates/obs/ATOMICS.md with an ordering discipline matching every \
                 Ordering::* call site (both directions)",
                "Every relaxed atomic is a proof obligation about why stale reads \
                 are safe; the registry forces that argument to be written down and \
                 keeps call sites from quietly strengthening or weakening it.",
                &[
                    "register the field in crates/obs/ATOMICS.md with a discipline naming why its orderings are safe",
                    "match the call sites to the declared discipline (e.g. relaxed-counter means Relaxed everywhere)",
                    "delete registry rows for fields that no longer exist",
                ],
            ),
        }
    }
}

/// The stable textual ID is the variant name.
impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One finding at a source position. The derived order (file, line,
/// column, rule, message) is the canonical deterministic report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
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
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// How many diagnostics `rule` produced.
pub fn count(diags: &[Diagnostic], rule: RuleId) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

/// Renders a sorted diagnostic list as a stable JSON report. Two runs over
/// the same tree produce byte-identical output: keys are emitted in fixed
/// order, every rule is counted (zero included), and the list is
/// canonically sorted by the caller.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let counts: Vec<String> =
        RuleId::ALL.iter().map(|&r| format!("\"{r}\": {}", count(diags, r))).collect();
    let mut out = format!(
        "{{\n  \"version\": 1,\n  \"counts\": {{{}}},\n  \"diagnostics\": [\n",
        counts.join(",")
    );
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
        let mut d = [
            Diagnostic::new(RuleId::D2, "b.rs", 1, 1, "x"),
            Diagnostic::new(RuleId::D3, "a.rs", 2, 1, "x"),
            Diagnostic::new(RuleId::D3, "a.rs", 1, 5, "x"),
        ];
        d.sort();
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
            assert_eq!(RuleId::parse(&rule.to_string()), Some(rule));
        }
        assert_eq!(RuleId::parse("D9"), None);
    }
}
