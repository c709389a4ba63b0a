//! End-to-end engine test over the annotated fixture workspace in
//! `tests/fixtures/ws/`. Every deliberate violation in the fixture tree
//! carries a trailing `//~ ERROR <RULE>` marker (inside an HTML comment
//! for markdown); the test runs the full analyzer over the tree and
//! requires the emitted diagnostics to match the markers **exactly** —
//! no missing findings, no extras, per file and line. The fixture tree is
//! excluded from real workspace runs by `engine::classify`, so these
//! violations never leak into the repo's own lint gate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vmp_lint::diag::render_json;
use vmp_lint::{analyze, RuleId};

const MARKER: &str = "//~ ERROR";

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// Expected diagnostics, keyed by `(relative path, 1-based line)` with the
/// rule IDs expected on that line (sorted; duplicates allowed).
type Expectations = BTreeMap<(String, u32), Vec<RuleId>>;

/// Walks the fixture tree and parses every expectation marker.
fn collect_expectations(root: &Path) -> Expectations {
    let mut out = Expectations::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(dir_rel) = stack.pop() {
        let dir = root.join(&dir_rel);
        for entry in std::fs::read_dir(&dir).expect("fixture dir readable") {
            let entry = entry.expect("fixture entry readable");
            let rel = dir_rel.join(entry.file_name());
            if entry.file_type().expect("fixture stat").is_dir() {
                stack.push(rel);
                continue;
            }
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let text = std::fs::read_to_string(root.join(&rel)).expect("fixture readable");
            for (lineno, line) in text.lines().enumerate() {
                let Some(at) = line.find(MARKER) else { continue };
                let rules: Vec<RuleId> = line[at + MARKER.len()..]
                    .split_whitespace()
                    .map_while(RuleId::parse)
                    .collect();
                assert!(
                    !rules.is_empty(),
                    "{rel_str}:{}: marker with no parseable rule: {line}",
                    lineno + 1
                );
                let mut rules = rules;
                rules.sort();
                out.insert((rel_str.clone(), lineno as u32 + 1), rules);
            }
        }
    }
    out
}

#[test]
fn fixture_diagnostics_match_annotations_exactly() {
    let root = fixture_root();
    let expected = collect_expectations(&root);
    assert!(!expected.is_empty(), "fixture tree has no expectation markers");

    let report = analyze(&root).expect("fixture analysis succeeds");
    let mut actual = Expectations::new();
    for d in &report.diagnostics {
        actual.entry((d.file.clone(), d.line)).or_default().push(d.rule);
    }
    for rules in actual.values_mut() {
        rules.sort();
    }

    let mut problems = Vec::new();
    for (key, rules) in &expected {
        match actual.get(key) {
            None => problems.push(format!(
                "{}:{}: expected {:?}, analyzer reported nothing",
                key.0, key.1, rules
            )),
            Some(got) if got != rules => problems.push(format!(
                "{}:{}: expected {:?}, analyzer reported {:?}",
                key.0, key.1, rules, got
            )),
            Some(_) => {}
        }
    }
    for (key, rules) in &actual {
        if !expected.contains_key(key) {
            problems.push(format!(
                "{}:{}: analyzer reported unexpected {:?}: {}",
                key.0,
                key.1,
                rules,
                report
                    .diagnostics
                    .iter()
                    .filter(|d| d.file == key.0 && d.line == key.1)
                    .map(|d| d.message.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
    }
    assert!(problems.is_empty(), "fixture mismatches:\n{}", problems.join("\n"));
}

#[test]
fn fixture_json_counts_snapshot() {
    // Pins the `--json` counts block for the fixture tree: every rule
    // fires (none may silently stop covering its rule), and D2 excludes
    // the #[cfg(test)] mod in alpha.
    let report = analyze(&fixture_root()).expect("fixture analysis succeeds");
    let json = render_json(&report.diagnostics, &report.counts);
    let pinned = [(RuleId::D2, 2), (RuleId::D3, 4), (RuleId::C1, 6), (RuleId::C2, 6)];
    assert_eq!(pinned.map(|(rule, _)| rule), RuleId::ALL, "a rule is not pinned");
    for (rule, n) in pinned {
        assert!(json.contains(&format!("\"{rule}\": {n}")), "fixture {rule} count is not {n}:\n{json}");
    }
}

#[test]
fn fixture_analysis_is_deterministic() {
    let root = fixture_root();
    let a = analyze(&root).expect("first run");
    let b = analyze(&root).expect("second run");
    assert_eq!(
        render_json(&a.diagnostics, &a.counts),
        render_json(&b.diagnostics, &b.counts),
        "two runs over an identical tree must render byte-identical JSON"
    );
}
