//! End-to-end engine test over the annotated fixture workspace in
//! `tests/fixtures/ws/`. Every deliberate violation in the fixture tree
//! carries a trailing `//~ ERROR <RULE>` marker (inside an HTML comment
//! for markdown); the test runs the full analyzer over the tree and
//! requires the emitted diagnostics to match the markers **exactly** —
//! no missing findings, no extras, per file and line. The fixture tree is
//! excluded from real workspace runs by `engine::classify`, so these
//! violations never leak into the repo's own lint gate.

use std::path::{Path, PathBuf};

use vmp_lint::diag::render_json;
use vmp_lint::{analyze, RuleId};

const MARKER: &str = "//~ ERROR";

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// Appends `file:line: RULE` for every rule named by an expectation
/// marker in the files under `dir`, paths relative to `root`.
fn collect_expectations(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir readable") {
        let path = entry.expect("fixture entry readable").path();
        if path.is_dir() {
            collect_expectations(root, &path, out);
            continue;
        }
        let rel =
            path.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        for (i, line) in text.lines().enumerate() {
            let Some(at) = line.find(MARKER) else { continue };
            let rules: Vec<&str> = line[at + MARKER.len()..]
                .split_whitespace()
                .take_while(|r| RuleId::parse(r).is_some())
                .collect();
            assert!(!rules.is_empty(), "{rel}:{}: marker with no parseable rule: {line}", i + 1);
            out.extend(rules.iter().map(|rule| format!("{rel}:{}: {rule}", i + 1)));
        }
    }
}

#[test]
fn fixture_diagnostics_match_annotations_exactly() {
    let root = fixture_root();
    let mut expected = Vec::new();
    collect_expectations(&root, &root, &mut expected);
    assert!(!expected.is_empty(), "fixture tree has no expectation markers");
    expected.sort();

    let diags = analyze(&root).expect("fixture analysis succeeds");
    let mut actual: Vec<String> =
        diags.iter().map(|d| format!("{}:{}: {}", d.file, d.line, d.rule)).collect();
    actual.sort();
    let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert_eq!(
        actual,
        expected,
        "findings (left) differ from the markers (right):\n{}",
        rendered.join("\n")
    );
}

#[test]
fn fixture_json_counts_snapshot() {
    // Pins the `--json` counts block for the fixture tree: every rule
    // fires (none may silently stop covering its rule), and D2 excludes
    // alpha's #[cfg(test)] fn and mod.
    let json = render_json(&analyze(&fixture_root()).expect("fixture analysis succeeds"));
    let pinned = [(RuleId::D2, 2), (RuleId::D3, 4), (RuleId::C1, 7), (RuleId::C2, 6)];
    assert_eq!(pinned.map(|(rule, _)| rule), RuleId::ALL, "a rule is not pinned");
    for (rule, n) in pinned {
        assert!(
            json.contains(&format!("\"{rule}\": {n}")),
            "fixture {rule} count is not {n}:\n{json}"
        );
    }
}

#[test]
fn fixture_analysis_is_deterministic() {
    let root = fixture_root();
    let a = analyze(&root).expect("first run");
    let b = analyze(&root).expect("second run");
    assert_eq!(
        render_json(&a),
        render_json(&b),
        "two runs over an identical tree must render byte-identical JSON"
    );
}
