//! The library policy's debt is the set of `#[expect(lint, reason = "…")]`
//! attributes in the tree (DESIGN.md §8). This test counts them per lint
//! and requires the counts to equal the committed table, so adding an
//! exception or paying one off is a visible edit here, never a silent one.
//! An expectation that stops firing already fails clippy
//! (`unfulfilled_lint_expectations` under `-D warnings`).

use std::collections::BTreeMap;
use std::path::Path;

use vmp_lint::engine::collect_files;
use vmp_lint::lexer::lex;

/// Expectations per lint, across the workspace (shims and lint fixtures
/// excluded). Lower these as sites are fixed.
const COMMITTED: [(&str, usize); 5] = [
    ("clippy::cast_possible_truncation", 68),
    ("clippy::cast_possible_wrap", 1),
    ("clippy::cast_sign_loss", 41),
    ("clippy::expect_used", 7),
    ("clippy::unreachable", 1),
];

/// Counts the lint paths named by every `#[expect(...)]` in `src`.
fn count_expectations(src: &str, counts: &mut BTreeMap<String, usize>) {
    let texts: Vec<&str> = lex(src).into_iter().map(|t| t.text).collect();
    for start in 0..texts.len() {
        if !texts[start..].starts_with(&["#", "[", "expect", "("]) {
            continue;
        }
        // Comma-separated arguments at depth 1; `reason = "…"` is skipped.
        let (mut depth, mut arg) = (0usize, String::new());
        for &text in &texts[start + 3..] {
            match text {
                "(" => depth += 1,
                ")" | "," if depth == 1 => {
                    if !arg.is_empty() && !arg.contains('=') {
                        *counts.entry(std::mem::take(&mut arg)).or_default() += 1;
                    }
                    arg.clear();
                    if text == ")" {
                        break;
                    }
                }
                ")" => depth -= 1,
                _ => arg.push_str(text),
            }
        }
    }
}

fn tree_counts() -> BTreeMap<String, usize> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut counts = BTreeMap::new();
    for (rel, _) in collect_files(&root).expect("workspace readable") {
        let src = std::fs::read_to_string(root.join(&rel)).expect("source readable");
        count_expectations(&src, &mut counts);
    }
    counts
}

#[test]
fn expectation_counts_equal_the_committed_table() {
    let committed: BTreeMap<String, usize> =
        COMMITTED.iter().map(|(lint, n)| (lint.to_string(), *n)).collect();
    assert_eq!(
        tree_counts(),
        committed,
        "the tree's #[expect] attributes differ from COMMITTED in {}; \
         update the table in the same change",
        file!()
    );
}

#[test]
fn counter_reads_attributes_not_comments_or_strings() {
    let src = r##"
        #[expect(clippy::expect_used, clippy::cast_sign_loss, reason = "a, b")]
        fn f() {}
        #[expect(dead_code)]
        fn g() {}
        // #[expect(clippy::expect_used)]
        const S: &str = "#[expect(clippy::expect_used)]";
    "##;
    let mut counts = BTreeMap::new();
    count_expectations(src, &mut counts);
    let want = BTreeMap::from([
        ("clippy::cast_sign_loss".to_string(), 1),
        ("clippy::expect_used".to_string(), 1),
        ("dead_code".to_string(), 1),
    ]);
    assert_eq!(counts, want);
}
