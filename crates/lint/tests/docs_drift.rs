//! Docs drift test: `DESIGN.md` §8 (static analysis) quotes every rule's
//! rationale **verbatim** from the shared `RuleId::rationale` table that
//! also powers `vmp-lint --explain`. Comparing whitespace-normalized text
//! lets the markdown re-wrap lines without weakening "verbatim".

use std::path::Path;

use vmp_lint::RuleId;

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn design_md_quotes_every_rationale_verbatim() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design = normalize(&std::fs::read_to_string(&path).expect("DESIGN.md readable"));
    for rule in RuleId::ALL {
        assert!(
            design.contains(&normalize(rule.rationale())),
            "DESIGN.md no longer quotes {rule}'s rationale verbatim:\n{}",
            rule.rationale()
        );
    }
}

#[test]
fn design_md_documents_every_discipline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design = std::fs::read_to_string(&path).expect("DESIGN.md readable");
    for (name, ..) in vmp_lint::rules_conc::DISCIPLINES {
        assert!(
            design.contains(name),
            "DESIGN.md does not mention the `{name}` ordering discipline"
        );
    }
}
