//! The repository's own lint gate, run by `cargo test`: D2, D3, C1 and C2
//! find nothing in the workspace this crate belongs to.

use std::path::Path;

#[test]
fn workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = vmp_lint::analyze(&root).expect("workspace readable");
    let found: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert!(found.is_empty(), "vmp-lint findings in the workspace:\n{}", found.join("\n"));
}
