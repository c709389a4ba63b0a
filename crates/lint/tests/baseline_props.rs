//! Property tests for the ratchet baseline reader. A baseline file is
//! input the gate is handed, so `Baseline::parse` must reject garbage
//! with an error, never a panic, and must read back exactly what
//! `Baseline::render` writes.

use proptest::prelude::*;
use vmp_lint::Baseline;

/// Fragments of the baseline format, so generated soup reaches the
/// `"files"` body scanner instead of failing at the first lookup.
const FRAGMENTS: [&str; 9] = ["\"files\"", "{", "}", ":", ",", " ", "\"a.rs\"", "7", "é"];

#[test]
fn close_brace_before_open_brace_is_an_error() {
    assert!(Baseline::parse("\"files\": }{").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_input_never_panics(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..=24),
        tail in "\\PC*",
    ) {
        let soup: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = Baseline::parse(&soup);
        let _ = Baseline::parse(&format!("{soup}{tail}"));
        let _ = Baseline::parse(&tail);
    }

    #[test]
    fn parse_inverts_render(
        entries in prop::collection::vec(("[a-z/_.]{1,16}", 0usize..1000), 0..8),
    ) {
        let base = Baseline { files: entries.into_iter().collect() };
        prop_assert_eq!(Baseline::parse(&base.render("D2")), Ok(base));
    }
}
