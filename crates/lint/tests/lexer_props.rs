//! Property tests for the lint lexer. The lexer must survive arbitrary
//! byte soup (it runs over every file in the workspace, including ones
//! mid-edit), report strictly increasing positions, classify generated
//! token streams exactly, and emit nothing from inside a literal or a
//! comment.

use proptest::prelude::*;
use vmp_lint::lexer::{lex, TokKind};

/// One generated atom: source text plus the single token kind it must
/// lex to when placed on its own line, or `None` for a comment, which
/// emits nothing. Literals and comments carry code that a leaked token
/// would expose (`v[0]`, `counter("x")`).
fn atom(seed: u32) -> (String, Option<TokKind>) {
    let n = seed / 9;
    match seed % 9 {
        0 => (format!("ident_{n}"), Some(TokKind::Ident)),
        1 => (format!("{n}u64"), Some(TokKind::Int)),
        2 => (format!("{n}.25e3"), Some(TokKind::Other)),
        3 => (format!("\"str {n} with \\\" escape v[0]\""), Some(TokKind::Str)),
        4 => (format!("r#\"raw {n} with \" v[0] inside\"#"), Some(TokKind::Other)),
        5 => ("'\\''".to_string(), Some(TokKind::Other)),
        6 => (format!("'label_{n}"), Some(TokKind::Other)),
        7 => (format!("/* block {n} /* nested v[0] */ counter(\"x\") */"), None),
        _ => (format!("// line comment {n} counter(\"x\")"), None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn never_panics_and_positions_strictly_increase(s in "\\PC*") {
        let toks = lex(&s);
        let mut prev = (0u32, 0u32);
        for t in &toks {
            prop_assert!(
                (t.line, t.col) > prev,
                "token positions regressed: {:?} after {:?} in {s:?}",
                (t.line, t.col),
                prev
            );
            prev = (t.line, t.col);
        }
    }

    #[test]
    fn token_texts_cover_source_in_order(s in "\\PC*") {
        // Every token is a non-empty slice of the source that starts at or
        // after the end of the previous token — the stream never reorders,
        // overlaps or invents bytes (it may skip comments and literals).
        let toks = lex(&s);
        let mut cursor = 0usize;
        for t in &toks {
            let start = t.text.as_ptr() as usize - s.as_ptr() as usize;
            prop_assert!(!t.text.is_empty() && start >= cursor, "token {:?} at byte {start} in {s:?}", t.text);
            prop_assert_eq!(&s[start..start + t.text.len()], t.text);
            cursor = start + t.text.len();
        }
    }

    #[test]
    fn generated_atoms_lex_to_exact_kinds(seeds in proptest::collection::vec(0u32..=9_000, 1..=48)) {
        let atoms: Vec<(String, Option<TokKind>)> = seeds.iter().map(|&s| atom(s)).collect();
        let src: String =
            atoms.iter().map(|(text, _)| text.as_str()).collect::<Vec<_>>().join("\n");
        let emitted: Vec<(usize, &String, TokKind)> = atoms
            .iter()
            .enumerate()
            .filter_map(|(i, (text, kind))| kind.map(|k| (i, text, k)))
            .collect();
        let toks = lex(&src);
        prop_assert_eq!(
            toks.len(),
            emitted.len(),
            "atom stream fused, split or leaked: {:?} from {src:?}",
            toks
        );
        for ((i, text, kind), tok) in emitted.into_iter().zip(&toks) {
            prop_assert_eq!(tok.text, text.as_str(), "atom {i} text mismatch");
            prop_assert_eq!(tok.kind, kind, "atom {i} ({:?}) kind mismatch", text);
            prop_assert_eq!(tok.line, i as u32 + 1, "atom {i} line mismatch");
            prop_assert_eq!(tok.col, 1u32, "atom {i} col mismatch");
        }
    }

    #[test]
    fn arbitrary_payload_in_string_literal_is_one_token(payload in "[a-zA-Z0-9 .(){}!:\\\\\"]*") {
        let escaped = payload.replace('\\', "\\\\").replace('"', "\\\"");
        let src = format!("let s = \"{escaped}\";");
        let toks = lex(&src);
        let strs = toks.iter().filter(|t| t.kind == TokKind::Str).count();
        prop_assert_eq!(strs, 1, "payload {payload:?} escaped to {src:?}");
        // Nothing inside the literal may surface as an identifier the
        // rules could match on.
        prop_assert!(
            !toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "unwrap"),
            "identifier leaked out of string literal in {src:?}"
        );
    }
}
