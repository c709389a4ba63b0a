//! The JSON reader (the `serde_json` shim) takes bench, history, report and
//! trace files as input, so malformed text must come back as an `Err`:
//! never a panic, and never a stack overflow that aborts the process.

use proptest::prelude::*;
use serde_json::Value;

/// Fragments of JSON, so generated soup reaches the string, escape,
/// number and container paths instead of failing at the first byte.
const FRAGMENTS: [&str; 14] = [
    "[", "]", "{", "}", "\"k\":", "\"", "\\", "\\u00e9", "\\u+0FF", ",", "-1.5e3", "null", "é", " ",
];

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    for opener in ["[", "{\"k\":"] {
        let deep = opener.repeat(1_000_000);
        assert!(serde_json::from_str::<Value>(&deep).is_err(), "{opener} x 1e6");
    }
    // The limit is upstream serde_json's 128 levels.
    let at_limit = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(serde_json::from_str::<Value>(&at_limit).is_ok());
    let past_limit = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(serde_json::from_str::<Value>(&past_limit).is_err());
}

#[test]
fn long_strings_and_escapes_read_back() {
    let text = "a→\"\\".repeat(100_000);
    let json = serde_json::to_string(&Value::Str(text.clone())).expect("renders");
    assert_eq!(serde_json::from_str::<Value>(&json), Ok(Value::Str(text)));
    assert_eq!(serde_json::from_str::<Value>(r#""é→""#), Ok(Value::Str("é→".into())));
    for bad in [r#""\u+0FF""#, r#""\u00""#, r#""\q""#, "\"open"] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..64),
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..=32),
        depth in 0usize..20_000,
        opener in 0usize..2,
    ) {
        let soup: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let lossy = String::from_utf8_lossy(&bytes);
        let nest = ["[", "{\"k\":"][opener].repeat(depth);
        for text in [soup.clone(), lossy.to_string(), format!("{soup}{lossy}"), format!("{nest}{soup}")] {
            let _ = serde_json::from_str::<Value>(&text);
        }
    }
}
