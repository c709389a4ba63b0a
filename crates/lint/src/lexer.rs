//! The lint lexer: a flat stream of code tokens with 1-based line/column
//! positions, never fooled by strings, raw strings, char/byte literals,
//! lifetimes, or (nested) block comments.
//!
//! Comments are consumed and dropped: no rule reads them. The token kinds
//! are the ones rules read — identifiers, integer literals (D2), quoted
//! strings (D3), punctuation — plus one opaque kind for every other
//! literal and for lifetimes, so nothing can match inside a literal or a
//! comment, the grep failure mode this crate exists to eliminate.

/// What a code token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `fn`, `r#type`).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// `"..."`, `b"..."` or `c"..."` string literal, prefix and quotes
    /// included (escapes resolved lexically, not semantically).
    Str,
    /// Any single punctuation byte (`.`, `(`, `::` arrives as two `:`).
    Punct,
    /// Any other literal, or a lifetime (`1.5`, `'x'`, `b'x'`, `r"…"`,
    /// `'a`). No rule reads its text, but it keeps its place, so
    /// `f.read(1.5)` is never mistaken for the empty call `f.read()`.
    Other,
}

/// One code token: kind, the source slice, and its position.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in chars) of the token's first byte.
    pub col: u32,
}

/// Tokenizes `src` into code tokens. Invalid constructs (unterminated
/// strings or comments) never panic: the offending token simply extends
/// to end of input, which is the right behaviour for a linter that must
/// survive arbitrary files.
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let (mut pos, mut counted, mut line, mut col) = (0, 0, 1u32, 1u32);
    while pos < bytes.len() {
        let (end, kind) = token_at(bytes, pos);
        if let Some(kind) = kind {
            // Columns count chars: UTF-8 continuation bytes (0b10xxxxxx)
            // do not advance them.
            for &b in &bytes[counted..pos] {
                if b == b'\n' {
                    (line, col) = (line + 1, 1);
                } else if b & 0xC0 != 0x80 {
                    col += 1;
                }
            }
            counted = pos;
            out.push(Tok { kind, text: &src[pos..end], line, col });
        }
        pos = end;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// The first index at or after `from` whose byte fails `keep`.
fn skip(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    from + bytes.get(from..).map_or(0, |rest| rest.iter().take_while(|&&b| keep(b)).count())
}

/// The end of the token starting at `i`, and its kind when it is emitted.
fn token_at(bytes: &[u8], i: usize) -> (usize, Option<TokKind>) {
    let at = |k: usize| bytes.get(k).copied();
    match bytes[i] {
        b if char::from(b).is_whitespace() => (i + 1, None),
        b'/' if at(i + 1) == Some(b'/') => (skip(bytes, i, |b| b != b'\n'), None),
        b'/' if at(i + 1) == Some(b'*') => (block_comment_end(bytes, i), None),
        b'"' => (quoted_end(bytes, i + 1, b'"'), Some(TokKind::Str)),
        b'\'' => char_or_lifetime(bytes, i),
        b'b' | b'c' if at(i + 1) == Some(b'"') => {
            (quoted_end(bytes, i + 2, b'"'), Some(TokKind::Str))
        }
        b'b' if at(i + 1) == Some(b'\'') => {
            (char_or_lifetime(bytes, i + 1).0, Some(TokKind::Other))
        }
        b'r' | b'b' | b'c' => match raw_string_end(bytes, i) {
            Some(end) => (end, Some(TokKind::Other)),
            // `r#type` is one identifier: its tail never collides with
            // the keyword in a rule pattern.
            None if bytes[i] == b'r'
                && at(i + 1) == Some(b'#')
                && at(i + 2).is_some_and(is_ident_byte) =>
            {
                (skip(bytes, i + 2, is_ident_byte), Some(TokKind::Ident))
            }
            None => (skip(bytes, i, is_ident_byte), Some(TokKind::Ident)),
        },
        b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
            (skip(bytes, i, is_ident_byte), Some(TokKind::Ident))
        }
        b if b.is_ascii_digit() => number(bytes, i),
        _ => (i + 1, Some(TokKind::Punct)),
    }
}

/// The end of a `/* ... */` comment starting at `i`, nesting handled.
fn block_comment_end(bytes: &[u8], i: usize) -> usize {
    let (mut k, mut depth) = (i + 2, 1usize);
    while k < bytes.len() && depth > 0 {
        match (bytes[k], bytes.get(k + 1)) {
            (b'/', Some(b'*')) => (k, depth) = (k + 2, depth + 1),
            (b'*', Some(b'/')) => (k, depth) = (k + 2, depth - 1),
            _ => k += 1,
        }
    }
    k.min(bytes.len())
}

/// The end of a quoted literal whose body starts at `k`: just past the
/// closing `close`, skipping backslash escapes.
fn quoted_end(bytes: &[u8], mut k: usize, close: u8) -> usize {
    while k < bytes.len() {
        match bytes[k] {
            b'\\' => k += 2,
            b if b == close => return k + 1,
            _ => k += 1,
        }
    }
    bytes.len()
}

/// At a `'`: a char literal (`'x'`, `'\n'`, `'✓'`) or a lifetime/label
/// (`'a`); a lone quote is punctuation.
fn char_or_lifetime(bytes: &[u8], q: usize) -> (usize, Option<TokKind>) {
    let Some(&b1) = bytes.get(q + 1) else { return (q + 1, Some(TokKind::Punct)) };
    if b1 == b'\\' {
        return (quoted_end(bytes, q + 1, b'\''), Some(TokKind::Other));
    }
    // Any single (possibly multi-byte) char followed by a closing quote.
    let char_len = match b1 {
        b if b < 0x80 => 1,
        b if b < 0xE0 => 2,
        b if b < 0xF0 => 3,
        _ => 4,
    };
    if b1 != b'\'' && bytes.get(q + 1 + char_len) == Some(&b'\'') {
        return (q + char_len + 2, Some(TokKind::Other));
    }
    match skip(bytes, q + 1, is_ident_byte) {
        end if end == q + 1 => (q + 1, Some(TokKind::Punct)),
        end => (end, Some(TokKind::Other)),
    }
}

/// The end of a raw string (`r"…"`, `r#"…"#`, `br#"…"#`, `cr"…"`) starting
/// at `i`, or `None` when the bytes there do not open one.
fn raw_string_end(bytes: &[u8], i: usize) -> Option<usize> {
    let prefix = if bytes[i] == b'r' { 1 } else { 2 };
    if prefix == 2 && bytes.get(i + 1) != Some(&b'r') {
        return None;
    }
    let hashes = skip(bytes, i + prefix, |b| b == b'#') - (i + prefix);
    let mut k = i + prefix + hashes;
    if bytes.get(k) != Some(&b'"') {
        return None;
    }
    k += 1;
    while k < bytes.len() {
        if bytes[k] == b'"' && skip(bytes, k + 1, |b| b == b'#') - (k + 1) >= hashes {
            return Some(k + 1 + hashes);
        }
        k += 1;
    }
    Some(bytes.len())
}

/// An integer or a float literal at `i`.
fn number(bytes: &[u8], i: usize) -> (usize, Option<TokKind>) {
    let at = |k: usize| bytes.get(k).copied();
    let suffix = |k: usize| skip(bytes, k, |b| b.is_ascii_alphanumeric() || b == b'_');
    if bytes[i] == b'0' && matches!(at(i + 1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B')) {
        return (suffix(i + 2), Some(TokKind::Int));
    }
    let digits = |k: usize| skip(bytes, k, |b| b.is_ascii_digit() || b == b'_');
    let mut k = digits(i);
    let mut kind = TokKind::Int;
    // A fraction needs a digit after the dot (not `..` or `1.max(2)`).
    if at(k) == Some(b'.') && at(k + 1).is_some_and(|b| b.is_ascii_digit()) {
        (k, kind) = (digits(k + 1), TokKind::Other);
    }
    let sign = usize::from(matches!(at(k + 1), Some(b'+' | b'-')));
    if matches!(at(k), Some(b'e' | b'E')) && at(k + 1 + sign).is_some_and(|b| b.is_ascii_digit()) {
        (k, kind) = (skip(bytes, k + 1 + sign, |b| b.is_ascii_digit()), TokKind::Other);
    }
    (suffix(k), Some(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokKind::{Ident, Other, Str};

    fn texts(src: &str) -> Vec<&str> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    fn of_kind(src: &str, kind: TokKind) -> Vec<&str> {
        lex(src).into_iter().filter(|t| t.kind == kind).map(|t| t.text).collect()
    }

    #[test]
    fn basic_tokens() {
        let toks = lex("fn main() { let x = 1.5 + 2; }");
        let kinds: Vec<(TokKind, &str)> = toks.iter().map(|t| (t.kind, t.text)).collect();
        assert_eq!(kinds[..2], [(Ident, "fn"), (Ident, "main")]);
        assert!(kinds.contains(&(TokKind::Punct, "{")) && kinds.contains(&(TokKind::Int, "2")));
        assert!(kinds.contains(&(Other, "1.5")));
    }

    #[test]
    fn strings_hide_code() {
        assert_eq!(of_kind(r#"let s = "Instant::now() .unwrap()";"#, Ident), ["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        assert_eq!(
            texts(r##"s = r#"quote " inside"#; x"##),
            ["s", "=", r##"r#"quote " inside"#"##, ";", "x"]
        );
    }

    #[test]
    fn byte_char_is_not_lifetime() {
        assert_eq!(of_kind("self.expect(b'<')?", Other), ["b'<'"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        assert_eq!(of_kind("fn f<'a>(x: &'a str) -> &'a str { x }", Other), ["'a", "'a", "'a"]);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(texts("/* outer /* inner */ v[0] */ code"), ["code"]);
    }

    #[test]
    fn escaped_quote_in_char() {
        assert_eq!(of_kind(r"q = '\''; n = '\n'; ok", Other), [r"'\''", r"'\n'"]);
        assert_eq!(texts(r"q = '\''; ok").last(), Some(&"ok"));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b /* ✓ */ c");
        let at: Vec<(u32, u32)> = toks.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(at, [(1, 1), (2, 3), (2, 13)]);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'", "b'", "c\"abc", "r#", "\"\\"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn raw_identifiers_are_single_idents() {
        assert_eq!(
            of_kind("let r#type = r#fn + r#match;", Ident),
            ["let", "r#type", "r#fn", "r#match"]
        );
    }

    #[test]
    fn raw_ident_with_string_content_hides_nothing() {
        assert_eq!(
            texts(r##"let r#unwrap = r"text"; x"##),
            ["let", "r#unwrap", "=", r#"r"text""#, ";", "x"]
        );
    }

    #[test]
    fn byte_and_c_string_literals() {
        let src = r#"let a = b"bytes"; let b = c"Instant::now() .unwrap()"; y"#;
        assert_eq!(of_kind(src, Str), ["b\"bytes\"", "c\"Instant::now() .unwrap()\""]);
        assert_eq!(of_kind(src, Ident), ["let", "a", "let", "b", "y"]);
    }

    #[test]
    fn raw_byte_and_raw_c_strings() {
        let src = r###"a = br#"raw " bytes"#; b = cr#"raw " c"#; z"###;
        assert_eq!(of_kind(src, Other), [r##"br#"raw " bytes"#"##, r##"cr#"raw " c"#"##]);
        assert_eq!(of_kind(src, Ident), ["a", "b", "z"]);
    }

    #[test]
    fn static_lifetime_in_generic_position() {
        let src = "fn f<T: Into<&'static str>>() -> &'static [u8] { g::<'static>() }";
        assert_eq!(of_kind(src, Other), ["'static"; 3]);
    }

    #[test]
    fn plain_b_c_r_idents_are_untouched() {
        assert_eq!(of_kind("b = c + r; b.f(c)", Ident), ["b", "c", "r", "b", "f", "c"]);
    }
}
