//! A small Rust lexer: just enough tokenization to walk real source
//! without being fooled by strings, raw strings, char/byte literals,
//! lifetimes, or (nested) block comments.
//!
//! The lexer is intentionally not a parser: it produces a flat token
//! stream with byte offsets and 1-based line/column positions. Rules match
//! on short token sequences (`v [ 0 ]`, `. lock ( )`), which is
//! robust against formatting while never matching occurrences inside
//! literals or comments — the classic grep failure mode this crate exists
//! to eliminate.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `fn`, `unwrap`).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e9`).
    Float,
    /// `"..."` or `b"..."` string literal (escapes resolved lexically,
    /// not semantically).
    Str,
    /// `r"..."`/`r#"..."#`/`br#"..."#` raw string literal.
    RawStr,
    /// `'x'` or `b'x'` char/byte literal.
    Char,
    /// Lifetime (`'a`) or loop label (`'outer`).
    Lifetime,
    /// `// ...` line comment (doc comments included).
    LineComment,
    /// `/* ... */` block comment, nesting handled.
    BlockComment,
    /// Any single punctuation byte (`.`, `(`, `::` arrives as two `:`).
    Punct,
}

/// One token: kind, the source slice, and its position.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: u32,
}

impl<'a> Tok<'a> {
    /// Whether this token participates in code matching (not a comment).
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Tokenizes `src`. Invalid constructs (unterminated strings/comments)
/// never panic: the offending token simply extends to end of input, which
/// is the right behaviour for a linter that must survive arbitrary files.
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    Lexer { src: src.as_bytes(), text: src, pos: 0, line: 1, col: 1 }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok<'a>> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let (line, col, start) = (self.line, self.col, self.pos);
            let b = self.src[self.pos];
            let kind = match b {
                b if (b as char).is_whitespace() => {
                    self.bump();
                    continue;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' | b'c' => match self.raw_or_byte_prefix() {
                    Some(kind) => kind,
                    None => self.ident(),
                },
                b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => self.ident(),
                b if b.is_ascii_digit() => self.number(),
                _ => {
                    self.bump();
                    TokKind::Punct
                }
            };
            out.push(Tok { kind, text: &self.text[start..self.pos], line, col });
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) {
        let b = self.src[self.pos];
        // Column counts bytes; UTF-8 continuation bytes (0b10xxxxxx) do not
        // advance the column so multi-byte chars count once.
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos < self.src.len() {
                self.bump();
            }
        }
    }

    fn line_comment(&mut self) -> TokKind {
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.bump();
        }
        TokKind::LineComment
    }

    fn block_comment(&mut self) -> TokKind {
        self.bump_n(2); // consume "/*"
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump_n(2);
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
        TokKind::BlockComment
    }

    /// Consumes a `"..."` string starting at the opening quote.
    fn string(&mut self) -> TokKind {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        TokKind::Str
    }

    /// At a `'`: decide char literal vs lifetime/label.
    fn char_or_lifetime(&mut self) -> TokKind {
        // 'a' / '\n' / '\u{1F600}' are char literals; 'a (no closing
        // quote right after one ident-ish char run) is a lifetime.
        // Escape after the quote always means a char literal.
        if self.peek(1) == Some(b'\\') {
            self.bump(); // '
            while self.pos < self.src.len() {
                match self.src[self.pos] {
                    b'\\' => self.bump_n(2),
                    b'\'' => {
                        self.bump();
                        break;
                    }
                    _ => self.bump(),
                }
            }
            return TokKind::Char;
        }
        // '<one char>' — any single (possibly multibyte) char followed by
        // a closing quote is a char literal: 'x', '<', '✓'. A quote NOT
        // following one char starts a lifetime or label.
        if let Some(b1) = self.peek(1) {
            if b1 != b'\'' {
                let char_len = match b1 {
                    b if b < 0x80 => 1,
                    b if b < 0xE0 => 2,
                    b if b < 0xF0 => 3,
                    _ => 4,
                };
                if self.peek(1 + char_len) == Some(b'\'') {
                    self.bump_n(char_len + 2);
                    return TokKind::Char;
                }
            }
        }
        // Lifetime/label: quote + ident run with no closing quote.
        let mut i = self.pos + 1;
        while i < self.src.len()
            && (self.src[i].is_ascii_alphanumeric() || self.src[i] == b'_' || self.src[i] >= 0x80)
        {
            i += 1;
        }
        if i == self.pos + 1 {
            // Lone quote (e.g. inside macro garbage) — treat as punct.
            self.bump();
            TokKind::Punct
        } else {
            let n = i - self.pos;
            self.bump_n(n);
            TokKind::Lifetime
        }
    }

    /// At `r`, `b`, or `c`: raw string (`r"`, `r#`), byte string (`b"`),
    /// byte char (`b'`), raw byte string (`br`), C string (`c"`), raw C
    /// string (`cr"`). A raw identifier (`r#type`) is consumed as a single
    /// [`TokKind::Ident`] token. Returns `None` when it is just an ordinary
    /// identifier starting with r/b/c.
    fn raw_or_byte_prefix(&mut self) -> Option<TokKind> {
        let b0 = self.src[self.pos];
        let (prefix_len, raw) = match (b0, self.peek(1), self.peek(2)) {
            (b'r', Some(b'"'), _) | (b'r', Some(b'#'), _) => (1, true),
            (b'b' | b'c', Some(b'r'), Some(b'"')) | (b'b' | b'c', Some(b'r'), Some(b'#')) => {
                (2, true)
            }
            (b'b' | b'c', Some(b'"'), _) => (1, false),
            (b'b', Some(b'\''), _) => {
                // Byte char literal: b'x' or b'\n'
                self.bump(); // b
                self.char_or_lifetime();
                return Some(TokKind::Char);
            }
            _ => return None,
        };
        if raw {
            // Count hashes after the prefix.
            let mut hashes = 0usize;
            while self.peek(prefix_len + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(prefix_len + hashes) != Some(b'"') {
                // `r#foo`: a raw identifier, lexed as ONE Ident token whose
                // text keeps the `r#` prefix (`r#type` never equals the
                // keyword `type` in rule patterns, and never splits into
                // `r` `#` `type` where the trailing part could collide
                // with a pattern atom). `br#`/`cr#` without a quote have
                // no raw-ident form; fall through to a plain ident.
                if b0 == b'r' && hashes == 1 {
                    let next = self.peek(2);
                    if next.is_some_and(|b| {
                        b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
                    }) {
                        self.bump_n(2); // r#
                        self.ident();
                        return Some(TokKind::Ident);
                    }
                }
                return None; // not a raw string after all
            }
            self.bump_n(prefix_len + hashes + 1);
            // Scan to closing quote followed by `hashes` hashes.
            'outer: while self.pos < self.src.len() {
                if self.src[self.pos] == b'"' {
                    for h in 0..hashes {
                        if self.peek(1 + h) != Some(b'#') {
                            self.bump();
                            continue 'outer;
                        }
                    }
                    self.bump_n(1 + hashes);
                    break;
                }
                self.bump();
            }
            Some(TokKind::RawStr)
        } else {
            self.bump(); // b
            self.string();
            Some(TokKind::Str)
        }
    }

    fn ident(&mut self) -> TokKind {
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || self.src[self.pos] == b'_'
                || self.src[self.pos] >= 0x80)
        {
            self.bump();
        }
        TokKind::Ident
    }

    fn number(&mut self) -> TokKind {
        let mut kind = TokKind::Int;
        // Hex/octal/binary prefixes: consume the run and any suffix.
        if self.src[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.bump_n(2);
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.bump();
            }
            return TokKind::Int;
        }
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_digit() || self.src[self.pos] == b'_')
        {
            self.bump();
        }
        // Fractional part: a dot followed by a digit (not `..` or method
        // call `1.max(2)`).
        if self.pos < self.src.len()
            && self.src[self.pos] == b'.'
            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
        {
            kind = TokKind::Float;
            self.bump();
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_digit() || self.src[self.pos] == b'_')
            {
                self.bump();
            }
        }
        // Exponent.
        if self.pos < self.src.len()
            && matches!(self.src[self.pos], b'e' | b'E')
            && (self.peek(1).is_some_and(|b| b.is_ascii_digit())
                || (matches!(self.peek(1), Some(b'+' | b'-'))
                    && self.peek(2).is_some_and(|b| b.is_ascii_digit())))
        {
            kind = TokKind::Float;
            self.bump();
            if matches!(self.src[self.pos], b'+' | b'-') {
                self.bump();
            }
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.bump();
            }
        }
        // Type suffix (u64, f32, usize...).
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.bump();
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn basic_tokens() {
        let toks = kinds("fn main() { let x = 1.5; }");
        assert!(toks.contains(&(TokKind::Ident, "fn")));
        assert!(toks.contains(&(TokKind::Float, "1.5")));
        assert!(toks.contains(&(TokKind::Punct, "{")));
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "Instant::now() .unwrap()";"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r##"let s = r#"quote " inside"#; x"##);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::RawStr));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "x"));
    }

    #[test]
    fn byte_char_is_not_lifetime() {
        let toks = kinds("self.expect(b'<')?");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && *t == "b'<'"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 3);
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Char));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert_eq!(toks[1], (TokKind::Ident, "code"));
    }

    #[test]
    fn escaped_quote_in_char() {
        let toks = kinds(r"let q = '\''; let n = '\n'; ok");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "ok"));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn line_comment_keeps_text() {
        let toks = lex("x // vmp-lint: allow(D2)\ny");
        assert_eq!(toks[1].kind, TokKind::LineComment);
        assert!(toks[1].text.contains("allow(D2)"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'", "b'", "c\"abc", "r#"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn raw_identifiers_are_single_idents() {
        let toks = kinds("let r#type = r#fn + r#match;");
        assert!(toks.contains(&(TokKind::Ident, "r#type")));
        assert!(toks.contains(&(TokKind::Ident, "r#fn")));
        assert!(toks.contains(&(TokKind::Ident, "r#match")));
        // The raw prefix must not split: no bare `type`/`fn` atoms that a
        // rule pattern could accidentally match.
        assert!(!toks.contains(&(TokKind::Ident, "type")));
        assert!(!toks.contains(&(TokKind::Ident, "fn")));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Punct && *t == "#"));
    }

    #[test]
    fn raw_ident_with_string_content_hides_nothing() {
        // `r#unwrap` is an identifier, not a call to unwrap; and a raw
        // string right after a raw ident still lexes as a string.
        let toks = kinds(r##"let r#unwrap = r"text"; x"##);
        assert!(toks.contains(&(TokKind::Ident, "r#unwrap")));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::RawStr));
        assert!(toks.contains(&(TokKind::Ident, "x")));
    }

    #[test]
    fn byte_and_c_string_literals() {
        let toks = kinds(r#"let a = b"bytes"; let b = c"cstr"; y"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && *t == "b\"bytes\""));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && *t == "c\"cstr\""));
        assert!(toks.contains(&(TokKind::Ident, "y")));
        // Code inside byte/C strings never leaks as idents.
        let toks = kinds(r#"let s = c"Instant::now() .unwrap()"; ok"#);
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == "unwrap"));
        assert!(toks.contains(&(TokKind::Ident, "ok")));
    }

    #[test]
    fn raw_byte_and_raw_c_strings() {
        let toks = kinds(r###"let a = br#"raw " bytes"#; let b = cr#"raw " c"#; z"###);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::RawStr).count(), 2);
        assert!(toks.contains(&(TokKind::Ident, "z")));
    }

    #[test]
    fn static_lifetime_in_generic_position() {
        let toks = kinds("fn f<T: Into<&'static str>>() -> &'static [u8] { g::<'static>() }");
        assert_eq!(
            toks.iter().filter(|(k, t)| *k == TokKind::Lifetime && *t == "'static").count(),
            3
        );
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Char));
    }

    #[test]
    fn plain_b_c_r_idents_are_untouched() {
        let toks = kinds("let b = c + r; b.f(c)");
        for name in ["b", "c", "r"] {
            assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && *t == name));
        }
    }
}
