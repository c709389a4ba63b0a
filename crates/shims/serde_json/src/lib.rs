//! Offline shim for `serde_json`.
//!
//! Renders and parses JSON over the [`serde`] shim's [`Json`] value tree.
//! Output format matches real serde_json closely enough for this
//! workspace's tests: compact form has no whitespace (`{"k":1}`); pretty
//! form uses two-space indentation; floats use Rust's shortest round-trip
//! `Display`, so `value → text → value` is lossless.

pub use serde::Json as Value;
use serde::{Deserialize, Json, Serialize};

/// Error type for serialization/deserialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_json(&value.to_json(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes a value to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_json(&value.to_json(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type (including [`Value`]).
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_json(&value).map_err(Error)
}

// --- rendering -------------------------------------------------------------

fn write_json(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) -> Result<(), Error> {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => out.push_str(&n.to_string()),
        Json::I64(n) => out.push_str(&n.to_string()),
        Json::F64(n) => {
            if !n.is_finite() {
                return Err(Error(format!("non-finite float {n} is not valid JSON")));
            }
            // Match serde_json: whole floats render with a trailing `.0`.
            if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{n:.1}"));
            } else {
                out.push_str(&n.to_string());
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_json(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(val, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parsing ---------------------------------------------------------------

/// Arrays and objects nest at most this deep (upstream serde_json's
/// limit): deeper input is an error, never a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(text: &str) -> Result<Json, Error> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, Error>) -> Result<Json, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos)));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    // Four hex digits are ASCII, so the escape also ends on
                    // a char boundary; anything else is an error.
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| Error("invalid \\u escape".into()))?;
                    // Surrogate pairs are not needed by this workspace's
                    // writers (which emit raw UTF-8).
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error("invalid \\u code point".into()))?,
                    );
                    self.pos += 4;
                }
                other => return Err(Error(format!("invalid escape {other:?}"))),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        let integer = if is_float {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Json::I64)
        } else {
            text.parse::<u64>().ok().map(Json::U64)
        };
        // An integer literal wider than 64 bits reads as a float, as in
        // upstream `serde_json`.
        match integer {
            Some(n) => Ok(n),
            None => text
                .parse::<f64>()
                .map(Json::F64)
                .map_err(|e| Error(format!("bad number {text}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_matches_serde_json_shape() {
        let v = Json::Object(vec![
            ("title".into(), Json::Str("S".into())),
            ("n".into(), Json::U64(3)),
            ("xs".into(), Json::Array(vec![Json::F64(1.5), Json::F64(2.0)])),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"title":"S","n":3,"xs":[1.5,2.0]}"#);
    }

    #[test]
    fn pretty_is_indented_and_parses_back() {
        let v = Json::Object(vec![("a".into(), Json::Array(vec![Json::U64(1), Json::U64(2)]))]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  \"a\": [\n"));
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -1e-300, 12345.6789, 1.0] {
            let text = to_string(&Json::F64(x)).unwrap();
            match from_str::<Value>(&text).unwrap() {
                Json::F64(back) => assert_eq!(back, x, "{text}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\n\"quote\"\\slash\ttab\u{1}unicode→";
        let text = to_string(&Json::Str(s.into())).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn integers_keep_full_precision() {
        let big = u64::MAX;
        let text = to_string(&Json::U64(big)).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), Json::U64(big));
        let neg = i64::MIN;
        let text = to_string(&Json::I64(neg)).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), Json::I64(neg));
    }

    #[test]
    #[expect(clippy::excessive_precision, reason = "the literal repeats the JSON text digit for digit")]
    fn integers_wider_than_64_bits_read_as_floats() {
        for (text, want) in [
            ("18446744073709551616", 18446744073709551616.0),
            ("-9223372036854775809", -9223372036854775809.0),
            ("1234567890123456789012345678901234567890", 1.234567890123456789e39),
        ] {
            assert_eq!(from_str::<Value>(text).unwrap(), Json::F64(want), "{text}");
        }
        assert!(from_str::<Value>("-").is_err());
        assert!(from_str::<Value>("--1").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(to_string(&Json::F64(f64::NAN)).is_err());
    }
}
