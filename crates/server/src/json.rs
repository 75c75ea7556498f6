//! A minimal JSON value type with a recursive-descent parser and a
//! renderer — just enough for the job protocol, with no external
//! dependencies (the build environment is offline).
//!
//! Numbers are `f64`, which is exact for every integer the protocol
//! carries (tick counts, budgets, ids all stay far below 2^53).
//!
//! The parser recurses once per nesting level, so nesting is bounded by
//! [`MAX_DEPTH`]: a request body of a few kilobytes of `[` must be an
//! error, not a stack overflow on the connection thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parsim_trace::json_string;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, itself out of range.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends a number as [`Json::render`] writes it: exact integers without
/// a fraction, anything else in Rust's shortest round-trip form.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Builds an object from key/value pairs — the renderer-side convenience.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The deepest array/object nesting [`parse`] accepts. The job protocol
/// nests three deep.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    /// A parse error naming the current byte offset.
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("unexpected input")),
        }
    }

    /// Parses one array or object, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a character boundary, and
            // it starts on one: only whole characters and escapes are
            // consumed between runs.
            let Some(len) = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            s.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(s);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let code = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| std::str::from_utf8(hex).ok())
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by this protocol;
                    // map them to the replacement character.
                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so the UTF-8 check cannot fail.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let text = r#"{"tenant":"acme","until":300,"budget":{"max_rounds":5},"nets":["a","b"],"warm":true,"note":null}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(v.get("until").unwrap().as_u64(), Some(300));
        assert_eq!(v.get("budget").unwrap().get("max_rounds").unwrap().as_u64(), Some(5));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_and_unicode_survive() {
        let v = Json::Str("line\n\"quote\"\ttab λ €".into());
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        let parsed = parse(r#""Aλ""#).unwrap();
        assert_eq!(parsed.as_str(), Some("Aλ"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\" 1}", "nul", "12..3", "\"open", "{} extra"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |depth: usize, open: &str, close: &str, inner: &str| {
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest(MAX_DEPTH, "[", "]", "1")).is_ok());
        assert!(parse(&nest(MAX_DEPTH, "{\"a\":", "}", "1")).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1, "[", "]", "1")).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        // Far past the bound, where unbounded recursion overflows a 2 MiB
        // thread stack.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {}", 5 * MAX_DEPTH)), "{err}");
    }

    #[test]
    fn as_u64_refuses_two_to_the_sixty_fourth() {
        // 2^64 itself, and the same value spelled as its 20 digits.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1.8446744073709552e19").unwrap().as_u64(), None);
        // The largest double below 2^64 is in range.
        assert_eq!(parse("18446744073709549568").unwrap().as_u64(), Some(18446744073709549568));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    /// The per-byte string decoder `Parser::string` replaced, kept as its
    /// oracle: the decoded string or error, and the offset it stopped at.
    fn string_by_byte(bytes: &[u8]) -> (Result<String, String>, usize) {
        let error = |what: &str, pos: usize| format!("{what} at byte {pos}");
        let utf8_len = |first: u8| match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        };
        if bytes.first() != Some(&b'"') {
            return (Err(error("expected `\"`", 0)), 0);
        }
        let mut pos = 1;
        let mut s = String::new();
        loop {
            let Some(&b) = bytes.get(pos) else {
                return (Err(error("unterminated string", pos)), pos);
            };
            pos += 1;
            match b {
                b'"' => return (Ok(s), pos),
                b'\\' => {
                    let Some(&esc) = bytes.get(pos) else {
                        return (Err(error("unterminated escape", pos)), pos);
                    };
                    pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let Some(code) = bytes
                                .get(pos..pos + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            else {
                                return (Err(error("bad \\u escape", pos)), pos);
                            };
                            pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return (Err(format!("bad escape at byte {}", pos - 1)), pos),
                    }
                }
                _ => {
                    let start = pos - 1;
                    let end = start + utf8_len(b);
                    let Some(chunk) =
                        bytes.get(start..end).and_then(|chunk| std::str::from_utf8(chunk).ok())
                    else {
                        return (Err(format!("bad UTF-8 at byte {start}")), pos);
                    };
                    s.push_str(chunk);
                    pos = end;
                }
            }
        }
    }

    /// Pieces of string-literal bodies: plain text in every UTF-8 width,
    /// every escape (good, truncated and bad), raw control bytes and quotes.
    fn literal_pieces() -> Vec<&'static str> {
        vec![
            "a", "Z", " ", ",", "é", "λ", "€", "😀", "\t", "\u{1}", "\u{1f}", "\"", "\\", "\\\"",
            "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f", "\\u00e9", "\\u20AC", "\\uD83D",
            "\\u+12f", "\\u12", "\\uλ1", "\\x", "\\λ", "\\",
        ]
    }

    /// Arbitrary text: every control character, both characters JSON
    /// escapes, and one- to four-byte UTF-8.
    fn text_pieces() -> Vec<String> {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        pieces.extend(["\"", "\\", "/", "u", "a", "é", "€", "😀", "\u{fffd}"].map(String::from));
        pieces
    }

    proptest::proptest! {
        #[test]
        fn strings_decode_as_the_per_byte_decoder_did(
            parts in proptest::prop::collection::vec(
                proptest::prop::sample::select(literal_pieces()),
                0..24,
            ),
        ) {
            let text = format!("\"{}", parts.concat());
            let mut p = Parser { text: &text, bytes: text.as_bytes(), pos: 0, depth: 0 };
            let ours = p.string();
            proptest::prop_assert_eq!((ours, p.pos), string_by_byte(text.as_bytes()));
        }

        #[test]
        fn rendered_strings_parse_back_unchanged(
            parts in proptest::prop::collection::vec(
                proptest::prop::sample::select(text_pieces()),
                0..48,
            ),
        ) {
            let s = Json::Str(parts.concat());
            proptest::prop_assert_eq!(parse(&s.render()), Ok(s));
        }
    }

    #[test]
    fn numbers_render_as_integers_when_exact() {
        assert_eq!(Json::Num(300.0).render(), "300");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(parse("-17").unwrap().as_f64(), Some(-17.0));
        assert_eq!(parse("-17").unwrap().as_u64(), None);
    }
}
