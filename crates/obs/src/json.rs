//! A hand-rolled JSON value type with a serializer and a minimal
//! recursive-descent parser.
//!
//! This exists because the workspace builds without registry access (no
//! `serde`), and the observability layer only needs enough JSON to emit
//! and round-trip [`RunReport`](crate::RunReport)s: objects, arrays,
//! strings, finite numbers, booleans, and `null`.

use std::fmt::{self, Write};

/// A JSON document.
///
/// Objects preserve insertion order (they are association lists, not
/// maps), so serialized reports keep their fields in a stable, readable
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`. Also used to encode non-finite floats, which JSON cannot
    /// represent.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; integers round-trip exactly up to
    /// 2^53, far beyond any counter this crate records.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number. [`Json::Null`] reads as
    /// NaN (the serializer writes non-finite numbers as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= (1u64 << 53) as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A number, mapping non-finite values to [`Json::Null`].
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// The deepest array/object nesting [`parse`](Self::parse) accepts.
    /// Deeper documents are rejected with a [`JsonError`] instead of
    /// recursing until the stack overflows.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a JSON document in time linear in its length.
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`](Self::MAX_DEPTH)
    /// levels. `\u` escapes take exactly four hex digits; a UTF-16
    /// surrogate pair decodes to one scalar, a lone surrogate is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Appends the compact serialization (no insignificant whitespace)
    /// to `out`: the one serializer behind [`Display`](fmt::Display)
    /// and the serve wire's frame writer.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // flow3d-tidy: allow(panic-unwrap) — invariant: writing to a String cannot fail
                    write!(out, "{v}").expect("a String sink never fails");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serializes compactly (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// The high bit of each byte of `w` that equals `b`. The lowest set bit
/// is exact; bits above it may be false positives (the subtraction's
/// borrow), which is all a scan for the *first* match needs.
fn bytes_equal(w: u64, b: u8) -> u64 {
    let x = w ^ (ONES * u64::from(b));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// Like [`bytes_equal`], for the bytes of `w` that JSON must escape in
/// a string: `"`, `\` and the C0 controls below 0x20. A byte of a
/// multi-byte UTF-8 sequence (0x80 and up) never matches.
fn escape_mask(w: u64) -> u64 {
    let controls = w.wrapping_sub(ONES * 0x20) & !w & HIGHS;
    bytes_equal(w, b'"') | bytes_equal(w, b'\\') | controls
}

/// The offset of the first byte of `bytes[from..]` that `mask` flags, or
/// `None`. Scans 8 bytes at a time; the last word is padded with spaces,
/// which no mask flags.
fn find_byte(bytes: &[u8], from: usize, mask: impl Fn(u64) -> u64) -> Option<usize> {
    let found = |i: usize, m: u64| (m != 0).then(|| i + (m.trailing_zeros() / 8) as usize);
    let mut i = from;
    while let Some(word) = bytes
        .get(i..i + 8)
        .and_then(|w| <[u8; 8]>::try_from(w).ok())
    {
        if let Some(at) = found(i, mask(u64::from_le_bytes(word))) {
            return Some(at);
        }
        i += 8;
    }
    let mut tail = [b' '; 8];
    tail[..bytes.len() - i].copy_from_slice(&bytes[i..]);
    found(i, mask(u64::from_le_bytes(tail)))
}

fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Unescaped stretches go out with one `push_str` each. Every byte
    // that needs escaping is ASCII, so `start..i` always lies on char
    // boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(i) = find_byte(bytes, start, escape_mask) {
        out.push_str(&s[start..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Lower-case hex digits, as `{:04x}` prints them.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input at which the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    /// The document; already valid UTF-8, so a run between two ASCII
    /// bytes is sliced out of it without re-checking.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|_| Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `container` one nesting level deeper, refusing to go past
    /// [`Json::MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == Json::MAX_DEPTH {
            return Err(self.err(&format!(
                "document nested deeper than {} levels",
                Json::MAX_DEPTH
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run lies on char boundaries of the
            // valid input.
            let start = self.pos;
            let Some(end) = find_byte(self.bytes, start, |w| {
                bytes_equal(w, b'"') | bytes_equal(w, b'\\')
            }) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[start..end]);
            self.pos = end;
            if self.bytes[self.pos] == b'"' {
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
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.err("invalid escape")),
            }
            self.pos += 1;
        }
    }

    /// Decodes a `\u` escape with `pos` on the `u`, leaving `pos` just
    /// past it. A high surrogate must be followed by a `\u`-escaped low
    /// surrogate; the pair decodes to one astral scalar.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4(self.pos + 1)?;
        self.pos += 5;
        let code = match high {
            0xD800..=0xDBFF => {
                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                    return Err(self.err("lone high surrogate in \\u escape"));
                }
                let low = self.hex4(self.pos + 2)?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                self.pos += 6;
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone low surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    /// The value of exactly four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        digits.iter().try_fold(0u32, |acc, &b| {
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            Ok(acc << 4 | d)
        })
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-3.5", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("case with \"quotes\"\n".into())),
            (
                "phases".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("path".into(), Json::Str("a/b".into())),
                        ("seconds".into(), Json::Num(0.125)),
                    ]),
                    Json::Null,
                ]),
            ),
            ("ok".into(), Json::Bool(true)),
            ("count".into(), Json::Num(12345.0)),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn object_preserves_order_and_get_finds_keys() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        if let Json::Obj(pairs) = &v {
            assert_eq!(pairs[0].0, "z");
            assert_eq!(pairs[1].0, "a");
        } else {
            panic!("not an object");
        }
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = Json::parse(r#""x\ud83d\ude00y""#).unwrap();
        assert_eq!(v.as_str(), Some("x😀y"));
        // Raw astral UTF-8 passes through untouched.
        assert_eq!(Json::parse("\"😀\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn malformed_unicode_escapes_are_errors() {
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u12""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(Json::parse(text).is_err(), "{text} must not parse");
        }
        let e = Json::parse(r#""\ude00""#).unwrap_err();
        assert!(e.message.contains("surrogate"), "{e}");
    }

    #[test]
    fn control_bytes_escape_and_round_trip() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é 😀";
        let text = Json::Str(s.into()).to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh é 😀\"");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    /// The `fmt` escaper the serializer used before the word-at-a-time
    /// scan: the byte reference for `write_escaped`.
    fn reference_escaped(s: &str) -> String {
        let mut f = String::from("\"");
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            f.push_str(&s[start..i]);
            match b {
                b'"' => f.push_str("\\\""),
                b'\\' => f.push_str("\\\\"),
                b'\n' => f.push_str("\\n"),
                b'\r' => f.push_str("\\r"),
                b'\t' => f.push_str("\\t"),
                _ => write!(f, "\\u{b:04x}").unwrap(),
            }
            start = i + 1;
        }
        f.push_str(&s[start..]);
        f.push('"');
        f
    }

    /// Every byte the escaper must escape, DEL, and one- to four-byte
    /// UTF-8, alone or twice, at every offset of the 8-byte scan words,
    /// with tails that end the string inside, at and past a word, all
    /// escape like the reference and parse back.
    #[test]
    fn word_scans_match_the_reference_at_every_offset() {
        let specials: Vec<String> = (0u8..0x20)
            .map(|b| char::from(b).to_string())
            .chain(["\"", "\\", "\u{7f}", "é", "中", "😀"].map(String::from))
            .collect();
        for special in &specials {
            for offset in 0..=16 {
                for tail in [0, 1, 6, 7, 8, 9, 16] {
                    let pad = "a".repeat(offset);
                    let end = "b".repeat(tail);
                    for s in [
                        format!("{pad}{special}{end}"),
                        format!("{special}{pad}{special}{end}"),
                    ] {
                        let text = Json::Str(s.clone()).to_string();
                        assert_eq!(text, reference_escaped(&s), "{s:?}");
                        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s.as_str()));
                    }
                }
            }
        }
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let at_cap = format!(
            "{}{}",
            "[".repeat(Json::MAX_DEPTH),
            "]".repeat(Json::MAX_DEPTH)
        );
        assert!(Json::parse(&at_cap).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(Json::MAX_DEPTH + 1),
            "]".repeat(Json::MAX_DEPTH + 1)
        );
        let e = Json::parse(&over).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        assert_eq!(e.offset, Json::MAX_DEPTH);
        // A megabyte of openers fails the same way instead of
        // overflowing the stack.
        let e = Json::parse(&"[{\"k\":".repeat(1 << 17)).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in ["\"abc", "\"abc\\", "\"abc\\\"", "[\"a\", \"b"] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.offset > 0);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
    }
}
