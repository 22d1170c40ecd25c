//! A tiny, dependency-free JSON library for catalog persistence.
//!
//! The catalog (see `manimal::catalog`) is a durable JSON file. The
//! container this workspace builds in has no route to a crates
//! registry, so instead of `serde`/`serde_json` the catalog round-trips
//! through this hand-rolled value model. The printer mimics
//! `serde_json::to_string_pretty` (two-space indent) and the object
//! encoding mimics serde's externally-tagged enum representation, so
//! catalog files stay readable and forward-compatible with a future
//! move to real serde.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, kept exact.
    Int(i64),
    /// A fractional or out-of-`i64` number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved from insertion/parse order.
    Obj(Vec<(String, Json)>),
}

/// A parse or structure error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong; a structure error names the field.
    pub message: String,
    /// Byte offset in the input, when parsing.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A structure error: the document parsed, but a value does not
    /// have the shape its reader expects.
    pub fn shape(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an exact integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The unsigned payload, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Look up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Member `key` of this object.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// Member `key` read through `read`, which yields `None` when the
    /// member is not `what`.
    fn typed_field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, JsonError> {
        read(self.field(key)?)
            .ok_or_else(|| JsonError::shape(format!("field `{key}` is not {what}")))
    }

    /// Member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.typed_field(key, "a string", Json::as_str)
    }

    /// Member `key` as a string, or `None` when it is `null`.
    pub fn opt_str_field(&self, key: &str) -> Result<Option<&str>, JsonError> {
        match self.field(key)? {
            Json::Null => Ok(None),
            _ => self.str_field(key).map(Some),
        }
    }

    /// Member `key` as a boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, JsonError> {
        self.typed_field(key, "a boolean", Json::as_bool)
    }

    /// Member `key` as a non-negative integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.typed_field(key, "a non-negative integer", Json::as_u64)
    }

    /// Member `key` as a non-negative integer that fits a `usize`.
    pub fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        self.typed_field(key, "a non-negative integer", |v| {
            usize::try_from(v.as_u64()?).ok()
        })
    }

    /// Member `key` as a `u64` written as a decimal string — the form
    /// for quantities past `i64`, which a JSON number cannot carry
    /// exactly.
    pub fn decimal_u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.typed_field(key, "a decimal u64 string", |v| v.as_str()?.parse().ok())
    }

    /// Member `key` as an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.typed_field(key, "an array", Json::as_arr)
    }

    /// Member `key` as an array of strings.
    pub fn str_array_field(&self, key: &str) -> Result<Vec<String>, JsonError> {
        self.arr_field(key)?
            .iter()
            .map(|v| {
                v.as_str().map(str::to_string).ok_or_else(|| {
                    JsonError::shape(format!("field `{key}` has a non-string element"))
                })
            })
            .collect()
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out);
        out
    }

    /// Serialize with two-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out
    }

    /// The members as a map (convenience for tests/tools).
    pub fn to_map(&self) -> Option<BTreeMap<&str, &Json>> {
        Some(
            self.as_obj()?
                .iter()
                .map(|(k, v)| (k.as_str(), v))
                .collect(),
        )
    }
}

fn write_value(v: &Json, indent: Option<usize>, level: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => {
            if f.is_finite() {
                // Keep a fractional marker so the value re-parses as a
                // float even when it happens to be integral.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(items.iter(), indent, level, out, '[', ']', |item, out| {
            write_value(item, indent, level + 1, out)
        }),
        Json::Obj(members) => write_seq(
            members.iter(),
            indent,
            level,
            out,
            '{',
            '}',
            |(k, v), out| {
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(v, indent, level + 1, out);
            },
        ),
    }
}

fn write_seq<T>(
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
    open: char,
    close: char,
    mut write_item: impl FnMut(T, &mut String),
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(item, out);
    }
    if !empty {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(close);
}

/// Escaping works on bytes: every byte it escapes is ASCII, and no
/// byte of a multi-byte UTF-8 sequence is, so each unescaped span is
/// copied whole and always ends on a character boundary.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => out.push_str(&format!("\\u{b:04x}")),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts, matching serde_json's
/// default recursion limit; beyond it `parse` returns an error instead
/// of overflowing the stack on hostile input.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: Some(self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty_and_compact() {
        let v = Json::obj([
            ("name", Json::str("catalog")),
            ("count", Json::Int(3)),
            ("ratio", Json::Float(0.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Int(1), Json::str("two"), Json::Arr(vec![])]),
            ),
        ]);
        for text in [v.to_string_pretty(), v.to_string_compact()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s": "a\"b\\c\ndé😀"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndé😀");
        let back = parse(&v.to_string_compact()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        // Integral floats keep a fractional marker when printed.
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let mut text = open.repeat(100_000);
            text.push('1');
            text.push_str(&close.repeat(100_000));
            let err = parse(&text).unwrap_err();
            assert!(err.message.contains("nesting too deep"), "{err}");
        }
        // Under the limit still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integral_int_survives_exactly() {
        let big = i64::MAX - 1;
        let text = Json::Int(big).to_string_compact();
        assert_eq!(parse(&text).unwrap().as_i64().unwrap(), big);
    }

    #[test]
    fn pretty_format_matches_serde_style() {
        let v = Json::obj([("a", Json::Int(1)), ("b", Json::Arr(vec![Json::Int(2)]))]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"
        );
    }

    #[test]
    fn string_escapes_are_byte_exact() {
        let s = Json::str("a\"b\\c\nd\re\tf\u{1}\u{1f} dé😀");
        let text = r#""a\"b\\c\nd\re\tf\u0001\u001f dé😀""#;
        assert_eq!(s.to_string_compact(), text);
        assert_eq!(parse(text).unwrap(), s);
    }

    #[test]
    fn typed_fields_name_the_key() {
        let v = parse(r#"{"s":"x","b":true,"n":7,"neg":-1,"d":"18446744073709551615","a":["p","q"],"mixed":["p",1],"z":null}"#)
            .unwrap();
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert_eq!(v.opt_str_field("s").unwrap(), Some("x"));
        assert_eq!(v.opt_str_field("z").unwrap(), None);
        assert!(v.bool_field("b").unwrap());
        assert_eq!(v.u64_field("n").unwrap(), 7);
        assert_eq!(v.usize_field("n").unwrap(), 7);
        assert_eq!(v.decimal_u64_field("d").unwrap(), u64::MAX);
        assert_eq!(v.arr_field("a").unwrap().len(), 2);
        assert_eq!(v.str_array_field("a").unwrap(), vec!["p", "q"]);
        for (err, key) in [
            (v.str_field("missing").unwrap_err(), "missing"),
            (v.str_field("n").unwrap_err(), "n"),
            (v.opt_str_field("b").unwrap_err(), "b"),
            (v.bool_field("s").unwrap_err(), "s"),
            (v.u64_field("neg").unwrap_err(), "neg"),
            (v.usize_field("s").unwrap_err(), "s"),
            (v.decimal_u64_field("n").unwrap_err(), "n"),
            (v.arr_field("s").unwrap_err(), "s"),
            (v.str_array_field("mixed").unwrap_err(), "mixed"),
        ] {
            assert_eq!(err.offset, None);
            assert!(err.to_string().contains(&format!("`{key}`")), "{err}");
        }
    }
}
