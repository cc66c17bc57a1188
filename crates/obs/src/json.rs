//! Minimal JSON tree, writer, and parser.
//!
//! The build environment is offline with no serde; every report binary
//! previously hand-rolled its own `writeln!`-JSON. This module is the
//! one shared implementation. It is deliberately small: objects keep
//! insertion order (the callers emit sorted keys themselves), numbers
//! are `f64`, and non-finite numbers serialize as `null` (documented —
//! JSON has no NaN/Inf).

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2⁵³ round-trip exactly; non-finite
    /// values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is preserved as inserted.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, for builder-style construction with
    /// [`JsonValue::with`].
    pub fn obj() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object and return `self`.
    /// No-op on non-objects.
    #[must_use]
    pub fn with(mut self, key: &str, value: JsonValue) -> Self {
        self.set(key, value);
        self
    }

    /// Insert (or replace) `key` in an object. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: JsonValue) {
        if let JsonValue::Obj(entries) = self {
            if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                e.1 = value;
            } else {
                entries.push((key.to_string(), value));
            }
        }
    }

    /// Look up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (two-space indent, `\n` line
    /// endings, trailing newline). Deterministic for a given tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => write_number(out, *x),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}
impl From<u64> for JsonValue {
    fn from(x: u64) -> Self {
        JsonValue::Num(x as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Num(x as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl FromIterator<JsonValue> for JsonValue {
    fn from_iter<T: IntoIterator<Item = JsonValue>>(iter: T) -> Self {
        JsonValue::Arr(iter.into_iter().collect())
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; `null` is the documented rendering.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) && !(x == 0.0 && x.is_sign_negative()) {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's `{}` for f64 is the shortest decimal that round-trips.
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}
impl std::error::Error for JsonError {}

/// Parse a JSON document. Accepts exactly one value plus surrounding
/// whitespace.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data after document"));
    }
    Ok(value)
}

fn err(at: usize, msg: &str) -> JsonError {
    JsonError { at, msg: msg.to_string() }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(b, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => parse_array(b, pos),
        Some(b'{') => parse_object(b, pos),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '{'
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(entries));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key in object"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos)?;
        entries.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(b, *pos + 1).ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                let lo = parse_hex4(b, *pos + 3)
                                    .ok_or_else(|| err(*pos, "bad low surrogate"))?;
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err(err(*pos, "lone high surrogate"));
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| err(*pos, "invalid code point"))?,
                        );
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| err(*pos, "invalid utf-8 in string"))?;
                let c = rest.chars().next().ok_or_else(|| err(*pos, "unterminated string"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    if b.len() < at + 4 {
        return None;
    }
    let s = std::str::from_utf8(&b[at..at + 4]).ok()?;
    u32::from_str_radix(s, 16).ok()
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>().map(JsonValue::Num).map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = JsonValue::obj()
            .with("name", "brain shift \"demo\"\n".into())
            .with("count", 42u64.into())
            .with("ratio", 0.1.into())
            .with("tiny", 1.0e-12.into())
            .with("ok", true.into())
            .with("nothing", JsonValue::Null)
            .with(
                "items",
                vec![JsonValue::Num(1.0), JsonValue::Num(-2.5), JsonValue::Str("x".into())]
                    .into_iter()
                    .collect(),
            )
            .with("empty_arr", JsonValue::Arr(vec![]))
            .with("empty_obj", JsonValue::obj());
        let text = doc.render();
        let back = parse_json(&text).expect("round trip");
        assert_eq!(back, doc);
    }

    #[test]
    fn floats_round_trip_exactly() {
        // `{}` prints the shortest decimal that parses back to the same
        // bits; verify on awkward values.
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, 5e-324, f64::MAX, -0.0] {
            let text = JsonValue::Num(x).render();
            let back = parse_json(&text).expect("parse");
            assert_eq!(back.as_f64().expect("num").to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_renders_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null\n");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse_json("\"a\\u00e9\\ud83d\\ude00b\"").expect("parse");
        assert_eq!(v.as_str(), Some("aé😀b"));
    }

    #[test]
    fn get_and_accessors() {
        let v = parse_json("{\"a\": 3, \"b\": [true, null]}").expect("parse");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(3));
        let arr = v.get("b").and_then(JsonValue::as_array).expect("arr");
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert!(v.get("c").is_none());
    }
}
