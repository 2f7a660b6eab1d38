//! Minimal JSON reading and writing — just enough for the
//! `--format json` / `--format sarif` emitters (reading exists so the
//! emitter tests can check their output parses back).
//!
//! The workspace builds offline with zero external dependencies, so
//! this module hand-rolls the subset of JSON the tool needs: the six
//! value kinds, string escapes (including `\u` with surrogate pairs on
//! input), and a pretty printer. Two deliberate restrictions keep it
//! honest:
//!
//! * Numbers are carried as `f64`; the emitters only write counts and
//!   line numbers.
//! * Object keys keep insertion order; duplicate keys are not
//!   rejected (last write wins on lookup).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as a double.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A small non-negative integer (lines, versions). `None` when the
    /// number is negative, fractional, or too large for exact `f64`
    /// representation.
    #[must_use]
    pub fn as_u32(&self) -> Option<u32> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || n < 0.0 || n > f64::from(u32::MAX) {
            return None;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(n as u32)
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (two-space indent,
    /// trailing newline), so emitted reports diff readably.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Builds a `Value::Str` from any displayable — shorthand for emitters.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// Builds a `Value::Num` from a `usize` (counts, never hashes).
#[must_use]
pub fn n(count: usize) -> Value {
    #[allow(clippy::cast_precision_loss)]
    Value::Num(count as f64)
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing stopped.
    pub pos: usize,
    /// What the parser expected.
    pub msg: &'static str,
}

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError { pos, msg: "trailing data after document" });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, msg: &'static str) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { pos: *pos, msg })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(bytes, pos),
        _ => Err(ParseError { pos: *pos, msg: "expected a JSON value" }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError { pos: *pos, msg: "malformed literal" })
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|slice| slice.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or(ParseError { pos: start, msg: "malformed number" })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError { pos: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                out.push_str(str_slice(bytes, chunk_start, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(str_slice(bytes, chunk_start, *pos)?);
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&unit)
                            && bytes.get(*pos) == Some(&b'\\')
                            && bytes.get(*pos + 1) == Some(&b'u')
                        {
                            // Surrogate pair: combine with the low half.
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            let combined =
                                0x10000 + ((unit - 0xD800) << 10) + (low.wrapping_sub(0xDC00));
                            char::from_u32(combined)
                        } else {
                            char::from_u32(unit)
                        };
                        out.push(c.unwrap_or('\u{FFFD}'));
                        chunk_start = *pos;
                        continue;
                    }
                    _ => return Err(ParseError { pos: *pos, msg: "bad escape" }),
                };
                out.push(escaped);
                *pos += 1;
                chunk_start = *pos;
            }
            Some(_) => *pos += 1,
        }
    }
}

fn str_slice(bytes: &[u8], start: usize, end: usize) -> Result<&str, ParseError> {
    std::str::from_utf8(&bytes[start..end])
        .map_err(|_| ParseError { pos: start, msg: "invalid UTF-8 in string" })
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .and_then(|b| std::str::from_utf8(b).ok())
        .ok_or(ParseError { pos: *pos, msg: "truncated \\u escape" })?;
    let unit = u32::from_str_radix(slice, 16)
        .map_err(|_| ParseError { pos: *pos, msg: "bad \\u escape" })?;
    *pos += 4;
    Ok(unit)
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'[', "expected array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(ParseError { pos: *pos, msg: "expected ',' or ']'" }),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'{', "expected object")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(ParseError { pos: *pos, msg: "expected ',' or '}'" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let doc = Value::Obj(vec![
            ("name".into(), s("hindex")),
            ("count".into(), n(3)),
            ("flags".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("nested".into(), Value::Obj(vec![("x".into(), Value::Num(1.5))])),
        ]);
        let text = doc.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("count").unwrap().as_u32(), Some(3));
    }

    #[test]
    fn escapes_survive() {
        let doc = Value::Str("line\nquote\"back\\slash\ttab \u{1}".into());
        let back = parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""A\u00e9""#).unwrap(), s("A\u{e9}"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), s("\u{1F600}"));
        // Lone high surrogate degrades to the replacement character.
        assert_eq!(parse(r#""\ud83dX""#).unwrap(), s("\u{FFFD}X"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }
}
