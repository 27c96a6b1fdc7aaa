//! Hand-rolled JSON: a writer for report serialization and a minimal
//! parser for in-tree validation. The workspace is offline, so no serde;
//! the subset implemented is exactly what run reports and bench files
//! need (objects, arrays, strings, finite numbers, booleans, null).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends a finite f64 (non-finite values are serialized as 0, JSON has
/// no NaN/Infinity).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Trim to a stable, compact form: integers print bare.
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{}", v as i64);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push('0');
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Required-member access for the schema validators: each returns the
/// member in its expected shape or the one `missing <shape> "<key>"`
/// message every validator shares.
impl Value {
    /// A number at `key`.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric {key:?}"))
    }

    /// A number at `key` that is at least `min`.
    pub fn num_min(&self, key: &str, min: f64) -> Result<f64, String> {
        match self.num(key) {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("missing numeric {key:?} >= {min}")),
        }
    }

    /// A string at `key`.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing string {key:?}"))
    }

    /// A non-empty string at `key`.
    pub fn nonempty(&self, key: &str) -> Result<&str, String> {
        match self.text(key) {
            Ok(s) if !s.is_empty() => Ok(s),
            _ => Err(format!("missing non-empty string {key:?}")),
        }
    }

    /// An array at `key`.
    pub fn arr(&self, key: &str) -> Result<&[Value], String> {
        self.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing array {key:?}"))
    }

    /// An object at `key`.
    pub fn obj(&self, key: &str) -> Result<&BTreeMap<String, Value>, String> {
        match self.get(key) {
            Some(Value::Obj(m)) => Ok(m),
            _ => Err(format!("missing object {key:?}")),
        }
    }
}

/// Prefixes a validation error with where in the document it happened.
pub fn within<T>(place: impl std::fmt::Display, r: Result<T, String>) -> Result<T, String> {
    r.map_err(|e| format!("{place}: {e}"))
}

/// Parses a complete JSON document. Errors carry a byte offset and a
/// short description.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are replaced, not reconstructed:
                            // reports never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_strings() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\ttab\u{1}é");
        let v = parse(&out).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\ttab\u{1}é"));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#;
        let v = parse(doc).expect("parses");
        let a = v.get("a").and_then(Value::as_arr).expect("a");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn write_f64_is_finite_and_compact() {
        let mut out = String::new();
        write_f64(&mut out, 3.0);
        assert_eq!(out, "3");
        out.clear();
        write_f64(&mut out, 3.25);
        assert_eq!(out, "3.25");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "0");
    }
}
