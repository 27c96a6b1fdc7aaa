//! Hand-rolled JSON: a streaming [`Writer`] that owns every artifact's
//! layout, and a minimal parser for in-tree validation. The workspace is
//! offline, so no serde; the subset implemented is exactly what the
//! artifacts need (objects, arrays, strings, finite numbers, booleans,
//! null).

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

/// A value the [`Writer`] prints as one JSON scalar: strings escaped,
/// `f64` through [`write_f64`], integers and booleans bare, `None` as
/// `null`.
pub trait Scalar {
    /// Appends the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

macro_rules! bare_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
bare_scalar!(bool, u16, u32, u64, usize);

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A streaming JSON writer. It places every separator and bracket; a
/// renderer only names keys and values. Members (`field`, `object`,
/// `array`, `vals`, `strs`, `raw`) go inside an open object, elements
/// (`val`, `obj`, `arr`) inside an open array or as the document itself.
/// Bodies of nested containers are closures, so brackets always balance.
///
/// The artifacts use two layouts, one fixed constructor each, and every
/// document type always uses the same one: [`Writer::spaced`] for run
/// reports, bench files, `/tracez`, service bodies and the obs-diff
/// verdict; [`Writer::compact`] for lint JSON, SARIF, the lint baseline,
/// diff JSON and coverage JSON.
pub struct Writer {
    out: String,
    comma: &'static str,
    colon: &'static str,
    /// Nothing precedes the next item: the document, a container or a
    /// member's value has just begun.
    fresh: bool,
}

impl Writer {
    /// `", "` between items and `": "` after keys.
    pub fn spaced() -> Writer {
        Writer { out: String::with_capacity(1024), comma: ", ", colon: ": ", fresh: true }
    }

    /// No whitespace at all.
    pub fn compact() -> Writer {
        Writer { out: String::with_capacity(1024), comma: ",", colon: ":", fresh: true }
    }

    fn item(&mut self) -> &mut String {
        if !self.fresh {
            self.out.push_str(self.comma);
        }
        self.fresh = false;
        &mut self.out
    }

    fn key(&mut self, key: &str) -> &mut Self {
        write_str(self.item(), key);
        self.out.push_str(self.colon);
        self.fresh = true;
        self
    }

    fn open(&mut self, brackets: [char; 2], body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.item().push(brackets[0]);
        self.fresh = true;
        body(self);
        self.out.push(brackets[1]);
        self.fresh = false;
        self
    }

    /// Element: one scalar.
    pub fn val(&mut self, v: impl Scalar) -> &mut Self {
        v.write_json(self.item());
        self
    }

    /// Element: an object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.open(['{', '}'], body)
    }

    /// Element: an array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.open(['[', ']'], body)
    }

    /// Member: `key` and one scalar.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).val(v)
    }

    /// Member: `key` and an object whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.key(key).obj(body)
    }

    /// Member: `key` and an array whose elements `body` writes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.key(key).arr(body)
    }

    /// Member: `key` and an array of scalars.
    pub fn vals<T: Scalar>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.array(key, |w| {
            for v in items {
                w.val(v);
            }
        })
    }

    /// Member: `key` and an object of string-keyed scalars, in the
    /// order given.
    pub fn strs<K: AsRef<str>, V: Scalar>(
        &mut self,
        key: &str,
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        self.object(key, |w| {
            for (k, v) in pairs {
                w.field(k.as_ref(), v);
            }
        })
    }

    /// Member: `key` and an already rendered JSON document, embedded
    /// byte for byte (whatever its own layout).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).item().push_str(json);
        self
    }

    /// The document written so far; the writer is left empty.
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// [`Writer::finish`] with a trailing newline.
    pub fn finish_line(&mut self) -> String {
        self.out.push('\n');
        self.finish()
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

    /// One document exercising every member and element form, with
    /// empty containers and nesting.
    fn nested(mut w: Writer) -> String {
        w.obj(|w| {
            w.field("a", 1u64)
                .object("empty", |_| {})
                .array("none", |_| {})
                .array("nest", |w| {
                    w.obj(|w| {
                        w.field("b", true).object("c", |w| {
                            w.field("d", -2.0);
                        });
                    })
                    .arr(|w| {
                        w.val(1.5).val("x").arr(|_| {});
                    })
                    .obj(|_| {});
                })
                .strs("m", [("k", "v"), ("l", "w")])
                .vals("v", [1u32, 2]);
        })
        .finish()
    }

    #[test]
    fn writer_places_separators_in_both_layouts() {
        assert_eq!(
            nested(Writer::spaced()),
            r#"{"a": 1, "empty": {}, "none": [], "nest": [{"b": true, "c": {"d": -2}}, [1.5, "x", []], {}], "m": {"k": "v", "l": "w"}, "v": [1, 2]}"#
        );
        assert_eq!(
            nested(Writer::compact()),
            r#"{"a":1,"empty":{},"none":[],"nest":[{"b":true,"c":{"d":-2}},[1.5,"x",[]],{}],"m":{"k":"v","l":"w"},"v":[1,2]}"#
        );
        assert_eq!(Writer::compact().arr(|_| {}).finish_line(), "[]\n");
    }

    #[test]
    fn writer_escapes_keys_and_values() {
        let text = "q\"b\\s\n\r\t\u{1}\u{1f}é→😀/";
        let want = r#""q\"b\\s\n\r\t\u0001\u001fé→😀/""#;
        for (mut w, colon) in [(Writer::spaced(), ": "), (Writer::compact(), ":")] {
            let doc = w.obj(|w| {
                w.field(text, text);
            })
            .finish();
            assert_eq!(doc, format!("{{{want}{colon}{want}}}"));
            let parsed = parse(&doc).expect("parses");
            assert_eq!(parsed.get(text).and_then(Value::as_str), Some(text));
        }
    }

    #[test]
    fn writer_prints_none_as_null_and_non_finite_as_zero() {
        let doc = Writer::spaced()
            .obj(|w| {
                w.field("none", None::<&str>)
                    .field("some", Some(3u16))
                    .field("nan", f64::NAN)
                    .field("inf", f64::NEG_INFINITY)
                    .field("ms", 0.25);
            })
            .finish();
        assert_eq!(doc, r#"{"none": null, "some": 3, "nan": 0, "inf": 0, "ms": 0.25}"#);
    }

    #[test]
    fn writer_embeds_raw_documents_verbatim() {
        let inner = Writer::compact()
            .obj(|w| {
                w.vals("x", [1u64]);
            })
            .finish_line();
        let doc = Writer::spaced()
            .obj(|w| {
                w.field("a", 1u64).raw("doc", &inner).field("b", false);
            })
            .finish_line();
        assert_eq!(doc, "{\"a\": 1, \"doc\": {\"x\":[1]}\n, \"b\": false}\n");
        assert!(parse(&doc).is_ok());
    }

    /// A deterministic 64-bit LCG (Knuth's MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const POOL: [char; 14] =
                ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '→', '😀'];
            (0..self.below(6))
                .map(|_| match self.below(4) {
                    0 => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('?'),
                    _ => POOL[self.below(POOL.len() as u64) as usize],
                })
                .collect()
        }

        fn number(&mut self) -> f64 {
            match self.below(3) {
                0 => self.below(2_000_001) as f64 - 1e6,
                1 => (self.below(1 << 20) as f64 - 1e5) / 64.0,
                _ => Some(f64::from_bits(self.next() << 11))
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.5),
            }
        }

        fn value(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => Value::Num(self.number()),
                3 => Value::Str(self.string()),
                4 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Value::Obj(
                    (0..self.below(4)).map(|_| (self.string(), self.value(depth - 1))).collect(),
                ),
            }
        }
    }

    fn element(w: &mut Writer, v: &Value) {
        match v {
            Value::Null => w.val(None::<bool>),
            Value::Bool(b) => w.val(*b),
            Value::Num(n) => w.val(*n),
            Value::Str(s) => w.val(s),
            Value::Arr(a) => w.arr(|w| a.iter().for_each(|v| element(w, v))),
            Value::Obj(m) => w.obj(|w| m.iter().for_each(|(k, v)| member(w, k, v))),
        };
    }

    fn member(w: &mut Writer, key: &str, v: &Value) {
        match v {
            Value::Null => w.field(key, None::<bool>),
            Value::Bool(b) => w.field(key, *b),
            Value::Num(n) => w.field(key, *n),
            Value::Str(s) => w.field(key, s),
            Value::Arr(a) => w.array(key, |w| a.iter().for_each(|v| element(w, v))),
            Value::Obj(m) => w.object(key, |w| m.iter().for_each(|(k, v)| member(w, k, v))),
        };
    }

    #[test]
    fn random_documents_round_trip_through_the_parser() {
        let mut rng = Lcg(0x5eed);
        for case in 0..500 {
            let v = rng.value(4);
            for mut w in [Writer::spaced(), Writer::compact()] {
                element(&mut w, &v);
                let text = w.finish();
                let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}: {text}"));
                assert_eq!(back, v, "case {case}: {text}");
            }
        }
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
