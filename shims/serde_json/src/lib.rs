//! Offline stand-in for the `serde_json` crate.
//!
//! The workspace emits JSON (the `fig*`/`ablations` binaries dump result
//! tables, the telemetry layer writes JSONL audit records) and — since the
//! telemetry work — reads it back: this shim provides a [`Value`] tree,
//! the [`json!`] object/array macro, [`to_string`]/[`to_string_pretty`],
//! and a small recursive-descent [`from_str`] parser plus the usual
//! `Value` accessors (`get`, `as_u64`, ...). There is no `Serialize`
//! derive; conversion into `Value` goes through the [`ToJson`] trait,
//! which takes `&self` so the macro never moves fields out of borrowed
//! structs (matching real `json!`, which serializes by reference).

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// A JSON document. Object keys keep insertion order (like serde_json with
/// `preserve_order`), which keeps the binaries' output stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Conversion into a [`Value`] by reference; the shim's substitute for
/// `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Shim substitute for `serde_json::to_value` (always succeeds).
pub fn to_value<T: ToJson + ?Sized>(v: &T) -> Value {
    v.to_json()
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! to_json_int {
    ($($t:ty => $variant:ident as $as:ty),* $(,)?) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::$variant(*self as $as)
            }
        })*
    };
}

to_json_int!(
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    isize => Int as i64,
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64,
    usize => UInt as u64,
);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Build a [`Value`] from an object/array literal or any [`ToJson`]
/// expression, e.g. `json!({"knob": r.knob, "rows": rows})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::to_value(&$elem)),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::to_value(&$val))),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Error type shared by the (infallible) serializers and the parser, so
/// `.unwrap()` call sites keep compiling against the real serde_json
/// signature while parse failures still carry a human-readable message.
#[derive(Debug)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl Error {
    fn at(offset: usize, msg: impl Into<String>) -> Self {
        Error { msg: msg.into(), offset }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parse a JSON document. Numbers containing `.`, `e`, or `E` become
/// [`Value::Float`]; other numbers become [`Value::Int`] when negative and
/// [`Value::UInt`] otherwise — the same split the serializer writes, so a
/// parse → serialize round trip is textually stable.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at(p.pos, "trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::at(self.pos, format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(self.pos, format!("unexpected character '{}'", b as char))),
            None => Err(Error::at(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::at(self.pos, "unterminated escape sequence"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: must be followed by \uDCxx.
                                if self.peek() != Some(b'\\') {
                                    return Err(Error::at(self.pos, "lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::at(self.pos, "invalid low surrogate"));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| Error::at(self.pos, "invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(Error::at(self.pos, "lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| Error::at(self.pos, "invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(Error::at(
                                self.pos,
                                format!("invalid escape '\\{}'", other as char),
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is &str, so
                    // slicing at char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error::at(self.pos, "invalid UTF-8"))?;
                    let ch = s.chars().next().unwrap();
                    if (ch as u32) < 0x20 {
                        return Err(Error::at(self.pos, "unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::at(self.pos, "truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'+' | b'-' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::at(start, format!("invalid number '{text}'")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::at(start, format!("invalid number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::at(start, format!("invalid number '{text}'")))
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

fn write_value(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    let (nl, pad, pad_in) = if pretty {
        ("\n", "  ".repeat(indent), "  ".repeat(indent + 1))
    } else {
        ("", String::new(), String::new())
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            // JSON has no NaN/Inf; serde_json emits null for them too.
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(out, item, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let v = value.to_json();
    let mut out = String::new();
    write_value(&mut out, &v, 0, true);
    Ok(out)
}

pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let v = value.to_json();
    let mut out = String::new();
    write_value(&mut out, &v, 0, false);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_macro_keeps_order_and_borrows() {
        struct Row {
            knob: String,
            dev: f64,
        }
        let r = Row { knob: "interval=2".into(), dev: 0.25 };
        let rr = &r;
        // Field access through a reference must not move.
        let v = json!({"knob": rr.knob, "dev": rr.dev, "n": 3usize});
        assert_eq!(to_string(&v).unwrap(), r#"{"knob":"interval=2","dev":0.25,"n":3}"#);
        assert_eq!(r.knob, "interval=2");
    }

    #[test]
    fn nested_values_and_tuples() {
        let series: Vec<Vec<(u64, u8)>> = vec![vec![(0, 1), (2, 3)]];
        let v = json!({"levels": series, "flag": true, "none": Option::<f64>::None});
        assert_eq!(to_string(&v).unwrap(), r#"{"levels":[[[0,1],[2,3]]],"flag":true,"none":null}"#);
    }

    #[test]
    fn pretty_output_shape() {
        let v = json!({"a": 1u32, "b": [1u32, 2u32]});
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let v = json!({"x": f64::NAN});
        assert_eq!(to_string(&v).unwrap(), r#"{"x":null}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let v = json!({"s": "a\"b\\c\nd"});
        assert_eq!(to_string(&v).unwrap(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let v = json!({
            "knob": "interval=2",
            "dev": 0.25,
            "n": 3usize,
            "neg": -7i64,
            "rows": vec![(0u64, 1u8), (2u64, 3u8)],
            "none": Option::<f64>::None,
            "flag": true,
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(to_string(&back).unwrap(), text);
    }

    #[test]
    fn parse_accessors() {
        let v = from_str(r#"{"a": 1, "b": [1.5, "x"], "c": null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.0));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b[0].as_f64(), Some(1.5));
        assert_eq!(b[1].as_str(), Some("x"));
        assert!(v.get("c").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_string_escapes_and_unicode() {
        let v = from_str(r#""a\"b\\c\nd é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd \u{e9} \u{1F600}"));
    }

    #[test]
    fn parse_pretty_whitespace_and_nesting() {
        let b = json!([1u32, json!({"c": false})]);
        let orig = json!({"a": 1u32, "b": b});
        let pretty = to_string_pretty(&orig).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), orig);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(from_str(bad).is_err(), "expected parse failure for {bad:?}");
        }
        let err = from_str("[1,]").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(from_str("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        assert_eq!(from_str("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str("-2.5E-1").unwrap(), Value::Float(-0.25));
    }
}
