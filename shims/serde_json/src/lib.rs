//! Offline stand-in for the `serde_json` crate.
//!
//! The workspace emits JSON (the campaign dumps result tables, the
//! telemetry layer writes JSONL audit records, replicas and domains
//! exchange checkpoints and border summaries) and reads it back: this
//! shim provides a [`Value`] tree, the [`json!`] object/array macro,
//! [`to_string`]/[`to_string_pretty`], and a small recursive-descent
//! [`from_str`] parser plus the usual `Value` accessors (`get`,
//! `as_u64`, ...). There are no `Serialize`/`Deserialize` derives;
//! conversion into `Value` goes through the [`ToJson`] trait, which takes
//! `&self` so the macro never moves fields out of borrowed structs
//! (matching real `json!`, which serializes by reference), and conversion
//! out of it through its mirror [`FromJson`], the only place an integer is
//! narrowed. A record that travels both ways is declared once, in a
//! [`wire!`] table, which emits the struct and both impls from one field
//! list (DESIGN.md "Wire records").

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

/// Conversion out of a [`Value`]: the mirror of [`ToJson`] and the shim's
/// substitute for `serde::Deserialize`. The input is bytes this program
/// did not author, so every impl refuses what its type cannot hold — an
/// error says what was expected and what was found — and none panics.
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, String>;
}

fn expected(what: &str, found: &Value) -> String {
    format!("expected {what}, found {}", render(found, false))
}

/// Checked narrowing, the only way an integer leaves a [`Value`]: one the
/// target type cannot hold is refused by name, never truncated into a
/// plausible one.
fn uint<T: TryFrom<u64>>(v: &Value) -> Result<T, String> {
    let wide = v.as_u64().ok_or_else(|| expected("an unsigned integer", v))?;
    T::try_from(wide).map_err(|_| format!("{wide} out of range for {}", std::any::type_name::<T>()))
}

macro_rules! from_json_scalar {
    ($($t:ty => $get:expr),* $(,)?) => {
        $(impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, String> {
                let get: fn(&Value) -> Result<$t, String> = $get;
                get(v)
            }
        })*
    };
}

from_json_scalar!(
    u8 => uint, u16 => uint, u32 => uint, u64 => uint, usize => uint,
    bool => |v| v.as_bool().ok_or_else(|| expected("a bool", v)),
    f64 => |v| v.as_f64().ok_or_else(|| expected("a number", v)),
    String => |v| v.as_str().map(str::to_owned).ok_or_else(|| expected("a string", v)),
);

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        let items = v.as_array().ok_or_else(|| expected("array", v))?;
        let item = |(i, x)| T::from_json(x).map_err(|e| format!("[{i}]: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Result<Self, String> {
        Vec::from_json(v)?.try_into().map_err(|_| expected(&format!("{N} elements"), v))
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(expected("2 elements", v)),
        }
    }
}

/// Decode the value under `key` of object `v`. A declared key must be
/// present (an `Option` travels as `null`, never as absence); keys nothing
/// asks for are ignored. The error names the key.
pub fn field<T: FromJson>(v: &Value, key: &str) -> Result<T, String> {
    field_with(v, key, T::from_json)
}

/// [`field`] for a value whose wire form is not its type's own: `decode`
/// is the `from_json` half of a [`wire!`] `as` codec.
pub fn field_with<T>(
    v: &Value,
    key: &str,
    decode: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, String> {
    let found = v.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
    decode(found).map_err(|e| format!("field '{key}': {e}"))
}

/// Parse `text` and decode it: what every record's `decode` starts with.
pub fn decode<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&from_str(text).map_err(|e| format!("invalid JSON: {e}"))?)
}

/// Refuse a document whose `"schema"` is absent or is not `tag`.
pub fn check_schema<T: std::fmt::Debug>(v: &Value, tag: T) -> Result<(), String>
where
    Value: PartialEq<T>,
{
    match v.get("schema") {
        Some(found) if *found == tag => Ok(()),
        found => Err(format!(
            "schema mismatch: unsupported schema {} (expected {tag:?})",
            found.map_or("<absent>".into(), |f| render(f, false)),
        )),
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

/// Declare a record that crosses a wire once: the struct, its [`ToJson`]
/// and its [`FromJson`] from one field list, in wire order.
///
/// ```text
/// wire! {
///     #[derive(Debug, PartialEq)]
///     pub struct Sample {
///         "schema" = "sample.v1";  // optional: written first, any other tag refused
///         pub id: u8,              // key "id"; narrowed checked on the way in
///         pub label: Option<String> => "name",  // renamed key; `null`, never absent
///         pub share: f64 as percent,  // wire form is not `f64`'s own: a module or type
///     }                               // `percent` in scope supplies `to_json(&f64) -> Value`
/// }                                   // and `from_json(&Value) -> Result<f64, String>`
/// ```
#[macro_export]
macro_rules! wire {
    (
        $(#[$sm:meta])* $sv:vis struct $name:ident {
            $("schema" = $tag:expr;)?
            $($(#[$fm:meta])* $fv:vis $f:ident : $t:ty $(as $codec:ident)? $(=> $key:literal)?),*
            $(,)?
        }
    ) => {
        $(#[$sm])* $sv struct $name { $($(#[$fm])* $fv $f: $t),* }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $(("schema".to_string(), $crate::to_value(&$tag)),)?
                    $((
                        $crate::wire!(@key $f $($key)?).to_string(),
                        ($crate::wire!(@codec to_json $($codec)?))(&self.$f),
                    )),*
                ])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> Result<Self, String> {
                $($crate::check_schema(v, $tag)?;)?
                Ok($name {
                    $($f: $crate::field_with(
                        v,
                        $crate::wire!(@key $f $($key)?),
                        $crate::wire!(@codec from_json $($codec)?),
                    )?),*
                })
            }
        }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    (@codec to_json) => { $crate::ToJson::to_json };
    (@codec from_json) => { $crate::FromJson::from_json };
    (@codec $half:ident $codec:ident) => { $codec::$half };
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
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at(p.pos, "trailing characters after JSON value"));
    }
    Ok(v)
}

/// Deepest array/object nesting [`from_str`] accepts (real `serde_json`'s
/// limit). The parser recurses once per level and its input is bytes off
/// the wire: unbounded, one packet of `[[[[…` overflows the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
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
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(self.pos, format!("unexpected character '{}'", b as char))),
            None => Err(Error::at(self.pos, "unexpected end of input")),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::at(self.pos, format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
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
                    // Consume one full UTF-8 scalar, looking only at its own
                    // (at most four) bytes: validating the whole rest of the
                    // input here made a string of n characters cost n².
                    let rest = &self.bytes[self.pos..];
                    let ch = (1..=rest.len().min(4))
                        .find_map(|n| std::str::from_utf8(&rest[..n]).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| Error::at(self.pos, "invalid UTF-8"))?;
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
        // An integer too wide for 64 bits reads as a float, and so does
        // `-0` (both as in real serde_json): the serializer writes large
        // and negative-zero floats without a `.`, and must read them back.
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            match text.parse::<i64>() {
                Ok(i) if i != 0 => return Ok(Value::Int(i)),
                _ => {}
            }
        }
        // `1e999` parses to infinity, which the serializer writes as `null`.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(Error::at(start, format!("invalid number '{text}'"))),
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

fn render(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0, pretty);
    out
}

pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&value.to_json(), true))
}

pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&value.to_json(), false))
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
        // Linear in the string's length (a megabyte took minutes when each
        // character re-validated everything after it).
        let long = "é😀a".repeat(150_000);
        assert_eq!(from_str(&format!("\"{long}\"")).unwrap().as_str(), Some(long.as_str()));
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

    /// Both abort the process at the parent commit (`fatal runtime error:
    /// stack overflow`): the recursion had no bound.
    #[test]
    fn parse_refuses_nesting_past_the_depth_bound() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        for open in ["[", "{\"k\":"] {
            let err = from_str(&open.repeat(1_000_000)).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
    }

    /// `1e999` read as `Float(inf)` at the parent, re-encoded as `null`,
    /// and the decoder that accepted it then refused its own output.
    #[test]
    fn parse_keeps_every_number_it_accepts_re_encodable() {
        for bad in ["1e999", "-1e999", &"9".repeat(400), "1-2", "--1", "-"] {
            assert!(from_str(bad).is_err(), "expected parse failure for {bad:?}");
        }
        // What the serializer writes for a float with no fractional part
        // reads back as that float, not as a u64 overflow or an integer 0.
        for f in [1e21, -1e21, 18446744073709551616.0, -0.0, f64::MAX] {
            let text = to_string(&f).unwrap();
            let back = from_str(&text).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(f.to_bits()), "{text}");
            assert_eq!(to_string(&back).unwrap(), text);
            assert_eq!(back.as_u64(), None, "{text} must not pass for an integer");
        }
    }

    #[test]
    fn from_json_narrows_checked_and_names_the_path() {
        let v = from_str(r#"{"a":255,"b":256,"c":[[1,2],[3]],"d":null,"e":-1,"f":0.5}"#).unwrap();
        assert_eq!(field::<u8>(&v, "a"), Ok(255));
        assert_eq!(field::<u8>(&v, "b").unwrap_err(), "field 'b': 256 out of range for u8");
        let unsigned = |key| field::<u32>(&v, key).unwrap_err();
        assert_eq!(unsigned("e"), "field 'e': expected an unsigned integer, found -1");
        assert_eq!(unsigned("f"), "field 'f': expected an unsigned integer, found 0.5");
        assert_eq!(field::<f64>(&v, "a"), Ok(255.0));
        assert_eq!(
            field::<Vec<(u32, u64)>>(&v, "c").unwrap_err(),
            "field 'c': [1]: expected 2 elements, found [3]"
        );
        assert_eq!(
            field::<[u8; 2]>(&v, "c").unwrap_err(),
            "field 'c': [0]: expected an unsigned integer, found [1,2]"
        );
        assert_eq!(
            field::<Vec<[u8; 2]>>(&v, "c").unwrap_err(),
            "field 'c': [1]: expected 2 elements, found [3]"
        );
        assert_eq!(field::<Option<u8>>(&v, "d"), Ok(None));
        assert_eq!(field::<Option<u8>>(&v, "a"), Ok(Some(255)));
        assert_eq!(field::<Option<u8>>(&v, "absent").unwrap_err(), "missing field 'absent'");
        assert_eq!(
            field::<String>(&v, "d").unwrap_err(),
            "field 'd': expected a string, found null"
        );
        assert!(check_schema(&v, 1u64).unwrap_err().contains("unsupported schema <absent>"));
    }

    mod percent {
        use super::Value;
        pub fn to_json(p: &f64) -> Value {
            Value::UInt((p * 100.0) as u64)
        }
        pub fn from_json(v: &Value) -> Result<f64, String> {
            v.as_u64().map(|p| p as f64 / 100.0).ok_or("expected a percentage".to_string())
        }
    }

    wire! {
        #[derive(Debug, PartialEq)]
        struct Sample {
            "schema" = "sample.v1";
            id: u8,
            label: Option<String> => "name",
            share: f64 as percent,
        }
    }

    #[test]
    fn wire_table_emits_the_struct_its_encoder_and_its_decoder() {
        let s = Sample { id: 7, label: None, share: 0.25 };
        let text = to_string(&s).unwrap();
        assert_eq!(text, r#"{"schema":"sample.v1","id":7,"name":null,"share":25}"#);
        assert_eq!(Sample::from_json(&from_str(&text).unwrap()), Ok(s));
        let decode = |text: &str| Sample::from_json(&from_str(text).unwrap()).unwrap_err();
        assert_eq!(decode(&text.replace('7', "256")), "field 'id': 256 out of range for u8");
        assert_eq!(decode(&text.replace("\"name\":null,", "")), "missing field 'name'");
        assert_eq!(decode(&text.replace("25}", "\"x\"}")), "field 'share': expected a percentage");
        assert_eq!(
            decode(&text.replace("v1", "v2")),
            r#"schema mismatch: unsupported schema "sample.v2" (expected "sample.v1")"#
        );
        // Keys nothing declares are ignored.
        assert!(Sample::from_json(&from_str(&text.replace('{', "{\"extra\":[],")).unwrap()).is_ok());
    }
}
