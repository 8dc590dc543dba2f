//! The workspace's one JSON implementation, without external dependencies:
//!
//! - a write tree, [`JsonValue`], whose [`JsonValue::render`] backs the
//!   metrics JSON renderer, the stderr JSON-lines subscriber, and the
//!   `BENCH_*.json` perf-trajectory files;
//! - a position-tracking reader, [`parse`], that follows RFC 8259 and
//!   yields [`Value`]s remembering the 1-based `(line, col)` where they
//!   start, so schema violations (the `bench_schema` lint) point at the
//!   offending key, not just the file.
//!
//! The writer emits objects, arrays, strings (control characters escaped),
//! finite numbers, booleans, and `null`. Non-finite numbers render as
//! `null` (JSON has no NaN/Inf). The reader rejects what RFC 8259 rejects —
//! leading zeros, bare `.` or exponent markers without digits, raw control
//! characters in strings — and also duplicate object keys; each error
//! names the line/col of the offending byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node to render.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; non-finite values render as `null`.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved by the renderer.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Renders the tree as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `Display` is the shortest text that parses back to the same
            // bits, with no trailing ".0" on integers and no exponent.
            JsonValue::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Number(_) => out.push_str("null"),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn write_escaped(out: &mut String, s: &str) {
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

/// A parsed JSON value annotated with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// 1-based line of the value's first byte.
    pub line: usize,
    /// 1-based column of the value's first byte.
    pub col: usize,
    /// The value itself.
    pub kind: Kind,
}

/// Parsed JSON value kinds. Validation does not need object member order,
/// so members are stored sorted by key.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; a document with a duplicate key does not parse.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match &self.kind {
            Kind::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match &self.kind {
            Kind::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.kind {
            Kind::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match &self.kind {
            Kind::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Short name of the value kind (for diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            Kind::Null => "null",
            Kind::Bool(_) => "bool",
            Kind::Number(_) => "number",
            Kind::String(_) => "string",
            Kind::Array(_) => "array",
            Kind::Object(_) => "object",
        }
    }
}

/// A parse failure with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

/// Parses a complete JSON document, rejecting trailing input.
///
/// # Errors
/// Returns the line/col of the first byte that breaks RFC 8259, or of the
/// first duplicate object key.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0, line: 1, col: 1 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing input after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl Parser<'_> {
    /// An error at the current (not yet consumed) byte.
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, col: self.col, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.bump();
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            return Ok(());
        }
        let found = self.peek().map_or("end of input".to_string(), |g| format!("`{}`", g as char));
        Err(self.err(format!("expected `{}`, found {found}", b as char)))
    }

    /// Parses `item (, item)* close`, the rest of an array or object after
    /// its opening bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        for expected in word.bytes() {
            if !self.eat(expected) {
                return Err(self.err(format!("invalid literal (expected `{word}`)")));
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        let (line, col) = (self.line, self.col);
        let kind = match self.peek() {
            Some(b'{') => {
                self.bump();
                let mut members = BTreeMap::new();
                self.items(b'}', |p| {
                    let (line, col) = (p.line, p.col);
                    let key = p.string_body()?;
                    if members.contains_key(&key) {
                        let message = format!("duplicate object key `{key}`");
                        return Err(ParseError { line, col, message });
                    }
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    members.insert(key, p.value()?);
                    Ok(())
                })?;
                Kind::Object(members)
            }
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Kind::Array(items)
            }
            Some(b'"') => Kind::String(self.string_body()?),
            Some(b't') => {
                self.literal("true")?;
                Kind::Bool(true)
            }
            Some(b'f') => {
                self.literal("false")?;
                Kind::Bool(false)
            }
            Some(b'n') => {
                self.literal("null")?;
                Kind::Null
            }
            Some(b'-' | b'0'..=b'9') => Kind::Number(self.number()?),
            Some(other) => return Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        Ok(Value { line, col, kind })
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259 §6).
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits("integer part")?;
        }
        if self.eat(b'.') {
            self.digits("fraction")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits("exponent")?;
        }
        // The grammar above is exactly what `f64::from_str` accepts.
        self.text[start..self.pos].parse().map_err(|_| self.err("invalid number"))
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self, part: &str) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(format!("expected a digit in the number's {part}")));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            self.bump();
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn string_body(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.bump();
                    let decoded = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.bump();
                            // Surrogates (never written here) decode to U+FFFD.
                            let code = self.hex4()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    self.bump();
                    out.push(decoded);
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err(format!("raw control character U+{b:04X} in string")));
                }
                Some(_) => {
                    // `pos` sits on a char boundary: only ASCII bytes and
                    // whole characters are ever consumed.
                    let c = self.text[self.pos..].chars().next().unwrap_or_default();
                    self.pos += c.len_utf8();
                    self.col += c.len_utf8();
                    out.push(c);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parsed` has the structure of `built`, with bit-equal numbers.
    fn same(parsed: &Value, built: &JsonValue) -> bool {
        match (&parsed.kind, built) {
            (Kind::Null, JsonValue::Null) => true,
            (Kind::Bool(a), JsonValue::Bool(b)) => a == b,
            (Kind::Number(a), JsonValue::Number(b)) => a.to_bits() == b.to_bits(),
            (Kind::String(a), JsonValue::String(b)) => a == b,
            (Kind::Array(a), JsonValue::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
            }
            (Kind::Object(a), JsonValue::Object(b)) => {
                a.len() == b.len() && b.iter().all(|(k, v)| a.get(k).is_some_and(|x| same(x, v)))
            }
            _ => false,
        }
    }

    #[test]
    fn renders_and_reparses_a_nested_document() {
        let doc = JsonValue::Object(vec![
            ("bench".to_string(), JsonValue::String("serving".to_string())),
            ("qps".to_string(), JsonValue::Number(4_000_000.5)),
            ("ok".to_string(), JsonValue::Bool(true)),
            ("none".to_string(), JsonValue::Null),
            (
                "results".to_string(),
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(-2.5)]),
            ),
        ]);
        let text = doc.render();
        assert!(same(&parse(&text).unwrap(), &doc), "{text}");
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(JsonValue::Number(42.0).render(), "42");
        assert_eq!(JsonValue::Number(42.5).render(), "42.5");
        assert_eq!(JsonValue::Number(-0.0).render(), "-0");
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_round_trip() {
        let original = JsonValue::String("line\nquote\" tab\t back\\ unicode\u{1}".to_string());
        let text = original.render();
        assert!(same(&parse(&text).unwrap(), &original), "{text}");
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u00e9\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap()[1].as_str().unwrap(), "é");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"open", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // RFC 8259 numbers, raw control characters, duplicate keys: each
        // error points at the offending byte.
        for (bad, line, col) in [
            ("01", 1, 2),
            ("1.", 1, 3),
            ("-.5", 1, 2),
            ("1.e5", 1, 3),
            ("-", 1, 2),
            ("1e+", 1, 4),
            ("[\n  \"a\tb\"]", 2, 5),
            ("\"nul\u{0}\"", 1, 5),
            ("{\"qps\":\"fast\",\n \"qps\":5}", 2, 2),
        ] {
            let err = parse(bad).expect_err(bad);
            assert_eq!((err.line, err.col), (line, col), "{bad:?}: {}", err.message);
        }
        for good in ["0", "-0", "0.5", "-1.25e-3", "1E+2", "10"] {
            assert!(parse(good).is_ok(), "{good:?} must parse");
        }
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse("{\"n\": 3}").unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert!(v.get("n").unwrap().as_str().is_none());
        assert!(v.get("missing").is_none());
        assert!(parse("null").unwrap().get("x").is_none());
    }

    #[test]
    fn parses_nested_documents_with_positions() {
        let doc = parse("{\n  \"a\": [1, 2.5, true],\n  \"b\": {\"c\": \"x\"}\n}").unwrap();
        assert_eq!(doc.line, 1);
        let a = doc.get("a").unwrap();
        assert_eq!(a.line, 2);
        assert_eq!(a.as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_trailing_and_malformed_input() {
        assert!(parse("{} {}").is_err());
        assert!(parse("{\"a\":}").is_err());
        let err = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn decodes_escapes() {
        let doc = parse("\"a\\n\\u0041\"").unwrap();
        assert_eq!(doc.as_str(), Some("a\nA"));
    }
}
