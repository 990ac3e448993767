//! Minimal JSON support for the obs crate: string escaping for the
//! renderer, and a small validating parser used by tests and the CLI
//! smoke checks to confirm that [`crate::MetricSet::render_json`] output
//! is well-formed without pulling in an external dependency.
//!
//! The parser accepts the full JSON grammar (objects, arrays, strings
//! with escapes, numbers, booleans, null) but keeps the value model
//! deliberately small — numbers are stored as `f64` plus an exact `u64`
//! when representable, which covers every value the renderer emits.

use std::collections::BTreeMap;
use std::fmt;

/// Escape `s` as a JSON string literal, including the surrounding quotes.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; `u64` form kept when the literal is an exact non-negative
    /// integer (the only kind the obs renderer produces).
    Number {
        /// Approximate value, always present.
        f: f64,
        /// Exact value when the literal fits a `u64`.
        u: Option<u64>,
    },
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order not preserved; obs output is sorted anyway).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element lookup; `None` for other variants / out of range.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(v) => v.get(i),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The exact integer payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number { u, .. } => *u,
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number { f, .. } => Some(*f),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    let len = utf8_len(self.bytes[start]);
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    /// Read 4 hex digits starting at `pos`, advancing past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for i in 0..4 {
            let b = self
                .bytes
                .get(self.pos + i)
                .copied()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = (v << 4) | d;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let f: f64 = text
            .parse()
            .map_err(|_| self.err("number out of representable range"))?;
        let u = if int_end == self.pos {
            std::str::from_utf8(&self.bytes[start..int_end])
                .unwrap()
                .parse::<u64>()
                .ok()
        } else {
            None
        };
        Ok(Value::Number { f, u })
    }
}

/// Parse a `treepi.obs/v1` document (the output of
/// [`crate::MetricSet::render_json`]) back into a [`crate::MetricSet`].
///
/// Validates the schema tag, every name against the metric catalog (a
/// name it does not declare as that kind is an error naming it) and every
/// field shape; derived span fields
/// (`mean_ns`, `p50_ns`, `p95_ns`) are ignored on input — they are
/// recomputed from the histogram, so `render → parse → render` is a
/// fixpoint. `treepi prom` and the serving tests read saved snapshots
/// through it.
pub fn parse_metric_set(input: &str) -> Result<crate::MetricSet, ParseError> {
    fn sem(msg: String) -> ParseError {
        ParseError { at: 0, msg }
    }
    fn u64_field(obj: &Value, key: &str, ctx: &str) -> Result<u64, ParseError> {
        obj.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| sem(format!("{ctx}: missing or non-integer \"{key}\"")))
    }
    fn unknown(kind: &str, name: &str) -> ParseError {
        sem(format!("{kind} \"{name}\" is not in the metric catalog"))
    }

    let v = parse(input)?;
    let schema = v.get("schema").and_then(Value::as_str);
    if schema != Some(crate::JSON_SCHEMA) {
        return Err(sem(format!(
            "unsupported metrics schema {schema:?} (expected {:?})",
            crate::JSON_SCHEMA
        )));
    }
    let mut set = crate::MetricSet::new();
    let counters = v
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| sem("missing \"counters\" object".to_string()))?;
    for (name, val) in counters {
        let c = crate::Counter::from_name(name).ok_or_else(|| unknown("counter", name))?;
        let n = val
            .as_u64()
            .ok_or_else(|| sem(format!("counter \"{name}\": non-integer value")))?;
        set.add(c, n);
    }
    // "gauges" is additive to the v1 schema: absent in documents written
    // before gauges existed, so treat a missing key as empty.
    if let Some(gauges) = v.get("gauges") {
        let gauges = gauges
            .as_object()
            .ok_or_else(|| sem("\"gauges\" is not an object".to_string()))?;
        for (name, val) in gauges {
            let g = crate::Gauge::from_name(name).ok_or_else(|| unknown("gauge", name))?;
            let n = val
                .as_u64()
                .ok_or_else(|| sem(format!("gauge \"{name}\": non-integer value")))?;
            set.set_gauge(g, n);
        }
    }
    let spans = v
        .get("spans")
        .and_then(Value::as_object)
        .ok_or_else(|| sem("missing \"spans\" object".to_string()))?;
    for (name, span) in spans {
        let s = crate::Span::from_name(name).ok_or_else(|| unknown("span", name))?;
        let ctx = format!("span \"{name}\"");
        let mut stat = crate::SpanStat {
            count: u64_field(span, "count", &ctx)?,
            total_ns: u64_field(span, "total_ns", &ctx)?,
            min_ns: u64_field(span, "min_ns", &ctx)?,
            max_ns: u64_field(span, "max_ns", &ctx)?,
            buckets: [0; crate::BUCKETS],
        };
        if stat.count == 0 {
            // The renderer reports min as 0 for empty spans; restore the
            // internal "nothing seen yet" sentinel.
            stat.min_ns = u64::MAX;
        }
        let buckets = span
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| sem(format!("{ctx}: missing \"buckets\" array")))?;
        for pair in buckets {
            let (upper, count) = match pair.as_array() {
                Some([u, c]) => (u.as_u64(), c.as_u64()),
                _ => (None, None),
            };
            let (Some(upper), Some(count)) = (upper, count) else {
                let msg = format!("{ctx}: bucket entries must be [upper_ns, count] integer pairs");
                return Err(sem(msg));
            };
            // Invert the log-linear encoding: a canonical upper bound maps
            // back to its bucket via `bucket_of` and round-trips through
            // `bucket_upper`. Pure-log₂ uppers from pre-HDR documents
            // (powers of two ≥ 32) fail this check, giving old baselines a
            // clear versioned rejection instead of silent misbucketing.
            let idx = crate::bucket_of(upper);
            if crate::bucket_upper(idx) != upper {
                return Err(sem(format!(
                    "{ctx}: bucket upper bound {upper} is not a canonical log-linear/16 \
                     bound for schema treepi.obs/v1 — documents from the old pure-log2 \
                     histogram layout must be regenerated"
                )));
            }
            stat.buckets[idx] += count;
        }
        if stat.buckets.iter().sum::<u64>() != stat.count {
            return Err(sem(format!(
                "{ctx}: histogram total does not match \"count\""
            )));
        }
        *crate::slot(&mut set.spans, s.index(), crate::Span::COUNT) = Some(Box::new(stat));
    }
    Ok(set)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip_through_parser() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "tab\tnewline\ncarriage\r",
            "control\u{0001}char",
            "unicode: αβγ 漢字 🦀",
            "",
        ] {
            let lit = escape_string(s);
            let v = parse(&lit).unwrap_or_else(|e| panic!("{lit}: {e}"));
            assert_eq!(v.as_str(), Some(s), "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5e1").unwrap().as_f64(), Some(25.0));
        assert_eq!(parse("2.5e1").unwrap().as_u64(), None);
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.index(1)).and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.index(2))
                .and_then(|o| o.get("b"))
                .and_then(Value::as_str),
            Some("c")
        );
        assert_eq!(
            v.get("d").and_then(Value::as_object).map(|m| m.len()),
            Some(0)
        );
        assert_eq!(parse("[]").unwrap().as_array().map(<[Value]>::len), Some(0));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(parse(r#""🦀""#).unwrap().as_str(), Some("🦀"));
        assert!(parse(r#""\ud83e""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udd80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\escape\"",
            "[1] garbage",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }
}
