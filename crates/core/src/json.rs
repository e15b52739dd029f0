//! A minimal hand-rolled JSON reader/writer for plan persistence.
//!
//! The workspace has zero external crates (see DESIGN.md, "offline-only
//! dependencies"), so the on-disk plan cache cannot use `serde`. This
//! module implements exactly the JSON subset the cache format needs:
//!
//! * objects, arrays, strings, booleans, `null`;
//! * numbers as either **unsigned integers** (`u64`, the only number
//!   form the plan-cache format uses — floating-point cache fields are
//!   persisted as their exact IEEE-754 bit patterns) or **finite
//!   doubles** (added for machine descriptors, which are hand-editable:
//!   `0.82`, `1.5e-6`, `-0.5` parse as [`JsonValue::Float`]). Rust's
//!   float formatting is shortest-round-trip and `str::parse::<f64>` is
//!   correctly rounded, so a float written by [`format_f64`] parses back
//!   bit-identically.
//!
//! The parser is a straightforward recursive-descent over bytes with a
//! depth limit; it rejects anything outside this subset (non-finite
//! numbers, lone minus signs) rather than silently coercing.
//!
//! Since PR 5 this parser also fronts the compilation *server*, which
//! feeds it bytes from the network. Two consequences:
//!
//! * every failure carries a typed [`JsonErrorKind`] so the server can
//!   map classes of garbage to HTTP statuses without string matching;
//! * [`parse_with_limits`] lets callers tighten the depth and input
//!   size caps per trust level ([`ParseLimits::untrusted`] is what the
//!   server uses; [`parse`] keeps the permissive cache-file defaults).

use std::collections::BTreeMap;
use std::fmt;

/// Default maximum nesting depth (cache files are ~4 levels deep; this
/// guards against stack exhaustion on corrupt input).
const MAX_DEPTH: usize = 32;

/// Input-dependent parser caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum nesting depth of arrays/objects.
    pub max_depth: usize,
    /// Maximum input length in bytes; longer documents are rejected
    /// before a single byte is examined.
    pub max_bytes: usize,
}

impl ParseLimits {
    /// The cache-file defaults: depth 32, unbounded size (the disk
    /// store already bounds file sizes by construction).
    pub fn cache_file() -> ParseLimits {
        ParseLimits {
            max_depth: MAX_DEPTH,
            max_bytes: usize::MAX,
        }
    }

    /// The network defaults: depth 16, 1 MiB — far above anything the
    /// compilation API legitimately needs, far below anything that
    /// could hurt.
    pub fn untrusted() -> ParseLimits {
        ParseLimits {
            max_depth: 16,
            max_bytes: 1024 * 1024,
        }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self::cache_file()
    }
}

/// A parsed JSON value (cache-format subset plus finite doubles).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the only number form the
    /// plan-cache format uses).
    UInt(u64),
    /// Any other finite number: fractional, negative, exponent form, or
    /// an integer beyond `u64::MAX`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is normalised (BTreeMap) — the format never
    /// relies on member order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `u64`, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number. Integers convert with
    /// round-to-nearest above 2^53 — exact for every physically
    /// plausible machine parameter.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object value, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// The class of a parse failure — what the server keys HTTP statuses
/// and clients key retry decisions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The bytes do not form the grammar (bad token, missing comma...).
    Syntax,
    /// The document ended mid-value: a prefix of something valid.
    Truncated,
    /// Nesting exceeded the configured depth limit.
    TooDeep,
    /// The input exceeded the configured byte limit.
    TooLarge,
    /// A number form the subset rejects: anything that does not fit a
    /// finite `f64` (e.g. `1e999`).
    UnsupportedNumber,
    /// An object repeated a key.
    DuplicateKey,
    /// A complete document followed by more non-whitespace bytes.
    TrailingData,
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// The failure class.
    pub kind: JsonErrorKind,
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (cache-format subset) under the permissive
/// [`ParseLimits::cache_file`] limits.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input (malformed number syntax
/// included), non-finite numbers, excessive nesting, or trailing
/// garbage after the document.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    parse_with_limits(text, ParseLimits::cache_file())
}

/// Parses one JSON document under explicit [`ParseLimits`] — the entry
/// point for untrusted bytes (the compilation server).
///
/// # Errors
///
/// Returns [`JsonError`] as [`parse`] does, plus
/// [`JsonErrorKind::TooLarge`] when the input exceeds
/// `limits.max_bytes` (checked before any byte is examined).
pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<JsonValue, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError {
            kind: JsonErrorKind::TooLarge,
            offset: 0,
            message: format!(
                "document is {} bytes, limit is {}",
                text.len(),
                limits.max_bytes
            ),
        });
    }
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        max_depth: limits.max_depth,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err_kind(JsonErrorKind::TrailingData, "trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err_kind(&self, kind: JsonErrorKind, message: &str) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// A grammar error — reported as [`JsonErrorKind::Truncated`] when
    /// the input simply ran out, [`JsonErrorKind::Syntax`] otherwise.
    fn err(&self, message: &str) -> JsonError {
        let kind = if self.pos >= self.bytes.len() {
            JsonErrorKind::Truncated
        } else {
            JsonErrorKind::Syntax
        };
        self.err_kind(kind, message)
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > self.max_depth {
            return Err(self.err_kind(JsonErrorKind::TooDeep, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Consumes one or more decimal digits, erroring on zero.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(&format!("expected digits {what}")));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        self.digits("in number")?;
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.digits("after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("in exponent")?;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number is ascii");
        if !negative && !fractional {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            // Beyond u64::MAX: fall through to the f64 form.
        }
        let v: f64 = s
            .parse()
            .map_err(|_| self.err_kind(JsonErrorKind::Syntax, "malformed number"))?;
        if !v.is_finite() {
            return Err(self.err_kind(
                JsonErrorKind::UnsupportedNumber,
                "number outside the finite f64 range",
            ));
        }
        Ok(JsonValue::Float(v))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape outside BMP scalar range"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged; the input is a &str so it is
                    // valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = vec![];
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if map.insert(key, value).is_some() {
                return Err(self.err_kind(JsonErrorKind::DuplicateKey, "duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Formats a finite `f64` as a JSON number that parses back
/// bit-identically: Rust's `Display` emits the shortest decimal string
/// that round-trips, and `str::parse::<f64>` is correctly rounded.
/// Integer-valued floats print without a fractional part and come back
/// as [`JsonValue::UInt`]; [`JsonValue::as_f64`] reunifies the two.
///
/// # Panics
///
/// Panics on NaN or infinity — callers validate finiteness first (JSON
/// has no encoding for either).
pub fn format_f64(v: f64) -> String {
    assert!(v.is_finite(), "cannot encode a non-finite number as JSON");
    format!("{v}")
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cache_format_subset() {
        let v = parse(r#"{"a": [1, 2, 3], "b": {"c": "x", "d": true}, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn u64_extremes_round_trip() {
        let v = parse(&format!("{{\"x\": {}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), Some(u64::MAX));
        let v = parse("0").unwrap();
        assert_eq!(v.as_u64(), Some(0));
    }

    #[test]
    fn floats_negatives_and_big_integers_parse() {
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-1").unwrap().as_f64(), Some(-1.0));
        assert_eq!(parse("1.5e-6").unwrap().as_f64(), Some(1.5e-6));
        // u64::MAX + 1 falls through to the float form.
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(18446744073709551616.0)
        );
        // Integers stay integers.
        assert_eq!(parse("7").unwrap(), JsonValue::UInt(7));
    }

    #[test]
    fn rejects_malformed_and_nonfinite_numbers() {
        assert!(parse("-").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("1e").is_err());
        assert!(parse(".5").is_err());
        assert_eq!(
            parse("1e999").unwrap_err().kind,
            JsonErrorKind::UnsupportedNumber
        );
    }

    #[test]
    fn format_f64_round_trips_bit_exactly() {
        for v in [
            0.82_f64,
            1.5e-6,
            3.27e12,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 3.0,
            989e12,
        ] {
            let parsed = parse(&format_f64(v)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} did not round-trip");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap_err().kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn depth_limit_is_exact_and_configurable() {
        // Depth d nests d arrays; the innermost value sits at depth d.
        let nested = |d: usize| "[".repeat(d) + "0" + &"]".repeat(d);
        let limits = ParseLimits {
            max_depth: 4,
            max_bytes: usize::MAX,
        };
        assert!(parse_with_limits(&nested(4), limits).is_ok());
        assert_eq!(
            parse_with_limits(&nested(5), limits).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        // Objects count the same way.
        let deep_obj = "{\"a\": ".repeat(5) + "0" + &"}".repeat(5);
        assert_eq!(
            parse_with_limits(&deep_obj, limits).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        assert!(parse_with_limits(&nested(16), ParseLimits::untrusted()).is_ok());
        assert_eq!(
            parse_with_limits(&nested(17), ParseLimits::untrusted())
                .unwrap_err()
                .kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn byte_limit_rejects_before_parsing() {
        let limits = ParseLimits {
            max_depth: 32,
            max_bytes: 8,
        };
        assert!(parse_with_limits("[1, 2]", limits).is_ok());
        let err = parse_with_limits("[1, 2, 3]", limits).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooLarge);
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn every_proper_prefix_of_a_valid_document_errors_cleanly() {
        // The exact shape of a /compile request body: truncation at any
        // byte must produce a typed error, never a panic or a success.
        let doc = r#"{"chain": {"family": "standard", "activation": "relu", "dims": [128, 512, 256, 256], "name": "qé\n"}}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let err = parse(&doc[..cut]).expect_err("prefix must not parse");
            assert!(
                matches!(err.kind, JsonErrorKind::Truncated | JsonErrorKind::Syntax),
                "prefix of length {cut} gave unexpected kind {:?}",
                err.kind
            );
        }
        // Whole-document truncation of the *tail* is the common network
        // case and must be classified Truncated, not Syntax.
        assert_eq!(
            parse(&doc[..doc.len() - 2]).unwrap_err().kind,
            JsonErrorKind::Truncated
        );
    }

    #[test]
    fn error_kinds_are_distinguishable() {
        assert_eq!(parse("[1,]").unwrap_err().kind, JsonErrorKind::Syntax);
        assert_eq!(parse("").unwrap_err().kind, JsonErrorKind::Truncated);
        assert_eq!(parse("{\"a\"").unwrap_err().kind, JsonErrorKind::Truncated);
        assert_eq!(
            parse("1e999").unwrap_err().kind,
            JsonErrorKind::UnsupportedNumber
        );
        assert_eq!(
            parse("{\"a\": 1, \"a\": 2}").unwrap_err().kind,
            JsonErrorKind::DuplicateKey
        );
        assert_eq!(
            parse("{} tail").unwrap_err().kind,
            JsonErrorKind::TrailingData
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" back\\ nl\n tab\t ctrl\u{1} ünïcode";
        let doc = format!("\"{}\"", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_parses() {
        let v = parse("\"A\\u00e9A\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}A"));
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\ud800""#).is_err()); // lone surrogate
    }
}
