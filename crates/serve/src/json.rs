//! Minimal JSON encode/decode — the exact subset the protocol needs,
//! dependency-free (matching the repo's no-crates.io shim approach).
//!
//! Numbers are `f64`; integers that fit `f64` exactly (node ids are `u32`,
//! counters stay far below 2⁵³ in practice) round-trip losslessly, and the
//! writer uses Rust's shortest-round-trip float formatting, so `f64` profit
//! values survive a network hop bit-for-bit — the serve protocol's
//! byte-identical ledger guarantee rests on this (pinned by tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers come in two exact forms: [`Json::UInt`] for nonnegative integers
/// (full `u64` range — world seeds and RNG seeds are 64-bit, and `f64`
/// would silently round anything above 2⁵³), [`Json::Num`] for everything
/// else. The parser picks `UInt` for any undecorated nonnegative integer
/// literal that fits; the two compare equal when they denote the same
/// number.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer, negative, or oversized number.
    Num(f64),
    /// A nonnegative integer, kept exact.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` so encoding order is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            // Mixed numeric forms: equal when they denote the same number.
            (Json::UInt(u), Json::Num(f)) | (Json::Num(f), Json::UInt(u)) => *f == *u as f64,
            _ => false,
        }
    }
}

impl Json {
    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (`UInt` above 2⁵³ rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a nonnegative integer. Exact for
    /// [`Json::UInt`] over the whole range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(x) => Some(*x),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers from any integer-ish iterator.
    pub fn nums<T: Into<f64> + Copy, I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(|x| Json::Num(x.into())).collect())
    }

    /// Serializes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` is Rust's shortest round-trip formatting.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Json::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parse failure: byte offset + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest accepted array/object nesting. Recursion past this would risk
/// the worker's stack (overflow aborts the process); no legitimate protocol
/// body nests anywhere near it.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Undecorated nonnegative integers stay exact (u64); everything
        // else — fractions, exponents, negatives, oversized — goes to f64.
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let cp =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("bad unicode escape"))?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape,
                    // validating only the run: parsing stays linear in the
                    // input however long its strings are.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("short unicode escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad unicode escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.encode()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.5),
            Json::Num(1e-9),
            Json::Str("hello \"world\"\n\\ tab\t".into()),
            Json::Str("unicode: ∑ emoji: 🦀".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        // The ledger-equivalence guarantee: any finite profit survives
        // encode→parse with identical bits.
        for &x in &[
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            #[allow(clippy::excessive_precision)]
            123456789.123456789,
            -0.0,
            2f64.powi(-1074),
            6.02214076e23,
        ] {
            let v = round_trip(&Json::Num(x));
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn u64_round_trips_exact_beyond_f64_range() {
        // World seeds are full u64; f64 would corrupt anything over 2^53.
        for &x in &[u64::MAX, u64::MAX / 3, (1u64 << 53) + 1, 0] {
            let v = round_trip(&Json::UInt(x));
            assert_eq!(v.as_u64(), Some(x), "{x}");
        }
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        // Mixed numeric forms compare by value.
        assert_eq!(Json::UInt(42), Json::Num(42.0));
    }

    #[test]
    fn containers_round_trip() {
        let v = Json::obj([
            ("seeds", Json::nums([1u32, 2, 3])),
            ("done", Json::Bool(false)),
            (
                "nested",
                Json::obj([("empty_arr", Json::Arr(vec![])), ("null", Json::Null)]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v =
            Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\\u0041\\ud83e\\udd80y\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA🦀y");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
            "\"bad \\u12",
            "\"bad escape \\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // A worker must answer 400, not abort the process, on a bomb body.
        let bomb = "[".repeat(1_000_000);
        assert!(Json::parse(&bomb).is_err());
        let bomb = "{\"a\":".repeat(500_000);
        assert!(Json::parse(&bomb).is_err());
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(50), "]".repeat(50));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Many string bytes ahead of a long tail: a parser that re-checks
        // the tail per character spends minutes here, not milliseconds.
        let item = Json::Str("é".repeat(16) + "\"ok\"");
        let doc = Json::Arr(vec![item; 20_000]).encode();
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(parsed.as_arr().unwrap().len(), 20_000);
        assert_eq!(
            parsed.as_arr().unwrap()[0].as_str(),
            Some(format!("{}\"ok\"", "é".repeat(16)).as_str())
        );
        assert!(
            took < std::time::Duration::from_secs(2),
            "{} bytes took {took:?}",
            doc.len()
        );
    }

    #[test]
    fn accessor_helpers() {
        let v = Json::parse("{\"n\": 42, \"s\": \"x\", \"b\": true}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }
}
