//! The shared dependency-free JSON reader/writer of the workspace.
//!
//! The build environment is offline, so the workspace carries no external
//! dependencies and cannot use serde; this crate implements just enough of
//! RFC 8259 — objects, arrays, strings (with `\uXXXX` escapes), numbers,
//! booleans and null — for every JSON surface the repository has: the
//! `effpi-serve` line-delimited request/response protocol, the wire
//! rendering of `effpi::Report` (see `crates/serve/PROTOCOL.md`), and the
//! records of the standalone `benchmark/` package.
//!
//! Object keys are kept ordered ([`BTreeMap`]), so rendering is
//! deterministic: two structurally equal values always produce byte-identical
//! text. The verdict cache of `effpi-serve` leans on exactly this property —
//! a cache hit replays the stored [`Json`] value and is therefore
//! byte-identical to the cold response it was recorded from.

//! The crate also hosts the workspace's other shared, dependency-free
//! binary-infrastructure piece: command-line [`flags`] parsing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object keys are kept in a [`BTreeMap`], so rendering
/// is deterministic — diffing two artifacts is meaningful.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value, when this is a non-negative **integer**.
    /// Fractional numbers return `None` rather than being rounded: the
    /// protocol promises ids echoed verbatim and engine bounds applied as
    /// given, so `2.6` in an integer position must be a refusal, not a
    /// silent `3`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs — the protocol/artifact
    /// writers' convenience constructor.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value rounded to three decimals — the stable rendering used
    /// for every wall-clock figure in the artifacts and on the wire.
    pub fn num_round3(x: f64) -> Json {
        Json::Num((x * 1e3).round() / 1e3)
    }

    /// Parses a JSON document (the whole input must be one value).
    ///
    /// Nesting is bounded by [`MAX_NESTING`]: `effpi-serve` feeds this
    /// parser untrusted network bytes, so a hostile `[[[[…` must come back
    /// as an error, not as a recursion-driven stack overflow.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first offending
    /// character.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// How deeply arrays/objects may nest before [`Json::parse`] refuses the
/// document. Every artifact and protocol frame in the workspace nests a
/// handful of levels; 128 is far beyond them all yet keeps the parser's
/// recursion comfortably inside any thread stack.
pub const MAX_NESTING: usize = 128;

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

// ---------------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth > MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(format!("unexpected character at byte {}", *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word:?} at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not needed for our artifacts;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().expect("non-empty by the match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        map.insert(key, parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_bench_record() {
        let text = r#"{
            "schema": "bench-fig9/v1",
            "jobs": 4,
            "cases": [
                {"name": "Payment (2 clients)", "states": 1234,
                 "wall_ms": 56.5, "states_per_sec": 21840.7,
                 "passed": true, "error": null}
            ]
        }"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bench-fig9/v1")
        );
        assert_eq!(parsed.get("jobs").and_then(Json::as_usize), Some(4));
        let case = &parsed.get("cases").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(case.get("states").and_then(Json::as_usize), Some(1234));
        assert_eq!(case.get("error"), Some(&Json::Null));

        // Rendering then re-parsing is the identity.
        let rendered = parsed.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn escapes_are_handled_both_ways() {
        let v = Json::Str("a \"quoted\"\nline\t\u{1}".into());
        let rendered = v.to_string();
        assert_eq!(rendered, "\"a \\\"quoted\\\"\\nline\\t\\u0001\"");
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Unicode escapes parse too.
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in ["{", "[1,", "\"open", "{\"k\" 1}", "12 34", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn integer_accessors_reject_fractional_numbers() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(0.0).as_usize(), Some(0));
        assert_eq!(Json::Num(2.6).as_usize(), None, "no silent rounding");
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(2.6).as_f64(), Some(2.6), "as_f64 is unaffected");
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Open-ended and well-formed deep nests alike: the parser reads
        // untrusted network frames, so both must be *decided*.
        let deep_open = "[".repeat(100_000);
        assert!(Json::parse(&deep_open).is_err());
        let deep_objects = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_objects).is_err());
        let closed = format!("{}1{}", "[".repeat(5_000), "]".repeat(5_000));
        let err = Json::parse(&closed).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // ...while documents at sane depths are untouched.
        let fine = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&fine).is_ok());
    }
}
