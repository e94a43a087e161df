//! A minimal JSON value type with an emitter and a parser.
//!
//! The perf harness writes `BENCH_simulator.json` and the CI
//! perf-trajectory job reads it back (and the committed baseline) for
//! schema and regression checks.  The workspace deliberately has no
//! serialization dependency, so this is the whole of JSON we need:
//! objects with insertion-ordered keys, arrays, strings, finite
//! numbers, booleans and null.
//!
//! Emission is deterministic (insertion order, fixed indentation) so the
//! committed benchmark file diffs cleanly between runs.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as, and emitted from, an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (panics on non-objects — the
    /// builders in the harness only ever hold objects here).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Member of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline —
    /// the committed-file format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON numbers must be finite, got {x}");
    if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Shortest round-trip representation Rust offers.
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts.  The parser recurses
/// once per level, so without a limit a document of a few hundred
/// thousand `[` overflows the stack; real query batches nest 3 deep.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parse a JSON document (the full input must be one value plus
/// whitespace).  Errors carry a byte offset and what went wrong; nesting
/// past [`MAX_NESTING_DEPTH`] is [`JsonErrorKind::TooDeep`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(value)
}

/// A parse failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub kind: JsonErrorKind,
}

/// The kinds of [`JsonError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not JSON; the description says why.
    Syntax(String),
    /// An array or object opens at nesting depth `depth`, past
    /// [`MAX_NESTING_DEPTH`].
    TooDeep {
        /// The depth of the offending array or object (the top-level
        /// value is depth 1).
        depth: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: ", self.offset)?;
        match &self.kind {
            JsonErrorKind::Syntax(message) => f.write_str(message),
            JsonErrorKind::TooDeep { depth } => write!(
                f,
                "nesting depth {depth} exceeds the limit of {MAX_NESTING_DEPTH}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            kind: JsonErrorKind::Syntax(message.to_string()),
        }
    }

    /// Parse an array or object body one nesting level down.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(JsonError {
                offset: self.pos,
                kind: JsonErrorKind::TooDeep { depth: self.depth },
            });
        }
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs don't occur in our own output;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next '"' or '\\'.  Both
                    // are ASCII and the input is a &str, so the run ends on
                    // a char boundary and is valid UTF-8 by itself.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            kind: JsonErrorKind::Syntax(format!("bad number '{text}'")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_benchmark_shaped_document() {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::Num(1.0));
        doc.set("commit", Json::Str("abc123".into()));
        let mut cfg = Json::obj();
        cfg.set("k", Json::Num(16.0));
        cfg.set("cycles_per_sec", Json::Num(17_600_000.0));
        cfg.set("anchor_lambda", Json::Num(2.2e-5));
        doc.set("configs", Json::Arr(vec![cfg]));
        let text = doc.pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        let cps = back.get("configs").unwrap().as_arr().unwrap()[0]
            .get("cycles_per_sec")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(cps, 17_600_000.0);
    }

    #[test]
    fn integers_emit_without_a_fraction() {
        assert_eq!(Json::Num(16.0).pretty(), "16\n");
        assert_eq!(Json::Num(2.5).pretty(), "2.5\n");
        assert_eq!(Json::Num(2.2e-5).pretty(), "0.000022\n");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::Str("a\"b\\c\nd\ttab\u{1}".into());
        let text = s.pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\ttab\\u0001\"\n");
        assert_eq!(parse(&text).unwrap(), s);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let doc = parse(" { \"a\" : [ 1 , -2.5e3 , true , null ] , \"b\" : {} } ").unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(doc.get("b"), Some(&Json::obj()));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err_and(|e| e.offset > 0));
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let at_limit = "[".repeat(MAX_NESTING_DEPTH) + &"]".repeat(MAX_NESTING_DEPTH);
        assert!(parse(&at_limit).is_ok());
        let one_more = format!("{{\"a\": {}}}", at_limit);
        let err = parse(&one_more).unwrap_err();
        assert_eq!(
            err.kind,
            JsonErrorKind::TooDeep {
                depth: MAX_NESTING_DEPTH + 1
            }
        );
        assert_eq!(err.offset, 6 + MAX_NESTING_DEPTH - 1);
        // Deep enough to overflow the stack of a parser without a limit.
        let abyss = "[".repeat(200_000);
        let err = parse(&abyss).unwrap_err();
        assert_eq!(
            err.kind,
            JsonErrorKind::TooDeep {
                depth: MAX_NESTING_DEPTH + 1
            }
        );
        assert!(err.to_string().contains("nesting depth 129"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MB string field: a per-character rescan of the rest of the
        // input would take minutes here.
        let long: String = "ab\u{e9}\u{1f600}".repeat(1 << 17);
        let doc = Json::Arr(vec![Json::Str(long.clone()), Json::Str("tail\"q".into())]);
        let text = doc.pretty();
        assert!(text.len() > 1_000_000);
        let start = std::time::Instant::now();
        let back = parse(&text).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(back, doc);
        assert_eq!(
            parse(&format!("\"{long}")).unwrap_err().offset,
            long.len() + 1
        );
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = parse("{\"z\": 1, \"a\": 2}").unwrap();
        match &doc {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            _ => unreachable!(),
        }
        assert_eq!(doc.pretty(), "{\n  \"z\": 1,\n  \"a\": 2\n}\n");
    }
}
