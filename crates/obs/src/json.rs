//! Minimal JSON parser.
//!
//! This build environment has no crates.io access, so `ossm-obs` renders
//! JSON by hand (see `report.rs`) and — with this module — parses it back
//! for the trace-exporter golden tests, the `ossm-bench` regression gate,
//! and `ossm obs diff`. It is a plain recursive-descent parser over the
//! full JSON grammar; numbers are held as `f64`, which is exact for the
//! integer counters and row fields the tooling reads (all < 2^53).
//!
//! Compiled in both feature configurations: parsing snapshots is useful
//! even in builds whose own instrumentation is compiled out.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order (keys may repeat; lookups take the first).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Deepest permitted container nesting. The parser is recursive-descent,
/// so unbounded nesting in a hostile document would overflow the stack;
/// everything this workspace emits nests a handful of levels.
const MAX_DEPTH: usize = 512;

/// Parses one complete JSON document. Trailing garbage is an error, as is
/// container nesting deeper than `MAX_DEPTH`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Bumps the container depth; an `Err` aborts the whole parse, so the
    /// counter never needs unwinding on failure paths.
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
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
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our own
                            // renderers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte-level continuation handling is safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"rows":[{"n":1},{"n":2}],"ok":true}"#).unwrap();
        let rows = v.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("n").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn handles_unicode_passthrough() {
        let v = parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"x",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_insignificant() {
        let v = parse(" {\n\t\"a\" :\r [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[_]>::len), Some(2));
    }

    #[test]
    fn deep_nesting_is_capped_not_a_stack_overflow() {
        // Just inside the cap parses fine…
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // …one level past it is a clean error, for arrays and objects both.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).unwrap_err().contains("nesting"));
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objs).unwrap_err().contains("nesting"));
        // A wide-but-shallow document is unaffected by the cap.
        let wide = format!("[{}1]", "1,".repeat(10_000));
        assert_eq!(
            parse(&wide).unwrap().as_array().map(<[_]>::len),
            Some(10_001)
        );
    }

    #[test]
    fn escape_sequences_cover_the_full_set() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé"));
        // Lone surrogates map to U+FFFD rather than failing the document.
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
        // Bad or truncated escapes are errors.
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\u00""#).is_err());
        assert!(parse(r#""\u00zz""#).is_err());
        assert!(parse(r#""\"#).is_err());
    }

    #[test]
    fn huge_numbers_saturate_like_f64() {
        // Counters are < 2^53 and exact; anything bigger degrades the way
        // f64 does — documented, not hidden.
        assert_eq!(
            parse("9007199254740992").unwrap().as_f64(),
            Some(2f64.powi(53))
        );
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(parse("1e309").unwrap().as_f64(), Some(f64::INFINITY));
        assert_eq!(parse("-1e309").unwrap().as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(parse("1e-400").unwrap().as_f64(), Some(0.0));
        // A long digit string still parses (rounded to nearest f64).
        let long = "9".repeat(400);
        assert_eq!(parse(&long).unwrap().as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn trailing_garbage_is_rejected_everywhere() {
        for bad in [
            "{} {}",
            "[1] 2",
            "null true",
            "\"a\"\"b\"",
            "1,",
            "{\"a\":1}x",
            "[1]]",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.contains("trailing") || err.contains("unexpected"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn roundtrips_reporter_output() {
        // The hand-rolled renderer in report.rs and this parser must agree.
        let line = r#"{"type":"counter","name":"core.bound.evals","value":128}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("counter"));
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(128.0));
    }
}
