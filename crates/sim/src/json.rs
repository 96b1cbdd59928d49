//! A minimal JSON reader/writer (the workspace is offline, so no serde).
//!
//! The writer builds objects/arrays from typed values with correct string
//! escaping; the reader is a small recursive-descent parser covering the
//! subset the campaign engine emits (strings, unsigned integers, floats,
//! booleans, objects, arrays). [`crate::shard::CampaignReport`] round-trips
//! through this module for its resumable on-disk form, and the `bec` CLI
//! reuses it for every `--json` output.
//!
//! Reading is one linear pass over the input: the parser works on the
//! `&str` it is given, which is already valid UTF-8, and copies each
//! unescaped run inside a string with a single `push_str`. Nesting is
//! capped at [`MAX_DEPTH`] levels, so a hostile document gets an error
//! rather than overflowing the stack. Campaign and study `--resume` and
//! the `--spawn` partial merge all read reports through [`Json::parse`].

use std::fmt::Write;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A JSON string.
    Str(String),
    /// An unsigned integer (counts and sizes). Negative or fractional
    /// numbers travel as [`Json::Float`].
    UInt(u64),
    /// A float, rendered with two decimals.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object (`None` on other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Str(s) => write_str(out, s),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                let _ = write!(out, "{v:.2}");
            }
            Json::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    write_pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_pad(out, indent);
                out.push('}');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    write_pad(out, indent + 1);
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_pad(out, indent);
                out.push(']');
            }
        }
    }

    /// Parses a JSON document (must contain exactly one value).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Reports,
/// summaries and telemetry files use a handful of levels; the cap keeps a
/// hostile file from overflowing the stack of the recursive descent.
pub const MAX_DEPTH: usize = 128;

fn write_pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `s` as a quoted JSON string. Only ASCII bytes need escaping, so
/// the unescaped runs between them are copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    /// The whole document. It is a `&str`, so it is valid UTF-8 and every
    /// ASCII delimiter the parser stops at lies on a char boundary.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse().map(Json::UInt).map_err(|_| format!("bad integer at byte {start}"))
        } else {
            text.parse().map(Json::Float).map_err(|_| format!("bad number at byte {start}"))
        }
    }

    /// One pass over the string: each run of bytes up to the next `"` or
    /// `\` is copied with a single `push_str`, so reading a document is
    /// linear in its size.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes()[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(len) = run else {
                return Err("unterminated string".into());
            };
            out.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
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
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    out.push(
                        char::from_u32(hex)
                            .ok_or_else(|| format!("bad code point at byte {}", self.pos))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::obj(vec![
            ("name", Json::str("camp \"x\"\n")),
            ("runs", Json::UInt(1024)),
            ("done", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::UInt(1), Json::str("a:b"), Json::Obj(Vec::new())])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_reports_offsets() {
        assert!(Json::parse("{\"a\" 1}").unwrap_err().contains("byte"));
        assert!(Json::parse("[1, 2").unwrap_err().contains("expected"));
        assert!(Json::parse("{} x").unwrap_err().contains("trailing"));
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse("{\"a\": {\"b\": [3, true, \"s\"]}}").unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(3));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("s"));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::str("Aé"));
    }

    #[test]
    fn negative_and_fractional_numbers_parse_as_floats() {
        // `bec schedule --json` emits negative deltas (e.g. -16.61); the
        // parser must accept everything the shared writer renders.
        assert_eq!(Json::parse("-16.61").unwrap(), Json::Float(-16.61));
        assert_eq!(Json::parse("-5").unwrap(), Json::Float(-5.0));
        assert_eq!(Json::parse("2.50").unwrap(), Json::Float(2.5));
        let doc = Json::obj(vec![("delta_pct", Json::Float(-16.61))]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn raw_multibyte_characters_pass_through() {
        // 2-, 3- and 4-byte UTF-8 sequences, alone and in runs.
        for s in ["é", "€", "𝄞", "aé€𝄞z", "𝄞𝄞𝄞", "€uro ≠ 𝄞 clef"] {
            assert_eq!(Json::parse(&format!("\"{s}\"")).unwrap(), Json::str(s), "{s}");
        }
        assert_eq!(
            Json::parse("{\"ключ\": \"значение\"}").unwrap().get("ключ").unwrap().as_str(),
            Some("значение")
        );
    }

    #[test]
    fn unescaped_runs_meet_escapes() {
        let cases = [
            (r#""ab\"cd""#, "ab\"cd"),
            (r#""\"ab\"""#, "\"ab\""),
            (r#""é\\€""#, "é\\€"),
            (r#""\\\\𝄞\\""#, "\\\\𝄞\\"),
            (r#""x\u00e9y\u20acz""#, "xéy€z"),
            (r#""\u0041€\u0042""#, "A€B"),
            (r#""€\n\t\r/\/""#, "€\n\t\r//"),
        ];
        for (text, want) in cases {
            assert_eq!(Json::parse(text).unwrap(), Json::str(want), "{text}");
        }
    }

    #[test]
    fn malformed_strings_are_errors_not_panics() {
        for text in [
            "\"abc€",
            "\"€𝄞",
            "\"é\\",
            "\"€\\u12",
            "\"\\u0€\"",
            "\"\\u00e€\"",
            "\"\\x\"",
            "\"\\",
            "[\"𝄞\", \"é",
            "{\"€",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting too deep at byte {MAX_DEPTH}"));
        assert!(Json::parse(&"[".repeat(200_000)).unwrap_err().contains("nesting too deep"));
        assert!(Json::parse(&"{\"a\": ".repeat(200_000)).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn random_strings_roundtrip() {
        let pool: Vec<char> = "aZ09 :,{}[]\"\\/\u{0}\u{1}\u{7}\u{8}\u{c}\n\r\t\u{1f}\u{7f}\
                               é\u{80}\u{7ff}\u{800}€\u{fffd}\u{ffff}\u{10000}𝄞\u{10ffff}"
            .chars()
            .collect();
        let mut rng = bec_testutil::Rng::seeded(0x150A);
        for _ in 0..500 {
            let seed = rng.state();
            let mut word = || -> String {
                let len = rng.index(24);
                (0..len)
                    .map(|_| match rng.index(4) {
                        0 => char::from_u32(rng.range_u64(0, 0x11_0000) as u32).unwrap_or('?'),
                        _ => *rng.choose(&pool),
                    })
                    .collect()
            };
            let (key, value) = (word(), word());
            let doc = Json::Obj(vec![(key, Json::Arr(vec![Json::Str(value), Json::UInt(1)]))]);
            let text = doc.render();
            assert_eq!(Json::parse(&text).unwrap(), doc, "seed {seed:#x}: {text:?}");
        }
    }
}
