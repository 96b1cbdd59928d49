//! A minimal JSON reader/writer (the workspace is offline, so no serde).
//!
//! Everything here rests on two streaming primitives:
//!
//! * [`Writer`], a [`Sink`] that pretty-prints values front to back into
//!   one `String`: 2-space indentation, `": "` between key and value, `,`
//!   after every member but the last, integers written without `fmt`;
//! * [`Reader`], a [`Source`] that pulls tokens from a `&str` in one
//!   linear pass, lending out string slices that contain no escapes.
//!
//! The [`Json`] tree is one client of each: [`Json::render`] walks a tree
//! into a `Writer` and [`Json::parse`] builds one from a `Reader`. The
//! report formats ([`crate::shard::CampaignReport`],
//! [`crate::study::StudyReport`]) are each defined once, as an encode
//! function over any [`Sink`] and a decode function over any [`Source`].
//! The same definition therefore streams to and from bytes (the CLI's
//! `--report`, `--resume` and `--spawn` paths) or, through [`TreeBuilder`]
//! and [`TreeCursor`], to and from a `Json` tree.
//!
//! The reader covers the subset this workspace emits: strings, unsigned
//! integers, floats, booleans, objects and arrays. Nesting is capped at
//! [`MAX_DEPTH`] levels, so a hostile document gets an error rather than
//! overflowing the stack.

use std::borrow::Cow;
use std::fmt::Write as _;

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
        let mut out = Writer::default();
        self.emit(&mut out);
        out.finish()
    }

    /// Writes the value to `out`.
    fn emit(&self, out: &mut impl Sink) {
        match self {
            Json::Str(s) => out.str(s),
            Json::UInt(v) => out.uint(*v),
            Json::Float(v) => out.float(*v),
            Json::Bool(b) => out.bool(*b),
            Json::Obj(fields) => {
                out.begin_obj();
                for (k, v) in fields {
                    out.key(k);
                    v.emit(out);
                }
                out.end_obj();
            }
            Json::Arr(items) => {
                out.begin_arr();
                for v in items {
                    v.emit(out);
                }
                out.end_arr();
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
        read_document(text, Json::read)
    }

    /// Reads the next value of `src` as a tree.
    ///
    /// # Errors
    ///
    /// Propagates the source's syntax errors.
    fn read<'a>(src: &mut impl Source<'a>) -> Result<Json, String> {
        Ok(match src.value()? {
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::UInt(v) => Json::UInt(v),
            Token::Float(v) => Json::Float(v),
            Token::Bool(b) => Json::Bool(b),
            Token::Obj => {
                let mut fields = Vec::new();
                while let Some(key) = src.key()? {
                    let value = Json::read(src)?;
                    fields.push((key.into_owned(), value));
                }
                Json::Obj(fields)
            }
            Token::Arr => {
                let mut items = Vec::new();
                while src.item()? {
                    items.push(Json::read(src)?);
                }
                Json::Arr(items)
            }
        })
    }
}

/// The deepest array/object nesting a [`Reader`] accepts. Reports,
/// summaries and telemetry files use a handful of levels; the cap keeps a
/// hostile file from overflowing the stack of a recursive reader.
pub const MAX_DEPTH: usize = 128;

/// A consumer of one JSON value, written front to back.
///
/// Callers pair every `begin_*` with its `end_*` and precede each object
/// member's value with [`Sink::key`].
pub trait Sink {
    /// Opens an object.
    fn begin_obj(&mut self);
    /// Closes the innermost object.
    fn end_obj(&mut self);
    /// Opens an array.
    fn begin_arr(&mut self);
    /// Closes the innermost array.
    fn end_arr(&mut self);
    /// Names the next member of the innermost object.
    fn key(&mut self, key: &str);
    /// A string value.
    fn str(&mut self, s: &str);
    /// A string value built in place by `build`. The text must need no
    /// escaping: no `"`, `\` or control characters.
    fn plain_str(&mut self, build: impl FnOnce(&mut String));
    /// An unsigned integer value.
    fn uint(&mut self, v: u64);
    /// A float value, rendered with two decimals.
    fn float(&mut self, v: f64);
    /// A boolean value.
    fn bool(&mut self, b: bool);

    /// A member holding a string.
    fn field_str(&mut self, key: &str, s: &str) {
        self.key(key);
        self.str(s);
    }

    /// A member holding an unsigned integer.
    fn field_uint(&mut self, key: &str, v: u64) {
        self.key(key);
        self.uint(v);
    }

    /// A member holding a boolean.
    fn field_bool(&mut self, key: &str, b: bool) {
        self.key(key);
        self.bool(b);
    }
}

/// The streaming pretty-printer: a [`Sink`] that writes straight into one
/// (pre-sized) `String`, in exactly the layout [`Json::render`] produces.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has no member yet.
    fresh: bool,
    /// A key was written; the next value follows it on the same line.
    after_key: bool,
}

impl Writer {
    /// An empty writer whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer { out: String::with_capacity(bytes), depth: 0, fresh: false, after_key: false }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a new member of the innermost container on its own line.
    fn member(&mut self) {
        self.out.push_str(if self.fresh { "\n" } else { ",\n" });
        self.fresh = false;
        write_pad(&mut self.out, self.depth);
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.member();
        }
    }

    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.fresh {
            self.out.push('\n');
            write_pad(&mut self.out, self.depth);
        }
        self.out.push(bracket);
        self.fresh = false;
    }
}

impl Sink for Writer {
    fn begin_obj(&mut self) {
        self.open('{');
    }

    fn end_obj(&mut self) {
        self.close('}');
    }

    fn begin_arr(&mut self) {
        self.open('[');
    }

    fn end_arr(&mut self) {
        self.close(']');
    }

    fn key(&mut self, key: &str) {
        self.member();
        write_str(&mut self.out, key);
        self.out.push_str(": ");
        self.after_key = true;
    }

    fn str(&mut self, s: &str) {
        self.before_value();
        write_str(&mut self.out, s);
    }

    fn plain_str(&mut self, build: impl FnOnce(&mut String)) {
        self.before_value();
        self.out.push('"');
        let start = self.out.len();
        build(&mut self.out);
        debug_assert!(
            !self.out.as_bytes()[start..].iter().any(|&b| needs_escape(b)),
            "plain string needs escaping"
        );
        self.out.push('"');
    }

    fn uint(&mut self, v: u64) {
        self.before_value();
        push_uint(&mut self.out, v);
    }

    fn float(&mut self, v: f64) {
        self.before_value();
        let _ = write!(self.out, "{v:.2}");
    }

    fn bool(&mut self, b: bool) {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
    }
}

fn write_pad(out: &mut String, depth: usize) {
    const SPACES: &str = "                                ";
    let mut n = 2 * depth;
    while n > SPACES.len() {
        out.push_str(SPACES);
        n -= SPACES.len();
    }
    out.push_str(&SPACES[..n]);
}

/// Appends the decimal digits of `v`.
pub(crate) fn push_uint(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[start..] {
        out.push(char::from(d));
    }
}

fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

/// Writes `s` as a quoted JSON string. Only ASCII bytes need escaping, so
/// the unescaped runs between them are copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
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

/// A [`Sink`] that builds a [`Json`] tree — the tree form of any encoder.
#[derive(Default)]
pub struct TreeBuilder {
    /// Open containers, each with the key it will be stored under in its
    /// parent object.
    open: Vec<(Option<String>, Json)>,
    /// The key of the next member of the innermost object.
    key: Option<String>,
    root: Option<Json>,
}

impl TreeBuilder {
    /// The value written.
    ///
    /// # Panics
    ///
    /// Panics if no complete value was written.
    pub fn finish(self) -> Json {
        assert!(self.open.is_empty(), "unclosed container");
        self.root.expect("no value written")
    }

    fn push(&mut self, v: Json) {
        match self.open.last_mut() {
            None => self.root = Some(v),
            Some((_, Json::Obj(fields))) => {
                fields.push((self.key.take().expect("object member without a key"), v));
            }
            Some((_, Json::Arr(items))) => items.push(v),
            Some(_) => unreachable!("only containers are open"),
        }
    }

    fn open(&mut self, container: Json) {
        let key = self.key.take();
        self.open.push((key, container));
    }

    fn close(&mut self) {
        let (key, container) = self.open.pop().expect("no open container");
        self.key = key;
        self.push(container);
    }
}

impl Sink for TreeBuilder {
    fn begin_obj(&mut self) {
        self.open(Json::Obj(Vec::new()));
    }

    fn end_obj(&mut self) {
        self.close();
    }

    fn begin_arr(&mut self) {
        self.open(Json::Arr(Vec::new()));
    }

    fn end_arr(&mut self) {
        self.close();
    }

    fn key(&mut self, key: &str) {
        self.key = Some(key.to_owned());
    }

    fn str(&mut self, s: &str) {
        self.push(Json::str(s));
    }

    fn plain_str(&mut self, build: impl FnOnce(&mut String)) {
        let mut s = String::new();
        build(&mut s);
        self.push(Json::Str(s));
    }

    fn uint(&mut self, v: u64) {
        self.push(Json::UInt(v));
    }

    fn float(&mut self, v: f64) {
        self.push(Json::Float(v));
    }

    fn bool(&mut self, b: bool) {
        self.push(Json::Bool(b));
    }
}

/// One value pulled from a [`Source`]. A container is only its opening:
/// its members follow through [`Source::key`] / [`Source::item`].
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// A string, borrowed from the source when it holds no escapes.
    Str(Cow<'a, str>),
    /// An unsigned integer.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An object.
    Obj,
    /// An array.
    Arr,
}

impl Token<'_> {
    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Token::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Token::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A pull source of one JSON value: the text [`Reader`] or the tree
/// [`TreeCursor`]. Decoders written against it read either.
///
/// Errors are syntax errors (only a [`Reader`] produces them) and end the
/// read.
pub trait Source<'a> {
    /// Reads the next value. A container is entered: its members follow
    /// through [`Source::key`] (objects) or [`Source::item`] (arrays).
    fn value(&mut self) -> Result<Token<'a>, String>;

    /// Advances to the next member of the innermost open object: its key,
    /// or `None` once the object is closed. The member's value must be
    /// read before the next call.
    fn key(&mut self) -> Result<Option<Cow<'a, str>>, String>;

    /// Advances to the next item of the innermost open array: `false`
    /// once the array is closed. The item must be read before the next
    /// call.
    fn item(&mut self) -> Result<bool, String>;

    /// An upper bound on the items left in the array just entered, given
    /// that each item takes at least `min_bytes` bytes of text.
    fn items_hint(&self, min_bytes: usize) -> usize;

    /// Reads the next value, skipping a container's contents: an object
    /// or array comes back as [`Token::Obj`] / [`Token::Arr`] alone.
    fn scalar(&mut self) -> Result<Token<'a>, String> {
        let token = self.value()?;
        match token {
            Token::Obj => {
                while self.key()?.is_some() {
                    self.scalar()?;
                }
            }
            Token::Arr => {
                while self.item()? {
                    self.scalar()?;
                }
            }
            _ => {}
        }
        Ok(token)
    }

    /// Reads the next value if it is an array, leaving it open for
    /// [`Source::item`]; any other value is skipped. Returns whether it
    /// was an array.
    fn enter_array(&mut self) -> Result<bool, String> {
        match self.value()? {
            Token::Arr => Ok(true),
            Token::Obj => {
                while self.key()?.is_some() {
                    self.scalar()?;
                }
                Ok(false)
            }
            _ => Ok(false),
        }
    }
}

/// A decoded value whose semantic checks may have failed.
///
/// Decoders return `Result<Checked<T>, String>`. The outer error is a
/// syntax error and ends the read. The inner one names the first semantic
/// problem; it is only reported once the whole document has parsed. So a
/// malformed document reports its syntax error whatever it contains, and
/// a decoder can check its fields in a fixed order whatever order the
/// document lists them in.
pub type Checked<T> = Result<T, String>;

/// Reads a whole document with `read`, then checks that only whitespace
/// follows the value.
///
/// # Errors
///
/// Returns `read`'s error, or `trailing data at byte N`.
pub(crate) fn read_document<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut reader = Reader::new(text);
    let value = read(&mut reader)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(format!("trailing data at byte {}", reader.pos));
    }
    Ok(value)
}

/// Reads the next value as an object, handing each member's key to
/// `member`, which must read the member's value. A value of any other
/// type is skipped. Returns whether the value was an object.
///
/// # Errors
///
/// Propagates syntax errors.
pub(crate) fn read_object<'a, S: Source<'a>>(
    src: &mut S,
    mut member: impl FnMut(&mut S, &str) -> Result<(), String>,
) -> Result<bool, String> {
    match src.value()? {
        Token::Obj => {
            while let Some(key) = src.key()? {
                member(src, &key)?;
            }
            Ok(true)
        }
        Token::Arr => {
            while src.item()? {
                src.scalar()?;
            }
            Ok(false)
        }
        _ => Ok(false),
    }
}

/// Reads the next value as an array of items decoded by `item`: `None`
/// when the value is not an array, else the items or the first item's
/// semantic error (later items are then only skipped).
///
/// # Errors
///
/// Propagates syntax errors.
pub(crate) fn read_list<'a, S: Source<'a>, T>(
    src: &mut S,
    mut item: impl FnMut(&mut S) -> Result<Checked<T>, String>,
) -> Result<Option<Checked<Vec<T>>>, String> {
    if !src.enter_array()? {
        return Ok(None);
    }
    let mut list = Ok(Vec::new());
    while src.item()? {
        match &mut list {
            Ok(items) => match item(src)? {
                Ok(v) => items.push(v),
                Err(e) => list = Err(e),
            },
            Err(_) => {
                src.scalar()?;
            }
        }
    }
    Ok(Some(list))
}

/// The members of one object whose values are scalars, each kept at its
/// first occurrence — the streaming counterpart of [`Json::get`] lookups.
pub(crate) struct Members<'a, const N: usize> {
    names: [&'static str; N],
    values: [Option<Token<'a>>; N],
}

impl<'a, const N: usize> Members<'a, N> {
    /// Collects the members called `names`.
    pub fn new(names: [&'static str; N]) -> Members<'a, N> {
        Members { names, values: std::array::from_fn(|_| None) }
    }

    /// Reads the value of member `key`: kept if `key` is one of the names
    /// and not yet seen, skipped otherwise.
    ///
    /// # Errors
    ///
    /// Propagates syntax errors.
    pub fn read(&mut self, src: &mut impl Source<'a>, key: &str) -> Result<(), String> {
        let token = src.scalar()?;
        if let Some(i) = self.names.iter().position(|n| *n == key) {
            self.values[i].get_or_insert(token);
        }
        Ok(())
    }

    /// The first value of member `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Token<'a>> {
        let i = self.names.iter().position(|n| *n == key);
        debug_assert!(i.is_some(), "member `{key}` is not collected");
        self.values[i?].as_ref()
    }

    /// The first value of member `key` as an unsigned integer.
    pub fn uint(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Token::as_u64)
    }
}

/// The pull reader over JSON text: a [`Source`] that reads the `&str` it
/// is given in one linear pass.
pub struct Reader<'a> {
    /// The whole document. It is a `&str`, so it is valid UTF-8 and every
    /// ASCII delimiter the reader stops at lies on a char boundary.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The innermost open container has no member yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, fresh: false }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        let rest = &self.bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')).count();
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

    /// Enters a container one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Moves past the separator before the innermost container's next
    /// member: `false` (and the container closed) at `close`.
    fn next_member(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!("expected `,` or `{}` at byte {}", close as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: bool) -> Result<Token<'a>, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(Token::Bool(value))
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Token<'a>, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse().map(Token::UInt).map_err(|_| format!("bad integer at byte {start}"))
        } else {
            text.parse().map(Token::Float).map_err(|_| format!("bad number at byte {start}"))
        }
    }

    /// One pass over the string. Without escapes it is lent out as a
    /// slice of the document; otherwise each run of bytes up to the next
    /// `"` or `\` is copied with a single `push_str`, so reading stays
    /// linear in the document's size.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let text = self.text;
        let mut out = String::new();
        loop {
            let run = self.bytes()[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(len) = run else {
                return Err("unterminated string".into());
            };
            let chunk = &text[self.pos..self.pos + len];
            self.pos += len;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                if out.is_empty() {
                    return Ok(Cow::Borrowed(chunk));
                }
                out.push_str(chunk);
                return Ok(Cow::Owned(out));
            }
            out.push_str(chunk);
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'u') => {
                    let hex = text
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
}

impl<'a> Source<'a> for Reader<'a> {
    fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Token::Str),
            Some(b'{') => self.open().map(|()| Token::Obj),
            Some(b'[') => self.open().map(|()| Token::Arr),
            Some(b't') => self.literal("true", true),
            Some(b'f') => self.literal("false", false),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn item(&mut self) -> Result<bool, String> {
        self.next_member(b']')
    }

    fn items_hint(&self, min_bytes: usize) -> usize {
        (self.text.len() - self.pos) / min_bytes.max(1)
    }
}

/// A [`Source`] over a [`Json`] tree — the tree form of any decoder.
pub struct TreeCursor<'a> {
    /// The value the next [`Source::value`] call reads.
    next: Option<&'a Json>,
    /// The members left in each open container.
    open: Vec<Level<'a>>,
}

/// The members left in one container a [`TreeCursor`] has entered.
enum Level<'a> {
    Obj(std::slice::Iter<'a, (String, Json)>),
    Arr(std::slice::Iter<'a, Json>),
}

impl<'a> TreeCursor<'a> {
    /// A cursor before `doc`.
    pub fn new(doc: &'a Json) -> TreeCursor<'a> {
        TreeCursor { next: Some(doc), open: Vec::new() }
    }
}

impl<'a> Source<'a> for TreeCursor<'a> {
    fn value(&mut self) -> Result<Token<'a>, String> {
        Ok(match self.next.take().ok_or("no value to read")? {
            Json::Str(s) => Token::Str(Cow::Borrowed(s)),
            Json::UInt(v) => Token::UInt(*v),
            Json::Float(v) => Token::Float(*v),
            Json::Bool(b) => Token::Bool(*b),
            Json::Obj(fields) => {
                self.open.push(Level::Obj(fields.iter()));
                Token::Obj
            }
            Json::Arr(items) => {
                self.open.push(Level::Arr(items.iter()));
                Token::Arr
            }
        })
    }

    fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        let Some(Level::Obj(fields)) = self.open.last_mut() else {
            return Err("no open object".into());
        };
        match fields.next() {
            Some((k, v)) => {
                self.next = Some(v);
                Ok(Some(Cow::Borrowed(k)))
            }
            None => {
                self.open.pop();
                Ok(None)
            }
        }
    }

    fn item(&mut self) -> Result<bool, String> {
        let Some(Level::Arr(items)) = self.open.last_mut() else {
            return Err("no open array".into());
        };
        match items.next() {
            Some(v) => {
                self.next = Some(v);
                Ok(true)
            }
            None => {
                self.open.pop();
                Ok(false)
            }
        }
    }

    fn items_hint(&self, _min_bytes: usize) -> usize {
        match self.open.last() {
            Some(Level::Arr(items)) => items.len(),
            _ => 0,
        }
    }

    /// A skipped container is never entered.
    fn scalar(&mut self) -> Result<Token<'a>, String> {
        match self.next {
            Some(Json::Obj(_)) => {
                self.next = None;
                Ok(Token::Obj)
            }
            Some(Json::Arr(_)) => {
                self.next = None;
                Ok(Token::Arr)
            }
            _ => self.value(),
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

    fn sample_doc() -> Json {
        Json::obj(vec![
            ("name", Json::str("a\"b")),
            ("n", Json::UInt(0)),
            ("max", Json::UInt(u64::MAX)),
            ("f", Json::Float(-1.5)),
            ("empty_obj", Json::Obj(Vec::new())),
            ("empty_arr", Json::Arr(Vec::new())),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![("x", Json::Bool(true))]), Json::Arr(Vec::new())]),
            ),
        ])
    }

    #[test]
    fn render_layout_is_pinned() {
        let want = "{\n  \"name\": \"a\\\"b\",\n  \"n\": 0,\n  \"max\": 18446744073709551615,\n  \
                    \"f\": -1.50,\n  \"empty_obj\": {},\n  \"empty_arr\": [],\n  \"nested\": [\n    \
                    {\n      \"x\": true\n    },\n    []\n  ]\n}";
        assert_eq!(sample_doc().render(), want);
        assert_eq!(Json::UInt(7).render(), "7");
        assert_eq!(Json::Arr(vec![Json::str("s")]).render(), "[\n  \"s\"\n]");
        let deep = (0..20).fold(Json::UInt(1), |v, _| Json::Arr(vec![v]));
        assert_eq!(Json::parse(&deep.render()).unwrap(), deep);
        assert!(deep.render().contains(&format!("\n{}1\n", " ".repeat(40))));
    }

    #[test]
    fn tree_builder_and_cursor_mirror_the_tree() {
        let doc = sample_doc();
        let mut tree = TreeBuilder::default();
        doc.emit(&mut tree);
        assert_eq!(tree.finish(), doc);
        assert_eq!(Json::read(&mut TreeCursor::new(&doc)).unwrap(), doc);
    }

    #[test]
    fn reader_lends_strings_without_escapes() {
        let mut r = Reader::new("[\"plain €\", \"esc\\n\"]");
        assert_eq!(r.value(), Ok(Token::Arr));
        assert!(r.item().unwrap());
        assert!(matches!(r.value(), Ok(Token::Str(Cow::Borrowed("plain €")))));
        assert!(r.item().unwrap());
        assert!(matches!(r.value(), Ok(Token::Str(Cow::Owned(s))) if s == "esc\n"));
        assert!(!r.item().unwrap());
    }

    #[test]
    fn members_keep_first_occurrences_and_skip_the_rest() {
        let text = "{\"a\": 1, \"skip\": {\"a\": 9}, \"a\": 2, \"b\": [3], \"c\": \"s\"}";
        for doc in [Some(Json::parse(text).unwrap()), None] {
            let mut members = Members::new(["a", "b", "c"]);
            let is_obj = match &doc {
                Some(tree) => {
                    read_object(&mut TreeCursor::new(tree), |s, k| members.read(s, k)).unwrap()
                }
                None => read_document(text, |r| read_object(r, |s, k| members.read(s, k))).unwrap(),
            };
            assert!(is_obj);
            assert_eq!(members.uint("a"), Some(1));
            assert_eq!(members.get("b"), Some(&Token::Arr));
            assert_eq!(members.get("c").and_then(Token::as_str), Some("s"));
        }
    }

    #[test]
    fn read_list_keeps_the_first_item_error() {
        let item = |src: &mut Reader<'_>| {
            let t = src.scalar()?;
            Ok(t.as_u64().ok_or_else(|| format!("not a uint: {t:?}")))
        };
        let list = |text: &str| read_document(text, |r| read_list(r, item)).unwrap();
        assert_eq!(list("[1, 2]"), Some(Ok(vec![1, 2])));
        assert_eq!(list("[1, true, {}]"), Some(Err("not a uint: Bool(true)".into())));
        assert_eq!(list("{\"a\": [1]}"), None);
        assert!(read_document("[1, true, {]", |r| read_list(r, item)).is_err());
    }
}
