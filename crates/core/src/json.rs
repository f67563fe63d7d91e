//! A minimal, dependency-free canonical JSON codec.
//!
//! The build has no `serde_json` (see `third_party/`), so everything
//! that speaks JSON — the conformance regression corpus, the service
//! status snapshots, the chain-tier snapshots, the `amp-net` wire
//! protocol and the experiment reports — shares this codec instead. It
//! implements the subset those formats need — objects, arrays, strings,
//! unsigned integers, booleans — with one scanner and two deterministic
//! renderers: an indented form for files read by humans
//! ([`Json::render`]) and a single-line form for newline-delimited wire
//! framing ([`Json::render_compact`]).
//!
//! The scanner is [`Lexer`], a borrowing pull lexer that reads the input
//! in one pass and in linear time: each byte is visited once, a string
//! without escapes comes back as a slice of the input, and an escaped one
//! is copied run by run. It has two consumers. [`Json::parse`] is a thin
//! tree builder over it ([`Lexer::tree`]); decoders with a fixed schema
//! (the wire request decoder in `amp-net`) pull tokens straight into their
//! own types and call the tree builder only for the values they do not
//! expect. Both see the same errors at the same offsets.
//!
//! Deliberate limits (documents violating them are rejected loudly rather
//! than mis-read): numbers are unsigned 64-bit integers — no floats, no
//! signs (exact rationals travel as `"num/den"` strings instead, so wire
//! values never lose precision) — duplicate object keys are an error, and
//! containers nest at most [`MAX_DEPTH`] levels deep.
//! Both renderers are fixpoints under `parse`: `parse(render(v)) == v` and
//! re-rendering parsed canonical output reproduces it byte-for-byte.

use std::borrow::Cow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the codec accepts).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps serialization order-stable.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure with a byte offset for context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
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

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with the offending byte offset on any
    /// syntax violation or unsupported construct (floats, duplicate keys).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut lexer = Lexer::new(input);
        let value = lexer.value()?;
        lexer.finish()?;
        Ok(value)
    }

    /// Serializes with 2-space indentation and a trailing newline — the
    /// canonical file format (`parse(render(v)) == v`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes onto a single line with no whitespace — the canonical
    /// wire format for newline-delimited framing. The output never
    /// contains a raw newline (strings escape control characters), so one
    /// value always occupies exactly one line.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest container nesting a document may have. [`Lexer::tree`]
/// recurses once per level, so without a cap one frame of ten thousand
/// `[` overflows the reading thread's stack and aborts the process; past
/// this depth the opening bracket is a [`JsonError`] instead. The
/// documents the repository writes nest a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// One value's head as [`Lexer::token`] reads it: a whole scalar, or the
/// opening bracket of a container whose contents the caller pulls next.
#[derive(Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A string: borrowed from the input unless it contains escapes.
    Str(Cow<'a, str>),
    /// `[` — pull the elements with [`Lexer::elements`].
    ArrStart,
    /// `{` — pull the members with [`Lexer::members`].
    ObjStart,
}

/// A borrowing pull lexer over one JSON document: the one scanner behind
/// [`Json::parse`] and every decoder that reads a document straight into
/// its own types.
///
/// Each byte is visited once. Leading whitespace is skipped before every
/// token and separator, never after a value, so an error's offset is the
/// same whichever consumer drives the lexer. The lexer counts open
/// containers itself, so the [`MAX_DEPTH`] cap holds whichever consumer
/// drives it.
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    /// Containers opened and not yet closed.
    depth: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The error a repeated object key raises, at the current offset
    /// (just past the repeated member's value).
    #[must_use]
    pub fn duplicate_key(&self, key: &str) -> JsonError {
        self.error(format!("duplicate key {key:?}"))
    }

    /// Reads the next value's head.
    ///
    /// # Errors
    /// Any syntax violation or unsupported construct in the scalar, or a
    /// bracket that would nest deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn token(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.open(Token::ObjStart),
            Some(b'[') => self.open(Token::ArrStart),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'0'..=b'9') => self.integer().map(Token::Int),
            Some(b'-') => Err(self.error("negative numbers are not part of the format")),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Pulls the elements of the array whose [`Token::ArrStart`] was just
    /// read, through the closing `]`. `each` must consume exactly one
    /// value per call.
    ///
    /// # Errors
    /// The first error `each` returns, or a missing separator.
    pub fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(());
        }
        loop {
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// Pulls the members of the object whose [`Token::ObjStart`] was just
    /// read, through the closing `}`. `each` gets the decoded key and must
    /// consume exactly the member's value; rejecting a repeated key (with
    /// [`Lexer::duplicate_key`], after the value) is the caller's job.
    ///
    /// # Errors
    /// The first error `each` returns, or a malformed key or separator.
    pub fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads the next value whole, as a tree.
    ///
    /// # Errors
    /// As [`Lexer::tree`].
    pub fn value(&mut self) -> Result<Json, JsonError> {
        let head = self.token()?;
        self.tree(head)
    }

    /// Completes the value `head` started as a tree, rejecting duplicate
    /// keys at every depth.
    ///
    /// # Errors
    /// The first syntax violation, unsupported construct or duplicate key
    /// in document order.
    pub fn tree(&mut self, head: Token<'a>) -> Result<Json, JsonError> {
        Ok(match head {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Int(n) => Json::Int(n),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::ArrStart => {
                let mut items = Vec::new();
                self.elements(|lx| {
                    items.push(lx.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Token::ObjStart => {
                let mut map = BTreeMap::new();
                self.members(|lx, key| {
                    let value = lx.value()?;
                    match map.entry(key.into_owned()) {
                        Entry::Vacant(slot) => {
                            slot.insert(value);
                            Ok(())
                        }
                        Entry::Occupied(slot) => Err(lx.duplicate_key(slot.key())),
                    }
                })?;
                Json::Obj(map)
            }
        })
    }

    /// Accepts trailing whitespace and nothing else.
    ///
    /// # Errors
    /// Anything left after the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the document"))
        }
    }

    /// Steps over an opening bracket, refusing one past [`MAX_DEPTH`]
    /// (the error sits at the bracket).
    #[inline]
    fn open(&mut self, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(token)
    }

    /// Steps over the closing bracket of the innermost open container.
    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// An error at the current offset.
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    #[inline]
    fn integer(&mut self) -> Result<u64, JsonError> {
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("floats are not part of the format"));
        }
        if self.pos - start > 1 && self.text.as_bytes()[start] == b'0' {
            return Err(self.error("leading zeros are not valid JSON"));
        }
        value.ok_or_else(|| self.error("integer out of u64 range"))
    }

    /// Scans a string once: an escape-free string is a slice of the input
    /// (which is already UTF-8, so multi-byte scalars need no decoding);
    /// escapes switch to an owned copy assembled run by run.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("unescaped control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes one escape; the lexer is on the character after the `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                // `get` fails past the end and mid-scalar alike: either way
                // the four hex digits are not there.
                let hex = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
                let c = char::from_u32(code)
                    .ok_or_else(|| self.error("\\u escape outside the BMP subset"))?;
                self.pos += 4;
                return Ok(c);
            }
            _ => return Err(self.error("unknown escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_corpus_shapes() {
        let doc = r#"{ "name": "x", "big": 2, "little": 0,
                      "tasks": [ { "weight_big": 3, "weight_little": 6, "replicable": true } ] }"#;
        let v = Json::parse(doc).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["name"].as_str(), Some("x"));
        assert_eq!(obj["big"].as_int(), Some(2));
        let tasks = obj["tasks"].as_arr().unwrap();
        assert_eq!(
            tasks[0].as_obj().unwrap()["replicable"].as_bool(),
            Some(true)
        );
    }

    #[test]
    fn render_parse_round_trip() {
        let doc = r#"{"a":[1,2,{"b":true,"s":"q\"\\\né"}],"empty_arr":[],"empty_obj":{},"n":null}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Rendering is a fixpoint: canonical output re-renders identically.
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn compact_render_is_single_line_and_round_trips() {
        let doc = "{\"a\":[1,2,{\"b\":true,\"s\":\"line\\nbreak\"}],\"e\":[],\"n\":null}";
        let v = Json::parse(doc).unwrap();
        let compact = v.render_compact();
        assert!(!compact.contains('\n'), "wire form must be one line");
        assert_eq!(compact, doc, "compact rendering is canonical");
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn rejects_what_the_format_never_contains() {
        for bad in [
            "1.5",
            "-3",
            "1e9",
            "01",
            "{\"a\":1,\"a\":2}",
            "[1,]",
            "[1 2]",
            "\"unterminated",
            "{} trailing",
            "",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Escapes and multi-byte scalars decode wherever they sit in a
    /// string: first, last and side by side.
    #[test]
    fn escapes_and_multibyte_scalars_at_string_edges() {
        for (doc, want) in [
            (r#""\n""#, "\n"),
            (r#""\u00e9x""#, "éx"),
            (r#""x\t""#, "x\t"),
            (r#""é""#, "é"),
            (r#""éx""#, "éx"),
            (r#""xé""#, "xé"),
            (r#""€\"""#, "€\""),
            (r#""\"€""#, "\"€"),
            (r#""\\é\u20ac𝄞\/""#, "\\é€𝄞/"),
            (r#""𝄞\n\r\t""#, "𝄞\n\r\t"),
            (r#""\u0041\u00e9\u20ac""#, "Aé€"),
            (r#""é€𝄞""#, "é€𝄞"),
        ] {
            assert_eq!(Json::parse(doc), Ok(Json::Str(want.to_string())), "{doc}");
        }
        // Escaped keys are decoded before the duplicate check.
        let err = Json::parse(r#"{"é":1,"\u00e9":2}"#).unwrap_err();
        assert_eq!(err.message, "duplicate key \"é\"");
    }

    /// An escape-free string is a slice of the input; an escaped one is
    /// an owned copy.
    #[test]
    fn lexer_borrows_unescaped_strings() {
        let mut lexer = Lexer::new(r#"["é€", "a\nb"]"#);
        assert_eq!(lexer.token(), Ok(Token::ArrStart));
        let mut strings = Vec::new();
        lexer
            .elements(|lx| {
                strings.push(lx.token()?);
                Ok(())
            })
            .unwrap();
        lexer.finish().unwrap();
        assert!(matches!(&strings[0], Token::Str(Cow::Borrowed("é€"))));
        assert!(matches!(&strings[1], Token::Str(Cow::Owned(s)) if s == "a\nb"));
    }

    /// Every error class keeps its offset and message.
    #[test]
    fn errors_pin_offset_and_message() {
        for (doc, offset, message) in [
            ("", 0, "unexpected end of input"),
            ("  ", 2, "unexpected end of input"),
            ("-1", 0, "negative numbers are not part of the format"),
            ("[é]", 1, "unexpected character 'Ã'"),
            ("1.5", 1, "floats are not part of the format"),
            ("01.5", 2, "floats are not part of the format"),
            ("007", 3, "leading zeros are not valid JSON"),
            ("18446744073709551616", 20, "integer out of u64 range"),
            ("tru", 0, "expected 'true'"),
            ("[1 2]", 3, "expected ',' or ']' in array"),
            ("[1,]", 3, "unexpected character ']'"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{1:2}", 1, "expected '\"'"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}' in object"),
            ("{\"a\":[1],\"a\" : [2] }", 18, "duplicate key \"a\""),
            ("\"abc", 4, "unterminated string"),
            ("\"a\u{1}\"", 2, "unescaped control character in string"),
            ("\"\\x\"", 2, "unknown escape"),
            ("\"\\", 2, "unknown escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
            ("\"\\u123é\"", 3, "truncated \\u escape"),
            ("\"\\u12g4\"", 3, "invalid \\u escape"),
            ("\"\\ud800\"", 3, "\\u escape outside the BMP subset"),
            ("{} x", 3, "trailing characters after the document"),
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{doc:?}"
            );
        }
        // `u32::from_str_radix` admits a leading `+`, and so does the codec.
        assert_eq!(Json::parse("\"\\u+041\""), Ok(Json::Str("A".to_string())));
    }

    /// Nesting up to [`MAX_DEPTH`] parses; one level more is an error at
    /// the offending bracket, however deep the document goes on — a
    /// 20 KB frame nested 10 000 deep no longer reaches the stack limit.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 10_000] {
            let err = Json::parse(&arrays(depth)).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (MAX_DEPTH, "nesting deeper than 128 levels"),
                "depth {depth}"
            );
            let err = Json::parse(&objects(depth)).unwrap_err();
            assert_eq!(err.offset, "{\"a\":".len() * MAX_DEPTH, "depth {depth}");
        }
        // Objects and arrays share the count; the offset is the bracket.
        let doc = format!("{{\"x\":{}}}", arrays(10_000));
        let err = Json::parse(&doc).unwrap_err();
        assert_eq!(err.offset, "{\"x\":".len() + MAX_DEPTH - 1);
        // Closed containers give their level back: siblings never add up.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn error_carries_an_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
