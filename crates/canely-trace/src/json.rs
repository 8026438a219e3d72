//! A minimal, dependency-free parser and renderer for the flat JSON
//! objects of the trace schema (`docs/TRACE_SCHEMA.md`).
//!
//! The schema promises one *flat* object per line — no nesting, no
//! arrays — with string, boolean and unsigned-integer values only.
//! Parsing preserves field order and numeric spelling, so a parsed
//! document re-renders byte-identically: the lossless round-trip
//! that `crates/cli/tests/trace_queries.rs` holds every checked-in
//! scenario's trace to.
//!
//! A parsed [`Line`] is a *validated view* of the text it was parsed
//! from: it holds the slice and nothing else, and every accessor
//! re-walks it with the one scanner ([`Fields`]) that validated it.
//! Keys, numbers and escape-free strings come back as borrowed slices
//! of the input (the schema exporter only escapes quotes, backslashes
//! and control characters, so in practice every field borrows); only a
//! string that actually contains escapes is decoded into an owned
//! buffer, when it is asked for.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON scalar as it appears in a trace line, borrowing from the
/// parsed input where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// A number, kept as its original spelling for lossless
    /// re-rendering.
    Num(&'a str),
    /// A boolean.
    Bool(bool),
    /// A string: borrowed verbatim when escape-free, decoded into an
    /// owned buffer otherwise (re-rendering re-applies the canonical
    /// escaping of the exporter).
    Str(Cow<'a, str>),
}

impl<'a> Value<'a> {
    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as display text: a number's spelling, `true` /
    /// `false`, a string's content.
    pub fn into_display(self) -> Cow<'a, str> {
        match self {
            Value::Num(raw) => Cow::Borrowed(raw),
            Value::Bool(b) => Cow::Borrowed(if b { "true" } else { "false" }),
            Value::Str(s) => s,
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::Num(raw) => out.push_str(raw),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
        }
    }
}

/// Appends `s` with the canonical escaping of the trace exporter
/// (quote, backslash and control characters only). Runs of plain
/// characters are appended in one copy instead of char by char.
pub fn escape_into(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            c => {
                let _ = write!(out, "\\u{:04x}", c);
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// A parse failure, with a human-readable reason and the byte offset
/// it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub reason: String,
    /// Byte offset within the line.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.reason, self.at)
    }
}

impl std::error::Error for ParseError {}

/// One parsed trace line: a validated view of its text. Accessors
/// walk the fields lazily, in document order; the first field of a
/// name wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    text: &'a str,
    /// Whether `text` is already the canonical rendering: no blank
    /// skipped between tokens, every escape in the exporter's spelling
    /// and no raw control character inside a string.
    canonical: bool,
}

impl<'a> Line<'a> {
    /// Parses one flat JSON object, borrowing `text`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or on nesting
    /// (objects and arrays are outside the trace schema).
    pub fn parse(text: &'a str) -> Result<Line<'a>, ParseError> {
        Line::parse_with(text, |_, _, _| Ok(()))
    }

    /// [`Line::parse`], handing each field (and the byte offset just
    /// past its value) to `visit` as the validating scan meets it, so
    /// a caller that wants some of the fields pays for one pass.
    pub(crate) fn parse_with(
        text: &'a str,
        mut visit: impl FnMut(&str, Value<'a>, usize) -> Result<(), ParseError>,
    ) -> Result<Line<'a>, ParseError> {
        let mut fields = Fields::new(text);
        while let Some((key, value)) = fields.next() {
            visit(&key, value, fields.pos)?;
        }
        match fields.error {
            Some(error) => Err(error),
            None => Ok(Line {
                text,
                canonical: fields.canonical,
            }),
        }
    }

    /// The text the line was parsed from.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// The fields, in document order.
    pub fn fields(&self) -> Fields<'a> {
        Fields::new(self.text)
    }

    /// The value of a field, if present.
    pub fn get(&self, name: &str) -> Option<Value<'a>> {
        self.fields().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// An unsigned-integer field.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name)?.as_u64()
    }

    /// A string field (borrowed unless the value contained escapes).
    pub fn str(&self, name: &str) -> Option<Cow<'a, str>> {
        match self.get(name)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean field.
    pub fn bool(&self, name: &str) -> Option<bool> {
        self.get(name)?.as_bool()
    }

    /// The variant-specific fields — everything except the envelope
    /// (`t`, `seq`, `node`, `kind`, `cause`) — rendered as display
    /// strings for human-oriented output.
    pub fn display_fields(&self) -> impl Iterator<Item = (Cow<'a, str>, Cow<'a, str>)> {
        self.fields()
            .filter(|(k, _)| !matches!(k.as_ref(), "t" | "seq" | "node" | "kind" | "cause"))
            .map(|(k, v)| (k, v.into_display()))
    }

    /// Renders the line back to its canonical JSON spelling (no
    /// trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.text.len());
        self.render_into(&mut out);
        out
    }

    /// Appends the canonical JSON spelling to `out`: the text itself
    /// where the scan proved it canonical, a re-rendering of its
    /// fields otherwise.
    pub fn render_into(&self, out: &mut String) {
        if self.canonical {
            out.push_str(self.text);
            return;
        }
        out.push('{');
        for (i, (key, value)) in self.fields().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&key, out);
            out.push_str("\":");
            value.render(out);
        }
        out.push('}');
    }
}

/// The scanner behind [`Line`]: yields `(key, value)` pairs in
/// document order, leaving `pos` just past each value. It ends at the
/// closing brace or at the first defect, which [`Line::parse`] — that
/// drives it to the end once — then finds in `error`; over a `Line` it
/// cannot fail.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    text: &'a str,
    pos: usize,
    canonical: bool,
    done: bool,
    error: Option<ParseError>,
}

impl<'a> Iterator for Fields<'a> {
    type Item = (Cow<'a, str>, Value<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let first = self.pos == 0;
        if first {
            self.expect(b'{')?;
        }
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.skip_ws();
                if self.pos != self.text.len() {
                    return self.fail("trailing characters after object");
                }
                self.done = true;
                return None;
            }
            Some(b',') if !first => self.pos += 1,
            _ if !first => return self.fail("expected `,` or `}`"),
            _ => {}
        }
        let key = self.string()?;
        self.expect(b':')?;
        let value = self.value()?;
        Some((key, value))
    }
}

impl<'a> Fields<'a> {
    fn new(text: &'a str) -> Self {
        Fields {
            text,
            pos: 0,
            canonical: true,
            done: false,
            error: None,
        }
    }

    /// Ends the scan at a defect: `None` for the caller's `?`.
    #[cold]
    fn fail<T>(&mut self, reason: impl Into<String>) -> Option<T> {
        self.done = true;
        self.error = Some(ParseError {
            reason: reason.into(),
            at: self.pos,
        });
        None
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips blanks; the exporter writes none.
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| matches!(b, b' ' | b'\t')) {
            self.pos += 1;
            self.canonical = false;
        }
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        if self.peek() != Some(byte) {
            self.skip_ws();
            if self.peek() != Some(byte) {
                return self.fail(format!("expected `{}`", byte as char));
            }
        }
        self.pos += 1;
        Some(())
    }

    #[inline]
    fn value(&mut self) -> Option<Value<'a>> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Some(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'{') | Some(b'[') => self.fail("nested values are outside the flat trace schema"),
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let rest = &self.text.as_bytes()[self.pos..];
                let len = rest
                    .iter()
                    .position(|b| {
                        !(b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
                    })
                    .unwrap_or(rest.len());
                let start = self.pos;
                self.pos += len;
                Some(Value::Num(&self.text[start..self.pos]))
            }
            _ => self.fail("expected a value"),
        }
    }

    fn keyword(&mut self, word: &str, value: Value<'a>) -> Option<Value<'a>> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            self.fail(format!("expected `{word}`"))
        }
    }

    /// Advances to the next quote or backslash (or the end), noting a
    /// raw control character on the way: the exporter would have
    /// escaped it.
    fn plain_run(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(stop) = bytes[self.pos..]
            .iter()
            .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        {
            self.pos += stop;
            if bytes[self.pos] >= 0x20 {
                return;
            }
            self.canonical = false;
            self.pos += 1;
        }
        self.pos = bytes.len();
    }

    #[inline]
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: escape-free content is returned as a borrowed
        // slice of the input (slice bounds always sit on ASCII
        // quote/backslash bytes, so they are valid `str` boundaries).
        self.plain_run();
        match self.peek() {
            None => self.fail("unterminated string"),
            Some(b'"') => {
                let s = &self.text[start..self.pos];
                self.pos += 1;
                Some(Cow::Borrowed(s))
            }
            Some(_) => self.unescape(start).map(Cow::Owned),
        }
    }

    /// The slow path of [`Fields::string`] (a `\` was hit at `pos`):
    /// decodes into an owned buffer, copying plain runs wholesale
    /// between escapes.
    #[cold]
    fn unescape(&mut self, start: usize) -> Option<String> {
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Some(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.canonical &= matches!(escape, Some(b'"' | b'\\' | b'u'));
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5);
                            let decoded = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match decoded {
                                Some(c) => {
                                    // The exporter spells only control
                                    // characters this way: `\u00` and
                                    // two lower-case digits.
                                    self.canonical &= c < ' '
                                        && hex.is_some_and(|h| {
                                            h.starts_with(b"00") && !h[3].is_ascii_uppercase()
                                        });
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_protocol_line() {
        let text = "{\"t\":1234,\"seq\":7,\"node\":3,\"kind\":\"fda.sign.rx\",\
                    \"failed\":7,\"duplicate\":true,\"cause\":\"bus:1230\"}";
        let line = Line::parse(text).unwrap();
        assert_eq!(line.u64("t"), Some(1234));
        assert_eq!(line.u64("seq"), Some(7));
        assert_eq!(line.str("kind").as_deref(), Some("fda.sign.rx"));
        assert_eq!(line.bool("duplicate"), Some(true));
        assert_eq!(line.str("cause").as_deref(), Some("bus:1230"));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let lines = [
            "{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"frame\":\"rtr\",\
             \"transmitters\":\"{1}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\
             \"arb_losses\":0,\"delivered\":true,\"errored\":false}",
            "{\"t\":55,\"seq\":0,\"node\":2,\"kind\":\"fd.lifesign.rx\",\"of\":1,\
             \"cause\":\"bus:55\"}",
            "{}",
        ];
        for text in lines {
            assert_eq!(Line::parse(text).unwrap().render(), text);
        }
    }

    #[test]
    fn escape_free_fields_borrow_from_the_input() {
        let text = "{\"t\":1,\"kind\":\"fd.suspect\",\"note\":\"plain\"}";
        let line = Line::parse(text).unwrap();
        for (key, _) in line.fields() {
            assert!(matches!(key, Cow::Borrowed(_)), "key {key:?} allocated");
        }
        assert!(matches!(
            line.get("kind"),
            Some(Value::Str(Cow::Borrowed(_)))
        ));
        assert!(matches!(line.str("note"), Some(Cow::Borrowed("plain"))));
    }

    #[test]
    fn escaped_strings_decode_into_owned_values() {
        let text = "{\"a\":\"x\\\"y\"}";
        let line = Line::parse(text).unwrap();
        assert!(matches!(line.get("a"), Some(Value::Str(Cow::Owned(_)))));
        assert_eq!(line.str("a").as_deref(), Some("x\"y"));
    }

    #[test]
    fn escapes_round_trip() {
        let text = "{\"a\":\"x\\\"y\\\\z\\u000a\"}";
        let line = Line::parse(text).unwrap();
        assert_eq!(line.str("a").as_deref(), Some("x\"y\\z\n"));
        assert_eq!(line.render(), text);
    }

    #[test]
    fn multibyte_text_survives_both_paths() {
        // Borrowed path.
        let plain = "{\"a\":\"héllo→w\"}";
        let line = Line::parse(plain).unwrap();
        assert_eq!(line.str("a").as_deref(), Some("héllo→w"));
        assert_eq!(line.render(), plain);
        // Owned path: an escape forces decoding around the multi-byte
        // runs.
        let escaped = "{\"a\":\"hé\\\"llo→w\"}";
        let line = Line::parse(escaped).unwrap();
        assert_eq!(line.str("a").as_deref(), Some("hé\"llo→w"));
        assert_eq!(line.render(), escaped);
    }

    #[test]
    fn nesting_is_rejected() {
        assert!(Line::parse("{\"a\":{\"b\":1}}").is_err());
        assert!(Line::parse("{\"a\":[1]}").is_err());
    }

    #[test]
    fn malformed_input_errors() {
        assert!(Line::parse("").is_err());
        assert!(Line::parse("{\"a\":1").is_err());
        assert!(Line::parse("{\"a\" 1}").is_err());
        assert!(Line::parse("{\"a\":1}x").is_err());
        assert!(Line::parse("{\"a\":\"unterminated}").is_err());
        assert!(
            Line::parse("{\"a\":\"bad\\\\q\"}").is_ok(),
            "escaped backslash then q"
        );
        assert!(Line::parse("{\"a\":\"bad\\u12\"}").is_err());
    }
}
