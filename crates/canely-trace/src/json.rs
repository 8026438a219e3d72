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
//! One scanner reads every line: its walk validates the text in a
//! single pass and meets each field as slices of it — a
//! key or a string value as the bytes between its quotes, a number as
//! its spelling plus the `u64` its digits made while they were scanned.
//! Blanks, escapes and signed, decimal or overlong numbers are slow
//! branches of that walk. Only a string that actually holds an escape
//! is decoded, into an owned buffer, and only when it is asked for; the
//! schema exporter escapes nothing but quotes, backslashes and control
//! characters, so in practice every field borrows.
//!
//! A parsed [`Line`] is a *validated view* of the text it was parsed
//! from: it holds the slice and nothing else, and every accessor
//! re-walks it.

use std::borrow::Cow;

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

/// Appends `s` with the canonical escaping of the trace exporter
/// (quote, backslash and control characters only).
pub fn escape_into(s: &str, out: &mut String) {
    escaped(s, |part| out.push_str(part));
}

/// [`escape_into`] a byte buffer.
pub(crate) fn escape_bytes(s: &str, out: &mut Vec<u8>) {
    escaped(s, |part| out.extend_from_slice(part.as_bytes()));
}

/// Hands `s`, canonically escaped, to `push` in parts: runs of plain
/// characters go in one piece instead of char by char.
fn escaped(s: &str, mut push: impl FnMut(&str)) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        push(&s[plain..i]);
        match b {
            b'"' => push("\\\""),
            b'\\' => push("\\\\"),
            c => {
                let code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(c >> 4)],
                    HEX[usize::from(c & 15)],
                ];
                push(std::str::from_utf8(&code).expect("an ASCII escape"));
            }
        }
        plain = i + 1;
    }
    push(&s[plain..]);
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

/// A string as the walk met it: the text between its quotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Text<'a> {
    pub(crate) raw: &'a str,
    /// Whether `raw` holds an escape; if not, it is the string itself.
    pub(crate) escaped: bool,
}

impl<'a> Text<'a> {
    /// The string: `raw` itself, or `raw` decoded by the walk that
    /// validated it when it holds an escape.
    #[inline(always)]
    pub(crate) fn decode(self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(self.unescape())
        } else {
            Cow::Borrowed(self.raw)
        }
    }

    #[cold]
    fn unescape(self) -> String {
        let mut out = String::with_capacity(self.raw.len());
        // Validated when the line was parsed: the walk cannot fail.
        let _ = Fields::new(self.raw).content(Some(&mut out));
        out
    }

    /// Whether the string is `name`.
    pub(crate) fn is(self, name: &str) -> bool {
        self.decode() == name
    }
}

/// A value as the walk met it: its spelling, its shape and, for a
/// number, the integer its digits made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scalar<'a> {
    /// A number's or boolean's spelling, a string's text between its
    /// quotes.
    raw: &'a str,
    shape: Shape,
    /// A number's value, if its spelling is an unsigned integer that
    /// fits a `u64`.
    int: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Num,
    Bool,
    /// A string, and whether it holds an escape.
    Str(bool),
}

impl<'a> Scalar<'a> {
    /// The value as an unsigned integer, if it is one.
    #[inline(always)]
    pub(crate) fn u64(self) -> Option<u64> {
        self.int
    }

    /// The value as a boolean, if it is one.
    #[inline(always)]
    pub(crate) fn bool(self) -> Option<bool> {
        (self.shape == Shape::Bool).then_some(self.raw == "true")
    }

    /// The value as a string, if it is one.
    #[inline(always)]
    pub(crate) fn text(self) -> Option<Text<'a>> {
        match self.shape {
            Shape::Str(escaped) => Some(Text {
                raw: self.raw,
                escaped,
            }),
            _ => None,
        }
    }

    /// The value as display text: a number's spelling, `true` /
    /// `false`, a string's content.
    pub(crate) fn display(self) -> Cow<'a, str> {
        match self.text() {
            Some(text) => text.decode(),
            None => Cow::Borrowed(self.raw),
        }
    }

    /// Appends the display text, escaped as a JSON string's content.
    /// On a canonical line (see [`Line::canonical`]) a string's text is
    /// that escaping already, and every value goes out as spelled.
    pub(crate) fn escape_display(self, canonical: bool, out: &mut Vec<u8>) {
        match self.text() {
            Some(text) if !canonical => escape_bytes(&text.decode(), out),
            _ => out.extend_from_slice(self.raw.as_bytes()),
        }
    }

    fn value(self) -> Value<'a> {
        match self.shape {
            Shape::Num => Value::Num(self.raw),
            Shape::Bool => Value::Bool(self.raw == "true"),
            Shape::Str(_) => Value::Str(self.display()),
        }
    }

    /// Appends the canonical JSON spelling.
    fn render(self, out: &mut Vec<u8>) {
        match self.text() {
            Some(text) => {
                out.push(b'"');
                escape_bytes(&text.decode(), out);
                out.push(b'"');
            }
            None => out.extend_from_slice(self.raw.as_bytes()),
        }
    }
}

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
        let mut walk = Fields::new(text);
        while walk.field().is_some() {}
        walk.finish()
    }

    /// A line the walk has already validated: `canonical` is what that
    /// walk found.
    pub(crate) fn validated(text: &'a str, canonical: bool) -> Line<'a> {
        Line { text, canonical }
    }

    /// The text the line was parsed from.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Whether the text is already the canonical rendering: no blank
    /// skipped between tokens, every escape in the exporter's spelling
    /// and no raw control character inside a string.
    pub(crate) fn canonical(&self) -> bool {
        self.canonical
    }

    /// The walk over the fields, in document order.
    pub(crate) fn fields(&self) -> Fields<'a> {
        Fields::new(self.text)
    }

    /// The first value of `name` as the walk meets it: no other field
    /// is decoded on the way.
    fn scalar(&self, name: &str) -> Option<Scalar<'a>> {
        let mut walk = self.fields();
        std::iter::from_fn(|| walk.field())
            .find(|(key, _)| key.is(name))
            .map(|(_, value)| value)
    }

    /// The value of a field, if present.
    pub fn get(&self, name: &str) -> Option<Value<'a>> {
        self.scalar(name).map(Scalar::value)
    }

    /// An unsigned-integer field.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.scalar(name)?.u64()
    }

    /// A string field (borrowed unless the value contained escapes).
    pub fn str(&self, name: &str) -> Option<Cow<'a, str>> {
        Some(self.scalar(name)?.text()?.decode())
    }

    /// A boolean field.
    pub fn bool(&self, name: &str) -> Option<bool> {
        self.scalar(name)?.bool()
    }

    /// The variant-specific fields — everything except the envelope
    /// (`t`, `seq`, `node`, `kind`, `cause`) — rendered as display
    /// strings for human-oriented output.
    pub fn display_fields(&self) -> impl Iterator<Item = (Cow<'a, str>, Cow<'a, str>)> {
        let mut walk = self.fields();
        std::iter::from_fn(move || walk.field())
            .map(|(key, value)| (key.decode(), value))
            .filter(|(key, _)| !matches!(key.as_ref(), "t" | "seq" | "node" | "kind" | "cause"))
            .map(|(key, value)| (key, value.display()))
    }

    /// Renders the line back to its canonical JSON spelling (no
    /// trailing newline).
    pub fn render(&self) -> String {
        let mut out = Vec::with_capacity(self.text.len());
        self.render_into(&mut out);
        String::from_utf8(out).expect("a rendering is made of `str` pieces")
    }

    /// Appends the canonical JSON spelling to `out`: the text itself
    /// where the scan proved it canonical, a re-rendering of its
    /// fields otherwise.
    pub fn render_into(&self, out: &mut Vec<u8>) {
        if self.canonical {
            out.extend_from_slice(self.text.as_bytes());
            return;
        }
        out.push(b'{');
        let mut walk = self.fields();
        let mut first = true;
        while let Some((key, value)) = walk.field() {
            if !std::mem::take(&mut first) {
                out.push(b',');
            }
            out.push(b'"');
            escape_bytes(&key.decode(), out);
            out.extend_from_slice(b"\":");
            value.render(out);
        }
        out.push(b'}');
    }
}

/// The scanner behind [`Line`]: meets the `(key, value)` pairs in
/// document order ([`Fields::field`]). Its walk ends at the closing
/// brace or at the first defect, which [`Line::parse`] — that drives it
/// to the end once — then reports; over a `Line` it cannot fail.
///
/// A walk over a document ([`Fields::in_document`]) reads the line its
/// text starts with: a `\n`, or a `\r\n`, ends the line as the end of
/// the text ends it, and everything a defect names lies inside it.
#[derive(Debug, Clone)]
pub(crate) struct Fields<'a> {
    text: &'a str,
    pos: usize,
    canonical: bool,
    done: bool,
    error: Option<ParseError>,
    /// Whether a newline ends the line (else it is a control byte).
    document: bool,
    /// Where the line ends, once the walk has read its closing brace.
    end: usize,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Fields {
            text,
            pos: 0,
            canonical: true,
            done: false,
            error: None,
            document: false,
            end: 0,
        }
    }

    /// The walk over the line `text` starts with, the rest of a
    /// document.
    pub(crate) fn in_document(text: &'a str) -> Self {
        Fields {
            document: true,
            ..Fields::new(text)
        }
    }

    /// The walk: the next field, its key and value as the text spells
    /// them, leaving the walk just past the value.
    #[inline(always)]
    pub(crate) fn field(&mut self) -> Option<(Text<'a>, Scalar<'a>)> {
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
                if self.pos != self.text.len() && self.newline_at(self.pos) == 0 {
                    return self.fail("trailing characters after object");
                }
                self.end = self.pos;
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

    /// Where the walk stands: just past the last value it met.
    pub(crate) fn at(&self) -> usize {
        self.pos
    }

    /// Where the next line starts: past the newline that ends a
    /// document's line read to its end.
    pub(crate) fn next_line(&self) -> usize {
        self.end + self.newline_at(self.end)
    }

    /// The length of the newline at `at`: 1 for `\n`, 2 for `\r\n`, 0
    /// for anything else or outside a document.
    #[inline(always)]
    fn newline_at(&self, at: usize) -> usize {
        match self.text.as_bytes().get(at..at + 2) {
            _ if !self.document => 0,
            Some([b'\r', b'\n']) => 2,
            _ => usize::from(self.text.as_bytes().get(at) == Some(&b'\n')),
        }
    }

    /// The line, once [`Fields::field`] has returned `None`: validated
    /// to its end, or refused at its first defect.
    pub(crate) fn finish(self) -> Result<Line<'a>, ParseError> {
        match self.error {
            Some(error) => Err(error),
            None => Ok(Line {
                text: &self.text[..self.end],
                canonical: self.canonical,
            }),
        }
    }

    /// Ends the walk at a defect: `None` for the caller's `?`.
    #[cold]
    #[inline(always)]
    fn fail<T>(&mut self, reason: impl Into<String>) -> Option<T> {
        self.done = true;
        self.error = Some(ParseError {
            reason: reason.into(),
            at: self.pos,
        });
        None
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips blanks; the exporter writes none.
    #[inline(always)]
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| matches!(b, b' ' | b'\t')) {
            self.pos += 1;
            self.canonical = false;
        }
    }

    #[inline(always)]
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

    #[inline(always)]
    fn value(&mut self) -> Option<Scalar<'a>> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let Text { raw, escaped } = self.string()?;
                Some(Scalar {
                    raw,
                    shape: Shape::Str(escaped),
                    int: None,
                })
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => Some(self.number()),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'{') | Some(b'[') => self.fail("nested values are outside the flat trace schema"),
            _ => self.fail("expected a value"),
        }
    }

    /// A number, from its first byte (a digit or `-`): its digits
    /// become a `u64` as they are scanned. A sign, a fraction, an
    /// exponent or a value past `u64::MAX` is kept as spelled, with no
    /// integer.
    #[inline(always)]
    fn number(&mut self) -> Scalar<'a> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(digit) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit));
            self.pos += 1;
        }
        let mut n = Some(n);
        if self.pos - start > 19 {
            n = bytes[start..self.pos].iter().try_fold(0u64, |n, &b| {
                n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
            });
        }
        let odd = |b: &u8| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        if self.pos == start || bytes.get(self.pos).is_some_and(odd) {
            n = None;
            while bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_digit() || odd(b))
            {
                self.pos += 1;
            }
        }
        Scalar {
            raw: &self.text[start..self.pos],
            shape: Shape::Num,
            int: n,
        }
    }

    fn keyword(&mut self, word: &'static str) -> Option<Scalar<'a>> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(Scalar {
                raw: word,
                shape: Shape::Bool,
                int: None,
            })
        } else {
            self.fail(format!("expected `{word}`"))
        }
    }

    /// A string, from its opening quote to just past its closing one.
    #[inline(always)]
    fn string(&mut self) -> Option<Text<'a>> {
        self.expect(b'"')?;
        let start = self.pos;
        let escaped = self.content(None)?;
        if self.peek() != Some(b'"') {
            return self.fail("unterminated string");
        }
        // Slice bounds sit on ASCII quote bytes: valid `str` boundaries.
        let raw = &self.text[start..self.pos];
        self.pos += 1;
        Some(Text { raw, escaped })
    }

    /// Walks a string's content up to its closing quote (or the end of
    /// the text), checking each escape, and decodes it into `out` if
    /// given. Returns whether the content holds an escape.
    #[inline(always)]
    fn content(&mut self, mut out: Option<&mut String>) -> Option<bool> {
        let mut escaped = false;
        loop {
            let run = self.pos;
            self.plain_run();
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..self.pos]);
            }
            if self.peek() != Some(b'\\') {
                return Some(escaped);
            }
            escaped = true;
            let c = self.escape()?;
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// Advances to the next quote or backslash (or the end of the
    /// line), noting a raw control character on the way: the exporter
    /// would have escaped it.
    #[inline(always)]
    fn plain_run(&mut self) {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x8080_8080_8080_8080;
        let bytes = self.text.as_bytes();
        loop {
            // Eight bytes at a time: the high bit of a byte is set in
            // `stops` where the byte is a quote, a backslash or below
            // 0x20. A borrow only carries upwards, so the lowest set
            // bit marks the first such byte.
            if let Some(word) = bytes.get(self.pos..self.pos + 8) {
                let v = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                let zero = |x: u64| x.wrapping_sub(ONES) & !x;
                let below_space = v.wrapping_sub(ONES * 0x20) & !v;
                let stops = (zero(v ^ (ONES * u64::from(b'"')))
                    | zero(v ^ (ONES * u64::from(b'\\')))
                    | below_space)
                    & HIGH;
                if stops == 0 {
                    self.pos += 8;
                    continue;
                }
                self.pos += stops.trailing_zeros() as usize / 8;
            } else {
                while bytes
                    .get(self.pos)
                    .is_some_and(|&b| b >= 0x20 && b != b'"' && b != b'\\')
                {
                    self.pos += 1;
                }
            }
            match bytes.get(self.pos) {
                Some(&b) if b < 0x20 && self.newline_at(self.pos) == 0 => {
                    self.canonical = false;
                    self.pos += 1;
                }
                _ => return,
            }
        }
    }

    /// Reads the escape whose backslash is at `pos` and steps past it,
    /// noting one the exporter would not have written: it spells only
    /// `\"`, `\\` and a control character's lower-case `\u00xx`.
    #[cold]
    fn escape(&mut self) -> Option<char> {
        self.pos += 1;
        let escape = self.peek();
        self.canonical &= matches!(escape, Some(b'"' | b'\\' | b'u'));
        let c = match escape {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5);
                let decoded = hex
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32);
                let Some(c) = decoded else {
                    return self.fail("bad \\u escape");
                };
                self.canonical &= c < ' '
                    && hex.is_some_and(|h| h.starts_with(b"00") && !h[3].is_ascii_uppercase());
                self.pos += 4;
                c
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Some(c)
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
        let mut walk = line.fields();
        while let Some((key, _)) = walk.field() {
            let key = key.decode();
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

    #[test]
    fn a_string_stops_at_its_first_quote_backslash_or_control_byte() {
        // The plain run reads eight bytes at a time: put each stop byte
        // at every offset of the first words, after one- to four-byte
        // characters.
        for lead in ["", "é", "漢", "🚍"] {
            for offset in 0..20 {
                let head = format!("{lead}{}", "x".repeat(offset));
                for (stop, decoded, rendered) in [
                    ("\\\"", "\"", "\\\""),
                    ("\\\\", "\\", "\\\\"),
                    ("\t", "\t", "\\u0009"),
                    ("\u{1f}", "\u{1f}", "\\u001f"),
                ] {
                    let text = format!("{{\"a\":\"{head}{stop}yz\"}}");
                    let line = Line::parse(&text).unwrap();
                    let value = format!("{head}{decoded}yz");
                    assert_eq!(line.str("a").as_deref(), Some(value.as_str()), "{text}");
                    assert_eq!(line.render(), format!("{{\"a\":\"{head}{rendered}yz\"}}"));
                }
                let cut = format!("{{\"a\":\"{head}\"x\"}}");
                let error = Line::parse(&cut).unwrap_err();
                assert_eq!(
                    (error.reason.as_str(), error.at),
                    ("expected `,` or `}`", 7 + head.len())
                );
            }
        }
    }

    #[test]
    fn digits_make_a_u64_only_when_the_spelling_is_one() {
        for (spelling, n) in [
            ("0", Some(0)),
            ("007", Some(7)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("123456789012345678901234", None),
            ("-3", None),
            ("-", None),
            ("1.5", None),
            ("2e3", None),
            ("12-3", None),
        ] {
            let text = format!("{{\"n\":{spelling}}}");
            let line = Line::parse(&text).unwrap();
            assert_eq!(line.u64("n"), n, "{spelling}");
            assert_eq!(line.u64("n"), spelling.parse().ok(), "{spelling}");
            assert_eq!(line.get("n"), Some(Value::Num(spelling)));
            assert_eq!(line.render(), text);
        }
    }
}
