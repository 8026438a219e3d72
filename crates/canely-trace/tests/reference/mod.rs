//! The reader as it stood before PR 24, kept verbatim as the oracle of
//! `roundtrip.rs`: a line is parsed eagerly into a `Vec` of
//! `(key, value)` pairs and the model is built from `get` look-ups on
//! it. Two things are left out: `escape_into`, which did not change and
//! is imported, and the interning of schema keys, which changed which
//! bytes a key pointed at and nothing a caller could observe.

#![allow(dead_code, missing_docs)]

use super::seed_node_set::parse_node_set;
use canely_trace::json::escape_into;
use canely_trace::model::CauseRef;
use std::borrow::Cow;
use std::collections::HashMap;

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

    /// The value as a string carrying the input lifetime (a cheap
    /// clone for the borrowed fast path), if it is a string.
    pub fn to_str(&self) -> Option<Cow<'a, str>> {
        match self {
            Value::Str(s) => Some(s.clone()),
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

/// One parsed trace line: an ordered list of `(field, value)` pairs
/// borrowing from the parsed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line<'a> {
    /// The fields, in document order.
    pub fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Line<'a> {
    /// The value of a field, if present.
    pub fn get(&self, name: &str) -> Option<&Value<'a>> {
        self.fields
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// An unsigned-integer field.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(Value::as_u64)
    }

    /// A string field.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// A string field carrying the input lifetime (borrowed unless
    /// the value contained escapes).
    pub fn str_cow(&self, name: &str) -> Option<Cow<'a, str>> {
        self.get(name).and_then(Value::to_str)
    }

    /// A boolean field.
    pub fn bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// The variant-specific fields — everything except the envelope
    /// (`t`, `seq`, `node`, `kind`, `cause`) — rendered as display
    /// strings for human-oriented output, allocation-free.
    pub fn display_fields(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields
            .iter()
            .filter(|(k, _)| !matches!(k.as_ref(), "t" | "seq" | "node" | "kind" | "cause"))
            .map(|(k, v)| {
                let rendered = match v {
                    Value::Num(raw) => *raw,
                    Value::Bool(b) => {
                        if *b {
                            "true"
                        } else {
                            "false"
                        }
                    }
                    Value::Str(s) => s.as_ref(),
                };
                (k.as_ref(), rendered)
            })
    }

    /// Renders the line back to its canonical JSON spelling (no
    /// trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(96);
        self.render_into(&mut out);
        out
    }

    /// Appends the canonical JSON spelling to `out` — the
    /// allocation-free path for document re-export, where one output
    /// buffer serves every line.
    pub fn render_into(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(key, out);
            out.push_str("\":");
            value.render(out);
        }
        out.push('}');
    }

    /// Parses one flat JSON object, borrowing keys and escape-free
    /// string values from `text`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or on nesting
    /// (objects and arrays are outside the trace schema).
    pub fn parse(text: &'a str) -> Result<Line<'a>, ParseError> {
        Parser { text, pos: 0 }.object()
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail<T>(&self, reason: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            reason: reason.into(),
            at: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| matches!(b, b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(format!("expected `{}`", byte as char))
        }
    }

    fn object(&mut self) -> Result<Line<'a>, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return self.end(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return self.end(fields);
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    fn end(&mut self, fields: Vec<(Cow<'a, str>, Value<'a>)>) -> Result<Line<'a>, ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.fail("trailing characters after object");
        }
        Ok(Line { fields })
    }

    fn value(&mut self) -> Result<Value<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'{') | Some(b'[') => self.fail("nested values are outside the flat trace schema"),
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                Ok(Value::Num(&self.text[start..self.pos]))
            }
            _ => self.fail("expected a value"),
        }
    }

    fn keyword(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail(format!("expected `{word}`"))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: scan for the closing quote; escape-free content
        // is returned as a borrowed slice of the input (slice bounds
        // always sit on ASCII quote/backslash bytes, so they are
        // valid `str` boundaries).
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    let s = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        // Slow path (a `\` was hit): decode into an owned buffer,
        // copying plain runs wholesale between escapes.
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
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
                    while self.peek().is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }
}

/// One `bus.tx` record as the old model held it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusTx {
    pub line: usize,
    pub seg: Option<u8>,
    pub start: u64,
    pub bus_free: u64,
    pub deliver: u64,
    pub queued: u64,
    pub arb_losses: u64,
    pub mid: String,
    pub transmitters: Vec<u8>,
    pub delivered: bool,
    pub errored: bool,
}

/// One protocol-event record as the old model held it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub line: usize,
    pub seg: Option<u8>,
    pub t: u64,
    pub seq: Option<u64>,
    pub node: u8,
    pub kind: String,
    pub cause: Option<CauseRef>,
}

/// What an event's cause resolved to: the backing line of the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    Bus(usize),
    Event(usize),
}

#[derive(Debug, Default)]
pub struct Model<'a> {
    pub lines: Vec<Line<'a>>,
    pub bus: Vec<BusTx>,
    pub events: Vec<Event>,
    seq_index: HashMap<(Option<u8>, u64), usize>,
    deliver_index: HashMap<(Option<u8>, u64), usize>,
}

impl<'a> Model<'a> {
    /// The old `TraceModel::parse` loop; the error is the 1-based line
    /// number and the line's own error.
    pub fn parse(text: &'a str) -> Result<Model<'a>, (usize, ParseError)> {
        let mut model = Model::default();
        for (lineno, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let line = Line::parse(raw).map_err(|error| (lineno + 1, error))?;
            let index = model.lines.len();
            let seg = line.u64("seg").map(|s| s as u8);
            if line.str("kind") == Some("bus.tx") {
                let bus_free = line.u64("bus_free").unwrap_or(0);
                let tx = BusTx {
                    line: index,
                    seg,
                    start: line.u64("t").unwrap_or(0),
                    bus_free,
                    deliver: line.u64("deliver").unwrap_or(bus_free),
                    queued: line
                        .u64("queued")
                        .unwrap_or_else(|| line.u64("t").unwrap_or(0)),
                    arb_losses: line.u64("arb_losses").unwrap_or(0),
                    mid: line.str("mid").unwrap_or("-").to_string(),
                    transmitters: line
                        .str("transmitters")
                        .map(parse_node_set)
                        .unwrap_or_default(),
                    delivered: line.bool("delivered").unwrap_or(false),
                    errored: line.bool("errored").unwrap_or(false),
                };
                if tx.delivered {
                    model
                        .deliver_index
                        .insert((seg, tx.deliver), model.bus.len());
                }
                model.bus.push(tx);
            } else {
                let event = Event {
                    line: index,
                    seg,
                    t: line.u64("t").unwrap_or(0),
                    seq: line.u64("seq"),
                    node: line.u64("node").unwrap_or(0) as u8,
                    kind: line.str("kind").unwrap_or("").to_string(),
                    cause: line.str("cause").and_then(CauseRef::parse),
                };
                if let Some(seq) = event.seq {
                    model.seq_index.insert((seg, seq), model.events.len());
                }
                model.events.push(event);
            }
            model.lines.push(line);
        }
        Ok(model)
    }

    /// The old `TraceModel::parent`.
    pub fn parent(&self, event: &Event) -> Option<Parent> {
        match event.cause? {
            CauseRef::Bus(deliver) => self
                .deliver_index
                .get(&(event.seg, deliver))
                .map(|&i| Parent::Bus(self.bus[i].line)),
            CauseRef::Event(seq) => self
                .seq_index
                .get(&(event.seg, seq))
                .map(|&i| Parent::Event(self.events[i].line)),
        }
    }
}
