//! Differential tests of the reader against the two readers it
//! replaced, both kept verbatim here, plus lossless round-trip
//! properties over escape-heavy generated documents.
//!
//! * `seed_unescape` is the original char-by-char string decoder; the
//!   zero-copy rewrite replaced it with a borrowed fast path and a
//!   copy-on-escape slow path.
//! * `reference` is the eager reader — a `Vec` of `(key, value)` pairs
//!   per line, a model built from look-ups on it — that the lazy,
//!   index-only one replaced, with `seed_node_set`, the lenient node-set
//!   reader it read transmitters with.
//!
//! The tests pin the current reader to their observable behaviour:
//! same decoded text, same accept/reject verdict at the same byte,
//! the same fields, records and cause resolution, and byte-identical
//! re-rendering.

mod reference;

/// The node-set reader the reference used, verbatim: it dropped a
/// member it could not read and trimmed any number of braces.
mod seed_node_set {
    /// Parses a `{0,2,5}`-style node-set rendering into sorted node ids.
    pub fn parse_node_set(text: &str) -> Vec<u8> {
        text.trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .collect()
    }
}

use canely_trace::json::{escape_into, Line};
use canely_trace::{CauseRef, Parent, TraceModel};
use proptest::prelude::*;
use std::borrow::Cow;

/// The seed decoder, verbatim: decodes the *content* of a JSON string
/// (no surrounding quotes), one `char` at a time, allocating always.
/// Returns `None` exactly where the old parser reported an error.
fn seed_unescape(raw: &str) -> Option<String> {
    let bytes = raw.as_bytes();
    let mut out = String::new();
    let mut pos = 0;
    loop {
        match bytes.get(pos) {
            None => return Some(out),
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(pos + 1..pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32);
                        match hex {
                            Some(c) => {
                                out.push(c);
                                pos += 4;
                            }
                            None => return None,
                        }
                    }
                    _ => return None,
                }
                pos += 1;
            }
            Some(_) => {
                let c = raw[pos..].chars().next().expect("non-empty");
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
}

/// One building block of a generated escaped-string body: either a
/// plain character or one of the escape forms the parser accepts.
fn arb_token() -> impl Strategy<Value = String> {
    // Selector-weighted choice (the vendored proptest has no
    // `prop_oneof!`): plain text dominates, every escape form and a
    // few multibyte literals appear regularly.
    (0u8..14, any::<u8>(), 0u32..0xD800u32).prop_map(|(selector, byte, code)| match selector {
        0 => "\\\"".to_string(),
        1 => "\\\\".to_string(),
        2 => "\\/".to_string(),
        3 => "\\n".to_string(),
        4 => "\\t".to_string(),
        5 => "\\r".to_string(),
        // A \uXXXX escape for an arbitrary non-surrogate scalar below
        // U+D800 (the only range four hex digits can spell besides the
        // rejected surrogates).
        6 => format!("\\u{code:04x}"),
        7 => "é漢🚍"
            .chars()
            .nth((byte % 3) as usize)
            .unwrap()
            .to_string(),
        // ASCII spelled as an escape, in either case: the exporter's
        // own spelling only for a control character in lower case.
        8 => format!("\\u{:04x}", byte % 0x80),
        9 => format!("\\u{:04X}", byte % 0x20),
        // A plain ASCII character that needs no escaping.
        _ => char::from(0x20 + byte % 0x5e)
            .to_string()
            .replace(['"', '\\'], "x"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over arbitrary escape-heavy string bodies (quotes, backslashes,
    /// `\uXXXX`, control-character escapes, multibyte literals), the
    /// zero-copy parser decodes exactly what the seed's char-by-char
    /// unescape decoded, and errors exactly where it errored.
    #[test]
    fn zero_copy_unescape_matches_seed(tokens in prop::collection::vec(arb_token(), 0..24)) {
        let raw: String = tokens.concat();
        let doc = format!("{{\"v\":\"{raw}\"}}");
        let expected = seed_unescape(&raw);
        assert_same_line(&doc)?;
        match (Line::parse(&doc), expected) {
            (Ok(line), Some(text)) => {
                prop_assert_eq!(line.str("v"), Some(Cow::Borrowed(text.as_ref())));
                // And the decoded value re-renders to the canonical
                // escaping, which decodes back to the same text.
                let rendered = line.render();
                let reparsed = Line::parse(&rendered).expect("rendered line parses");
                prop_assert_eq!(reparsed.str("v"), Some(Cow::Borrowed(text.as_ref())));
            }
            (Err(_), None) => {}
            (got, want) => prop_assert!(
                false,
                "verdicts diverge: new {:?} vs seed {:?} on {:?}",
                got.map(|l| l.render()), want, raw
            ),
        }
    }

    /// Any string the canonical exporter escaping produces — including
    /// raw quotes, backslashes, control characters and multibyte text
    /// in the source — survives a full escape → parse → render →
    /// parse cycle losslessly, and the two renders are byte-identical.
    #[test]
    fn canonical_escaping_round_trips(text in arb_text()) {
        let mut escaped = String::new();
        escape_into(&text, &mut escaped);
        let doc = format!("{{\"v\":\"{escaped}\"}}");
        let line = Line::parse(&doc).expect("canonical escaping parses");
        prop_assert_eq!(line.str("v"), Some(Cow::Borrowed(text.as_ref())));
        let rendered = line.render();
        prop_assert_eq!(&rendered, &doc);
        let again = Line::parse(&rendered).expect("round-tripped line parses");
        prop_assert_eq!(again.render(), rendered);
    }
}

/// Source text for the canonical-escaping round trip: printable
/// ASCII (quotes and backslashes included) salted with raw control
/// characters and multibyte scalars.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (0u8..10, any::<u8>()).prop_map(|(selector, byte)| match selector {
            0 => '"',
            1 => '\\',
            2 => char::from(byte % 0x20),
            3 => ['é', 'ß', '漢', '🚍'][(byte % 4) as usize],
            _ => char::from(0x20 + byte % 0x5f),
        }),
        0..32,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Lines that parse and are not what the exporter would have written —
/// blanks, a foreign escape spelling, a raw tab — re-render to the
/// canonical spelling, which re-renders to itself (it is copied).
#[test]
fn only_a_canonical_line_is_copied_verbatim() {
    for (text, canonical) in [
        ("{ \"a\":1}", "{\"a\":1}"),
        ("{\"a\":1} ", "{\"a\":1}"),
        ("{\"a\":\"x\\/y\"}", "{\"a\":\"x/y\"}"),
        ("{\"a\":\"\\n\"}", "{\"a\":\"\\u000a\"}"),
        ("{\"a\":\"\\u000A\"}", "{\"a\":\"\\u000a\"}"),
        ("{\"a\":\"\\u0041\"}", "{\"a\":\"A\"}"),
        ("{\"a\":\"\\u0022\"}", "{\"a\":\"\\\"\"}"),
        ("{\"a\":\"x\ty\"}", "{\"a\":\"x\\u0009y\"}"),
        ("{\"a\\/\":true}", "{\"a/\":true}"),
        ("{\"t\":1,\"\\u0074\":\"late\"}", "{\"t\":1,\"t\":\"late\"}"),
    ] {
        let line = Line::parse(text).unwrap();
        assert_eq!(line.render(), canonical, "{text}");
        assert_eq!(Line::parse(canonical).unwrap().render(), canonical);
        assert_eq!(
            line.u64("t"),
            text.contains("\"t\":1").then_some(1),
            "the first `t` wins"
        );
    }
}

/// Surrogate half escapes were rejected by the seed parser
/// (`char::from_u32` fails); the zero-copy parser must reject them at
/// the same spot rather than producing mojibake.
#[test]
fn surrogate_escapes_are_rejected_like_the_seed() {
    for raw in ["\\ud800", "\\udfff", "pre\\ud9abpost"] {
        assert!(seed_unescape(raw).is_none(), "seed accepts {raw:?}");
        let doc = format!("{{\"v\":\"{raw}\"}}");
        assert!(Line::parse(&doc).is_err(), "new parser accepts {raw:?}");
    }
}

/// Truncated and malformed escapes: both decoders refuse.
#[test]
fn malformed_escapes_are_rejected_like_the_seed() {
    for raw in ["\\", "\\q", "\\u12", "\\uzzzz", "tail\\"] {
        assert!(seed_unescape(raw).is_none(), "seed accepts {raw:?}");
        let doc = format!("{{\"v\":\"{raw}\"}}");
        assert!(Line::parse(&doc).is_err(), "new parser accepts {raw:?}");
    }
}

/// New reader and reference agree on one line: the verdict (and where
/// a refusal points), what a look-up by name finds, the display fields
/// and the canonical rendering — which spells the whole `(key, value)`
/// sequence.
fn assert_same_line(text: &str) -> Result<(), TestCaseError> {
    let (line, old) = match (Line::parse(text), reference::Line::parse(text)) {
        (Ok(line), Ok(old)) => (line, old),
        (Err(new), Err(old)) => {
            prop_assert_eq!((new.reason, new.at), (old.reason, old.at), "{:?}", text);
            return Ok(());
        }
        (new, old) => {
            return Err(TestCaseError::fail(format!(
                "verdicts diverge on {text:?}: new {new:?} vs reference {old:?}"
            )))
        }
    };
    // `Value` prints alike on both sides: `Num("1")`, `Str("x")`, ….
    for (key, _) in &old.fields {
        prop_assert_eq!(
            line.get(key).map(|v| format!("{v:?}")),
            old.get(key).map(|v| format!("{v:?}")),
            "first `{}` of {:?}",
            key,
            text
        );
        prop_assert_eq!(line.u64(key), old.u64(key));
        prop_assert_eq!(line.str(key), old.str(key).map(Cow::Borrowed));
        prop_assert_eq!(line.bool(key), old.bool(key));
    }
    prop_assert_eq!(line.get("absent"), None);
    let display: Vec<_> = line
        .display_fields()
        .map(|(k, v)| (k.into_owned(), v.into_owned()))
        .collect();
    let old_display: Vec<_> = old
        .display_fields()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    prop_assert_eq!(display, old_display, "{:?}", text);
    prop_assert_eq!(line.render(), old.render(), "{:?}", text);
    Ok(())
}

/// New model and reference agree on one document: the records, what
/// each event's cause resolves to, and the line a refusal names.
fn assert_same_document(text: &str) -> Result<(), TestCaseError> {
    let new = TraceModel::parse(text);
    // The intended differences: a `seg` or `node` above 255 was
    // truncated by the reference and is refused now, on its line.
    if let Err(range) = &new {
        if range.error.reason.ends_with(" is out of range") {
            let line = text
                .lines()
                .nth(range.line - 1)
                .expect("the named line exists");
            // (A line that is also malformed further on was refused
            // by both; the lines before it by neither.)
            if let Ok(old) = reference::Line::parse(line) {
                prop_assert!(
                    [old.u64("seg"), old.u64("node")]
                        .iter()
                        .flatten()
                        .any(|&id| id > 255),
                    "{}: {:?}",
                    range,
                    line
                );
            }
            return assert_same_document(&before(text, range.line));
        }
    }
    // So is a record no export writes, which the reference read.
    if let Some((line, reason, key)) = unwritten(text) {
        let Err(refusal) = &new else {
            return Err(TestCaseError::fail(format!(
                "line {line} ({reason}) is read: {text:?}"
            )));
        };
        prop_assert_eq!(
            (refusal.line, &refusal.error.reason),
            (line, &reason),
            "{:?}",
            text
        );
        let refused = text.lines().nth(line - 1).expect("the named line exists");
        assert_value_ends_at(refused, key, refusal.error.at)?;
        return assert_same_document(&before(text, line));
    }
    let (model, old) = match (new, reference::Model::parse(text)) {
        (Ok(model), Ok(old)) => (model, old),
        (Err(new), Err((line, old))) => {
            prop_assert_eq!(new.line, line, "{:?}", text);
            prop_assert_eq!((new.error.reason, new.error.at), (old.reason, old.at));
            return Ok(());
        }
        (new, old) => {
            return Err(TestCaseError::fail(format!(
                "verdicts diverge on {text:?}: new {:?} vs reference {:?}",
                new.map(|m| m.lines.len()),
                old.map(|m| m.lines.len())
            )))
        }
    };
    prop_assert_eq!(model.lines.len(), old.lines.len());
    let bus: Vec<_> = model
        .bus
        .iter()
        .map(|tx| reference::BusTx {
            line: tx.line(),
            seg: tx.seg(),
            start: tx.start,
            bus_free: tx.bus_free,
            deliver: tx.deliver,
            queued: tx.queued,
            arb_losses: tx.arb_losses,
            mid: model.mid(tx).into_owned(),
            transmitters: model.transmitters(tx).to_vec(),
            delivered: tx.delivered(),
            errored: tx.errored(),
        })
        .collect();
    prop_assert_eq!(&bus, &old.bus, "{:?}", text);
    let events: Vec<_> = model
        .events
        .iter()
        .map(|e| reference::Event {
            line: e.line(),
            seg: e.seg(),
            t: e.t,
            seq: e.seq(),
            node: e.node,
            kind: model.kind_of(e).to_string(),
            cause: e.cause(),
        })
        .collect();
    prop_assert_eq!(&events, &old.events, "{:?}", text);
    for (event, old_event) in model.events.iter().zip(&old.events) {
        let parent = model.parent(event).map(|parent| match parent {
            Parent::Bus(tx) => reference::Parent::Bus(tx.line()),
            Parent::Event(e) => reference::Parent::Event(e.line()),
        });
        prop_assert_eq!(parent, old.parent(old_event), "{:?}", text);
    }
    let rendered: String = old.lines.iter().map(|l| l.render() + "\n").collect();
    prop_assert_eq!(model.to_jsonl(), rendered, "{:?}", text);
    Ok(())
}

/// The lines of `text` before its `line`-th, each `\n`-terminated.
fn before(text: &str, line: usize) -> String {
    text.lines()
        .take(line - 1)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Where the reader refuses a record the reference reads: the first
/// transmission whose transmitters are not one braced set of ids, that
/// is queued after its start or that starts before its segment's bus
/// went idle, or the first event whose cause does not precede it (an
/// `event:S` cause with S at or past its own seq, a `bus:D` one with D
/// after its instant). As its line, the reason and the field whose
/// value the refusal points past. Found from the reference's reading
/// of each line; `None` if a line it refuses comes first.
fn unwritten(text: &str) -> Option<(usize, String, &'static str)> {
    let mut idle = std::collections::HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let line = reference::Line::parse(raw).ok()?;
        if line.str("kind") != Some("bus.tx") {
            let t = line.u64("t").unwrap_or(0);
            let reason = match (line.str("cause").and_then(CauseRef::parse), line.u64("seq")) {
                (Some(CauseRef::Event(s)), Some(seq)) if s >= seq => {
                    format!("cause event:{s} does not precede the event's seq {seq}")
                }
                (Some(CauseRef::Bus(d)), _) if d > t => {
                    format!("cause bus:{d} is after the event's instant {t}")
                }
                _ => continue,
            };
            return Some((i + 1, reason, "cause"));
        }
        if let Some(defect) = line.str("transmitters").and_then(set_defect) {
            return Some((i + 1, format!("transmitters {defect}"), "transmitters"));
        }
        let start = line.u64("t").unwrap_or(0);
        let queued = line.u64("queued").unwrap_or(start);
        if queued > start {
            let reason = format!("queued {queued} is after the transmission start {start}");
            return Some((i + 1, reason, "queued"));
        }
        let idle = idle.entry(line.u64("seg")).or_insert(0);
        if start < *idle {
            let reason =
                format!("transmission at {start} overlaps the one before, busy until {idle}");
            return Some((i + 1, reason, "t"));
        }
        *idle = (*idle).max(line.u64("bus_free").unwrap_or(0));
    }
    None
}

/// What makes `set` other than exactly one pair of braces around zero
/// or more comma-separated decimal ids 0–255: the first member that is
/// not one, or the whole text.
fn set_defect(set: &str) -> Option<String> {
    let Some(members) = set.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return Some(format!("`{set}` is not a `{{…}}` node set"));
    };
    let id = |m: &str| m.bytes().all(|b| b.is_ascii_digit()) && m.parse::<u8>().is_ok();
    (!members.is_empty())
        .then(|| members.split(',').find(|m| !id(m)))
        .flatten()
        .map(|m| format!("`{set}`: member `{m}` is not a node id 0–255"))
}

/// `at` is the byte just past the value of `line`'s first `key` field
/// (0 if it has none): the line cut there and closed reads as an object
/// whose last field is that first `key`.
fn assert_value_ends_at(line: &str, key: &str, at: usize) -> Result<(), TestCaseError> {
    let old = reference::Line::parse(line).expect("the refused line is read");
    if old.get(key).is_none() {
        prop_assert_eq!(at, 0, "{:?}", line);
        return Ok(());
    }
    let closed = format!("{}}}", &line[..at]);
    let head = reference::Line::parse(&closed)
        .map_err(|e| TestCaseError::fail(format!("{e} in {:?} cut at {at}", line)))?;
    let keys: Vec<&str> = head.fields.iter().map(|(k, _)| k.as_ref()).collect();
    prop_assert_eq!(keys.last(), Some(&key), "{:?} cut at {}", line, at);
    prop_assert_eq!(keys.iter().filter(|&&k| k == key).count(), 1);
    Ok(())
}

/// The raw text of a JSON string body, escapes and all.
fn arb_string_body() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_token(), 0..6).prop_map(|tokens| tokens.concat())
}

/// A key as spelled in a line: mostly the schema's envelope keys (so
/// that duplicates are common), some spelled with escapes.
fn arb_key() -> impl Strategy<Value = String> {
    (0usize..20, arb_string_body()).prop_map(|(pick, body)| {
        const KEYS: &[&str] = &[
            "t",
            "seg",
            "seq",
            "node",
            "kind",
            "cause",
            "mid",
            "transmitters",
            "deliver",
            "delivered",
            "suspect",
            "view",
            "\\u0074",
            "kin\\u0064",
            "a\\/b",
            "",
        ];
        KEYS.get(pick).map_or(body, |key| key.to_string())
    })
}

/// A value as spelled in a line: every scalar shape the grammar takes,
/// and nesting, which it refuses.
fn arb_value() -> impl Strategy<Value = String> {
    (0u8..18, any::<u64>(), arb_string_body()).prop_map(|(pick, n, body)| match pick {
        0 => "true".to_string(),
        1 => "false".to_string(),
        2 => n.to_string(),
        3 => (n % 256).to_string(),
        4 => format!("-{}", n % 1000),
        5 => format!("{}.5e+{}", n % 100, n % 7),
        6 => "\"bus.tx\"".to_string(),
        7 => format!("\"bus:{}\"", n % 4000),
        8 => format!("\"event:{}\"", n % 8),
        9 => "{\"a\":1}".to_string(),
        10 => "[1]".to_string(),
        11 => "tru".to_string(),
        12 => "\"x\ty\"".to_string(),
        // Past 19 digits: a `u64` or, mostly, past its range.
        13 => format!("{n}{}", n % 1000),
        14 => format!("1844674407370955161{}", n % 10),
        _ => format!("\"{body}\""),
    })
}

/// What may stand between two tokens: usually nothing.
fn arb_gap() -> impl Strategy<Value = &'static str> {
    (0usize..12).prop_map(|pick| {
        *["", " ", "\t", " \t "]
            .get(pick.saturating_sub(8))
            .unwrap_or(&"")
    })
}

/// One object: canonical when every gap came out empty and every
/// escape is the exporter's, padded or foreign-escaped otherwise.
fn arb_line() -> impl Strategy<Value = String> {
    let field = (
        arb_key(),
        arb_value(),
        arb_gap(),
        arb_gap(),
        arb_gap(),
        arb_gap(),
    );
    (prop::collection::vec(field, 0..7), arb_gap(), arb_gap()).prop_map(|(fields, lead, trail)| {
        let body: Vec<String> = fields
            .into_iter()
            .map(|(key, value, a, b, c, d)| format!("{a}\"{key}\"{b}:{c}{value}{d}"))
            .collect();
        format!("{lead}{{{}}}{trail}", body.join(","))
    })
}

/// The draw behind one exporter-shaped record: its shape, instant,
/// segment, sequence number and node.
type RecordDraw = (u8, u64, u64, u64, u64);

fn arb_record_draw() -> impl Strategy<Value = RecordDraw> {
    (0u8..8, 0u64..12, 0u64..3, 0u64..4, 0u64..8)
}

/// One record in the exporter's own shape (or a blank line), with
/// in-range ids drawn from so few instants and sequence numbers that
/// documents of them repeat keys, record them out of order and
/// resolve causes across lines. A transmission is delivered at its
/// drawn instant; it starts and is queued at `start_queued`, or at that
/// instant. An event's cause precedes it, unless `late` asks for one
/// that does not.
fn exporter_record(
    (pick, t, seg, seq, node): RecordDraw,
    start_queued: Option<(u64, u64)>,
    late: bool,
) -> String {
    let t = t * 250;
    let seg = if seg == 2 {
        String::new()
    } else {
        format!(",\"seg\":{seg}")
    };
    match pick {
        0 | 1 => {
            let (start, queued) = start_queued.unwrap_or((t, t));
            format!(
                "{{\"t\":{start}{seg},\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n{node}]\",\
                 \"transmitters\":\"{{{node},{seq}}}\",\"bus_free\":{},\"deliver\":{t},\
                 \"queued\":{queued},\"arb_losses\":0,\"delivered\":{},\"errored\":false}}",
                start + 60,
                node != 0
            )
        }
        // Numbered from 1, so that an earlier seq exists.
        2..=4 => format!(
            "{{\"t\":{t}{seg},\"seq\":{},\"node\":{node},\"kind\":\"fd.suspect\",\
             \"suspect\":{seq},\"cause\":\"event:{}\"}}",
            seq + 1,
            if late {
                seq + 1 + node % 2
            } else {
                (seq + node) % (seq + 1)
            }
        ),
        5 | 6 => format!(
            "{{\"t\":{t}{seg},\"seq\":{seq},\"node\":{node},\"kind\":\"fd.lifesign.rx\",\
             \"of\":{seq},\"cause\":\"bus:{}\"}}",
            if late {
                t + 250
            } else {
                t.saturating_sub((node % 4) * 250)
            }
        ),
        _ => String::new(),
    }
}

fn arb_record() -> impl Strategy<Value = String> {
    arb_record_draw().prop_map(|draw| exporter_record(draw, None, false))
}

/// A field for an envelope key, to stand first in a record that has
/// its own field of that name: the key plain or escaped, its value of
/// the wrong type, signed, decimal, of over 19 digits or out of range.
fn arb_envelope_field() -> impl Strategy<Value = String> {
    const KEYS: &[&str] = &[
        "t",
        "seg",
        "seq",
        "node",
        "kind",
        "cause",
        "bus_free",
        "deliver",
        "queued",
        "arb_losses",
        "mid",
        "transmitters",
        "delivered",
        "errored",
    ];
    const VALUES: &[&str] = &[
        "-5",
        "-0",
        "1.5",
        "2e3",
        "7E+1",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "0000000000000000000000250",
        "300",
        "255",
        "7",
        "true",
        "false",
        "\"bus.tx\"",
        "\"b\\u0075s.tx\"",
        "\"fd.suspect\"",
        "\"7\"",
        "\"bus:250\"",
        "\"event:1\"",
        "\"{1,2}\"",
        "\"{2,300}\"",
        "\"{{1}}\"",
        "\"{1, 2}\"",
    ];
    (0..KEYS.len(), 0u8..3, 0..VALUES.len()).prop_map(|(key, spelling, value)| {
        let key = KEYS[key];
        let (head, tail) = key.split_at(1);
        let key = match spelling {
            0 => key.to_string(),
            1 => format!("\\u{:04x}{tail}", head.as_bytes()[0]),
            _ => format!("\\u{:04X}{tail}", head.as_bytes()[0]),
        };
        format!("\"{key}\":{}", VALUES[value])
    })
}

/// A line that holds nothing but white space (`str::trim`'s: Unicode's).
fn arb_blank() -> impl Strategy<Value = &'static str> {
    (0usize..8).prop_map(|pick| {
        [
            " ",
            "\t",
            " \t ",
            "\r",
            "\u{b}\u{c}",
            "\u{a0}",
            "\u{3000}",
            "",
        ][pick]
    })
}

/// A document: exporter-shaped records with their transmissions in
/// start order (now and then one that overlaps the transmission before
/// it, or is queued after its start) and their events after their
/// causes (now and then not), some led by a hostile field for an
/// envelope key, some cut short (inside a string, say); generated
/// objects; blank and white-space lines; each `\n`- or
/// `\r\n`-terminated.
fn arb_document() -> impl Strategy<Value = String> {
    let line = (
        0u8..24,
        arb_record_draw(),
        arb_line(),
        arb_envelope_field(),
        (arb_blank(), any::<bool>(), any::<prop::sample::Index>()),
    );
    prop::collection::vec(line, 0..24).prop_map(|lines| {
        let (mut clock, mut last_start) = (0, 0);
        let mut doc = String::new();
        for (pick, draw, line, hostile, (blank, crlf, cut)) in lines {
            clock += 250;
            let start_queued = match pick {
                2 => (last_start + 30, last_start + 30),
                3 => (clock, clock + 5),
                _ => (clock, clock - 20),
            };
            let record = exporter_record(draw, Some(start_queued), pick == 8);
            if draw.0 <= 1 {
                last_start = start_queued.0;
            }
            match pick {
                0 => doc.push_str(&line),
                1 => doc.push_str(blank),
                4..=7 if !record.is_empty() => {
                    doc.push_str(&format!("{{{hostile},{}", &record[1..]));
                }
                9 => doc.push_str(truncated(&record, cut)),
                _ => doc.push_str(&record),
            }
            doc.push_str(if crlf { "\r\n" } else { "\n" });
        }
        doc
    })
}

/// `text` cut at byte `cut` (to the next character boundary).
fn truncated(text: &str, cut: prop::sample::Index) -> &str {
    let mut cut = cut.index(text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut += 1;
    }
    &text[..cut]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated objects — canonical, padded, escape-heavy, with
    /// duplicate and escaped keys, nested and malformed values —
    /// whole and cut anywhere.
    #[test]
    fn lazy_line_matches_the_eager_reference(
        line in arb_line(),
        cut in any::<prop::sample::Index>(),
    ) {
        assert_same_line(&line)?;
        assert_same_line(truncated(&line, cut))?;
    }

    /// Exporter-shaped records, whole and cut anywhere.
    #[test]
    fn exporter_records_match_the_eager_reference(
        record in arb_record(),
        cut in any::<prop::sample::Index>(),
    ) {
        assert_same_line(&record)?;
        assert_same_line(truncated(&record, cut))?;
    }

    #[test]
    fn arbitrary_bytes_match_the_eager_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        assert_same_line(&text)?;
        // Most noise dies at the first byte; inside an object it gets
        // as far as the string and value scanners.
        assert_same_line(&format!("{{\"v\":\"{text}\"}}"))?;
        assert_same_line(&format!("{{\"v\":{text}}}"))?;
    }

    /// Whole documents, and the same documents cut anywhere: the same
    /// records, the same cause resolution, the same refusal.
    #[test]
    fn index_only_model_matches_the_eager_reference(
        doc in arb_document(),
        cut in any::<prop::sample::Index>(),
    ) {
        assert_same_document(&doc)?;
        assert_same_document(truncated(&doc, cut))?;
    }
}
