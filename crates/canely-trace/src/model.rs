//! The in-memory trace model: parsed JSONL lines classified into bus
//! transactions and protocol events, with cause references resolved.
//!
//! The model is an index over the document it was parsed from: one
//! constant-size entry per line (its validated slice) plus one record
//! per bus transaction / protocol event holding the envelope fields
//! the queries join on (kinds and mids are slices of the input).
//! Building it costs one pass; every other field is read from its
//! line when a query asks for it.

use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::OnceLock;

use crate::json::{Fields, Line, ParseError, Scalar, Text};

/// A cause reference, as spelled in the `cause` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseRef {
    /// `bus:<deliver>` — the transaction delivered at that instant.
    Bus(u64),
    /// `event:<seq>` — the protocol event with that sequence number.
    Event(u64),
}

impl CauseRef {
    /// Parses a `cause` field value.
    pub fn parse(text: &str) -> Option<CauseRef> {
        if let Some(rest) = text.strip_prefix("bus:") {
            rest.parse().ok().map(CauseRef::Bus)
        } else if let Some(rest) = text.strip_prefix("event:") {
            rest.parse().ok().map(CauseRef::Event)
        } else {
            None
        }
    }
}

/// One `bus.tx` record, borrowing from the parsed document.
#[derive(Debug, Clone)]
pub struct BusTx<'a> {
    /// Index of the backing line in [`TraceModel::lines`].
    pub line: usize,
    /// Segment the transaction happened on (`None` in single-segment
    /// traces, which carry no `seg` field).
    pub seg: Option<u8>,
    /// Transmission start (arbitration won), bit-times.
    pub start: u64,
    /// Instant the bus went idle again.
    pub bus_free: u64,
    /// Delivery instant (consistency reached).
    pub deliver: u64,
    /// Instant the frame was first queued at a controller.
    pub queued: u64,
    /// Arbitration rounds lost before this transmission.
    pub arb_losses: u64,
    /// Message identifier, e.g. `FDA[0,n2]` (`-` if unparsed).
    pub mid: Cow<'a, str>,
    /// Transmitting nodes.
    pub transmitters: Vec<u8>,
    /// Whether the frame reached consistency.
    pub delivered: bool,
    /// Whether an error flag was raised.
    pub errored: bool,
}

impl BusTx<'_> {
    /// The message-type prefix of the mid, e.g. `FDA`.
    pub fn msg_type(&self) -> &str {
        self.mid.split('[').next().unwrap_or(&self.mid)
    }

    /// The subject node encoded in the mid (`FDA[0,n2]` → 2), if any.
    pub fn subject(&self) -> Option<u8> {
        let inner = self.mid.split_once('[')?.1.strip_suffix(']')?;
        inner.rsplit_once(",n")?.1.parse().ok()
    }

    /// Queueing-to-transmission delay in bit-times.
    pub fn queue_delay(&self) -> u64 {
        self.start.saturating_sub(self.queued)
    }
}

/// One protocol-event record, borrowing from the parsed document.
#[derive(Debug, Clone)]
pub struct Event<'a> {
    /// Index of the backing line in [`TraceModel::lines`].
    pub line: usize,
    /// Segment the event happened on (`None` in single-segment
    /// traces).
    pub seg: Option<u8>,
    /// Event instant, bit-times.
    pub t: u64,
    /// Log sequence number (absent in pre-causal traces).
    pub seq: Option<u64>,
    /// Emitting node.
    pub node: u8,
    /// Dotted kind label, e.g. `fd.suspect`.
    pub kind: Cow<'a, str>,
    /// Causal parent, if recorded.
    pub cause: Option<CauseRef>,
}

/// A resolved causal parent.
#[derive(Debug, Clone, Copy)]
pub enum Parent<'a> {
    /// The event was triggered by a bus delivery.
    Bus(&'a BusTx<'a>),
    /// The event was triggered by a prior protocol event.
    Event(&'a Event<'a>),
}

/// A fully parsed trace document, borrowing the text it was parsed
/// from.
#[derive(Debug)]
pub struct TraceModel<'a> {
    /// Every line, in document order (for lossless re-export).
    pub lines: Vec<Line<'a>>,
    /// Bus transactions, in document order.
    pub bus: Vec<BusTx<'a>>,
    /// Protocol events, in document order.
    pub events: Vec<Event<'a>>,
    // The two cause-reference look-ups, sorted: `((seg, seq), event)`
    // and, of the delivered transactions, `((seg, deliver), tx)`.
    // References are segment-local: each segment's log has its own
    // sequence space and its own bus timeline. Each is built when a
    // cause is first resolved: a summary, a phase profile, a Chrome
    // export or a re-export resolves none.
    by_seq: OnceLock<Vec<(CauseKey, usize)>>,
    by_deliver: OnceLock<Vec<(CauseKey, usize)>>,
}

type CauseKey = (Option<u8>, u64);

/// A cause look-up over `entries`. An entry carries its record's
/// index, so a stable sort orders them as an unstable one would, and
/// it is linear on the runs an export writes: seqs and deliveries
/// ascend, bar a crash marker's seq.
fn look_up(entries: impl Iterator<Item = (CauseKey, usize)>) -> Vec<(CauseKey, usize)> {
    let mut index: Vec<_> = entries.collect();
    if !index.is_sorted() {
        index.sort();
    }
    index
}

/// The record a sorted `index` holds for `key`: of several, the last
/// in the document.
fn last_of(index: &[(CauseKey, usize)], key: CauseKey) -> Option<usize> {
    let end = index.partition_point(|&(k, _)| k <= key);
    index[..end]
        .last()
        .filter(|&&(k, _)| k == key)
        .map(|&(_, i)| i)
}

/// A line that failed to parse, with its 1-based line number.
#[derive(Debug)]
pub struct TraceError {
    /// 1-based line number within the document.
    pub line: usize,
    /// The underlying JSON error.
    pub error: ParseError,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for TraceError {}

/// Renders a segment-qualified node id: `n3` in single-segment
/// traces, `s1:n3` when the record carries a segment tag.
pub fn seg_node(seg: Option<u8>, node: u8) -> String {
    match seg {
        Some(s) => format!("s{s}:n{node}"),
        None => format!("n{node}"),
    }
}

/// Parses a segment or node id: decimal digits after at most one
/// `prefix` letter, so `3` or `n3` for `'n'`, but not `nn3`, `+3` or
/// `n3:`.
pub fn parse_id(text: &str, prefix: char) -> Option<u8> {
    let digits = text.strip_prefix(prefix).unwrap_or(text);
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parses a (possibly segment-qualified) node reference: `n3` or `3`
/// → `(None, 3)`, `s1:n3` → `(Some(1), 3)`.
pub fn parse_seg_node(text: &str) -> Option<(Option<u8>, u8)> {
    match text.split_once(':') {
        Some((seg, node)) if seg.starts_with('s') => {
            Some((Some(parse_id(seg, 's')?), parse_id(node, 'n')?))
        }
        Some(_) => None,
        None => Some((None, parse_id(text, 'n')?)),
    }
}

/// Parses a `{0,2,5}`-style node-set rendering into sorted node ids.
pub fn parse_node_set(text: &str) -> Vec<u8> {
    text.trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .collect()
}

/// The envelope of one line: of each key a record is built from, the
/// first value, kept if it has the type the record reads (a mistyped
/// one reads as absent). Every other field stays in its line and is
/// read on demand.
#[derive(Default)]
struct Envelope<'a> {
    /// One bit per key met so far: the first field of a name wins.
    seen: u16,
    t: Option<u64>,
    seg: Option<u64>,
    seq: Option<u64>,
    node: Option<u64>,
    bus_free: Option<u64>,
    deliver: Option<u64>,
    queued: Option<u64>,
    arb_losses: Option<u64>,
    kind: Option<Text<'a>>,
    cause: Option<Text<'a>>,
    mid: Option<Text<'a>>,
    transmitters: Option<Text<'a>>,
    delivered: Option<bool>,
    errored: Option<bool>,
    /// Where the values of `t` and `queued` end: what the refusal of a
    /// transmission points at.
    t_at: usize,
    queued_at: usize,
}

/// Fills `slot` from the first field of its name only, `bit` marking
/// the name met; true if this was that field.
#[inline(always)]
fn first<T>(seen: &mut u16, bit: u16, slot: &mut Option<T>, value: Option<T>) -> bool {
    let fresh = *seen & bit == 0;
    if fresh {
        *seen |= bit;
        *slot = value;
    }
    fresh
}

/// Refuses a segment or node id that does not fit the model's byte.
fn byte_id(name: &str, id: Option<u64>, at: usize) -> Result<(), ParseError> {
    match id {
        Some(n @ 256..) => Err(ParseError {
            reason: format!("{name} {n} is out of range"),
            at,
        }),
        _ => Ok(()),
    }
}

impl<'a> Envelope<'a> {
    /// Takes one field as the walk meets it; its value ends at byte
    /// `at`.
    #[inline(always)]
    fn take(&mut self, key: Text<'a>, value: Scalar<'a>, at: usize) -> Result<(), ParseError> {
        let seen = &mut self.seen;
        let (num, text, flag) = (value.u64(), value.text(), value.bool());
        match &*key.decode() {
            "t" if first(seen, 1, &mut self.t, num) => self.t_at = at,
            "seg" if first(seen, 1 << 1, &mut self.seg, num) => return byte_id("seg", num, at),
            "seq" => _ = first(seen, 1 << 2, &mut self.seq, num),
            "node" if first(seen, 1 << 3, &mut self.node, num) => return byte_id("node", num, at),
            "kind" => _ = first(seen, 1 << 4, &mut self.kind, text),
            "cause" => _ = first(seen, 1 << 5, &mut self.cause, text),
            "bus_free" => _ = first(seen, 1 << 6, &mut self.bus_free, num),
            "deliver" => _ = first(seen, 1 << 7, &mut self.deliver, num),
            "queued" if first(seen, 1 << 8, &mut self.queued, num) => self.queued_at = at,
            "arb_losses" => _ = first(seen, 1 << 9, &mut self.arb_losses, num),
            "mid" => _ = first(seen, 1 << 10, &mut self.mid, text),
            "transmitters" => _ = first(seen, 1 << 11, &mut self.transmitters, text),
            "delivered" => _ = first(seen, 1 << 12, &mut self.delivered, flag),
            "errored" => _ = first(seen, 1 << 13, &mut self.errored, flag),
            _ => {}
        }
        Ok(())
    }

    /// Refuses a transmission no export writes, and would give a phase
    /// profile a negative duration: one queued after it started, or
    /// one that starts while its segment's bus is still busy with the
    /// one before (each segment has one serialized bus). `idle` holds,
    /// per segment, the instant its bus last went idle.
    fn check_transmission(&self, tx: &BusTx<'_>, idle: &mut [u64; 257]) -> Result<(), ParseError> {
        if tx.queued > tx.start {
            return Err(ParseError {
                reason: format!(
                    "queued {} is after the transmission start {}",
                    tx.queued, tx.start
                ),
                at: self.queued_at,
            });
        }
        let idle = &mut idle[tx.seg.map_or(0, |s| usize::from(s) + 1)];
        if tx.start < *idle {
            return Err(ParseError {
                reason: format!(
                    "transmission at {} overlaps the one before, busy until {}",
                    tx.start, *idle
                ),
                at: self.t_at,
            });
        }
        *idle = (*idle).max(tx.bus_free);
        Ok(())
    }
}

impl<'a> TraceModel<'a> {
    /// Parses a JSONL trace document, borrowing `text`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &'a str) -> Result<TraceModel<'a>, TraceError> {
        // Sized once from the length, no newline count: the exporter's
        // lines average over 100 bytes, so an export fills `lines` and
        // `events` without regrowing them.
        let records = text.len() / 100 + 1;
        let mut model = TraceModel {
            lines: Vec::with_capacity(records),
            bus: Vec::new(),
            events: Vec::with_capacity(records),
            by_seq: OnceLock::new(),
            by_deliver: OnceLock::new(),
        };
        let mut idle = [0; 257];
        for (lineno, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let refuse = |error| TraceError {
                line: lineno + 1,
                error,
            };
            // One walk validates the line and fills the envelope.
            let mut walk = Fields::new(raw);
            let mut envelope = Envelope::default();
            while let Some((key, value)) = walk.field() {
                envelope.take(key, value, walk.at()).map_err(refuse)?;
            }
            let line = walk.finish().map_err(refuse)?;
            let index = model.lines.len();
            let seg = envelope.seg.map(|s| s as u8); // in range: checked above
            let t = envelope.t.unwrap_or(0);
            if envelope.kind.is_some_and(|kind| kind.is("bus.tx")) {
                let bus_free = envelope.bus_free.unwrap_or(0);
                let tx = BusTx {
                    line: index,
                    seg,
                    start: t,
                    bus_free,
                    // Pre-profiling traces lack the deliver/queued
                    // fields; fall back to the closest older notion.
                    deliver: envelope.deliver.unwrap_or(bus_free),
                    queued: envelope.queued.unwrap_or(t),
                    arb_losses: envelope.arb_losses.unwrap_or(0),
                    mid: envelope.mid.map_or(Cow::Borrowed("-"), Text::decode),
                    transmitters: envelope
                        .transmitters
                        .map(|set| parse_node_set(&set.decode()))
                        .unwrap_or_default(),
                    delivered: envelope.delivered.unwrap_or(false),
                    errored: envelope.errored.unwrap_or(false),
                };
                envelope
                    .check_transmission(&tx, &mut idle)
                    .map_err(refuse)?;
                model.bus.push(tx);
            } else {
                let event = Event {
                    line: index,
                    seg,
                    t,
                    seq: envelope.seq,
                    node: envelope.node.unwrap_or(0) as u8, // likewise
                    kind: envelope.kind.map_or(Cow::Borrowed(""), Text::decode),
                    cause: envelope
                        .cause
                        .and_then(|cause| CauseRef::parse(&cause.decode())),
                };
                model.events.push(event);
            }
            model.lines.push(line);
        }
        Ok(model)
    }

    /// Re-renders the document into a `String` reserved once at the
    /// document's length: [`TraceModel::write_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let bytes: usize = self.lines.iter().map(|line| line.text().len() + 1).sum();
        let mut out = Vec::with_capacity(bytes);
        self.write_jsonl(&mut out)
            .expect("a `Vec` takes every write");
        String::from_utf8(out).expect("a rendering is made of `str` pieces")
    }

    /// Writes the document to `out`, one canonical JSON object per line
    /// with a trailing newline — byte-identical to a canonical export.
    /// A canonical line goes out as its text; a line the exporter would
    /// have spelled otherwise is re-rendered into one reused buffer.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_jsonl<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        let mut buf = Vec::new();
        for line in &self.lines {
            buf.clear();
            line.render_into(&mut buf);
            buf.push(b'\n');
            out.write_all(&buf)?;
        }
        Ok(())
    }

    /// The backing [`Line`] of an event (for variant-specific fields).
    pub fn line_of(&self, event: &Event<'_>) -> &Line<'a> {
        &self.lines[event.line]
    }

    /// The event with log sequence number `seq` (single-segment
    /// traces; see [`TraceModel::event_by_seq_in`]).
    pub fn event_by_seq(&self, seq: u64) -> Option<&Event<'a>> {
        self.event_by_seq_in(None, seq)
    }

    /// The event with log sequence number `seq` on segment `seg`.
    pub fn event_by_seq_in(&self, seg: Option<u8>, seq: u64) -> Option<&Event<'a>> {
        let index = self.by_seq.get_or_init(|| {
            look_up(
                self.events
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| Some(((e.seg, e.seq?), i))),
            )
        });
        last_of(index, (seg, seq)).map(|i| &self.events[i])
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// (single-segment traces; see [`TraceModel::bus_by_deliver_in`]).
    pub fn bus_by_deliver(&self, deliver: u64) -> Option<&BusTx<'a>> {
        self.bus_by_deliver_in(None, deliver)
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// on segment `seg`.
    pub fn bus_by_deliver_in(&self, seg: Option<u8>, deliver: u64) -> Option<&BusTx<'a>> {
        let index = self.by_deliver.get_or_init(|| {
            let delivered = self.bus.iter().enumerate().filter(|(_, tx)| tx.delivered);
            look_up(delivered.map(|(i, tx)| ((tx.seg, tx.deliver), i)))
        });
        last_of(index, (seg, deliver)).map(|i| &self.bus[i])
    }

    /// Resolves an event's causal parent, if it has one and the
    /// referenced record exists in this document. References are
    /// segment-local: the parent lives on the event's own segment.
    pub fn parent(&self, event: &Event<'_>) -> Option<Parent<'_>> {
        match event.cause? {
            CauseRef::Bus(deliver) => self.bus_by_deliver_in(event.seg, deliver).map(Parent::Bus),
            CauseRef::Event(seq) => self.event_by_seq_in(event.seg, seq).map(Parent::Event),
        }
    }

    /// The protocol event that queued a frame: the latest matching
    /// transmit-request event at any transmitter, at or before the
    /// transmission start.
    pub fn bus_trigger(&self, tx: &BusTx<'_>) -> Option<&Event<'a>> {
        let kind = match tx.msg_type() {
            "ELS" => "fd.lifesign.tx",
            "FDA" => "fda.sign.tx",
            "RHA" => "rha.rhv.tx",
            "JOIN" => "msh.join.tx",
            "LEAVE" => "msh.leave.tx",
            _ => return None,
        };
        self.events
            .iter()
            .filter(|e| {
                e.kind == kind
                    && e.seg == tx.seg
                    && e.t <= tx.start
                    && tx.transmitters.contains(&e.node)
                    && (tx.msg_type() != "FDA"
                        || self.line_of(e).u64("failed").map(|f| f as u8) == tx.subject())
            })
            .max_by_key(|e| (e.t, e.seq))
    }

    /// Total time the bus of segment `seg` was busy in the half-open
    /// window `[a, b)`.
    pub fn busy_between(&self, seg: Option<u8>, a: u64, b: u64) -> u64 {
        self.bus
            .iter()
            .filter(|tx| tx.seg == seg)
            .map(|tx| tx.bus_free.min(b).saturating_sub(tx.start.max(a)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":0,\"seq\":0,\"node\":2,\"kind\":\"fd.lifesign.tx\"}\n\
{\"t\":55,\"seq\":1,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2,\"cause\":\"bus:55\"}\n\
{\"t\":55,\"seq\":2,\"node\":0,\"kind\":\"timer.armed\",\"timer\":\"surveillance:2\",\"deadline\":5055,\"cause\":\"bus:55\"}\n\
{\"t\":5055,\"seq\":3,\"node\":0,\"kind\":\"timer.expired\",\"timer\":\"surveillance:2\",\"cause\":\"event:2\"}\n\
{\"t\":5055,\"seq\":4,\"node\":0,\"kind\":\"fd.suspect\",\"suspect\":2,\"cause\":\"event:3\"}\n";

    #[test]
    fn classifies_and_indexes_records() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(model.bus.len(), 1);
        assert_eq!(model.events.len(), 5);
        let tx = &model.bus[0];
        assert_eq!(tx.msg_type(), "ELS");
        assert_eq!(tx.subject(), Some(2));
        assert_eq!(tx.transmitters, vec![2]);
        assert_eq!(tx.queue_delay(), 0);
        assert!(model.bus_by_deliver(55).is_some());
        assert_eq!(model.event_by_seq(3).unwrap().kind, "timer.expired");
    }

    #[test]
    fn model_borrows_the_document() {
        let model = TraceModel::parse(DOC).unwrap();
        assert!(
            matches!(model.bus[0].mid, Cow::Borrowed(_)),
            "escape-free mids are borrowed slices of the input"
        );
        assert!(model
            .events
            .iter()
            .all(|e| matches!(e.kind, Cow::Borrowed(_))));
    }

    #[test]
    fn ids_beyond_a_byte_are_refused_on_their_line() {
        for (ids, refusal) in [
            ("\"seg\":255,\"node\":255", None),
            (
                "\"seg\":256,\"node\":0",
                Some("line 7: seg 256 is out of range (at byte 16)"),
            ),
            (
                "\"seg\":0,\"node\":300",
                Some("line 7: node 300 is out of range (at byte 25)"),
            ),
            // Only the value a look-up would find is an id.
            ("\"node\":2,\"node\":300", None),
        ] {
            let doc = format!("{DOC}{{\"t\":1,{ids},\"kind\":\"fd.suspect\"}}\n");
            let refused = TraceModel::parse(&doc).err().map(|e| e.to_string());
            assert_eq!(refused.as_deref(), refusal, "{ids}");
        }
    }

    #[test]
    fn parents_resolve_through_both_reference_kinds() {
        let model = TraceModel::parse(DOC).unwrap();
        let suspect = model.events.last().unwrap();
        let Some(Parent::Event(expired)) = model.parent(suspect) else {
            panic!("suspicion should trace to the timer expiry");
        };
        assert_eq!(expired.kind, "timer.expired");
        let Some(Parent::Event(armed)) = model.parent(expired) else {
            panic!("expiry should trace to the arming");
        };
        assert_eq!(armed.kind, "timer.armed");
        let Some(Parent::Bus(tx)) = model.parent(armed) else {
            panic!("arming should trace to the life-sign delivery");
        };
        assert_eq!(tx.mid, "ELS[0,n2]");
    }

    #[test]
    fn bus_trigger_finds_the_queueing_event() {
        let model = TraceModel::parse(DOC).unwrap();
        let trigger = model.bus_trigger(&model.bus[0]).unwrap();
        assert_eq!(trigger.kind, "fd.lifesign.tx");
        assert_eq!(trigger.node, 2);
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(model.to_jsonl(), DOC);
    }

    #[test]
    fn busy_time_clips_to_the_window() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(model.busy_between(None, 0, 100), 58);
        assert_eq!(model.busy_between(None, 10, 20), 10);
        assert_eq!(model.busy_between(None, 60, 100), 0);
        assert_eq!(model.busy_between(Some(0), 0, 100), 0);
    }

    #[test]
    fn node_set_strings_parse() {
        assert_eq!(parse_node_set("{0,1,3}"), vec![0, 1, 3]);
        assert_eq!(parse_node_set("{}"), Vec::<u8>::new());
    }

    #[test]
    fn seg_node_references_render_and_parse() {
        assert_eq!(seg_node(None, 3), "n3");
        assert_eq!(seg_node(Some(1), 3), "s1:n3");
        assert_eq!(parse_seg_node("3"), Some((None, 3)));
        assert_eq!(parse_seg_node("n3"), Some((None, 3)));
        assert_eq!(parse_seg_node("s1:n3"), Some((Some(1), 3)));
        assert_eq!(parse_seg_node("s1:3"), Some((Some(1), 3)));
        assert_eq!(parse_seg_node("x1:n3"), None);
        for hostile in ["nn3", "ss1:n3", "s1:nn3", "1:n3", "+3", "n", "s1:n3:n4", ""] {
            assert_eq!(parse_seg_node(hostile), None, "{hostile}");
        }
        assert_eq!(parse_id("s2", 's'), Some(2));
        assert_eq!(parse_id("ss2", 's'), None);
    }

    #[test]
    fn cause_references_resolve_segment_locally() {
        // Two segments with colliding seq numbers and delivery
        // instants: each event must resolve to the parent on its own
        // segment.
        let doc = "\
{\"t\":0,\"seg\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":0,\"seg\":1,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"frame\":\"rtr\",\"transmitters\":\"{1}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":55,\"seg\":0,\"seq\":0,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2,\"cause\":\"bus:55\"}\n\
{\"t\":55,\"seg\":1,\"seq\":0,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":1,\"cause\":\"bus:55\"}\n";
        let model = TraceModel::parse(doc).unwrap();
        for event in &model.events {
            let Some(Parent::Bus(tx)) = model.parent(event) else {
                panic!("cause should resolve");
            };
            assert_eq!(tx.seg, event.seg, "parent must be segment-local");
        }
        assert!(
            model.bus_by_deliver(55).is_none(),
            "no untagged record at 55"
        );
        assert!(model.bus_by_deliver_in(Some(1), 55).is_some());
    }
}
