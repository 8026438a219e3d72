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

use crate::json::{Line, ParseError, Value};

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
    // sequence space and its own bus timeline.
    by_seq: Vec<(CauseKey, usize)>,
    by_deliver: Vec<(CauseKey, usize)>,
}

type CauseKey = (Option<u8>, u64);

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

/// Parses a (possibly segment-qualified) node reference: `n3` or `3`
/// → `(None, 3)`, `s1:n3` → `(Some(1), 3)`.
pub fn parse_seg_node(text: &str) -> Option<(Option<u8>, u8)> {
    if let Some((seg, node)) = text.split_once(':') {
        let seg = seg.strip_prefix('s')?.parse().ok()?;
        let node = node.trim_start_matches('n').parse().ok()?;
        Some((Some(seg), node))
    } else {
        text.trim_start_matches('n').parse().ok().map(|n| (None, n))
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

/// The slot of an envelope key — the fields [`TraceModel::parse`] reads
/// into a record; every other field stays in its line and is read on
/// demand.
#[inline(always)]
fn envelope_slot(name: &str) -> Option<usize> {
    Some(match name {
        "t" => 0,
        "seg" => 1,
        "seq" => 2,
        "node" => 3,
        "kind" => 4,
        "cause" => 5,
        "bus_free" => 6,
        "deliver" => 7,
        "queued" => 8,
        "arb_losses" => 9,
        "mid" => 10,
        "transmitters" => 11,
        "delivered" => 12,
        "errored" => 13,
        _ => return None,
    })
}

impl<'a> TraceModel<'a> {
    /// Parses a JSONL trace document, borrowing `text`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &'a str) -> Result<TraceModel<'a>, TraceError> {
        // Sized once: a record is a line, and no line that carries an
        // instant is shorter than `{"t":1}` and its newline.
        let newlines = text.matches('\n').count();
        let records = (newlines + 1).min(text.len() / 8 + 1);
        let mut model = TraceModel {
            lines: Vec::with_capacity(records),
            bus: Vec::new(),
            events: Vec::with_capacity(records),
            by_seq: Vec::with_capacity(records),
            by_deliver: Vec::new(),
        };
        for (lineno, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            // One pass validates the line and keeps the first value of
            // each envelope key for the record under construction.
            let mut envelope: [Option<Value<'a>>; 14] = Default::default();
            let line = Line::parse_with(raw, |name, value, at| {
                let Some(slot) = envelope_slot(name).filter(|&slot| envelope[slot].is_none())
                else {
                    return Ok(());
                };
                if let ("seg" | "node", Some(n @ 256..)) = (name, value.as_u64()) {
                    return Err(ParseError {
                        reason: format!("{name} {n} is out of range"),
                        at,
                    });
                }
                envelope[slot] = Some(value);
                Ok(())
            })
            .map_err(|error| TraceError {
                line: lineno + 1,
                error,
            })?;
            let field = |name| envelope[envelope_slot(name).expect("an envelope key")].as_ref();
            let num = |name| field(name).and_then(Value::as_u64);
            let flag = |name| field(name).and_then(Value::as_bool);
            let string = |name| match field(name) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let index = model.lines.len();
            let seg = num("seg").map(|s| s as u8); // in range: checked above
            let t = num("t").unwrap_or(0);
            let kind = string("kind");
            if kind.as_deref() == Some("bus.tx") {
                let bus_free = num("bus_free").unwrap_or(0);
                let tx = BusTx {
                    line: index,
                    seg,
                    start: t,
                    bus_free,
                    // Pre-profiling traces lack the deliver/queued
                    // fields; fall back to the closest older notion.
                    deliver: num("deliver").unwrap_or(bus_free),
                    queued: num("queued").unwrap_or(t),
                    arb_losses: num("arb_losses").unwrap_or(0),
                    mid: string("mid").unwrap_or(Cow::Borrowed("-")),
                    transmitters: string("transmitters")
                        .map(|set| parse_node_set(&set))
                        .unwrap_or_default(),
                    delivered: flag("delivered").unwrap_or(false),
                    errored: flag("errored").unwrap_or(false),
                };
                if tx.delivered {
                    model.by_deliver.push(((seg, tx.deliver), model.bus.len()));
                }
                model.bus.push(tx);
            } else {
                let event = Event {
                    line: index,
                    seg,
                    t,
                    seq: num("seq"),
                    node: num("node").unwrap_or(0) as u8, // likewise
                    kind: kind.unwrap_or(Cow::Borrowed("")),
                    cause: string("cause").and_then(|cause| CauseRef::parse(&cause)),
                };
                if let Some(seq) = event.seq {
                    model.by_seq.push(((seg, seq), model.events.len()));
                }
                model.events.push(event);
            }
            model.lines.push(line);
        }
        // An export is all but sorted this way already.
        model.by_seq.sort_unstable();
        model.by_deliver.sort_unstable();
        Ok(model)
    }

    /// Re-renders the document (one canonical JSON object per line,
    /// trailing newline) — byte-identical to a canonical export, and
    /// of its length: one output buffer, reserved once.
    pub fn to_jsonl(&self) -> String {
        let bytes: usize = self.lines.iter().map(|line| line.text().len() + 1).sum();
        let mut out = String::with_capacity(bytes);
        for line in &self.lines {
            line.render_into(&mut out);
            out.push('\n');
        }
        out
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
        last_of(&self.by_seq, (seg, seq)).map(|i| &self.events[i])
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// (single-segment traces; see [`TraceModel::bus_by_deliver_in`]).
    pub fn bus_by_deliver(&self, deliver: u64) -> Option<&BusTx<'a>> {
        self.bus_by_deliver_in(None, deliver)
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// on segment `seg`.
    pub fn bus_by_deliver_in(&self, seg: Option<u8>, deliver: u64) -> Option<&BusTx<'a>> {
        last_of(&self.by_deliver, (seg, deliver)).map(|i| &self.bus[i])
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

    /// Total bus-busy time overlapping the half-open window `[a, b)`.
    pub fn busy_between(&self, a: u64, b: u64) -> u64 {
        self.bus
            .iter()
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
        assert_eq!(model.busy_between(0, 100), 58);
        assert_eq!(model.busy_between(10, 20), 10);
        assert_eq!(model.busy_between(60, 100), 0);
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
