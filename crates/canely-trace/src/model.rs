//! The in-memory trace model: parsed JSONL lines classified into bus
//! transactions and protocol events, with cause references resolved.
//!
//! The model is an index over the document it was parsed from: where
//! each line lies in it, plus one fixed-size record per bus
//! transaction / protocol event holding the envelope fields the
//! queries join on. A record owns no heap memory: an event's kind is an
//! index into the model's table of kinds, a transmission's mid is a
//! range of its line and its transmitters a range of one pool. Building
//! it costs one pass; every other field is read from its line when a
//! query asks for it.

use std::borrow::Cow;
use std::collections::HashMap;
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

/// Every line of a document, in document order: where each lies in
/// it. A line is handed out as the [`Line`] view of that text.
#[derive(Debug)]
pub struct Lines<'a> {
    doc: &'a str,
    spans: Vec<Span>,
}

/// Where a line lies in its document, and whether its text is already
/// the canonical rendering.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: u32,
    canonical: bool,
}

impl<'a> Lines<'a> {
    /// The number of lines (blank lines are not lines).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the document holds no line.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The lines, in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Line<'a>> + '_ {
        self.spans.iter().map(|span| span.of(self.doc))
    }

    /// The line at `index`, which the model's records know exists.
    fn at(&self, index: u32) -> Line<'a> {
        self.spans[index as usize].of(self.doc)
    }
}

impl Span {
    /// The line this span marks in `doc`.
    fn of(self, doc: &str) -> Line<'_> {
        let end = self.start + self.len as usize;
        Line::validated(&doc[self.start..end], self.canonical)
    }
}

/// An event kind: its index into the model's table of kinds
/// ([`TraceModel::kind`], [`TraceModel::kind_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kind(u16);

/// How many distinct kinds a trace may hold: an event keeps its kind's
/// index in 12 bits.
const MAX_KINDS: usize = 1 << 12;

/// One `bus.tx` record: instants and flags, with its mid a range of
/// its line and its transmitters a range of the model's pool
/// ([`TraceModel::mid`], [`TraceModel::transmitters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTx {
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
    line: u32,
    /// The mid's text between its quotes: where it starts in the line,
    /// and its length.
    mid: (u32, u32),
    /// The transmitters: where they start in the pool, and how many.
    transmitters: (u32, u32),
    seg: u8,
    /// `HAS_SEG`, `HAS_MID`, `MID_ESCAPED`, `DELIVERED`, `ERRORED`.
    flags: u8,
}

const HAS_SEG: u8 = 1;
const HAS_MID: u8 = 1 << 1;
const MID_ESCAPED: u8 = 1 << 2;
const DELIVERED: u8 = 1 << 3;
const ERRORED: u8 = 1 << 4;

impl BusTx {
    /// Index of the backing line in [`TraceModel::lines`].
    pub fn line(&self) -> usize {
        self.line as usize
    }

    /// Segment the transaction happened on (`None` in single-segment
    /// traces, which carry no `seg` field).
    pub fn seg(&self) -> Option<u8> {
        (self.flags & HAS_SEG != 0).then_some(self.seg)
    }

    /// Whether the frame reached consistency.
    pub fn delivered(&self) -> bool {
        self.flags & DELIVERED != 0
    }

    /// Whether an error flag was raised.
    pub fn errored(&self) -> bool {
        self.flags & ERRORED != 0
    }

    /// Queueing-to-transmission delay in bit-times.
    pub fn queue_delay(&self) -> u64 {
        self.start.saturating_sub(self.queued)
    }
}

/// The message-type prefix of a mid, e.g. `FDA` of `FDA[0,n2]`.
pub fn msg_type(mid: &str) -> &str {
    mid.split('[').next().unwrap_or(mid)
}

/// The subject node encoded in a mid (`FDA[0,n2]` → 2), if any.
pub fn subject(mid: &str) -> Option<u8> {
    let inner = mid.split_once('[')?.1.strip_suffix(']')?;
    inner.rsplit_once(",n")?.1.parse().ok()
}

/// One protocol-event record: 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event instant, bit-times.
    pub t: u64,
    seq: u64,
    /// The cause's delivery instant or sequence number.
    cause: u64,
    line: u32,
    /// The kind's index in the low 12 bits, then `HAS_SEG_BIT`,
    /// `HAS_SEQ`, `BUS_CAUSE` and `EVENT_CAUSE`.
    tags: u16,
    /// Emitting node.
    pub node: u8,
    seg: u8,
}

const KIND_BITS: u16 = (MAX_KINDS - 1) as u16;
const HAS_SEG_BIT: u16 = 1 << 12;
const HAS_SEQ: u16 = 1 << 13;
const BUS_CAUSE: u16 = 1 << 14;
const EVENT_CAUSE: u16 = 1 << 15;

impl Event {
    /// Index of the backing line in [`TraceModel::lines`].
    pub fn line(&self) -> usize {
        self.line as usize
    }

    /// Segment the event happened on (`None` in single-segment
    /// traces).
    pub fn seg(&self) -> Option<u8> {
        (self.tags & HAS_SEG_BIT != 0).then_some(self.seg)
    }

    /// Log sequence number (absent in pre-causal traces).
    pub fn seq(&self) -> Option<u64> {
        (self.tags & HAS_SEQ != 0).then_some(self.seq)
    }

    /// The kind, as an index into the model's table
    /// ([`TraceModel::kind_name`]).
    pub fn kind(&self) -> Kind {
        Kind(self.tags & KIND_BITS)
    }

    /// Causal parent, if recorded.
    pub fn cause(&self) -> Option<CauseRef> {
        if self.tags & BUS_CAUSE != 0 {
            Some(CauseRef::Bus(self.cause))
        } else if self.tags & EVENT_CAUSE != 0 {
            Some(CauseRef::Event(self.cause))
        } else {
            None
        }
    }
}

/// A resolved causal parent.
#[derive(Debug, Clone, Copy)]
pub enum Parent<'m> {
    /// The event was triggered by a bus delivery.
    Bus(&'m BusTx),
    /// The event was triggered by a prior protocol event.
    Event(&'m Event),
}

/// A fully parsed trace document, borrowing the text it was parsed
/// from.
#[derive(Debug)]
pub struct TraceModel<'a> {
    /// Every line, in document order (for lossless re-export).
    pub lines: Lines<'a>,
    /// Bus transactions, in document order.
    pub bus: Vec<BusTx>,
    /// Protocol events, in document order.
    pub events: Vec<Event>,
    kinds: Kinds<'a>,
    /// Every transmission's transmitters, one after the other.
    transmitters: Vec<u8>,
    // The two cause-reference look-ups, sorted: the events by
    // `(seg, seq)` and, of the delivered transactions, `(seg,
    // deliver)`. References are segment-local: each segment's log has
    // its own sequence space and its own bus timeline. Each is built
    // when a cause is first resolved: a summary, a phase profile, a
    // Chrome export or a re-export resolves none.
    by_seq: OnceLock<Vec<u32>>,
    by_deliver: OnceLock<Vec<u32>>,
}

/// A record's cause key: its segment and its seq or delivery instant.
type Key = (Option<u8>, u64);

/// A cause look-up: the indices of `records`, 4 bytes each, ordered by
/// the `key` of the record they index, then by index. The order is
/// total, so a stable sort gives what an unstable one would, and it is
/// linear on the runs an export writes: seqs and deliveries ascend,
/// bar a crash marker's seq.
fn look_up(records: impl Iterator<Item = u32>, key: impl Fn(usize) -> Key) -> Vec<u32> {
    let mut index: Vec<u32> = records.collect();
    let order = |&i: &u32| (key(i as usize), i);
    if !index.is_sorted_by_key(order) {
        index.sort_by_key(order);
    }
    index
}

/// The record a sorted `index` holds for `target`: of several, the
/// last in the document.
fn last_of(index: &[u32], key: impl Fn(usize) -> Key, target: Key) -> Option<usize> {
    let end = index.partition_point(|&i| key(i as usize) <= target);
    index[..end]
        .last()
        .map(|&i| i as usize)
        .filter(|&i| key(i) == target)
}

/// The kinds of a model's events, each held once. A kind met again is
/// found through `recent`, a slot per cheap hash of its text, and only
/// a slot that names another kind asks the map.
#[derive(Debug)]
struct Kinds<'a> {
    names: Vec<Cow<'a, str>>,
    index: HashMap<Cow<'a, str>, u16>,
    /// A kind's index plus one, by its slot (0: none yet).
    recent: [u16; 64],
}

impl<'a> Kinds<'a> {
    /// The kind named `name`, added if it is new; `None` once the
    /// table is full.
    #[inline(always)]
    fn intern(&mut self, name: Text<'a>) -> Option<Kind> {
        let name = name.decode();
        // The last eight bytes and the length tell the schema's kinds
        // apart.
        let tail = &name.as_bytes()[name.len().saturating_sub(8)..];
        let word = tail.iter().fold(0u64, |w, &b| w << 8 | u64::from(b));
        let slot = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize ^ (name.len() & 63);
        match self.recent[slot].checked_sub(1) {
            Some(i) if self.names[usize::from(i)] == name => Some(Kind(i)),
            _ => self.look_up(name, slot),
        }
    }

    /// [`Kinds::intern`] past its slot.
    #[cold]
    fn look_up(&mut self, name: Cow<'a, str>, slot: usize) -> Option<Kind> {
        let i = match self.index.get(name.as_ref()) {
            Some(&i) => i,
            None if self.names.len() == MAX_KINDS => return None,
            None => {
                let i = self.names.len() as u16;
                self.names.push(name.clone());
                self.index.insert(name, i);
                i
            }
        };
        self.recent[slot] = i + 1;
        Some(Kind(i))
    }
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
    decimal_id(text.strip_prefix(prefix).unwrap_or(text))
}

/// Parses an id spelled in decimal digits only.
fn decimal_id(digits: &str) -> Option<u8> {
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

/// Parses a `{0,2,5}`-style node set into its ids, in order: exactly
/// one pair of braces around zero or more comma-separated decimal ids
/// 0–255.
///
/// # Errors
///
/// Names the first member that is not an id, or the text if it is not
/// one braced set.
pub fn parse_node_set(text: &str) -> Result<Vec<u8>, String> {
    let mut ids = Vec::new();
    read_node_set(text, &mut ids)?;
    Ok(ids)
}

/// [`parse_node_set`], appending the ids to `out`.
fn read_node_set(text: &str, out: &mut Vec<u8>) -> Result<(), String> {
    let Some(members) = text.strip_prefix('{').and_then(|t| t.strip_suffix('}')) else {
        return Err(format!("`{text}` is not a `{{…}}` node set"));
    };
    if members.is_empty() {
        return Ok(());
    }
    for member in members.split(',') {
        let Some(id) = decimal_id(member) else {
            return Err(format!(
                "`{text}`: member `{member}` is not a node id 0–255"
            ));
        };
        out.push(id);
    }
    Ok(())
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
    /// Where the values of `t`, `kind`, `queued`, `cause`, `mid` and
    /// `transmitters` end: what a refusal points at, and where a mid
    /// lies.
    t_at: usize,
    kind_at: usize,
    queued_at: usize,
    cause_at: usize,
    mid_at: usize,
    transmitters_at: usize,
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

/// `flag` if `set`, else no bit.
fn bit<T: Default>(set: bool, flag: T) -> T {
    if set {
        flag
    } else {
        T::default()
    }
}

/// A refusal of a value that ends at byte `at`.
fn refusal(reason: String, at: usize) -> ParseError {
    ParseError { reason, at }
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
            "kind" if first(seen, 1 << 4, &mut self.kind, text) => self.kind_at = at,
            "cause" if first(seen, 1 << 5, &mut self.cause, text) => self.cause_at = at,
            "bus_free" => _ = first(seen, 1 << 6, &mut self.bus_free, num),
            "deliver" => _ = first(seen, 1 << 7, &mut self.deliver, num),
            "queued" if first(seen, 1 << 8, &mut self.queued, num) => self.queued_at = at,
            "arb_losses" => _ = first(seen, 1 << 9, &mut self.arb_losses, num),
            "mid" if first(seen, 1 << 10, &mut self.mid, text) => self.mid_at = at,
            "transmitters" if first(seen, 1 << 11, &mut self.transmitters, text) => {
                self.transmitters_at = at
            }
            "delivered" => _ = first(seen, 1 << 12, &mut self.delivered, flag),
            "errored" => _ = first(seen, 1 << 13, &mut self.errored, flag),
            _ => {}
        }
        Ok(())
    }

    /// Refuses a cause no export writes, and a causal walk could
    /// circle on: one that does not precede its event. An `event:S`
    /// cause names a lower seq than the event's own, a `bus:D` one a
    /// delivery at or before its instant.
    fn check_cause(&self, cause: Option<CauseRef>, t: u64) -> Result<(), ParseError> {
        match cause {
            Some(CauseRef::Event(s)) if self.seq.is_some_and(|seq| s >= seq) => Err(refusal(
                format!(
                    "cause event:{s} does not precede the event's seq {}",
                    self.seq.unwrap_or(0)
                ),
                self.cause_at,
            )),
            Some(CauseRef::Bus(d)) if d > t => Err(refusal(
                format!("cause bus:{d} is after the event's instant {t}"),
                self.cause_at,
            )),
            _ => Ok(()),
        }
    }

    /// Refuses a transmission no export writes, and would give a phase
    /// profile a negative duration: one queued after it started, or
    /// one that starts while its segment's bus is still busy with the
    /// one before (each segment has one serialized bus). `idle` holds,
    /// per segment, the instant its bus last went idle.
    fn check_transmission(&self, tx: &BusTx, idle: &mut [u64; 257]) -> Result<(), ParseError> {
        if tx.queued > tx.start {
            return Err(refusal(
                format!(
                    "queued {} is after the transmission start {}",
                    tx.queued, tx.start
                ),
                self.queued_at,
            ));
        }
        let idle = &mut idle[tx.seg().map_or(0, |s| usize::from(s) + 1)];
        if tx.start < *idle {
            return Err(refusal(
                format!(
                    "transmission at {} overlaps the one before, busy until {}",
                    tx.start, *idle
                ),
                self.t_at,
            ));
        }
        *idle = (*idle).max(tx.bus_free);
        Ok(())
    }
}

/// Converts a length or an index to the model's `u32`, refusing a
/// document too large for it.
fn narrow(n: usize, what: &str) -> Result<u32, ParseError> {
    u32::try_from(n).map_err(|_| refusal(format!("a trace holds at most {} {what}", u32::MAX), 0))
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
            lines: Lines {
                doc: text,
                spans: Vec::with_capacity(records),
            },
            bus: Vec::new(),
            events: Vec::with_capacity(records),
            kinds: Kinds {
                names: Vec::new(),
                index: HashMap::new(),
                recent: [0; 64],
            },
            transmitters: Vec::new(),
            by_seq: OnceLock::new(),
            by_deliver: OnceLock::new(),
        };
        let mut idle = [0; 257];
        let (mut start, mut lineno) = (0, 0);
        while start < text.len() {
            lineno += 1;
            let rest = &text[start..];
            if !rest.starts_with('{') {
                // Off the exporter's path: a line of white space only
                // (`str::trim`'s) is no line.
                let end = rest.find('\n').unwrap_or(rest.len());
                let raw = &rest[..end];
                if raw.strip_suffix('\r').unwrap_or(raw).trim().is_empty() {
                    start += end + 1;
                    continue;
                }
            }
            let refuse = |error| TraceError {
                line: lineno,
                error,
            };
            // One walk validates the line, fills the envelope and finds
            // the line's end.
            let mut walk = Fields::in_document(rest);
            let mut envelope = Envelope::default();
            while let Some((key, value)) = walk.field() {
                envelope.take(key, value, walk.at()).map_err(refuse)?;
            }
            let next = walk.next_line();
            let line = walk.finish().map_err(refuse)?;
            model
                .push(start, line, &envelope, &mut idle)
                .map_err(refuse)?;
            start += next;
        }
        Ok(model)
    }

    /// Adds the line starting at byte `start` of the document, and the
    /// record its envelope makes.
    fn push(
        &mut self,
        start: usize,
        line: Line<'a>,
        envelope: &Envelope<'a>,
        idle: &mut [u64; 257],
    ) -> Result<(), ParseError> {
        let index = narrow(self.lines.len(), "lines")?;
        // Offsets inside the line, and counts of what it lists, fit too.
        let len = narrow(line.text().len(), "bytes a line")?;
        let seg = envelope.seg.map(|s| s as u8); // in range: checked by the walk
        let t = envelope.t.unwrap_or(0);
        if envelope.kind.is_some_and(|kind| kind.is("bus.tx")) {
            let bus_free = envelope.bus_free.unwrap_or(0);
            let mut flags = bit(seg.is_some(), HAS_SEG)
                | bit(envelope.delivered == Some(true), DELIVERED)
                | bit(envelope.errored == Some(true), ERRORED);
            let mut mid = (0, 0);
            if let Some(text) = envelope.mid {
                // The value ends past its closing quote.
                let mid_len = text.raw.len();
                mid = ((envelope.mid_at - 1 - mid_len) as u32, mid_len as u32);
                flags |= HAS_MID | bit(text.escaped, MID_ESCAPED);
            }
            let from = self.transmitters.len();
            if let Some(set) = envelope.transmitters {
                read_node_set(&set.decode(), &mut self.transmitters).map_err(|reason| {
                    refusal(format!("transmitters {reason}"), envelope.transmitters_at)
                })?;
            }
            let count = (self.transmitters.len() - from) as u32;
            let tx = BusTx {
                start: t,
                bus_free,
                // Pre-profiling traces lack the deliver/queued fields;
                // fall back to the closest older notion.
                deliver: envelope.deliver.unwrap_or(bus_free),
                queued: envelope.queued.unwrap_or(t),
                arb_losses: envelope.arb_losses.unwrap_or(0),
                line: index,
                mid,
                transmitters: (narrow(from, "transmitters")?, count),
                seg: seg.unwrap_or(0),
                flags,
            };
            envelope.check_transmission(&tx, idle)?;
            self.bus.push(tx);
        } else {
            let cause = envelope
                .cause
                .and_then(|cause| CauseRef::parse(&cause.decode()));
            envelope.check_cause(cause, t)?;
            let kind = envelope.kind.unwrap_or(Text {
                raw: "",
                escaped: false,
            });
            let Some(Kind(mut tags)) = self.kinds.intern(kind) else {
                return Err(refusal(
                    format!(
                        "kind `{}` is one more than the {MAX_KINDS} distinct kinds a trace may hold",
                        kind.decode()
                    ),
                    envelope.kind_at,
                ));
            };
            tags |= bit(seg.is_some(), HAS_SEG_BIT) | bit(envelope.seq.is_some(), HAS_SEQ);
            tags |= match cause {
                Some(CauseRef::Bus(_)) => BUS_CAUSE,
                Some(CauseRef::Event(_)) => EVENT_CAUSE,
                None => 0,
            };
            self.events.push(Event {
                t,
                seq: envelope.seq.unwrap_or(0),
                cause: match cause {
                    Some(CauseRef::Bus(n) | CauseRef::Event(n)) => n,
                    None => 0,
                },
                line: index,
                tags,
                node: envelope.node.unwrap_or(0) as u8, // likewise
                seg: seg.unwrap_or(0),
            });
        }
        self.lines.spans.push(Span {
            start,
            len,
            canonical: line.canonical(),
        });
        Ok(())
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
        for line in self.lines.iter() {
            buf.clear();
            line.render_into(&mut buf);
            buf.push(b'\n');
            out.write_all(&buf)?;
        }
        Ok(())
    }

    /// The backing [`Line`] of an event (for variant-specific fields).
    pub fn line_of(&self, event: &Event) -> Line<'a> {
        self.lines.at(event.line)
    }

    /// The kind named `name`, if any event has it.
    pub fn kind(&self, name: &str) -> Option<Kind> {
        self.kinds.index.get(name).map(|&i| Kind(i))
    }

    /// The dotted label of a kind, e.g. `fd.suspect`.
    pub fn kind_name(&self, kind: Kind) -> &str {
        &self.kinds.names[usize::from(kind.0)]
    }

    /// The dotted kind label of an event.
    pub fn kind_of(&self, event: &Event) -> &str {
        self.kind_name(event.kind())
    }

    /// The events of kind `name`, in document order.
    pub fn of_kind(&self, name: &str) -> impl Iterator<Item = &Event> + '_ {
        let kind = self.kind(name);
        self.events.iter().filter(move |e| Some(e.kind()) == kind)
    }

    /// A transmission's message identifier, e.g. `FDA[0,n2]` (`-` if
    /// its line has none).
    pub fn mid(&self, tx: &BusTx) -> Cow<'a, str> {
        if tx.flags & HAS_MID == 0 {
            return Cow::Borrowed("-");
        }
        let (at, len) = (tx.mid.0 as usize, tx.mid.1 as usize);
        Text {
            raw: &self.lines.at(tx.line).text()[at..at + len],
            escaped: tx.flags & MID_ESCAPED != 0,
        }
        .decode()
    }

    /// A transmission's transmitting nodes, as its line lists them.
    pub fn transmitters(&self, tx: &BusTx) -> &[u8] {
        let (from, count) = (tx.transmitters.0 as usize, tx.transmitters.1 as usize);
        &self.transmitters[from..from + count]
    }

    /// The event with log sequence number `seq` (single-segment
    /// traces; see [`TraceModel::event_by_seq_in`]).
    pub fn event_by_seq(&self, seq: u64) -> Option<&Event> {
        self.event_by_seq_in(None, seq)
    }

    /// The event with log sequence number `seq` on segment `seg`.
    pub fn event_by_seq_in(&self, seg: Option<u8>, seq: u64) -> Option<&Event> {
        let key = |i: usize| (self.events[i].seg(), self.events[i].seq);
        let index = self.by_seq.get_or_init(|| {
            let sequenced = (0..).zip(&self.events).filter(|(_, e)| e.seq().is_some());
            look_up(sequenced.map(|(i, _)| i), key)
        });
        last_of(index, key, (seg, seq)).map(|i| &self.events[i])
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// (single-segment traces; see [`TraceModel::bus_by_deliver_in`]).
    pub fn bus_by_deliver(&self, deliver: u64) -> Option<&BusTx> {
        self.bus_by_deliver_in(None, deliver)
    }

    /// The delivered bus transaction with delivery instant `deliver`
    /// on segment `seg`.
    pub fn bus_by_deliver_in(&self, seg: Option<u8>, deliver: u64) -> Option<&BusTx> {
        let key = |i: usize| (self.bus[i].seg(), self.bus[i].deliver);
        let index = self.by_deliver.get_or_init(|| {
            let delivered = (0..).zip(&self.bus).filter(|(_, tx)| tx.delivered());
            look_up(delivered.map(|(i, _)| i), key)
        });
        last_of(index, key, (seg, deliver)).map(|i| &self.bus[i])
    }

    /// Resolves an event's causal parent, if it has one and the
    /// referenced record exists in this document. References are
    /// segment-local: the parent lives on the event's own segment.
    pub fn parent(&self, event: &Event) -> Option<Parent<'_>> {
        match event.cause()? {
            CauseRef::Bus(deliver) => self
                .bus_by_deliver_in(event.seg(), deliver)
                .map(Parent::Bus),
            CauseRef::Event(seq) => self.event_by_seq_in(event.seg(), seq).map(Parent::Event),
        }
    }

    /// The protocol event that queued a frame: the latest matching
    /// transmit-request event at any transmitter, at or before the
    /// transmission start.
    pub fn bus_trigger(&self, tx: &BusTx) -> Option<&Event> {
        let mid = self.mid(tx);
        let kind = match msg_type(&mid) {
            "ELS" => "fd.lifesign.tx",
            "FDA" => "fda.sign.tx",
            "RHA" => "rha.rhv.tx",
            "JOIN" => "msh.join.tx",
            "LEAVE" => "msh.leave.tx",
            _ => return None,
        };
        let transmitters = self.transmitters(tx);
        let failed = subject(&mid);
        self.of_kind(kind)
            .filter(|e| {
                e.seg() == tx.seg()
                    && e.t <= tx.start
                    && transmitters.contains(&e.node)
                    && (kind != "fda.sign.tx"
                        || self.line_of(e).u64("failed").map(|f| f as u8) == failed)
            })
            .max_by_key(|e| (e.t, e.seq()))
    }

    /// Total time the bus of segment `seg` was busy in the half-open
    /// window `[a, b)`.
    pub fn busy_between(&self, seg: Option<u8>, a: u64, b: u64) -> u64 {
        self.bus
            .iter()
            .filter(|tx| tx.seg() == seg)
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

    /// The refusal of `DOC` followed by `line`, if any.
    fn refusal_of(line: &str) -> Option<String> {
        let doc = format!("{DOC}{line}\n");
        TraceModel::parse(&doc).err().map(|e| e.to_string())
    }

    #[test]
    fn classifies_and_indexes_records() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(model.bus.len(), 1);
        assert_eq!(model.events.len(), 5);
        let tx = &model.bus[0];
        assert_eq!(msg_type(&model.mid(tx)), "ELS");
        assert_eq!(subject(&model.mid(tx)), Some(2));
        assert_eq!(model.transmitters(tx), [2]);
        assert_eq!(tx.queue_delay(), 0);
        assert!(model.bus_by_deliver(55).is_some());
        let expired = model.event_by_seq(3).unwrap();
        assert_eq!(model.kind_of(expired), "timer.expired");
        assert_eq!(model.of_kind("timer.expired").count(), 1);
        assert_eq!(model.kind("bus.tx"), None, "a transmission is no event");
    }

    #[test]
    fn records_are_fixed_size_and_own_no_heap_memory() {
        assert!(std::mem::size_of::<Event>() <= 32);
        assert!(!std::mem::needs_drop::<Event>());
        assert!(!std::mem::needs_drop::<BusTx>());
    }

    #[test]
    fn model_borrows_the_document() {
        let model = TraceModel::parse(DOC).unwrap();
        assert!(
            matches!(model.mid(&model.bus[0]), Cow::Borrowed("ELS[0,n2]")),
            "an escape-free mid is a range of its line"
        );
        assert!(model
            .kinds
            .names
            .iter()
            .all(|kind| matches!(kind, Cow::Borrowed(_))));
        let escaped =
            "{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"A\\\"B\"}\n{\"t\":9,\"kind\":\"bus.tx\"}\n";
        let model = TraceModel::parse(escaped).unwrap();
        assert_eq!(model.mid(&model.bus[0]), "A\"B");
        assert_eq!(model.mid(&model.bus[1]), "-");
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
            let line = format!("{{\"t\":1,{ids},\"kind\":\"fd.suspect\"}}");
            assert_eq!(refusal_of(&line).as_deref(), refusal, "{ids}");
        }
    }

    #[test]
    fn a_cause_that_does_not_precede_its_event_is_refused_on_its_line() {
        for (line, refusal) in [
            // An event names a lower seq, a delivery at or before it.
            (
                "{\"t\":60,\"seq\":5,\"kind\":\"x\",\"cause\":\"event:4\"}",
                None,
            ),
            (
                "{\"t\":55,\"seq\":5,\"kind\":\"x\",\"cause\":\"bus:55\"}",
                None,
            ),
            // Without a seq of its own there is nothing to order.
            ("{\"t\":60,\"kind\":\"x\",\"cause\":\"event:9\"}", None),
            (
                "{\"t\":60,\"seq\":5,\"kind\":\"x\",\"cause\":\"event:5\"}",
                Some("line 7: cause event:5 does not precede the event's seq 5 (at byte 44)"),
            ),
            (
                "{\"t\":60,\"seq\":5,\"cause\":\"event:9\",\"kind\":\"x\"}",
                Some("line 7: cause event:9 does not precede the event's seq 5 (at byte 33)"),
            ),
            (
                "{\"t\":5,\"seq\":5,\"kind\":\"x\",\"cause\":\"bus:9\"}",
                Some("line 7: cause bus:9 is after the event's instant 5 (at byte 41)"),
            ),
        ] {
            assert_eq!(refusal_of(line).as_deref(), refusal, "{line}");
        }
    }

    #[test]
    fn transmitter_sets_are_read_strictly() {
        for (set, refusal) in [
            ("{}", None),
            ("{0,255,7}", None),
            (
                "{2,300}",
                Some("transmitters `{2,300}`: member `300` is not a node id 0–255"),
            ),
            (
                "{{2}}",
                Some("transmitters `{{2}}`: member `{2}` is not a node id 0–255"),
            ),
            ("{2, 3}", Some("member ` 3` is not a node id")),
            ("{2,}", Some("member `` is not a node id")),
            ("{+2}", Some("member `+2` is not a node id")),
            ("2", Some("transmitters `2` is not a `{…}` node set")),
            ("{2", Some("transmitters `{2` is not a `{…}` node set")),
        ] {
            let line = format!("{{\"t\":9000,\"kind\":\"bus.tx\",\"transmitters\":\"{set}\"}}");
            let refused = refusal_of(&line);
            match refusal {
                None => assert_eq!(refused, None, "{set}"),
                Some(needle) => {
                    let refused = refused.unwrap_or_default();
                    assert!(refused.starts_with("line 7: "), "{set}: {refused}");
                    assert!(refused.contains(needle), "{set}: {refused}");
                    let at = format!("(at byte {})", 43 + set.len());
                    assert!(refused.ends_with(&at), "{set}: {refused}");
                }
            }
        }
    }

    #[test]
    fn node_set_strings_parse() {
        assert_eq!(parse_node_set("{0,1,3}"), Ok(vec![0, 1, 3]));
        assert_eq!(parse_node_set("{}"), Ok(Vec::new()));
        assert_eq!(parse_node_set("{3,3,1}"), Ok(vec![3, 3, 1]), "as listed");
        for hostile in ["{0,1", "0,1}", "{{1}}", "{1,,2}", "{1,256}", "{ 1}", ""] {
            assert!(parse_node_set(hostile).is_err(), "{hostile}");
        }
    }

    #[test]
    fn the_walk_ends_a_line_where_str_lines_would() {
        let plain = TraceModel::parse(DOC).unwrap();
        let texts: Vec<&str> = plain.lines.iter().map(|line| line.text()).collect();
        for (doc, why) in [
            (DOC.replace('\n', "\r\n"), "CRLF endings"),
            (DOC.replace('\n', "\n\n"), "blank lines"),
            (
                DOC.replace('\n', "\n \t\u{a0}\u{3000}\r\n"),
                "white space only",
            ),
            (
                DOC.replace('\n', "\n\r\n\u{b}\u{c}\r\r\n"),
                "carriage returns",
            ),
            (DOC.trim_end().to_string(), "no final newline"),
        ] {
            let model = TraceModel::parse(&doc).unwrap_or_else(|e| panic!("{why}: {e}"));
            let read: Vec<&str> = model.lines.iter().map(|line| line.text()).collect();
            assert_eq!(read, texts, "{why}");
            assert_eq!(model.to_jsonl(), DOC, "{why}");
        }
        // A carriage return not before a newline is inside the line.
        for (doc, refusal) in [
            (
                "{\"a\":1}\r",
                "line 1: trailing characters after object (at byte 7)",
            ),
            (
                "{\"a\":1}\r\r\n",
                "line 1: trailing characters after object (at byte 7)",
            ),
            (
                "\n{\"a\":\"x\r\n\"}\n",
                "line 2: unterminated string (at byte 7)",
            ),
            (
                "{\"a\":\"x\n\"}\n",
                "line 1: unterminated string (at byte 7)",
            ),
            ("{\"a\":1\r\n}\n", "line 1: expected `,` or `}` (at byte 6)"),
        ] {
            let refused = TraceModel::parse(doc).err().map(|e| e.to_string());
            assert_eq!(refused.as_deref(), Some(refusal), "{doc:?}");
        }
        let control = TraceModel::parse("{\"a\":\"x\ry\"}\r\n").unwrap();
        assert_eq!(control.to_jsonl(), "{\"a\":\"x\\u000dy\"}\n");
    }

    #[test]
    fn a_kind_past_the_table_is_refused_on_its_line() {
        let doc: String = (0..=MAX_KINDS)
            .map(|k| format!("{{\"kind\":\"k{k}\"}}\n"))
            .collect();
        let refused = TraceModel::parse(&doc).unwrap_err();
        assert_eq!(refused.line, MAX_KINDS + 1);
        assert!(refused.error.reason.contains("`k4096`"), "{refused}");
        let fits: String = doc
            .lines()
            .take(MAX_KINDS)
            .map(|l| format!("{l}\n"))
            .collect();
        let model = TraceModel::parse(&fits).unwrap();
        assert_eq!(model.kind_of(&model.events[MAX_KINDS - 1]), "k4095");
    }

    #[test]
    fn parents_resolve_through_both_reference_kinds() {
        let model = TraceModel::parse(DOC).unwrap();
        let suspect = model.events.last().unwrap();
        let Some(Parent::Event(expired)) = model.parent(suspect) else {
            panic!("suspicion should trace to the timer expiry");
        };
        assert_eq!(model.kind_of(expired), "timer.expired");
        let Some(Parent::Event(armed)) = model.parent(expired) else {
            panic!("expiry should trace to the arming");
        };
        assert_eq!(model.kind_of(armed), "timer.armed");
        let Some(Parent::Bus(tx)) = model.parent(armed) else {
            panic!("arming should trace to the life-sign delivery");
        };
        assert_eq!(model.mid(tx), "ELS[0,n2]");
    }

    #[test]
    fn bus_trigger_finds_the_queueing_event() {
        let model = TraceModel::parse(DOC).unwrap();
        let trigger = model.bus_trigger(&model.bus[0]).unwrap();
        assert_eq!(model.kind_of(trigger), "fd.lifesign.tx");
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
    fn a_cause_resolves_to_the_last_record_with_its_key() {
        // A crash marker's seq (9) runs ahead of its neighbours' and seq
        // 1 is written twice: a seq resolves to the last event in the
        // document that carries it.
        let doc = "\
{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":60,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n3]\",\"frame\":\"rtr\",\"transmitters\":\"{3}\",\"bus_free\":118,\"deliver\":115,\"queued\":60,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":10,\"seq\":0,\"node\":2,\"kind\":\"fd.lifesign.tx\"}\n\
{\"t\":20,\"seq\":9,\"node\":3,\"kind\":\"node.crashed\"}\n\
{\"t\":30,\"seq\":1,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2}\n\
{\"t\":40,\"seq\":1,\"node\":1,\"kind\":\"fd.lifesign.rx\",\"of\":2}\n\
{\"t\":50,\"seq\":2,\"node\":1,\"kind\":\"fd.suspect\",\"suspect\":3}\n";
        let model = TraceModel::parse(doc).unwrap();
        let node_of = |seq| model.event_by_seq(seq).map(|e| (e.t, e.node));
        assert_eq!(node_of(0), Some((10, 2)));
        assert_eq!(node_of(1), Some((40, 1)), "the later of two seq 1");
        assert_eq!(node_of(2), Some((50, 1)));
        assert_eq!(node_of(9), Some((20, 3)), "the crash marker");
        for absent in [3, 8, 10] {
            assert_eq!(node_of(absent), None, "seq {absent}");
        }
        assert_eq!(model.event_by_seq_in(Some(0), 1).map(|e| e.t), None);
        let sender = |deliver| {
            model
                .bus_by_deliver(deliver)
                .map(|tx| model.transmitters(tx))
        };
        assert_eq!(sender(55), Some(&[2][..]));
        assert_eq!(sender(115), Some(&[3][..]));
        assert_eq!(sender(58), None);
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
            assert_eq!(tx.seg(), event.seg(), "parent must be segment-local");
        }
        assert!(
            model.bus_by_deliver(55).is_none(),
            "no untagged record at 55"
        );
        assert!(model.bus_by_deliver_in(Some(1), 55).is_some());
    }
}
