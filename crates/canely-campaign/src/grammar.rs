//! The one line grammar behind both file dialects.
//!
//! `.campaign` specs ([`crate::spec`]) and `.canely` scenarios
//! ([`crate::scenario`]) share a lexical shape — one `keyword arg…`
//! directive per line, `#` starts a comment — and a set of scalar
//! shapes (durations, probabilities, node ids, segment indices,
//! windows). This module is the only code in the workspace that splits
//! a document into lines, that turns a line number into a diagnostic
//! ([`Doc::at`]), and that range-checks those scalars; the CLI's
//! `--option` parsers call the same scalar functions.
//!
//! A dialect is a `pub const` table of [`Keyword`]s — name, argument
//! shape, and the function that applies one line to the dialect's
//! state. [`read`] is the dispatch loop; the documentation gate
//! (`docs/CAMPAIGN_SPEC.md`) reads the same tables.
//!
//! Every scalar parser and [`Line`] accessor fails with a bare message
//! naming the offending word; [`read`] anchors it to the line.

use can_types::{BitTime, FrameFormat, MAX_NODES, MAX_PAYLOAD};
use canely::tags::MAX_SEGMENTS;
use canely::DetectorKind;
use canely_federation::{BridgeKind, RelayFilter};
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// The longest run, and therefore the largest duration or instant, a
/// file or flag may name: one simulated hour (the longest checked-in
/// run is 1.5 s). Keeping every parsed [`BitTime`] under this bound is
/// also what keeps the unchecked `BitTime` arithmetic downstream of
/// the readers from overflowing.
pub const MAX_HORIZON: BitTime = BitTime::new(3_600_000_000);

/// A document being read: its text plus the file name diagnostics
/// should carry (`None`: they read `line N: …` instead of `name:N: …`).
#[derive(Debug, Clone, Copy)]
pub struct Doc<'a> {
    name: Option<&'a str>,
    text: &'a str,
}

impl<'a> Doc<'a> {
    /// A document without a file name.
    pub fn new(text: &'a str) -> Self {
        Doc { name: None, text }
    }

    /// A document read from the named file.
    pub fn named(name: &'a str, text: &'a str) -> Self {
        let name = Some(name);
        Doc { name, text }
    }

    /// The diagnostic for `msg` at line `line`.
    pub fn at(&self, line: usize, msg: impl Display) -> String {
        match self.name {
            Some(name) => format!("{name}:{line}: {msg}"),
            None => format!("line {line}: {msg}"),
        }
    }

    /// The diagnostic for a defect of the document as a whole.
    pub fn whole(&self, msg: impl Display) -> String {
        self.name
            .map_or(msg.to_string(), |name| format!("{name}: {msg}"))
    }

    /// The directives of the document: comments stripped, blank lines
    /// skipped, numbered from 1.
    pub fn lines(&self) -> impl Iterator<Item = Line<'a>> {
        self.text.lines().enumerate().filter_map(|(idx, raw)| {
            let mut words = raw.split('#').next().unwrap_or("").split_whitespace();
            Some(Line {
                no: idx + 1,
                keyword: words.next()?,
                words: words.collect(),
                shape: "",
            })
        })
    }
}

/// One directive: its keyword and argument words.
#[derive(Debug, Clone)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// The first word.
    pub keyword: &'a str,
    /// The remaining words.
    pub words: Vec<&'a str>,
    shape: &'static str,
}

impl<'a> Line<'a> {
    fn expected(&self) -> String {
        format!("expected `{} {}`", self.keyword, self.shape)
    }

    /// Sets `slot` from the first argument (further words are ignored).
    pub fn one<T>(
        &self,
        slot: &mut T,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<(), String> {
        *slot = parse(self.words.first().ok_or_else(|| self.expected())?)?;
        Ok(())
    }

    /// Sets `slot` from all the arguments; there must be at least one.
    pub fn each<T>(
        &self,
        slot: &mut Vec<T>,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<(), String> {
        if self.words.is_empty() {
            return Err(self.expected());
        }
        *slot = self
            .words
            .iter()
            .map(|w| parse(w))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Exactly `N` argument words.
    pub fn exactly<const N: usize>(&self) -> Result<[&'a str; N], String> {
        <[&str; N]>::try_from(self.words.as_slice()).map_err(|_| self.expected())
    }

    /// `NODE TIME`.
    pub fn node_time(&self) -> Result<(u8, BitTime), String> {
        let [node, time] = self.exactly()?;
        Ok((node_id(node)?, parse_duration(time)?))
    }

    /// `FROM UNTIL`, a non-empty window.
    pub fn window(&self) -> Result<(BitTime, BitTime), String> {
        let [from, until] = self.exactly()?;
        window(from, until)
    }
}

/// One keyword of a dialect whose reader state is `S`.
pub struct Keyword<S> {
    /// The keyword.
    pub name: &'static str,
    /// Its argument shape, as documented (`DUR…`, `NODE TIME`, …).
    pub args: &'static str,
    /// Applies one such line to the state.
    pub apply: fn(&mut S, &Line<'_>) -> Result<(), String>,
}

/// Builds a [`Keyword`] table entry.
pub const fn kw<S>(
    name: &'static str,
    args: &'static str,
    apply: fn(&mut S, &Line<'_>) -> Result<(), String>,
) -> Keyword<S> {
    Keyword { name, args, apply }
}

/// Which keyword each directive line carried, in file order — so a
/// check that can only run once the whole document is read still names
/// a line.
#[derive(Debug, Default)]
pub struct Seen(Vec<(&'static str, usize)>);

impl Seen {
    fn lines<'s>(&'s self, keyword: &'s str) -> impl Iterator<Item = usize> + 's {
        let hits = self.0.iter().filter(move |(name, _)| *name == keyword);
        hits.map(|&(_, line)| line)
    }

    /// Whom to blame when the keyword at fault never appeared (its
    /// default is then rarely the culprit): the last directive line,
    /// 1 in an empty document.
    fn fallback(&self) -> usize {
        self.0.last().map_or(1, |&(_, line)| line)
    }

    /// The line of `keyword`'s `i`-th occurrence — entry `i` of what a
    /// repeatable keyword collected.
    pub fn nth(&self, keyword: &str, i: usize) -> usize {
        self.lines(keyword).nth(i).unwrap_or(self.fallback())
    }

    /// The line to blame for `keyword`'s value: its last occurrence.
    pub fn line(&self, keyword: &str) -> usize {
        self.lines(keyword).last().unwrap_or(self.fallback())
    }

    /// Every directive whose keyword is one of `keywords`, in file
    /// order: `(keyword, line)`.
    pub fn all_of<'s>(
        &'s self,
        keywords: &'s [&str],
    ) -> impl Iterator<Item = (&'static str, usize)> + 's {
        let hits = self.0.iter().filter(|(name, _)| keywords.contains(name));
        hits.copied()
    }
}

/// Reads `doc` in the dialect `keywords` into `state`.
///
/// # Errors
///
/// Returns the line-anchored diagnostic of the first unknown keyword
/// or malformed argument.
pub fn read<S>(doc: &Doc<'_>, keywords: &[Keyword<S>], state: &mut S) -> Result<Seen, String> {
    let mut seen = Seen::default();
    for line in doc.lines() {
        let no = line.no;
        let keyword = keywords
            .iter()
            .find(|k| k.name == line.keyword)
            .ok_or_else(|| doc.at(no, format_args!("unknown keyword `{}`", line.keyword)))?;
        let shape = keyword.args;
        (keyword.apply)(state, &Line { shape, ..line }).map_err(|msg| doc.at(no, msg))?;
        seen.0.push((keyword.name, no));
    }
    Ok(seen)
}

/// Parses `30ms` / `2500us` / raw bit-times (1 µs = 1 bit-time at the
/// simulated 1 Mbps), up to [`MAX_HORIZON`].
///
/// # Errors
///
/// Returns a message for a malformed, overflowing or over-long value.
pub fn parse_duration(word: &str) -> Result<BitTime, String> {
    let (digits, scale) = if let Some(d) = word.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = word.strip_suffix("us") {
        (d, 1)
    } else {
        (word, 1)
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{word}`"))?;
    let bits = value
        .checked_mul(scale)
        .ok_or_else(|| format!("duration overflows: `{word}`"))?;
    if bits > MAX_HORIZON.as_u64() {
        return Err(format!("duration `{word}` exceeds one simulated hour"));
    }
    Ok(BitTime::new(bits))
}

/// A cyclic traffic period: a [`parse_duration`] no shorter than the
/// worst-case wire time of its 8-byte frame (else the bus never drains).
pub fn traffic_period(word: &str) -> Result<BitTime, String> {
    let period = parse_duration(word)?;
    let frame = FrameFormat::Extended.worst_case_bits(MAX_PAYLOAD);
    match period.as_u64() {
        0 => Err("traffic period must be positive".to_string()),
        t if t < frame => Err(format!(
            "traffic period `{word}` is shorter than its frame ({frame}us)"
        )),
        _ => Ok(period),
    }
}

/// Renders a duration the way [`parse_duration`] reads it back.
pub fn fmt_duration(t: BitTime) -> String {
    let us = t.as_u64();
    if us >= 1_000 && us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

/// A plain number (seed, degree, budget, gateway id).
pub fn number<T: FromStr>(word: &str) -> Result<T, String> {
    word.parse().map_err(|_| format!("bad number `{word}`"))
}

/// A probability in `[0, 1]`.
pub fn probability(word: &str) -> Result<f64, String> {
    let p = word.parse().ok().filter(|p| (0.0..=1.0).contains(p));
    p.ok_or_else(|| format!("bad probability `{word}`"))
}

fn ranged(word: &str, what: &str, range: RangeInclusive<usize>) -> Result<u8, String> {
    let n = word
        .parse()
        .ok()
        .filter(|&n: &u8| range.contains(&n.into()));
    n.ok_or_else(|| format!("bad {what} `{word}`"))
}

/// A node id in `0..MAX_NODES`.
pub fn node_id(word: &str) -> Result<u8, String> {
    ranged(word, "node id", 0..=MAX_NODES - 1)
}

/// A population size in `min..=MAX_NODES`.
pub fn node_count(word: &str, min: u8) -> Result<u8, String> {
    ranged(word, "node count", min.into()..=MAX_NODES)
}

/// A segment count in `1..=MAX_SEGMENTS`.
pub fn segment_count(word: &str) -> Result<u8, String> {
    ranged(word, "segment count", 1..=MAX_SEGMENTS)
}

/// A segment index in `0..MAX_SEGMENTS`.
pub fn segment_index(word: &str) -> Result<u8, String> {
    ranged(word, "segment index", 0..=MAX_SEGMENTS - 1)
}

/// A non-empty `[from, until)` window.
pub fn window(from: &str, until: &str) -> Result<(BitTime, BitTime), String> {
    let (start, end) = (parse_duration(from)?, parse_duration(until)?);
    if end <= start {
        return Err(format!("empty window `{from} {until}`"));
    }
    Ok((start, end))
}

/// A `node@time` event, e.g. `3@250ms`.
pub fn event(text: &str) -> Result<(u8, BitTime), String> {
    let (node, time) = text
        .split_once('@')
        .ok_or_else(|| format!("expected NODE@TIME, got `{text}`"))?;
    Ok((node_id(node)?, parse_duration(time)?))
}

/// A failure-detector backend key.
pub fn detector(word: &str) -> Result<DetectorKind, String> {
    DetectorKind::from_key(word)
        .ok_or_else(|| format!("unknown detector backend `{word}` (surveillance, swim or add-phi)"))
}

/// A bridge topology key.
pub fn bridge(word: &str) -> Result<BridgeKind, String> {
    BridgeKind::from_key(word)
        .ok_or_else(|| format!("unknown bridge topology `{word}` (expected line/ring/star/full)"))
}

/// A relay filter: `none`, `all` or `below REF`.
pub fn relay(line: &Line<'_>) -> Result<RelayFilter, String> {
    match line.words.as_slice() {
        ["none"] => Ok(RelayFilter::None),
        ["all"] => Ok(RelayFilter::All),
        ["below", bound] => number(bound).map(RelayFilter::Below),
        _ => Err("bad relay filter (expected `none`, `all` or `below <ref>`)".into()),
    }
}

/// Renders a relay filter the way [`relay`] reads it back.
pub fn fmt_relay(filter: RelayFilter) -> String {
    match filter {
        RelayFilter::None => "none".to_string(),
        RelayFilter::All => "all".to_string(),
        RelayFilter::Below(bound) => format!("below {bound}"),
    }
}

/// Federated segments cap at 32 nodes: digest views are 32-bit.
pub fn federated_population(nodes: u8) -> Result<(), String> {
    if nodes > 32 {
        return Err(format!(
            "federated segment populations cap at 32 nodes \
             (digest views are 32-bit), got {nodes}"
        ));
    }
    Ok(())
}

/// The gateway must be a node of every segment.
pub fn gateway_in_segment(gateway: u8, nodes: u8) -> Result<(), String> {
    if gateway >= nodes {
        return Err(format!(
            "gateway node {gateway} outside a {nodes}-node segment"
        ));
    }
    Ok(())
}
