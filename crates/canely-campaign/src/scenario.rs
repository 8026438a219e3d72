//! `.canely` scenario files: one concrete run, read and written here.
//!
//! ```text
//! # factory cell with a failing sensor and a hot spare
//! nodes 7
//! tm 30ms
//! th 5ms
//! traffic 0 2ms      # node 0: 2 ms cyclic traffic
//! traffic 1 5ms
//! crash 2 400ms
//! join 9 600ms
//! leave 6 700ms
//! restart 2 900ms
//! until 1200ms
//! expect-view {0,1,3,4,5,9}
//! ```
//!
//! A file parses to a [`Scenario`]: a [`RunSpec`] plus what only
//! `canelyctl run` can act on — late `join`s, `leave`s, `restart`s,
//! per-node `traffic` periods and the `expect-view` assertion that
//! turns a file into an executable regression test. [`KEYWORDS`] is
//! the whole language; `docs/CAMPAIGN_SPEC.md` tabulates it.
//!
//! `canelyctl run` executes any scenario. The oracle-judged paths —
//! `campaign replay`, and `run` on a file with `segments` above 1 —
//! take the subset [`Scenario::judged`] accepts, which is exactly what
//! [`RunSpec::to_scenario`] writes: counterexamples round-trip
//! losslessly.

use crate::grammar::{
    self, bridge, detector, federated_population, fmt_duration, fmt_relay, gateway_in_segment, kw,
    node_count, node_id, number, parse_duration, probability, relay, segment_count, segment_index,
    traffic_period, window, Doc, Keyword, Line, Seen,
};
use crate::spec::{settled_horizon, Fault, FederationSpec, RunSpec, MIN_JUDGED_NODES};
use can_types::{BitTime, NodeId, NodeSet};
use canely::DetectorKind;
use std::fmt::{self, Write as _};

/// A parsed `.canely` file (or the equivalent built from CLI flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// Everything the campaign engine models. `run.traffic` stays
    /// `None` here — [`Scenario::traffic`] is per node — until
    /// [`Scenario::judged`] folds a uniform one into it.
    pub run: RunSpec,
    /// Cyclic application traffic: `(node, period)`.
    pub traffic: Vec<(u8, BitTime)>,
    /// Late joiners: `(node, power-on instant)`.
    pub joins: Vec<(u8, BitTime)>,
    /// Scheduled leaves: `(node, instant)`.
    pub leaves: Vec<(u8, BitTime)>,
    /// Power-cycles of crashed nodes: `(node, instant)`.
    pub restarts: Vec<(u8, BitTime)>,
    /// The view every in-service node must hold at the horizon.
    pub expect_view: Option<NodeSet>,
}

/// Why [`Scenario::lifecycle_defect`] refuses a node's script line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A `crash`, `leave`, `restart` or `traffic` line for a node the
    /// scenario never creates: neither in `0..nodes` nor a `join`.
    Stray,
    /// A second `join`, `leave` or `traffic` for one node: a node powers
    /// on once, leaves once and runs one traffic period.
    Repeated,
}

/// The fault keywords, in the order a run lists them; all but the
/// first two only mean something between bridged segments.
const FAULTS: [&str; 7] = [
    "crash",
    "inaccessible",
    "seg-crash",
    "gateway-crash",
    "gateway-restart",
    "segment-partition",
    "asymmetric",
];

impl Fault {
    /// The `.canely` keyword that schedules the fault.
    pub(crate) fn keyword(&self) -> &'static str {
        let kind = match self {
            Fault::Crash { seg: 0, .. } => 0,
            Fault::Blackout { .. } => 1,
            Fault::Crash { .. } => 2,
            Fault::GatewayCrash { .. } => 3,
            Fault::GatewayRestart { .. } => 4,
            Fault::Partition { .. } => 5,
            Fault::Asymmetric { .. } => 6,
        };
        FAULTS[kind]
    }
}

/// The fault's `.canely` line.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (keyword, t) = (self.keyword(), fmt_duration);
        match *self {
            Fault::Crash { seg: 0, node, at } => write!(f, "{keyword} {node} {}", t(at)),
            Fault::Crash { seg, node, at } => write!(f, "{keyword} {seg} {node} {}", t(at)),
            Fault::GatewayCrash { seg, at } | Fault::GatewayRestart { seg, at } => {
                write!(f, "{keyword} {seg} {}", t(at))
            }
            Fault::Blackout { from, until } | Fault::Partition { from, until } => {
                write!(f, "{keyword} {} {}", t(from), t(until))
            }
            Fault::Asymmetric {
                from_seg,
                to_seg,
                from,
                until,
            } => write!(f, "{keyword} {from_seg} {to_seg} {} {}", t(from), t(until)),
        }
    }
}

fn fed(s: &mut Scenario) -> &mut FederationSpec {
    s.run.federation.get_or_insert_with(FederationSpec::default)
}

/// The `S AT` arguments of a gateway line.
fn seg_at(line: &Line<'_>) -> Result<(u8, BitTime), String> {
    let [seg, at] = line.exactly()?;
    Ok((segment_index(seg)?, parse_duration(at)?))
}

fn view(line: &Line<'_>) -> Result<NodeSet, String> {
    let spec = line.words.concat();
    let inner = spec
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected {ids,…}")?;
    let mut view = NodeSet::EMPTY;
    for part in inner.split(',').filter(|p| !p.is_empty()) {
        view.insert(NodeId::new(node_id(part)?));
    }
    Ok(view)
}

/// The `.canely` dialect: every keyword, its argument shape, and how
/// it lands in the scenario. `docs/CAMPAIGN_SPEC.md` is gated against
/// this table.
#[rustfmt::skip] // one keyword per line
pub const KEYWORDS: &[Keyword<Scenario>] = &[
    kw("nodes", "N", |s, l| l.one(&mut s.run.nodes, |w| node_count(w, 1))),
    kw("tm", "DUR", |s, l| l.one(&mut s.run.tm, parse_duration)),
    kw("th", "DUR", |s, l| l.one(&mut s.run.th, parse_duration)),
    kw("until", "DUR", |s, l| l.one(&mut s.run.until, parse_duration)),
    kw("seed", "N", |s, l| l.one(&mut s.run.seed, number)),
    kw("error-rate", "P", |s, l| l.one(&mut s.run.consistent_rate, probability)),
    kw("inconsistent-rate", "P", |s, l| l.one(&mut s.run.inconsistent_rate, probability)),
    kw("omission-degree", "K", |s, l| l.one(&mut s.run.omission_degree, number)),
    kw("inconsistent-degree", "J", |s, l| l.one(&mut s.run.inconsistent_degree, number)),
    kw("traffic", "NODE DUR", |s, l| {
        let [node, period] = l.exactly()?;
        s.traffic.push((node_id(node)?, traffic_period(period)?));
        Ok(())
    }),
    kw("crash", "NODE AT", |s, l| {
        l.node_time().map(|(node, at)| s.run.faults.push(Fault::Crash { seg: 0, node, at }))
    }),
    kw("join", "NODE AT", |s, l| l.node_time().map(|v| s.joins.push(v))),
    kw("leave", "NODE AT", |s, l| l.node_time().map(|v| s.leaves.push(v))),
    kw("restart", "NODE AT", |s, l| l.node_time().map(|v| s.restarts.push(v))),
    kw("inaccessible", "FROM UNTIL", |s, l| {
        l.window().map(|(from, until)| s.run.faults.push(Fault::Blackout { from, until }))
    }),
    kw("weaken-fda", "", |s, _| { s.run.weaken_fda = true; Ok(()) }),
    kw("detector", "KEY", |s, l| l.one(&mut s.run.detector, detector)),
    kw("settle", "DUR", |s, l| l.one(&mut s.run.settle, parse_duration)),
    kw("latency-slack", "DUR", |s, l| l.one(&mut s.run.latency_slack, parse_duration)),
    kw("rejoin-slack", "DUR", |s, l| l.one(&mut s.run.rejoin_slack, parse_duration)),
    kw("expect-view", "{IDS}", |s, l| view(l).map(|v| s.expect_view = Some(v))),
    kw("segments", "K", |s, l| l.one(&mut fed(s).segments, segment_count)),
    kw("gateway", "N", |s, l| l.one(&mut fed(s).gateway, number)),
    kw("bridge", "KEY", |s, l| l.one(&mut fed(s).topology, bridge)),
    kw("relay", "FILTER", |s, l| relay(l).map(|filter| fed(s).relay = filter)),
    kw("seg-crash", "S NODE AT", |s, l| {
        let [seg, node, at] = l.exactly()?;
        let (seg, node, at) = (segment_index(seg)?, node_id(node)?, parse_duration(at)?);
        if seg == 0 {
            return Err("seg-crash segment 0: its crashes use plain `crash` lines".into());
        }
        s.run.faults.push(Fault::Crash { seg, node, at });
        Ok(())
    }),
    kw("gateway-crash", "S AT", |s, l| {
        seg_at(l).map(|(seg, at)| s.run.faults.push(Fault::GatewayCrash { seg, at }))
    }),
    kw("gateway-restart", "S AT", |s, l| {
        seg_at(l).map(|(seg, at)| s.run.faults.push(Fault::GatewayRestart { seg, at }))
    }),
    kw("segment-partition", "FROM UNTIL", |s, l| {
        l.window().map(|(from, until)| s.run.faults.push(Fault::Partition { from, until }))
    }),
    kw("asymmetric", "FS TS FROM UNTIL", |s, l| {
        let [from_seg, to_seg, from, until] = l.exactly()?;
        let (from, until) = window(from, until)?;
        let (from_seg, to_seg) = (segment_index(from_seg)?, segment_index(to_seg)?);
        s.run.faults.push(Fault::Asymmetric { from_seg, to_seg, from, until });
        Ok(())
    }),
];

impl Scenario {
    /// Parses an unnamed scenario document (diagnostics read
    /// `line N: …`).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending line.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        Self::read(&Doc::new(text)).map(|(scenario, _)| scenario)
    }

    /// Reads a scenario document, returning with it where each keyword
    /// appeared — what [`Scenario::judged`] needs to name a line.
    ///
    /// # Errors
    ///
    /// Returns a line-anchored diagnostic: malformed or out-of-range
    /// arguments, timing parameters the stack rejects, faults on nodes
    /// or segments the scenario never creates.
    pub fn read(doc: &Doc<'_>) -> Result<(Scenario, Seen), String> {
        let mut scenario = Scenario::default();
        let seen = grammar::read(doc, KEYWORDS, &mut scenario)?;
        scenario
            .finish(&seen)
            .map_err(|(line, msg)| doc.at(line, msg))?;
        Ok((scenario, seen))
    }

    /// The lifecycle check both readers of a single-bus scenario make
    /// (a `.canely` file and the CLI's flags): the first node script
    /// the world could not act on, as `(keyword, index among that
    /// keyword's entries, node, defect)`. Stray victims come first, then
    /// repeats; a second `crash` or `restart` is legal (a node may be
    /// power-cycled again).
    pub fn lifecycle_defect(&self) -> Option<(&'static str, usize, u8, Defect)> {
        let exists = |node: u8| node < self.run.nodes || self.joins.iter().any(|&(n, _)| n == node);
        let crash = |f: &Fault| match *f {
            Fault::Crash { seg: 0, node, at } => Some((node, at)),
            _ => None,
        };
        let crashes: Vec<_> = self.run.faults.iter().filter_map(crash).collect();
        let scripted = [
            ("crash", &crashes),
            ("leave", &self.leaves),
            ("restart", &self.restarts),
            ("traffic", &self.traffic),
        ];
        let stray = scripted.into_iter().find_map(|(keyword, events)| {
            let i = events.iter().position(|&(node, _)| !exists(node))?;
            Some((keyword, i, events[i].0, Defect::Stray))
        });
        let once = [
            ("join", &self.joins),
            ("leave", &self.leaves),
            ("traffic", &self.traffic),
        ];
        let repeated = || {
            once.into_iter().find_map(|(keyword, events)| {
                let mut seen = NodeSet::EMPTY;
                let i = events
                    .iter()
                    .position(|&(node, _)| !seen.insert(NodeId::new(node)))?;
                Some((keyword, i, events[i].0, Defect::Repeated))
            })
        };
        stray.or_else(repeated)
    }

    /// The run's faults, each with the line that scheduled it.
    fn fault_lines<'s>(&'s self, seen: &'s Seen) -> impl Iterator<Item = (Fault, usize)> + 's {
        let lines = seen.all_of(&FAULTS).map(|(_, line)| line);
        self.run.faults.iter().copied().zip(lines)
    }

    /// The checks that need the whole document: `(line, message)` of
    /// the first one that fails.
    fn finish(&mut self, seen: &Seen) -> Result<(), (usize, String)> {
        let run = &self.run;
        if let Err(msg) = run.checked_config() {
            let keyword = if run.th.is_zero() { "th" } else { "tm" };
            return Err((seen.line(keyword), format!("invalid configuration: {msg}")));
        }
        let nodes = run.nodes;
        if let Some((keyword, i, node, defect)) = self.lifecycle_defect() {
            let msg = match defect {
                Defect::Stray => format!("node {node} is neither in 0..{nodes} nor a `join`"),
                Defect::Repeated => format!("node {node} already has a `{keyword}` line"),
            };
            return Err((seen.nth(keyword, i), msg));
        }
        let fed = self.run.federation.take().unwrap_or_default();
        let (segments, gateway) = (fed.segments, fed.gateway);
        if segments == 1 {
            // `segments 1` is the plain single bus: the topology words
            // are moot and a bridge fault has nothing to act on.
            return match seen.all_of(&FAULTS[2..]).next() {
                Some((keyword, line)) => Err((
                    line,
                    format!("`{keyword}` needs a `segments` line with a value > 1"),
                )),
                None => Ok(()),
            };
        }
        federated_population(nodes).map_err(|msg| (seen.line("nodes"), msg))?;
        gateway_in_segment(gateway, nodes).map_err(|msg| (seen.line("gateway"), msg))?;
        let bridged = fed.topology.bridges(segments);
        let crashed_before = |seg: u8, at: BitTime| {
            self.run.faults.iter().any(
                |f| matches!(*f, Fault::GatewayCrash { seg: s, at: tc } if s == seg && tc < at),
            )
        };
        for (fault, line) in self.fault_lines(seen) {
            let keyword = fault.keyword();
            let msg = match fault {
                Fault::Crash { seg, .. }
                | Fault::GatewayCrash { seg, .. }
                | Fault::GatewayRestart { seg, .. }
                    if seg >= segments =>
                {
                    format!("{keyword} segment {seg} outside 0..{segments}")
                }
                Fault::Crash { seg: 1.., node, .. } if node >= nodes => {
                    format!("seg-crash victim {node} outside a {nodes}-node segment")
                }
                Fault::Crash { seg: 0, node, .. } if node == gateway => {
                    "crash victim is the gateway (use `gateway-crash 0 <time>` instead)".into()
                }
                Fault::Crash { node, .. } if node == gateway => {
                    format!("seg-crash victim {node} is the gateway (use `gateway-crash`)")
                }
                Fault::GatewayRestart { seg, at } if !crashed_before(seg, at) => {
                    format!("gateway-restart of segment {seg} has no earlier gateway-crash")
                }
                Fault::Asymmetric {
                    from_seg, to_seg, ..
                } if !bridged.contains(&(from_seg.min(to_seg), from_seg.max(to_seg))) => {
                    format!("asymmetric window names unbridged segments {from_seg} {to_seg}")
                }
                _ => continue,
            };
            return Err((line, msg));
        }
        self.run.federation = Some(fed);
        Ok(())
    }

    /// The run the campaign oracle judges, or — anchored to the line —
    /// why it cannot model this scenario: `join` / `leave` / `restart`
    /// have no oracle model, the horizon must outlast the settle
    /// margin, agreement needs two nodes, and cyclic traffic is one
    /// period on every node or none at all.
    /// `expect-view` is ignored; the oracle derives the expectation.
    ///
    /// # Errors
    ///
    /// Returns the diagnostic of the first line outside that subset.
    pub fn judged(mut self, seen: &Seen, doc: &Doc<'_>) -> Result<RunSpec, String> {
        if let Some((keyword, line)) = seen.all_of(&["join", "leave", "restart"]).next() {
            let msg = format_args!("`{keyword}` schedules have no campaign-oracle model");
            return Err(doc.at(line, msg));
        }
        // The oracle judges detection from observers that booted before
        // the crash; a node crashed at 0ms never boots.
        let at_zero = |&(fault, _): &(Fault, usize)| {
            matches!(fault, Fault::Crash { .. } | Fault::GatewayCrash { .. })
                && fault.last().is_zero()
        };
        if let Some((fault, line)) = self.fault_lines(seen).find(at_zero) {
            let keyword = fault.keyword();
            let msg =
                format_args!("`{keyword}` at 0ms has no campaign-oracle model: crash after boot");
            return Err(doc.at(line, msg));
        }
        if let Err(msg) = settled_horizon(self.run.until, self.run.settle) {
            return Err(doc.at(seen.line("until"), msg));
        }
        let nodes = self.run.nodes;
        if nodes < MIN_JUDGED_NODES {
            let msg = format_args!("the campaign oracle needs at least {MIN_JUDGED_NODES} nodes");
            return Err(doc.at(seen.line("nodes"), msg));
        }
        if let Some(&(_, period)) = self.traffic.first() {
            const ONE_PERIOD: &str =
                "the campaign oracle models `traffic` as one period on every node or none";
            let uniform = fmt_duration(period);
            let mut covered = NodeSet::EMPTY;
            for (i, &(node, p)) in self.traffic.iter().enumerate() {
                // `finish` refused stray and repeated nodes; no `join` gets here.
                if p != period {
                    let msg = format_args!(
                        "{ONE_PERIOD}: `traffic {node} {}` is not each of 0..{nodes} \
                         once at {uniform}",
                        fmt_duration(p)
                    );
                    return Err(doc.at(seen.nth("traffic", i), msg));
                }
                covered.insert(NodeId::new(node));
            }
            if covered.len() < usize::from(nodes) {
                let msg = format_args!("{ONE_PERIOD}: only {covered} of 0..{nodes} have a line");
                return Err(doc.at(seen.nth("traffic", 0), msg));
            }
            self.run.traffic = Some(period);
        }
        Ok(self.run)
    }

    /// Renders the scenario as a `.canely` document that
    /// [`Scenario::parse`]s back to itself: the writer of the dialect.
    pub fn to_text(&self) -> String {
        let run = &self.run;
        let mut out = String::new();
        let _ = writeln!(out, "# canely-campaign run {} (seed {})", run.id, run.seed);
        let _ = writeln!(out, "nodes {}", run.nodes);
        let _ = writeln!(out, "tm {}", fmt_duration(run.tm));
        let _ = writeln!(out, "th {}", fmt_duration(run.th));
        let _ = writeln!(out, "seed {}", run.seed);
        if run.consistent_rate > 0.0 {
            let _ = writeln!(out, "error-rate {}", run.consistent_rate);
        }
        if run.inconsistent_rate > 0.0 {
            let _ = writeln!(out, "inconsistent-rate {}", run.inconsistent_rate);
        }
        let _ = writeln!(out, "omission-degree {}", run.omission_degree);
        let _ = writeln!(out, "inconsistent-degree {}", run.inconsistent_degree);
        let node_events = [
            ("traffic", &self.traffic),
            ("join", &self.joins),
            ("leave", &self.leaves),
            ("restart", &self.restarts),
        ];
        for (keyword, events) in node_events {
            for &(node, at) in events {
                let _ = writeln!(out, "{keyword} {node} {}", fmt_duration(at));
            }
        }
        // The bus faults, then the segment shape, then the bridge ones.
        let (bus, bridged): (Vec<&Fault>, _) = run
            .faults
            .iter()
            .partition(|f| FAULTS[..2].contains(&f.keyword()));
        for fault in bus {
            let _ = writeln!(out, "{fault}");
        }
        if let Some(fed) = &run.federation {
            let _ = writeln!(out, "segments {}", fed.segments);
            let _ = writeln!(out, "gateway {}", fed.gateway);
            let _ = writeln!(out, "bridge {}", fed.topology.key());
            let _ = writeln!(out, "relay {}", fmt_relay(fed.relay));
        }
        for fault in bridged {
            let _ = writeln!(out, "{fault}");
        }
        if run.weaken_fda {
            let _ = writeln!(out, "weaken-fda");
        }
        if run.detector != DetectorKind::Surveillance {
            let _ = writeln!(out, "detector {}", run.detector);
        }
        let _ = writeln!(out, "until {}", fmt_duration(run.until));
        let _ = writeln!(out, "settle {}", fmt_duration(run.settle));
        let _ = writeln!(out, "latency-slack {}", fmt_duration(run.latency_slack));
        let _ = writeln!(out, "rejoin-slack {}", fmt_duration(run.rejoin_slack));
        if let Some(view) = self.expect_view {
            let _ = writeln!(out, "expect-view {view}");
        }
        out
    }
}

impl RunSpec {
    /// Renders the run as a replayable `.canely` scenario document —
    /// the exchange format for counterexamples. `canelyctl run`
    /// replays the schedule; `canelyctl campaign replay` additionally
    /// re-applies the oracle.
    pub fn to_scenario(&self) -> String {
        let traffic = self
            .traffic
            .map(|period| (0..self.nodes).map(move |id| (id, period)));
        let traffic = traffic.into_iter().flatten().collect();
        let run = self.clone();
        Scenario {
            run,
            traffic,
            ..Scenario::default()
        }
        .to_text()
    }

    /// Parses a `.canely` scenario read from the named file into the
    /// run the oracle judges (the inverse of [`RunSpec::to_scenario`]),
    /// reporting errors as `name:line: message`.
    ///
    /// # Errors
    ///
    /// Returns the diagnostic of the first malformed line, or of the
    /// first line outside the subset [`Scenario::judged`] accepts.
    pub fn from_scenario_named(name: &str, text: &str) -> Result<RunSpec, String> {
        Self::judge(&Doc::named(name, text))
    }

    /// [`RunSpec::from_scenario_named`] for an unnamed document
    /// (diagnostics read `line N: …`).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending line.
    pub fn from_scenario(text: &str) -> Result<RunSpec, String> {
        Self::judge(&Doc::new(text))
    }

    fn judge(doc: &Doc<'_>) -> Result<RunSpec, String> {
        let (scenario, seen) = Scenario::read(doc)?;
        scenario.judged(&seen, doc)
    }
}
