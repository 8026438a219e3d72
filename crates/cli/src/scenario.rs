//! Scenario files: a line-based description of a whole experiment,
//! runnable with `canelyctl run <file>`.
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
//! Lines are `keyword args…`; `#` starts a comment. The optional
//! `expect-view` assertion makes scenario files usable as executable
//! regression tests.
//!
//! The fault-injection vocabulary of `canely-campaign` counterexamples
//! is a superset of the original language and replays here untouched:
//! `inaccessible FROM UNTIL` schedules a bus blackout,
//! `inconsistent-rate P` / `omission-degree K` / `inconsistent-degree J`
//! configure the stochastic injector (MCAN3/LCAN4 bounds),
//! `weaken-fda` opts into the deliberately broken failure-detection
//! mutant, and `detector surveillance|swim|add-phi` selects the
//! failure-detector backend (see `docs/DETECTORS.md`). The campaign-oracle knobs `settle` and `latency-slack` are
//! validated but ignored by `run` — `canelyctl campaign replay`
//! re-judges them.

use crate::args::{parse_duration, ArgError};
use crate::render;
use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::ObsLog;
use canely::{CanelyConfig, CanelyStack, DetectorKind, ProtocolEvent, TrafficConfig};
use std::fmt::Write as _;

/// A parsed scenario.
#[derive(Debug, Default)]
pub struct Scenario {
    nodes: u8,
    tm: Option<BitTime>,
    th: Option<BitTime>,
    until: Option<BitTime>,
    seed: u64,
    error_rate: f64,
    inconsistent_rate: f64,
    omission_degree: Option<u32>,
    inconsistent_degree: Option<u32>,
    weaken_fda: bool,
    detector: Option<DetectorKind>,
    traffic: Vec<(u8, BitTime)>,
    crashes: Vec<(u8, BitTime)>,
    joins: Vec<(u8, BitTime)>,
    leaves: Vec<(u8, BitTime)>,
    restarts: Vec<(u8, BitTime)>,
    inaccessibility: Vec<(BitTime, BitTime)>,
    expect_view: Option<NodeSet>,
}

fn err<T>(line_no: usize, msg: impl std::fmt::Display) -> Result<T, ArgError> {
    Err(ArgError(format!("line {line_no}: {msg}")))
}

/// Whether a scenario document uses the multi-segment (federation)
/// vocabulary. Such files describe K bridged buses and cannot run on
/// the single-bus [`Scenario`] engine; `canelyctl run` delegates them
/// to the campaign replay path instead.
pub fn is_federated(text: &str) -> bool {
    text.lines().any(|raw| {
        let line = raw.split('#').next().unwrap_or("").trim();
        matches!(
            line.split_whitespace().next(),
            Some(
                "segments"
                    | "gateway"
                    | "bridge"
                    | "relay"
                    | "seg-crash"
                    | "gateway-crash"
                    | "gateway-restart"
                    | "segment-partition"
                    | "asymmetric"
            )
        )
    })
}

impl Scenario {
    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending line.
    pub fn parse(text: &str) -> Result<Scenario, ArgError> {
        let mut scenario = Scenario {
            nodes: 4,
            ..Scenario::default()
        };
        // `(line, node)` of every scripted fault, checked against the
        // population once the whole document (`nodes`, `join`) is read.
        let mut victims: Vec<(usize, u8)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line");
            let rest: Vec<&str> = words.collect();
            let node_time = |line_no: usize, rest: &[&str]| -> Result<(u8, BitTime), ArgError> {
                if rest.len() != 2 {
                    return err(line_no, "expected `<node> <time>`");
                }
                let node: u8 = rest[0]
                    .parse()
                    .map_err(|_| ArgError(format!("line {line_no}: bad node id")))?;
                if node as usize >= can_types::MAX_NODES {
                    return err(line_no, "node id out of range");
                }
                let time = parse_duration(rest[1])
                    .ok_or_else(|| ArgError(format!("line {line_no}: bad duration")))?;
                Ok((node, time))
            };
            match keyword {
                "nodes" => {
                    let n: usize = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad node count")))?;
                    if n == 0 || n > can_types::MAX_NODES {
                        return err(line_no, "node count out of range");
                    }
                    scenario.nodes = n as u8;
                }
                "tm" | "th" | "until" => {
                    let d = rest
                        .first()
                        .and_then(|w| parse_duration(w))
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad duration")))?;
                    match keyword {
                        "tm" => scenario.tm = Some(d),
                        "th" => scenario.th = Some(d),
                        _ => scenario.until = Some(d),
                    }
                }
                "seed" => {
                    scenario.seed = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad seed")))?;
                }
                "error-rate" | "inconsistent-rate" => {
                    let rate: f64 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad rate")))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return err(line_no, "rate must be a probability");
                    }
                    if keyword == "error-rate" {
                        scenario.error_rate = rate;
                    } else {
                        scenario.inconsistent_rate = rate;
                    }
                }
                "omission-degree" | "inconsistent-degree" => {
                    let degree: u32 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad degree")))?;
                    if keyword == "omission-degree" {
                        scenario.omission_degree = Some(degree);
                    } else {
                        scenario.inconsistent_degree = Some(degree);
                    }
                }
                "inaccessible" => {
                    if rest.len() != 2 {
                        return err(line_no, "expected `<from> <until>`");
                    }
                    let from = parse_duration(rest[0])
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad duration")))?;
                    let until = parse_duration(rest[1])
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad duration")))?;
                    if until <= from {
                        return err(line_no, "empty inaccessibility window");
                    }
                    scenario.inaccessibility.push((from, until));
                }
                "weaken-fda" => scenario.weaken_fda = true,
                "detector" => {
                    scenario.detector = Some(
                        rest.first()
                            .and_then(|w| DetectorKind::from_key(w))
                            .ok_or_else(|| {
                                ArgError(format!(
                                    "line {line_no}: unknown detector backend \
                                     (surveillance, swim or add-phi)"
                                ))
                            })?,
                    );
                }
                // Campaign-oracle knobs (`canelyctl campaign replay`
                // re-judges them); `run` validates and ignores them so
                // counterexample scenarios replay unmodified.
                "settle" | "latency-slack" | "rejoin-slack" => {
                    rest.first()
                        .and_then(|w| parse_duration(w))
                        .ok_or_else(|| ArgError(format!("line {line_no}: bad duration")))?;
                }
                "traffic" => scenario.traffic.push(node_time(line_no, &rest)?),
                "join" => scenario.joins.push(node_time(line_no, &rest)?),
                "crash" | "leave" | "restart" => {
                    let event = node_time(line_no, &rest)?;
                    victims.push((line_no, event.0));
                    match keyword {
                        "crash" => scenario.crashes.push(event),
                        "leave" => scenario.leaves.push(event),
                        _ => scenario.restarts.push(event),
                    }
                }
                "expect-view" => {
                    let spec = rest.join("");
                    let inner = spec
                        .strip_prefix('{')
                        .and_then(|s| s.strip_suffix('}'))
                        .ok_or_else(|| {
                            ArgError(format!("line {line_no}: expected {{ids,…}}"))
                        })?;
                    let mut view = NodeSet::EMPTY;
                    for part in inner.split(',').filter(|p| !p.is_empty()) {
                        let id: u8 = part.trim().parse().map_err(|_| {
                            ArgError(format!("line {line_no}: bad node id `{part}`"))
                        })?;
                        if id as usize >= can_types::MAX_NODES {
                            return err(line_no, "node id out of range");
                        }
                        view.insert(NodeId::new(id));
                    }
                    scenario.expect_view = Some(view);
                }
                other => return err(line_no, format_args!("unknown keyword `{other}`")),
            }
        }
        let nodes = scenario.nodes;
        for (line_no, node) in victims {
            if node >= nodes && !scenario.joins.iter().any(|&(n, _)| n == node) {
                let msg = format!("node {node} is neither in 0..{nodes} nor a `join`");
                return err(line_no, msg);
            }
        }
        Ok(scenario)
    }

    fn config(&self) -> Result<CanelyConfig, ArgError> {
        let mut config = CanelyConfig::default();
        if let Some(tm) = self.tm {
            config = config.with_membership_cycle(tm);
        }
        if let Some(th) = self.th {
            config = config.with_heartbeat_period(th);
        }
        if let Some(j) = self.inconsistent_degree {
            config = config.with_inconsistent_degree(j);
        }
        config.join_wait = config.membership_cycle * 2 + BitTime::new(10_000);
        if self.weaken_fda {
            config = config.with_weakened_fda();
        }
        if let Some(kind) = self.detector {
            config = config.with_detector(kind);
        }
        config
            .validate()
            .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
        Ok(config)
    }

    /// Builds and runs the scenario, returning the simulator and the
    /// horizon used.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for inconsistent parameters.
    pub fn run(&self) -> Result<(Simulator, BitTime), ArgError> {
        self.run_traced(None)
    }

    /// Builds and runs the scenario with the stack-wide observability
    /// layer enabled: every node's protocol events land in one shared
    /// [`ObsLog`], pre-seeded with the scripted crash/restart markers
    /// so latency metrics can be derived from the trace.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for inconsistent parameters.
    pub fn run_with_obs(&self) -> Result<(Simulator, BitTime, ObsLog), ArgError> {
        let log = ObsLog::new();
        let (sim, until) = self.run_traced(Some(&log))?;
        Ok((sim, until, log))
    }

    fn run_traced(&self, obs: Option<&ObsLog>) -> Result<(Simulator, BitTime), ArgError> {
        let config = self.config()?;
        let mut faults = FaultPlan::seeded(self.seed)
            .with_consistent_rate(self.error_rate)
            .with_inconsistent_rate(self.inconsistent_rate);
        if let Some(k) = self.omission_degree {
            faults = faults.with_omission_bound(k, BitTime::new(100_000));
        }
        if let Some(j) = self.inconsistent_degree {
            faults = faults.with_inconsistent_bound(j);
        }
        for &(from, until) in &self.inaccessibility {
            faults.push_inaccessibility(from, until);
        }
        let mut sim = Simulator::new(BusConfig::default(), faults);
        let joiner_ids: Vec<u8> = self.joins.iter().map(|&(n, _)| n).collect();
        let build_stack = |id: u8| {
            let mut stack = CanelyStack::new(config.clone());
            if let Some(&(_, period)) = self.traffic.iter().find(|&&(n, _)| n == id) {
                stack = stack.with_traffic(TrafficConfig::staggered(period, id));
            }
            if let Some(&(_, at)) = self.leaves.iter().find(|&&(n, _)| n == id) {
                stack = stack.with_leave_at(at);
            }
            if let Some(log) = obs {
                stack = stack.with_obs(log.sink());
            }
            stack
        };
        for id in 0..self.nodes {
            if !joiner_ids.contains(&id) {
                sim.add_node(NodeId::new(id), build_stack(id));
            }
        }
        for &(id, at) in &self.joins {
            sim.add_node_at(NodeId::new(id), build_stack(id), at);
        }
        for &(id, at) in &self.crashes {
            sim.schedule_crash(NodeId::new(id), at);
            if let Some(log) = obs {
                log.record(at, NodeId::new(id), ProtocolEvent::NodeCrashed);
            }
        }
        for &(id, at) in &self.restarts {
            sim.schedule_restart(NodeId::new(id), at, build_stack(id));
            if let Some(log) = obs {
                log.record(at, NodeId::new(id), ProtocolEvent::NodeRestarted);
            }
        }
        let until = self.until.unwrap_or(BitTime::new(600_000));
        sim.run_until(until);
        Ok((sim, until))
    }

    /// Runs the scenario and renders a report; fails (with a
    /// diagnostic) if an `expect-view` assertion does not hold at
    /// every alive participant.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for parameter errors or a failed
    /// expectation.
    pub fn execute(&self) -> Result<String, ArgError> {
        let (sim, until) = self.run()?;
        let mut out = String::new();
        let _ = writeln!(out, "scenario: {} nodes, horizon {}", self.nodes, render::ms(until));
        let mut participants: Vec<u8> = (0..self.nodes).collect();
        participants.extend(self.joins.iter().map(|&(n, _)| n));
        participants.sort_unstable();
        participants.dedup();
        for &id in &participants {
            let node = NodeId::new(id);
            if !sim.alive().contains(node) {
                let _ = writeln!(out, "node {node}: crashed");
                continue;
            }
            let stack = sim.app::<CanelyStack>(node);
            if stack.is_out_of_service() {
                // A node that left holds its last view; it is not part
                // of the expectation.
                let _ = writeln!(out, "node {node}: left the service");
                continue;
            }
            let _ = writeln!(out, "node {node}: view {}", stack.view());
            if let Some(expected) = self.expect_view {
                if stack.view() != expected {
                    return Err(ArgError(format!(
                        "expectation failed at {node}: view {} != expected {expected}",
                        stack.view()
                    )));
                }
            }
        }
        if self.expect_view.is_some() {
            let _ = writeln!(out, "expect-view: ok");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# lifecycle scenario
nodes 5
tm 30ms
th 5ms
traffic 0 2ms
crash 2 300ms
join 9 500ms
leave 4 700ms
restart 2 800ms
until 1200ms
expect-view {0,1,2,3,9}
";

    #[test]
    fn full_scenario_parses_runs_and_matches_expectation() {
        let scenario = Scenario::parse(FULL).unwrap();
        let out = scenario.execute().unwrap();
        assert!(out.contains("expect-view: ok"), "{out}");
        assert!(out.contains("node n9: view {0,1,2,3,9}"), "{out}");
    }

    #[test]
    fn failed_expectation_reports() {
        let text = FULL.replace("{0,1,2,3,9}", "{0,1}");
        let scenario = Scenario::parse(&text).unwrap();
        let err = scenario.execute().unwrap_err();
        assert!(err.0.contains("expectation failed"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let scenario = Scenario::parse("\n# only comments\n\nnodes 3 # trailing\n").unwrap();
        assert_eq!(scenario.nodes, 3);
    }

    #[test]
    fn diagnostics_name_the_line() {
        for (text, needle) in [
            ("nodes zero", "line 1"),
            ("nodes 3\ncrash 99 10ms", "line 2"),
            ("crash 9 10ms\nnodes 4", "line 1: node 9 is neither"),
            ("nodes 4\njoin 9 5ms\nleave 8 10ms", "line 3: node 8 is neither"),
            ("nodes 4\nrestart 9 10ms", "line 2: node 9 is neither"),
            ("frobnicate 1", "unknown keyword"),
            ("crash 1", "expected"),
            ("expect-view 0,1", "expected {"),
            ("error-rate 7", "probability"),
            ("detector frobnicate", "unknown detector"),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn detector_keyword_selects_the_backend() {
        // A crash detected by each alternative backend: the scenario
        // language drives the same pluggable seam as the campaigns.
        for backend in ["surveillance", "swim", "add-phi"] {
            let text = format!(
                "nodes 4\ntraffic 0 2ms\ntraffic 1 2ms\ntraffic 2 2ms\ntraffic 3 2ms\n\
                 detector {backend}\ncrash 2 150ms\nuntil 400ms\nexpect-view {{0,1,3}}\n"
            );
            let out = Scenario::parse(&text).unwrap().execute().unwrap();
            assert!(out.contains("expect-view: ok"), "{backend}: {out}");
        }
    }

    #[test]
    fn campaign_vocabulary_parses_and_runs() {
        // The full counterexample vocabulary must replay under plain
        // `run` without modification.
        let text = "\
nodes 4
tm 30ms
traffic 0 2ms
traffic 1 2ms
inconsistent-rate 0.01
omission-degree 16
inconsistent-degree 2
inaccessible 90ms 92ms
settle 150ms
latency-slack 4ms
until 300ms
expect-view {0,1,2,3}
";
        let out = Scenario::parse(text).unwrap().execute().unwrap();
        assert!(out.contains("expect-view: ok"), "{out}");
    }

    #[test]
    fn empty_inaccessibility_window_is_rejected() {
        let err = Scenario::parse("inaccessible 20ms 10ms").unwrap_err();
        assert!(err.0.contains("empty"), "{err}");
    }

    #[test]
    fn defaults_are_sane() {
        let scenario = Scenario::parse("").unwrap();
        let (sim, _) = scenario.run().unwrap();
        assert_eq!(sim.alive().len(), 4);
    }
}
