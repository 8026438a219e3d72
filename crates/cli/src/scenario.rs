//! The CLI's single-bus world: one builder that the flag-driven
//! commands (`membership`, `trace`, `metrics`) and `.canely` files
//! (`run`, `tq --scenario`) both feed a [`Scenario`] into.
//!
//! The scenario language itself — grammar, keyword table, reader and
//! writer — lives in [`canely_campaign::scenario`]; this module only
//! turns the parsed model into a [`Simulator`] and reports on it.
//! Files with `segments` above 1 describe bridged buses and go through
//! the campaign engine's executor instead (see `canelyctl run`).

use crate::args::ArgError;
use crate::render;
use can_bus::BusConfig;
use can_controller::Simulator;
use can_types::NodeId;
use canely::obs::ObsLog;
use canely::{CanelyStack, DetectorMetrics, ProtocolEvent, TrafficConfig};
use canely_campaign::Fault;
pub use canely_campaign::Scenario;
use std::fmt::Write as _;

/// Builds the simulator of a single-bus scenario, ready to run to
/// `scenario.run.until`. With an [`ObsLog`], every stack shares its
/// sink and the scripted crash/restart markers are pre-seeded into the
/// log (anchoring the latency metrics); with [`DetectorMetrics`], every
/// stack — late joiners and restarted nodes included — bumps the live
/// counters.
pub fn build(
    scenario: &Scenario,
    obs: Option<&ObsLog>,
    detector: Option<&DetectorMetrics>,
) -> Simulator {
    let run = &scenario.run;
    let config = run.config();
    let mut sim = Simulator::new(BusConfig::default(), run.fault_plan(run.seed));
    let stack = |id: u8| {
        let mut stack = CanelyStack::new(config.clone());
        if let Some(&(_, period)) = scenario.traffic.iter().find(|&&(n, _)| n == id) {
            stack = stack.with_traffic(TrafficConfig::staggered(period, id));
        }
        if let Some(&(_, at)) = scenario.leaves.iter().find(|&&(n, _)| n == id) {
            stack = stack.with_leave_at(at);
        }
        if let Some(log) = obs {
            stack = stack.with_obs(log.sink());
        }
        if let Some(metrics) = detector {
            stack.set_detector_metrics(metrics.clone());
        }
        stack
    };
    for id in 0..run.nodes {
        // A joiner is added later, at its join time.
        if !scenario.joins.iter().any(|&(n, _)| n == id) {
            sim.add_node(NodeId::new(id), stack(id));
        }
    }
    for &(id, at) in &scenario.joins {
        sim.add_node_at(NodeId::new(id), stack(id), at);
    }
    // A single bus has only crashes to schedule: its blackouts are in
    // the fault plan, and the reader refuses bridge faults.
    for fault in &run.faults {
        if let Fault::Crash { node, at, .. } = *fault {
            sim.schedule_crash(NodeId::new(node), at);
            if let Some(log) = obs {
                log.record(at, NodeId::new(node), ProtocolEvent::NodeCrashed);
            }
        }
    }
    for &(id, at) in &scenario.restarts {
        sim.schedule_restart(NodeId::new(id), at, stack(id));
        if let Some(log) = obs {
            log.record(at, NodeId::new(id), ProtocolEvent::NodeRestarted);
        }
    }
    sim
}

/// Runs a scenario to its horizon with the stack-wide observability
/// layer enabled: every node's protocol events land in one shared
/// [`ObsLog`].
pub fn run_with_obs(scenario: &Scenario) -> (Simulator, ObsLog) {
    let log = ObsLog::new();
    let mut sim = build(scenario, Some(&log), None);
    sim.run_until(scenario.run.until);
    (sim, log)
}

/// Runs a single-bus scenario and renders the `canelyctl run` report;
/// fails (with a diagnostic) if an `expect-view` assertion does not
/// hold at every alive participant.
///
/// # Errors
///
/// Returns the diagnostic of a failed expectation.
pub fn report(scenario: &Scenario) -> Result<String, ArgError> {
    let run = &scenario.run;
    let mut sim = build(scenario, None, None);
    sim.run_until(run.until);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario: {} nodes, horizon {}",
        run.nodes,
        render::ms(run.until)
    );
    let mut participants: Vec<u8> = (0..run.nodes).collect();
    participants.extend(scenario.joins.iter().map(|&(n, _)| n));
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
        if let Some(expected) = scenario.expect_view {
            if stack.view() != expected {
                return Err(ArgError(format!(
                    "expectation failed at {node}: view {} != expected {expected}",
                    stack.view()
                )));
            }
        }
    }
    if scenario.expect_view.is_some() {
        let _ = writeln!(out, "expect-view: ok");
    }
    Ok(out)
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
        let out = report(&Scenario::parse(FULL).unwrap()).unwrap();
        assert!(out.contains("expect-view: ok"), "{out}");
        assert!(out.contains("node n9: view {0,1,2,3,9}"), "{out}");
    }

    #[test]
    fn failed_expectation_reports() {
        let text = FULL.replace("{0,1,2,3,9}", "{0,1}");
        let err = report(&Scenario::parse(&text).unwrap()).unwrap_err();
        assert!(err.0.contains("expectation failed"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let scenario = Scenario::parse("\n# only comments\n\nnodes 3 # trailing\n").unwrap();
        assert_eq!(scenario.run.nodes, 3);
    }

    #[test]
    fn diagnostics_name_the_line() {
        for (text, needle) in [
            ("nodes zero", "line 1"),
            ("nodes 3\ncrash 99 10ms", "line 2"),
            ("crash 9 10ms\nnodes 4", "line 1: node 9 is neither"),
            (
                "nodes 4\njoin 9 5ms\nleave 8 10ms",
                "line 3: node 8 is neither",
            ),
            ("nodes 4\nrestart 9 10ms", "line 2: node 9 is neither"),
            ("frobnicate 1", "unknown keyword"),
            ("crash 1", "expected"),
            ("expect-view 0,1", "expected {"),
            ("error-rate 7", "probability"),
            ("detector frobnicate", "unknown detector"),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
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
            let out = report(&Scenario::parse(&text).unwrap()).unwrap();
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
        let out = report(&Scenario::parse(text).unwrap()).unwrap();
        assert!(out.contains("expect-view: ok"), "{out}");
    }

    #[test]
    fn empty_inaccessibility_window_is_rejected() {
        let err = Scenario::parse("inaccessible 20ms 10ms").unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn defaults_are_sane() {
        let (sim, _) = run_with_obs(&Scenario::parse("").unwrap());
        assert_eq!(sim.alive().len(), 4);
    }
}
