//! Retention equivalence: a run that stores only the kinds the judge
//! reads ([`oracle::JUDGED`], what `execute(run, false)` installs) is
//! judged exactly as one that stores every event.

use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::{latency_samples, ProtocolEvent, TimedEvent};
use canely_campaign::oracle::{self, NodeFinal, OracleInput};
use canely_campaign::run::false_suspicion_count;
use canely_campaign::{execute, CampaignSpec, RunOutcome, RunSpec};
use proptest::prelude::*;

fn checked_in_runs(name: &str) -> Vec<RunSpec> {
    let path = format!(
        "{}/../../scenarios/{name}.campaign",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
    CampaignSpec::parse(&text)
        .expect("checked-in campaign spec must parse")
        .expand()
}

#[test]
fn captured_and_uncaptured_runs_are_judged_alike() {
    let mut runs = Vec::new();
    for name in ["smoke", "shootout", "failover"] {
        runs.extend(checked_in_runs(name));
    }
    // 4 × 32 nodes is the dear one: its richest run (gateway crash and
    // partition) stands for the campaign.
    runs.extend(checked_in_runs("federation").pop());
    for run in &runs {
        let lean = execute(run, false);
        let full = execute(run, true);
        let context = format!("run {} ({} nodes, seed {})", run.id, run.nodes, run.seed);
        // Every field but the capture itself, named so that a new one
        // cannot be left out. The uncaptured run's bus kept no records:
        // its detector counts were folded as the transactions resolved.
        let RunOutcome {
            id,
            violations,
            events,
            detection,
            view_change,
            false_suspicions,
            detector_frames,
            detector_busy,
            trace_jsonl,
        } = lean;
        assert_eq!(id, full.id, "{context}");
        assert_eq!(violations, full.violations, "{context}");
        assert_eq!(events, full.events, "{context}");
        assert_eq!(detection, full.detection, "{context}");
        assert_eq!(view_change, full.view_change, "{context}");
        assert_eq!(false_suspicions, full.false_suspicions, "{context}");
        assert_eq!(detector_frames, full.detector_frames, "{context}");
        assert_eq!(detector_busy, full.detector_busy, "{context}");
        assert_eq!(trace_jsonl, None, "{context}");
        let protocol_lines = full
            .trace_jsonl
            .expect("captured")
            .lines()
            .filter(|line| !line.contains("\"kind\":\"bus.tx\""))
            .count();
        assert_eq!(
            protocol_lines, full.events,
            "{context}: events counts the capture"
        );
    }
}

#[test]
fn the_judged_set_holds_the_kinds_the_old_predicate_kept() {
    // The retention predicate `judged` was before it became a set.
    fn kept(event: &ProtocolEvent) -> bool {
        matches!(
            event,
            ProtocolEvent::NodeCrashed
                | ProtocolEvent::NodeRestarted
                | ProtocolEvent::LeaveRequested
                | ProtocolEvent::SuspectRaised { .. }
                | ProtocolEvent::FailureNotified { .. }
                | ProtocolEvent::ViewInstalled { .. }
                | ProtocolEvent::ViewChanged { .. }
        )
    }
    for event in ProtocolEvent::one_of_each() {
        assert_eq!(
            oracle::JUDGED.keeps(&event),
            kept(&event),
            "{}",
            event.kind()
        );
        assert_eq!(oracle::judged(&event), kept(&event), "{}", event.kind());
    }
}

const NODES: u8 = 6;

/// A random event: any of the kinds of [`ProtocolEvent::one_of_each`]
/// (the upper half of `which` re-draws among the judged ones, so
/// markers, suspicions and installs are dense enough to interact),
/// with the fields the judge reads randomised.
fn event() -> impl Strategy<Value = TimedEvent> {
    let kinds = ProtocolEvent::one_of_each();
    let judged: Vec<ProtocolEvent> = kinds.iter().copied().filter(oracle::judged).collect();
    let which = 0..2 * kinds.len();
    (which, 0u64..400, 0..NODES, 0..NODES, 0u64..1 << NODES).prop_map(
        move |(which, at, node, subject, bits)| {
            let sample = match which.checked_sub(kinds.len()) {
                None => kinds[which],
                Some(extra) => judged[extra % judged.len()],
            };
            let (subject, view) = (NodeId::new(subject), NodeSet::from_bits(bits));
            let event = match sample {
                ProtocolEvent::SuspectRaised { .. } => {
                    ProtocolEvent::SuspectRaised { suspect: subject }
                }
                ProtocolEvent::FailureNotified { .. } => {
                    ProtocolEvent::FailureNotified { failed: subject }
                }
                ProtocolEvent::ViewInstalled { .. } => ProtocolEvent::ViewInstalled { view },
                ProtocolEvent::ViewChanged { .. } => ProtocolEvent::ViewChanged {
                    view,
                    failed: NodeSet::singleton(subject),
                },
                other => other,
            };
            TimedEvent::new(BitTime::new(at * 100), NodeId::new(node), event)
        },
    )
}

proptest! {
    /// Fails the day the judge reads an eighth kind that
    /// [`oracle::judged`] does not list.
    #[test]
    fn judge_reads_nothing_outside_the_judged_subset(
        soup in prop::collection::vec(event(), 0..120),
    ) {
        let subset = oracle::judged_subset(&soup);
        prop_assert!(subset.len() <= soup.len());
        let finals: Vec<NodeFinal> = (0..NODES)
            .map(|id| NodeFinal {
                node: NodeId::new(id),
                alive: true,
                in_service: true,
                view: NodeSet::first_n(NODES as usize),
            })
            .collect();
        let input = |events| OracleInput {
            events,
            finals: &finals,
            horizon: BitTime::new(40_000),
            members: NodeSet::first_n(NODES as usize),
            quiescent: true,
            operational_from: BitTime::new(1_000),
            detection_bound: BitTime::new(5_000),
            view_change_bound: BitTime::new(12_000),
        };
        prop_assert_eq!(oracle::check(&input(&soup)), oracle::check(&input(&subset)));
        prop_assert_eq!(latency_samples(&soup), latency_samples(&subset));
        prop_assert_eq!(false_suspicion_count(&soup), false_suspicion_count(&subset));
    }
}
