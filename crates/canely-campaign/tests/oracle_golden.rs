//! Golden-trace oracle tests: hand-built event traces with *known*
//! defects must produce exactly the expected verdicts — no more, no
//! less. The oracle is a pure function of [`OracleInput`], so these
//! tests pin its judgement independently of the simulator.

use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::{ProtocolEvent, TimedEvent};
use canely_campaign::{check, InvariantKind, NodeFinal, OracleInput};

fn n(id: u8) -> NodeId {
    NodeId::new(id)
}

fn t(us: u64) -> BitTime {
    BitTime::new(us)
}

fn ev(time: u64, node: u8, event: ProtocolEvent) -> TimedEvent {
    TimedEvent::new(t(time), n(node), event)
}

fn finals(views: &[(u8, NodeSet)]) -> Vec<NodeFinal> {
    views
        .iter()
        .map(|&(id, view)| NodeFinal {
            node: n(id),
            alive: true,
            in_service: true,
            view,
        })
        .collect()
}

/// Baseline input: 3 members, generous bounds, quiescent, agreeing
/// finals. Tests overlay their defect on top of this.
fn base<'a>(events: &'a [TimedEvent], finals: &'a [NodeFinal]) -> OracleInput<'a> {
    OracleInput {
        events,
        finals,
        horizon: t(300_000),
        members: NodeSet::first_n(3),
        quiescent: true,
        operational_from: t(80_000),
        detection_bound: t(12_000),
        view_change_bound: t(50_000),
    }
}

#[test]
fn clean_crash_trace_produces_no_verdicts() {
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(108_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(
            130_000,
            0,
            ProtocolEvent::ViewChanged {
                view,
                failed: NodeSet::singleton(n(2)),
            },
        ),
        ev(
            130_000,
            1,
            ProtocolEvent::ViewChanged {
                view,
                failed: NodeSet::singleton(n(2)),
            },
        ),
    ];
    let finals = finals(&[(0, view), (1, view)]);
    assert_eq!(check(&base(&events, &finals)), vec![]);
}

#[test]
fn false_suspicion_of_a_live_node_is_flagged_once() {
    // Node 0 suspects (then declares failed) node 2, which never
    // crashed: one false-suspicion verdict, attributed to the wrongly
    // targeted node at the first offence.
    let view = NodeSet::first_n(3);
    let events = vec![
        ev(120_000, 0, ProtocolEvent::SuspectRaised { suspect: n(2) }),
        ev(120_500, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
    ];
    // Finals keep everyone in view so only the suspicion misfires.
    let finals = finals(&[(0, view), (1, view), (2, view)]);
    let verdicts = check(&base(&events, &finals));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    let v = &verdicts[0];
    assert_eq!(v.invariant, InvariantKind::FalseSuspicion);
    assert_eq!(v.node, Some(n(2)));
    assert_eq!(v.time, Some(t(120_000)));
    assert!(v.detail.contains("never crashed"), "{}", v.detail);
}

#[test]
fn suspicion_of_an_already_crashed_node_is_not_false() {
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        ev(107_000, 0, ProtocolEvent::SuspectRaised { suspect: n(2) }),
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(108_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(110_000, 0, ProtocolEvent::ViewInstalled { view }),
        ev(110_000, 1, ProtocolEvent::ViewInstalled { view }),
    ];
    let finals = finals(&[(0, view), (1, view)]);
    assert_eq!(check(&base(&events, &finals)), vec![]);
}

#[test]
fn late_detection_is_flagged_at_the_late_observer_only() {
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let fail_set = NodeSet::singleton(n(2));
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        // Observer 0 is on time; observer 1 notifies past the bound.
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(125_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(
            130_000,
            0,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
        ev(
            130_000,
            1,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
    ];
    let finals = finals(&[(0, view), (1, view)]);
    let verdicts = check(&base(&events, &finals));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    let v = &verdicts[0];
    assert_eq!(v.invariant, InvariantKind::DetectionLatency);
    assert_eq!(v.node, Some(n(1)), "late observer is blamed");
    assert_eq!(
        v.detail,
        "crash of n2 at t=100000bt notified after 25000bt (bound 12000bt)"
    );
}

#[test]
fn never_notified_crash_is_flagged_without_a_timestamp() {
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let fail_set = NodeSet::singleton(n(2));
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(
            130_000,
            0,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
        ev(
            130_000,
            1,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
        // Observer 1 never emits fd.notified at all.
    ];
    let finals = finals(&[(0, view), (1, view)]);
    let verdicts = check(&base(&events, &finals));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    let v = &verdicts[0];
    assert_eq!(v.invariant, InvariantKind::DetectionLatency);
    assert_eq!(v.node, Some(n(1)));
    assert_eq!(v.time, None, "no point-like instant for an absence");
    assert_eq!(
        v.detail,
        "crash of n2 at t=100000bt never notified (bound 12000bt expired before the horizon)"
    );
}

#[test]
fn missing_view_change_is_flagged_per_observer() {
    let stale = NodeSet::first_n(3);
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(108_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        // Neither observer ever installs a view without node 2.
    ];
    let finals = finals(&[(0, stale), (1, stale)]);
    let verdicts = check(&base(&events, &finals));
    let view_lat: Vec<_> = verdicts
        .iter()
        .filter(|v| v.invariant == InvariantKind::ViewChangeLatency)
        .collect();
    assert_eq!(view_lat.len(), 2, "{verdicts:?}");
    for (v, observer) in view_lat.iter().zip([0, 1]) {
        assert_eq!((v.node, v.time), (Some(n(observer)), None));
        assert_eq!(
            v.detail,
            "no view excluding n2 (crashed t=100000bt) installed \
             (bound 50000bt expired before the horizon)"
        );
    }
    // The stale finals additionally break validity (view ≠ members −
    // crashed) at both correct nodes.
    let validity = verdicts
        .iter()
        .filter(|v| v.invariant == InvariantKind::ViewValidity)
        .count();
    assert_eq!(validity, 2, "{verdicts:?}");
}

#[test]
fn late_view_change_is_flagged_with_its_latency() {
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let changed = ProtocolEvent::ViewChanged {
        view,
        failed: NodeSet::singleton(n(2)),
    };
    let events = vec![
        ev(100_000, 2, ProtocolEvent::NodeCrashed),
        ev(108_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(108_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        // Observer 0 is on time; observer 1 installs past the bound.
        ev(130_000, 0, changed),
        ev(170_000, 1, changed),
    ];
    let finals = finals(&[(0, view), (1, view)]);
    let verdicts = check(&base(&events, &finals));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    let v = &verdicts[0];
    assert_eq!(v.invariant, InvariantKind::ViewChangeLatency);
    assert_eq!((v.node, v.time), (Some(n(1)), Some(t(170_000))));
    assert_eq!(
        v.detail,
        "view excluding n2 (crashed t=100000bt) installed after 70000bt (bound 50000bt)"
    );
}

#[test]
fn view_split_breaks_agreement_and_validity() {
    // A classic split: node 0 kept everyone, node 1 dropped node 2
    // although node 2 never crashed.
    let full = NodeSet::first_n(3);
    let split = full.difference(NodeSet::singleton(n(2)));
    let finals = finals(&[(0, full), (1, split), (2, full)]);
    let verdicts = check(&base(&[], &finals));
    let agreement: Vec<_> = verdicts
        .iter()
        .filter(|v| v.invariant == InvariantKind::ViewAgreement)
        .collect();
    assert_eq!(agreement.len(), 1, "{verdicts:?}");
    assert!(agreement[0].detail.contains("diverging"), "{verdicts:?}");
    // Validity is charged to the node holding the wrong view only.
    let validity: Vec<_> = verdicts
        .iter()
        .filter(|v| v.invariant == InvariantKind::ViewValidity)
        .collect();
    assert_eq!(validity.len(), 1, "{verdicts:?}");
    assert_eq!(validity[0].node, Some(n(1)));
}

#[test]
fn non_quiescent_runs_skip_end_state_checks() {
    let full = NodeSet::first_n(3);
    let split = full.difference(NodeSet::singleton(n(2)));
    let finals = finals(&[(0, full), (1, split)]);
    let mut input = base(&[], &finals);
    input.quiescent = false;
    assert_eq!(check(&input), vec![], "end-state checks need quiescence");
}

#[test]
fn detection_clock_starts_when_the_population_is_operational() {
    // A crash during integration (before operational_from) is only
    // detectable once surveillance exists: the bound is measured from
    // operational_from, not from the crash instant.
    let view = NodeSet::first_n(3).difference(NodeSet::singleton(n(2)));
    let fail_set = NodeSet::singleton(n(2));
    let events = vec![
        ev(50_000, 2, ProtocolEvent::NodeCrashed),
        // 38 ms after the crash, but only 8 ms after operational_from.
        ev(88_000, 0, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(88_000, 1, ProtocolEvent::FailureNotified { failed: n(2) }),
        ev(
            110_000,
            0,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
        ev(
            110_000,
            1,
            ProtocolEvent::ViewChanged {
                view,
                failed: fail_set,
            },
        ),
    ];
    let finals = finals(&[(0, view), (1, view)]);
    assert_eq!(check(&base(&events, &finals)), vec![]);
}
