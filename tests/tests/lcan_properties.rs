//! Validates that the simulated substrate exhibits exactly the CAN
//! MAC- and LLC-level properties the paper's protocols are built on
//! (Figs. 2 and 3 of the paper).

use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
use can_controller::{DriverEvent, Simulator};
use can_types::{BitTime, Frame, Mid, MsgType, NodeSet, Payload};
use integration::{n, Recorder};

fn app_mid(node: u8) -> Mid {
    Mid::new(MsgType::AppData, 0, n(node))
}

fn data_frame(node: u8, bytes: &[u8]) -> Frame {
    Frame::data(app_mid(node), Payload::from_slice(bytes).unwrap())
}

/// MCAN1 — Broadcast: correct nodes receiving an uncorrupted frame
/// transmission receive the *same* frame.
#[test]
fn mcan1_broadcast_value_agreement() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[0xDE, 0xAD])));
    for id in 1..5 {
        sim.add_node(n(id), Recorder::new());
    }
    sim.run_until(BitTime::new(10_000));
    let mut payloads = Vec::new();
    for id in 1..5 {
        let rec = sim.app::<Recorder>(n(id));
        for (_, event) in &rec.events {
            if let DriverEvent::DataInd { payload, .. } = event {
                payloads.push(payload.as_slice().to_vec());
            }
        }
    }
    assert_eq!(payloads.len(), 4);
    assert!(payloads.windows(2).all(|w| w[0] == w[1]));
}

/// MCAN2 — Error detection: a corrupted frame never surfaces as a
/// *different* frame; it surfaces as an omission (followed by
/// retransmission).
#[test]
fn mcan2_corruption_is_detected_not_delivered() {
    let mut faults = FaultPlan::none();
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher::any(),
        effect: FaultEffect::ConsistentOmission,
        count: 1,
    });
    let mut sim = Simulator::new(BusConfig::default(), faults);
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[7; 8])));
    sim.add_node(n(1), Recorder::new());
    sim.run_until(BitTime::new(10_000));
    let rec = sim.app::<Recorder>(n(1));
    // Exactly one delivery (the retransmission), with intact contents.
    let inds: Vec<_> = rec
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            DriverEvent::DataInd { payload, .. } => Some(payload.as_slice().to_vec()),
            _ => None,
        })
        .collect();
    assert_eq!(inds, vec![vec![7u8; 8]]);
    // The trace shows the errored attempt.
    assert_eq!(
        sim.trace()
            .stats(BitTime::ZERO, BitTime::new(10_000))
            .errors,
        1
    );
}

/// MCAN3 — Bounded omission degree: in a window, stochastic omissions
/// hit at most `k` transmissions; a frame is never retried forever.
#[test]
fn mcan3_bounded_omission_degree() {
    let k = 4u32;
    let mut sim = Simulator::new(
        BusConfig::default(),
        FaultPlan::seeded(3)
            .with_consistent_rate(1.0) // every transmission would fail…
            .with_omission_bound(k, BitTime::new(1_000_000)), // …but at most k do
    );
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[1])));
    sim.add_node(n(1), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(100_000));
    assert_eq!(stats.errors as u32, k, "exactly k omissions then success");
    assert_eq!(
        sim.app::<Recorder>(n(1)).indications_of(app_mid(0)).len(),
        1
    );
}

/// MCAN4 — Bounded transmission delay: a queued frame is transmitted
/// within a bounded delay even while higher-priority traffic competes.
#[test]
fn mcan4_bounded_transmission_delay() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    // Node 1's low-priority frame contends with a burst of
    // higher-priority frames from node 0.
    let burst: Vec<(BitTime, Frame)> = (0..10)
        .map(|i| {
            (
                BitTime::new(10 + i),
                Frame::remote(Mid::new(MsgType::Els, i as u16, n(0))),
            )
        })
        .collect();
    sim.add_node(
        n(0),
        Recorder {
            send_at: burst,
            ..Recorder::default()
        },
    );
    sim.add_node(n(1), Recorder::sending(data_frame(1, &[9; 8])));
    sim.add_node(n(2), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    let deliveries = sim.app::<Recorder>(n(2)).indications_of(app_mid(1));
    assert_eq!(deliveries.len(), 1);
    // Bound: 10 ELS frames (~80 bits each incl. intermission) plus own
    // frame — well under 2 000 bit-times.
    assert!(
        deliveries[0] < BitTime::new(2_000),
        "delay {}",
        deliveries[0]
    );
}

/// LCAN1 — Validity: a correct node's broadcast is eventually
/// delivered to a correct node (even under omissions).
#[test]
fn lcan1_validity_under_noise() {
    let mut sim = Simulator::new(
        BusConfig::default(),
        FaultPlan::seeded(11).with_consistent_rate(0.3),
    );
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[5; 4])));
    sim.add_node(n(1), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    assert_eq!(
        sim.app::<Recorder>(n(1)).indications_of(app_mid(0)).len(),
        1
    );
}

/// LCAN2 caveat — Best-effort agreement: delivery to all correct nodes
/// is guaranteed only *if the sender remains correct*. The
/// inconsistent-omission-plus-crash scenario violates all-or-nothing:
/// exactly the failure the CANELy protocols exist to mask.
#[test]
fn lcan2_inconsistency_on_sender_crash() {
    let mut faults = FaultPlan::none();
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher::any(),
        effect: FaultEffect::InconsistentOmission {
            accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
            crash_sender: true,
        },
        count: 1,
    });
    let mut sim = Simulator::new(BusConfig::default(), faults);
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[3])));
    sim.add_node(n(1), Recorder::new());
    sim.add_node(n(2), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    assert_eq!(
        sim.app::<Recorder>(n(1)).indications_of(app_mid(0)).len(),
        1
    );
    assert_eq!(
        sim.app::<Recorder>(n(2)).indications_of(app_mid(0)).len(),
        0
    );
}

/// LCAN3 — At-least-once delivery: an inconsistently omitted frame is
/// delivered *at least once* to every correct node, with duplicates at
/// the accepters.
#[test]
fn lcan3_at_least_once_with_duplicates() {
    let mut faults = FaultPlan::none();
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher::any(),
        effect: FaultEffect::InconsistentOmission {
            accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
            crash_sender: false,
        },
        count: 1,
    });
    let mut sim = Simulator::new(BusConfig::default(), faults);
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[3])));
    sim.add_node(n(1), Recorder::new());
    sim.add_node(n(2), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    assert_eq!(
        sim.app::<Recorder>(n(1)).indications_of(app_mid(0)).len(),
        2,
        "accepter sees a duplicate"
    );
    assert_eq!(
        sim.app::<Recorder>(n(2)).indications_of(app_mid(0)).len(),
        1,
        "other listeners see exactly the retransmission"
    );
}

/// LCAN4 — Bounded inconsistent omission degree: stochastic
/// inconsistent omissions are capped at `j` per window.
#[test]
fn lcan4_bounded_inconsistent_degree() {
    let j = 2u32;
    let mut sim = Simulator::new(
        BusConfig::default(),
        FaultPlan::seeded(5)
            .with_inconsistent_rate(1.0)
            .with_omission_bound(64, BitTime::new(10_000_000))
            .with_inconsistent_bound(j),
    );
    // A stream of 20 frames from node 0.
    let sends: Vec<(BitTime, Frame)> = (0..20)
        .map(|i| {
            (
                BitTime::new(1_000 * (i as u64 + 1)),
                Frame::data(
                    Mid::new(MsgType::AppData, i as u16, n(0)),
                    Payload::from_slice(&[i]).unwrap(),
                ),
            )
        })
        .collect();
    sim.add_node(
        n(0),
        Recorder {
            send_at: sends,
            ..Recorder::default()
        },
    );
    sim.add_node(n(1), Recorder::new());
    sim.add_node(n(2), Recorder::new());
    sim.run_until(BitTime::new(200_000));
    let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(200_000));
    assert_eq!(stats.errors as u32, j, "inconsistent omissions capped at j");
}

/// The `.nty` extension: arrival notification without message data —
/// and it fires for own transmissions too (Fig. 4).
#[test]
fn nty_extension_semantics() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    sim.add_node(n(0), Recorder::sending(data_frame(0, &[1, 2, 3])));
    sim.add_node(n(1), Recorder::new());
    sim.run_until(BitTime::new(10_000));
    for id in 0..2 {
        let rec = sim.app::<Recorder>(n(id));
        assert!(
            rec.events
                .iter()
                .any(|(_, e)| matches!(e, DriverEvent::DataNty { mid } if *mid == app_mid(0))),
            "node {id} must get can-data.nty (own transmissions included)"
        );
    }
}
