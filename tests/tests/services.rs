//! Cross-crate integration: every CANELy service family sharing one
//! bus, plus fault-confinement (weak-fail-silence) enforcement.

use can_bus::{BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
use can_controller::Simulator;
use can_types::{BitTime, Frame, Mid, MsgType, NodeSet, Payload};
use canely::{CanelyConfig, CanelyStack};
use canely_broadcast::common::ScheduledSend;
use canely_broadcast::{Edcan, Relcan, Totcan};
use canely_clock::{ensemble_precision, ClockConfig, ClockSync};
use integration::{n, Recorder};

/// Membership, broadcast and plain traffic coexist: protocol traffic
/// outranks data, and every service meets its guarantee.
#[test]
fn membership_and_broadcast_share_the_bus() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    // Membership group: nodes 0-3.
    for id in 0..4u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    // Broadcast group: nodes 8-10 exchanging EDCAN messages.
    sim.add_node(
        n(8),
        Edcan::new().with_schedule(
            (0..20)
                .map(|i| {
                    ScheduledSend::new(
                        BitTime::new(100_000 + i * 9_000),
                        Payload::from_slice(&[i as u8]).unwrap(),
                    )
                })
                .collect(),
        ),
    );
    for id in 9..=10u8 {
        sim.add_node(n(id), Edcan::new());
    }
    sim.schedule_crash(n(3), BitTime::new(300_000));
    sim.run_until(BitTime::new(700_000));

    // Membership settled despite the broadcast load.
    let expected = NodeSet::first_n(3);
    for id in 0..3u8 {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected);
    }
    // Every broadcast delivered everywhere exactly once.
    for id in 9..=10u8 {
        assert_eq!(sim.app::<Edcan>(n(id)).deliveries().len(), 20, "node {id}");
    }
}

/// All three broadcast protocols at once (distinct type codes keep
/// them independent).
#[test]
fn three_broadcast_protocols_coexist() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    let payload = Payload::from_slice(&[0xCC]).unwrap();
    sim.add_node(
        n(0),
        Edcan::new().with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload)]),
    );
    sim.add_node(
        n(1),
        Relcan::new(BitTime::new(2_000))
            .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload)]),
    );
    sim.add_node(
        n(2),
        Totcan::new(BitTime::new(5_000))
            .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload)]),
    );
    // Dedicated observers for each protocol.
    sim.add_node(n(3), Edcan::new());
    sim.add_node(n(4), Relcan::new(BitTime::new(2_000)));
    sim.add_node(n(5), Totcan::new(BitTime::new(5_000)));
    sim.run_until(BitTime::new(60_000));
    assert_eq!(sim.app::<Edcan>(n(3)).deliveries().len(), 1);
    assert_eq!(sim.app::<Relcan>(n(4)).deliveries().len(), 1);
    assert_eq!(sim.app::<Totcan>(n(5)).deliveries().len(), 1);
}

/// Clock synchronization stays within its precision figure while a
/// membership group churns on the same bus.
#[test]
fn clock_precision_survives_membership_churn() {
    let clock_members = NodeSet::from_bits(0b11 << 10);
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..4u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    sim.add_node_at(
        n(7),
        CanelyStack::new(config.clone()),
        BitTime::new(400_000),
    );
    sim.add_node(
        n(10),
        ClockSync::new(ClockConfig::new(clock_members).with_drift_ppm(100)),
    );
    sim.add_node(
        n(11),
        ClockSync::new(
            ClockConfig::new(clock_members)
                .with_drift_ppm(-100)
                .with_initial_offset(5_000),
        ),
    );
    sim.schedule_crash(n(2), BitTime::new(500_000));
    sim.run_until(BitTime::new(1_500_000));

    let clocks = [sim.app::<ClockSync>(n(10)), sim.app::<ClockSync>(n(11))];
    let precision = ensemble_precision(&clocks, sim.now());
    assert!(precision <= 60, "precision {precision} µs");
    // And membership converged too.
    let expected = NodeSet::from_bits(0b1000_1011);
    for id in [0u8, 1, 3, 7] {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected);
    }
}

/// Weak-fail-silence enforcement: a transmitter whose frames keep
/// failing is driven bus-off by its fault-confinement counters and
/// stops disturbing the bus (Sec. 3/4).
#[test]
fn fault_confinement_forces_bus_off() {
    let mut faults = FaultPlan::none();
    // Every transmission of node 0 fails, 40 times (TEC: 40 × 8 = 320
    // — past the 256 bus-off threshold).
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher {
            sender: Some(n(0)),
            ..FaultMatcher::default()
        },
        effect: FaultEffect::ConsistentOmission,
        count: 40,
    });
    let mut sim = Simulator::new(BusConfig::default(), faults);
    sim.add_node(
        n(0),
        Recorder::sending(Frame::data(
            Mid::new(MsgType::AppData, 0, n(0)),
            Payload::from_slice(&[1]).unwrap(),
        )),
    );
    sim.add_node(n(1), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    assert!(
        sim.controller(n(0)).is_bus_off(),
        "TEC must force bus-off: tec = {}",
        sim.controller(n(0)).confinement().tec()
    );
    // The victim frame was never delivered.
    assert!(sim.app::<Recorder>(n(1)).events.is_empty());
}

/// Bus-off is not global: other nodes keep communicating.
#[test]
fn bus_off_node_does_not_jam_others() {
    let mut faults = FaultPlan::none();
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher {
            sender: Some(n(0)),
            ..FaultMatcher::default()
        },
        effect: FaultEffect::ConsistentOmission,
        count: 40,
    });
    let mut sim = Simulator::new(BusConfig::default(), faults);
    sim.add_node(
        n(0),
        Recorder::sending(Frame::data(
            Mid::new(MsgType::AppData, 0, n(0)),
            Payload::from_slice(&[1]).unwrap(),
        )),
    );
    sim.add_node(
        n(1),
        Recorder {
            send_at: vec![(
                BitTime::new(50_000),
                Frame::data(
                    Mid::new(MsgType::AppData, 0, n(1)),
                    Payload::from_slice(&[2]).unwrap(),
                ),
            )],
            ..Recorder::default()
        },
    );
    sim.add_node(n(2), Recorder::new());
    sim.run_until(BitTime::new(100_000));
    assert!(sim.controller(n(0)).is_bus_off());
    let heard = sim
        .app::<Recorder>(n(2))
        .indications_of(Mid::new(MsgType::AppData, 0, n(1)));
    assert_eq!(heard.len(), 1, "node 1 must still get through");
}
