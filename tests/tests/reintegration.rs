//! Node restart and reintegration.
//!
//! The membership design assumes "any node removed from Vs, in the
//! sequence of a withdrawn request or after the failure of the node,
//! does not initiate a reintegration attempt before a period much
//! higher than Tm has elapsed" (Sec. 6.4). These tests exercise both
//! the compliant regime (clean reintegration with fresh state) and
//! view-sequence consistency across the whole lifecycle.

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeSet};
use canely::{CanelyConfig, CanelyStack, UpperEvent};
use integration::{assert_view_sequences_consistent, n};

/// Crash → reboot well after the failure settled → clean rejoin.
#[test]
fn compliant_reintegration_rejoins_cleanly() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..4u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    let crash_at = BitTime::new(250_000);
    sim.schedule_crash(n(2), crash_at);
    // Reintegration after ~8 cycles — "much higher than Tm".
    let restart_at = crash_at + config.membership_cycle * 8;
    sim.schedule_restart(n(2), restart_at, CanelyStack::new(config.clone()));
    sim.run_until(BitTime::new(900_000));

    // Everyone — the rebooted node included — holds the full view.
    for id in 0..4u8 {
        assert_eq!(
            sim.app::<CanelyStack>(n(id)).view(),
            NodeSet::first_n(4),
            "node {id}"
        );
    }
    // The survivors observed: full → without 2 → full again.
    let views: Vec<NodeSet> = sim
        .app::<CanelyStack>(n(0))
        .membership_history()
        .iter()
        .map(|e| e.view)
        .collect();
    assert_eq!(
        views,
        vec![
            NodeSet::first_n(4),
            NodeSet::from_bits(0b1011),
            NodeSet::first_n(4),
        ]
    );
    assert_view_sequences_consistent(&sim, &[0, 1, 3]);
}

/// The rebooted node starts from scratch: its event log begins with
/// its own (re)join, not stale pre-crash state.
#[test]
fn restart_loses_volatile_state() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..3u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    sim.schedule_crash(n(1), BitTime::new(250_000));
    sim.schedule_restart(
        n(1),
        BitTime::new(600_000),
        CanelyStack::new(config.clone()),
    );
    sim.run_until(BitTime::new(900_000));
    let rebooted = sim.app::<CanelyStack>(n(1));
    // First recorded event after reboot is the membership change that
    // integrated it — nothing from the pre-crash epoch.
    let first = rebooted.events().first().expect("rejoined");
    assert!(
        first.0 > BitTime::new(600_000),
        "stale pre-crash event kept"
    );
    assert!(matches!(first.1, UpperEvent::MembershipChange { .. }));
}

/// Repeated crash/restart cycles of the same node converge every time.
#[test]
fn repeated_power_cycles() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..3u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    for round in 0..3u64 {
        let base = BitTime::new(300_000 + round * 600_000);
        sim.schedule_crash(n(2), base);
        sim.schedule_restart(
            n(2),
            base + BitTime::new(300_000),
            CanelyStack::new(config.clone()),
        );
    }
    sim.run_until(BitTime::new(2_100_000));
    for id in 0..3u8 {
        assert_eq!(
            sim.app::<CanelyStack>(n(id)).view(),
            NodeSet::first_n(3),
            "node {id} after three power cycles"
        );
    }
    // Survivors saw exactly three failure notifications for node 2.
    let failures = sim
        .app::<CanelyStack>(n(0))
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(2)))
        .count();
    assert_eq!(failures, 3);
    assert_view_sequences_consistent(&sim, &[0, 1]);
}

/// Restarting a *live* node is a power cycle: fail-silent crash, then
/// fresh boot — the membership sees a failure followed by a rejoin.
#[test]
fn power_cycle_of_live_node() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..3u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    sim.schedule_restart(
        n(2),
        BitTime::new(400_000),
        CanelyStack::new(config.clone()),
    );
    sim.run_until(BitTime::new(900_000));
    for id in 0..3u8 {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), NodeSet::first_n(3));
    }
    assert!(sim
        .app::<CanelyStack>(n(0))
        .events()
        .iter()
        .any(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(2))));
}

/// View sequences stay consistent through a mixed lifecycle (crash,
/// restart, join, leave) — the sequence-level agreement property.
#[test]
fn lifecycle_view_sequences_consistent() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..5u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id == 4 {
            stack = stack.with_leave_at(BitTime::new(500_000));
        }
        sim.add_node(n(id), stack);
    }
    sim.schedule_crash(n(3), BitTime::new(300_000));
    sim.schedule_restart(
        n(3),
        BitTime::new(700_000),
        CanelyStack::new(config.clone()),
    );
    sim.add_node_at(
        n(9),
        CanelyStack::new(config.clone()),
        BitTime::new(900_000),
    );
    sim.run_until(BitTime::new(1_400_000));

    let expected = NodeSet::from_bits(0b10_0000_1111);
    for id in [0u8, 1, 2, 3, 9] {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected, "node {id}");
    }
    assert_view_sequences_consistent(&sim, &[0, 1, 2]);
}
