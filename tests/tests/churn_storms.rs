//! Hard concurrency: joins, leaves and crashes landing in the *same*
//! membership cycle, with and without network noise. The settlements
//! must still converge to the same view everywhere.

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeSet};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};
use integration::n;

/// Join, leave and crash all within one `Tm` window.
#[test]
fn join_leave_crash_in_one_cycle() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..5u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id == 4 {
            // Leaves right when the churn window opens.
            stack = stack.with_leave_at(BitTime::new(300_000));
        }
        sim.add_node(n(id), stack);
    }
    // A joiner powers on within the same cycle…
    sim.add_node_at(
        n(8),
        CanelyStack::new(config.clone()),
        BitTime::new(302_000),
    );
    // …and another member crashes within it too.
    sim.schedule_crash(n(3), BitTime::new(305_000));
    sim.run_until(BitTime::new(800_000));

    let expected = NodeSet::from_bits(0b1_0000_0111);
    for id in [0u8, 1, 2, 8] {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected, "node {id}");
    }
    // The leaver completed cleanly despite the concurrent churn.
    assert!(sim
        .app::<CanelyStack>(n(4))
        .events()
        .iter()
        .any(|(_, e)| matches!(e, UpperEvent::LeftService)));
}

/// The same single-cycle churn under stochastic omissions, across
/// seeds.
#[test]
fn single_cycle_churn_under_noise() {
    for seed in 0..8u64 {
        let faults = FaultPlan::seeded(seed)
            .with_consistent_rate(0.04)
            .with_inconsistent_rate(0.01)
            .with_omission_bound(16, BitTime::new(100_000))
            .with_inconsistent_bound(2);
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), faults);
        for id in 0..5u8 {
            let mut stack = CanelyStack::new(config.clone());
            if id % 2 == 0 {
                stack = stack.with_traffic(
                    TrafficConfig::periodic(BitTime::new(3_000), 4)
                        .with_offset(BitTime::new(u64::from(id) * 173)),
                );
            }
            if id == 4 {
                stack = stack.with_leave_at(BitTime::new(300_000));
            }
            sim.add_node(n(id), stack);
        }
        sim.add_node_at(
            n(8),
            CanelyStack::new(config.clone()),
            BitTime::new(301_000),
        );
        sim.schedule_crash(n(3), BitTime::new(304_000));
        sim.run_until(BitTime::new(900_000));

        let expected = NodeSet::from_bits(0b1_0000_0111);
        for id in [0u8, 1, 2, 8] {
            assert_eq!(
                sim.app::<CanelyStack>(n(id)).view(),
                expected,
                "seed {seed}, node {id}"
            );
        }
    }
}

/// Back-to-back crashes of consecutive cycle leaders: the cycle keeps
/// rolling because the cycle timer runs at every member.
#[test]
fn cascading_crashes_do_not_stall_the_cycle() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..6u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    // Crash a node roughly every cycle.
    for (k, victim) in [0u8, 1, 2, 3].iter().enumerate() {
        sim.schedule_crash(n(*victim), BitTime::new(250_000 + k as u64 * 35_000));
    }
    sim.run_until(BitTime::new(900_000));
    let expected = NodeSet::from_bits(0b11_0000);
    for id in [4u8, 5] {
        let stack = sim.app::<CanelyStack>(n(id));
        assert_eq!(stack.view(), expected, "node {id}");
        // All four failures notified, in crash order.
        let notified: Vec<u8> = stack
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                UpperEvent::FailureNotified(r) => Some(r.as_u8()),
                _ => None,
            })
            .collect();
        assert_eq!(notified, vec![0, 1, 2, 3], "node {id}");
    }
}

/// A node that leaves and a node that joins with the *same identifier
/// slot* across epochs: the late join of a fresh node reusing history
/// must not resurrect stale FDA state.
#[test]
fn identifier_reuse_after_leave() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..4u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id == 3 {
            stack = stack.with_leave_at(BitTime::new(250_000));
        }
        sim.add_node(n(id), stack);
    }
    sim.run_until(BitTime::new(400_000));
    assert_eq!(
        sim.app::<CanelyStack>(n(0)).view(),
        NodeSet::first_n(3),
        "leave settled"
    );
    // A *new* node with identifier 9 joins (identifier 3 cannot be
    // reused in-simulation; the point is that the view can grow again
    // after shrinking, with surveillance rebuilt from scratch).
    sim.add_node_at(
        n(9),
        CanelyStack::new(config.clone()),
        BitTime::new(420_000),
    );
    sim.run_until(BitTime::new(800_000));
    let expected = NodeSet::first_n(3) | NodeSet::singleton(n(9));
    for id in [0u8, 1, 2, 9] {
        let stack = sim.app::<CanelyStack>(n(id));
        assert_eq!(stack.view(), expected, "node {id}");
        assert_eq!(stack.monitored(), expected, "node {id} surveillance");
    }
}
