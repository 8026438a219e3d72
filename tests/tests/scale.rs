//! Full-scale runs: the paper's n = 32 operating point and the
//! stack's 64-node addressing limit.

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeSet, MAX_NODES};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};
use integration::n;

/// The paper's population: 32 nodes bootstrap, settle, and absorb a
/// crash with agreed detection.
#[test]
fn thirty_two_nodes_settle_and_detect() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..32u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id % 2 == 0 {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(4_000), 8)
                    .with_offset(BitTime::new(u64::from(id) * 127)),
            );
        }
        sim.add_node(n(id), stack);
    }
    sim.run_until(BitTime::new(250_000));
    for id in 0..32u8 {
        assert_eq!(
            sim.app::<CanelyStack>(n(id)).view(),
            NodeSet::first_n(32),
            "node {id} after bootstrap"
        );
    }
    sim.schedule_crash(n(17), BitTime::new(300_000));
    sim.run_until(BitTime::new(600_000));
    let expected = NodeSet::first_n(32) - NodeSet::singleton(n(17));
    for id in (0..32u8).filter(|&id| id != 17) {
        let stack = sim.app::<CanelyStack>(n(id));
        assert_eq!(stack.view(), expected, "node {id} after crash");
        assert!(stack
            .events()
            .iter()
            .any(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(17))));
    }
}

/// The addressing limit: all 64 node identifiers participate. This
/// exercises the `NodeSet` boundary (bit 63) end to end.
#[test]
fn sixty_four_nodes_bootstrap() {
    // Dimensioning matters at full population: 64 nodes × one frame
    // per Th would exceed the bus at the default Th = 5 ms (64 × 80
    // bits / 5 000 ≈ 102 %). A 20 ms heartbeat keeps the life-sign
    // load at ~6 % and the 48 traffic streams (12 ms < Th, so they
    // ride the implicit-heartbeat mechanism) at ~38 %.
    let config = CanelyConfig::default().with_heartbeat_period(BitTime::new(20_000));
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..MAX_NODES as u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id % 4 != 0 {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(12_000), 4)
                    .with_offset(BitTime::new(u64::from(id) * 61)),
            );
        }
        sim.add_node(n(id), stack);
    }
    sim.run_until(BitTime::new(400_000));
    for id in [0u8, 31, 32, 63] {
        assert_eq!(
            sim.app::<CanelyStack>(n(id)).view(),
            NodeSet::ALL,
            "node {id}"
        );
    }
}

/// Sustained operation: one simulated second at n = 32 with periodic
/// churn keeps every invariant (views agree at the sample points).
#[test]
fn one_second_with_churn() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..24u8 {
        sim.add_node(
            n(id),
            CanelyStack::new(config.clone()).with_traffic(
                TrafficConfig::periodic(BitTime::new(3_000), 8)
                    .with_offset(BitTime::new(u64::from(id) * 113)),
            ),
        );
    }
    // Churn: two crashes, two late joiners.
    sim.schedule_crash(n(5), BitTime::new(300_000));
    sim.schedule_crash(n(6), BitTime::new(550_000));
    sim.add_node_at(
        n(40),
        CanelyStack::new(config.clone()),
        BitTime::new(400_000),
    );
    sim.add_node_at(
        n(41),
        CanelyStack::new(config.clone()),
        BitTime::new(700_000),
    );
    sim.run_until(BitTime::new(1_000_000));

    let expected =
        (NodeSet::first_n(24) - NodeSet::from_bits(0b110_0000)) | NodeSet::from_bits(0b11 << 40);
    let survivors: Vec<u8> = (0..24u8).filter(|&id| id != 5 && id != 6).collect();
    for &id in survivors.iter().chain([40u8, 41].iter()) {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected, "node {id}");
    }
}
