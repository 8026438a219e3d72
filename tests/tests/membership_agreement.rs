//! End-to-end agreement properties of the CANELy membership service —
//! the paper's central claims, exercised across fault campaigns,
//! churn, and configuration sweeps.

use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
use can_controller::Simulator;
use can_types::{BitTime, MsgType, NodeId, NodeSet};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};
use integration::n;

fn build_cluster(sim: &mut Simulator, count: u8, config: &CanelyConfig) {
    for id in 0..count {
        let mut stack = CanelyStack::new(config.clone());
        if id % 2 == 1 {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(3_000), 4)
                    .with_offset(BitTime::new(u64::from(id) * 157)),
            );
        }
        sim.add_node(n(id), stack);
    }
}

fn views_agree(sim: &Simulator, survivors: &[u8]) -> bool {
    let reference = sim.app::<CanelyStack>(n(survivors[0])).view();
    survivors
        .iter()
        .all(|&id| sim.app::<CanelyStack>(n(id)).view() == reference)
}

/// The fundamental problem: "the ability of correct nodes to reach
/// agreement on the Vs set, within a bounded and known time".
#[test]
fn agreement_over_seeded_fault_campaigns() {
    for seed in 0..20u64 {
        let faults = FaultPlan::seeded(seed)
            .with_consistent_rate(0.03)
            .with_inconsistent_rate(0.01)
            .with_omission_bound(16, BitTime::new(100_000))
            .with_inconsistent_bound(2);
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), faults);
        build_cluster(&mut sim, 6, &config);
        sim.schedule_crash(n(4), BitTime::new(300_000));
        sim.run_until(BitTime::new(700_000));

        let survivors = [0u8, 1, 2, 3, 5];
        assert!(
            views_agree(&sim, &survivors),
            "seed {seed}: views diverged: {:?}",
            survivors
                .iter()
                .map(|&id| sim.app::<CanelyStack>(n(id)).view())
                .collect::<Vec<_>>()
        );
        let expected = NodeSet::first_n(6) - NodeSet::singleton(n(4));
        assert_eq!(sim.app::<CanelyStack>(n(0)).view(), expected, "seed {seed}");
    }
}

/// Failure notifications carry the same content at every correct node
/// (consistency of `fd-can.nty`, secured by FDA).
#[test]
fn failure_notifications_identical_everywhere() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    build_cluster(&mut sim, 5, &config);
    sim.schedule_crash(n(2), BitTime::new(300_000));
    sim.run_until(BitTime::new(600_000));
    let mut notifications: Vec<Vec<NodeId>> = Vec::new();
    for id in [0u8, 1, 3, 4] {
        notifications.push(
            sim.app::<CanelyStack>(n(id))
                .events()
                .iter()
                .filter_map(|(_, e)| match e {
                    UpperEvent::FailureNotified(r) => Some(*r),
                    _ => None,
                })
                .collect(),
        );
    }
    assert!(notifications.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(notifications[0], vec![n(2)]);
}

/// Multiple concurrent crashes (up to the assumption's `f`) are all
/// detected and the view converges.
#[test]
fn concurrent_crash_storm() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    build_cluster(&mut sim, 8, &config);
    for (k, victim) in [2u8, 3, 5, 6].iter().enumerate() {
        sim.schedule_crash(n(*victim), BitTime::new(300_000 + k as u64 * 500));
    }
    sim.run_until(BitTime::new(800_000));
    let expected = NodeSet::from_bits(0b1001_0011);
    for id in [0u8, 1, 4, 7] {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected, "node {id}");
    }
}

/// Join/leave churn: nodes leave and (distinct) nodes join in
/// overlapping cycles; everyone converges.
#[test]
fn join_leave_churn_converges() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..6u8 {
        let mut stack = CanelyStack::new(config.clone());
        if id >= 4 {
            stack = stack.with_leave_at(BitTime::new(300_000 + u64::from(id) * 7_000));
        }
        sim.add_node(n(id), stack);
    }
    for id in 8..11u8 {
        sim.add_node_at(
            n(id),
            CanelyStack::new(config.clone()),
            BitTime::new(320_000 + u64::from(id) * 5_000),
        );
    }
    sim.run_until(BitTime::new(900_000));
    let expected = NodeSet::first_n(4) | NodeSet::from_bits(0b111 << 8);
    for id in [0u8, 1, 2, 3, 8, 9, 10] {
        assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected, "node {id}");
    }
    // The leavers got their LeftService notification.
    for id in [4u8, 5] {
        assert!(sim
            .app::<CanelyStack>(n(id))
            .events()
            .iter()
            .any(|(_, e)| matches!(e, UpperEvent::LeftService)));
    }
}

/// A node that crashes *while joining* must not pollute the view
/// (the V'j straggler-removal machinery).
#[test]
fn joiner_crash_does_not_poison_view() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    build_cluster(&mut sim, 4, &config);
    let joiner = n(9);
    let t_join = BitTime::new(300_000);
    sim.add_node_at(joiner, CanelyStack::new(config.clone()), t_join);
    // The joiner dies right after issuing its JOIN (before settlement).
    sim.schedule_crash(joiner, t_join + BitTime::new(500));
    sim.run_until(BitTime::new(900_000));
    for id in 0..4u8 {
        let view = sim.app::<CanelyStack>(n(id)).view();
        assert!(
            !view.contains(joiner),
            "node {id}: dead joiner stuck in view {view}"
        );
    }
}

/// Detection latency honours the configured bound across heartbeat
/// periods (the `Th + Ttd` law).
#[test]
fn detection_latency_scales_with_heartbeat_period() {
    let mut previous = BitTime::ZERO;
    for th_ms in [5u64, 10, 20] {
        let config = CanelyConfig::default().with_heartbeat_period(BitTime::new(th_ms * 1_000));
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        build_cluster(&mut sim, 4, &config);
        let crash_at = config.join_wait + config.membership_cycle * 3;
        sim.schedule_crash(n(0), crash_at);
        sim.run_until(crash_at + config.membership_cycle * 3);
        let detected = sim
            .app::<CanelyStack>(n(1))
            .events()
            .iter()
            .find_map(|&(t, e)| match e {
                UpperEvent::FailureNotified(r) if r == n(0) => Some(t),
                _ => None,
            })
            .expect("detected");
        let latency = detected - crash_at;
        let bound = config.detection_latency_bound() + BitTime::new(1_000);
        assert!(latency <= bound, "Th={th_ms}ms: {latency} > {bound}");
        assert!(latency >= previous, "latency must grow with Th");
        previous = latency;
    }
}

/// The LCAN2-caveat scenario (inconsistent life-sign, sender crash)
/// from Sec. 6.1, under three different accepter patterns.
#[test]
fn inconsistent_life_sign_scenarios() {
    for accepters_bits in [0b0001u64, 0b0011, 0b0111] {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Els),
                mid_node: Some(n(3)),
                not_before: BitTime::new(250_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::from_bits(accepters_bits)),
                crash_sender: true,
            },
            count: 1,
        });
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), faults);
        for id in 0..4u8 {
            sim.add_node(n(id), CanelyStack::new(config.clone()));
        }
        sim.run_until(BitTime::new(700_000));
        let expected = NodeSet::first_n(3);
        for id in 0..3u8 {
            assert_eq!(
                sim.app::<CanelyStack>(n(id)).view(),
                expected,
                "accepters {accepters_bits:b}, node {id}"
            );
        }
    }
}

/// Determinism across the whole stack: identical seeds, identical
/// histories (prerequisite for every other test in this suite).
#[test]
fn whole_system_determinism() {
    let run = |seed: u64| {
        let faults = FaultPlan::seeded(seed)
            .with_consistent_rate(0.05)
            .with_inconsistent_rate(0.02);
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), faults);
        build_cluster(&mut sim, 6, &config);
        sim.schedule_crash(n(5), BitTime::new(280_000));
        sim.run_until(BitTime::new(600_000));
        let errors = sim
            .trace()
            .stats(BitTime::ZERO, BitTime::new(600_000))
            .errors;
        let events: Vec<_> = (0..5u8)
            .map(|id| sim.app::<CanelyStack>(n(id)).events().to_vec())
            .collect();
        (errors, events)
    };
    assert_eq!(run(42), run(42));
    // Different seeds explore different fault patterns on the wire
    // (the upper-layer histories may coincide — that is the point of
    // fault masking).
    assert_ne!(run(42).0, run(43).0);
}
