//! Property-based whole-system tests: randomized cluster sizes, crash
//! schedules, churn and fault seeds — the agreement invariants must
//! hold for every generated scenario.

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeSet};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};
use integration::n;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    nodes: u8,
    victims: Vec<u8>,
    crash_offsets: Vec<u64>,
    seed: u64,
    traffic_mask: u8,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (3u8..10, any::<u64>(), any::<u8>())
        .prop_flat_map(|(nodes, seed, traffic_mask)| {
            let victims = prop::collection::vec(0..nodes, 0..=((nodes - 2) as usize).min(3));
            let offsets = prop::collection::vec(0u64..60_000, 3);
            (
                Just(nodes),
                victims,
                offsets,
                Just(seed),
                Just(traffic_mask),
            )
        })
        .prop_map(|(nodes, mut victims, crash_offsets, seed, traffic_mask)| {
            victims.sort_unstable();
            victims.dedup();
            Scenario {
                nodes,
                victims,
                crash_offsets,
                seed,
                traffic_mask,
            }
        })
}

fn run_scenario(s: &Scenario) -> Result<(), TestCaseError> {
    let faults = FaultPlan::seeded(s.seed)
        .with_consistent_rate(0.02)
        .with_inconsistent_rate(0.005)
        .with_omission_bound(16, BitTime::new(100_000))
        .with_inconsistent_bound(2);
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), faults);
    for id in 0..s.nodes {
        let mut stack = CanelyStack::new(config.clone());
        if s.traffic_mask & (1 << (id % 8)) != 0 {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(3_500), 4)
                    .with_offset(BitTime::new(u64::from(id) * 101)),
            );
        }
        sim.add_node(n(id), stack);
    }
    let base = BitTime::new(250_000);
    for (k, &victim) in s.victims.iter().enumerate() {
        let offset = s.crash_offsets.get(k).copied().unwrap_or(0);
        sim.schedule_crash(n(victim), base + BitTime::new(offset));
    }
    sim.run_until(BitTime::new(800_000));

    let victims: NodeSet = s.victims.iter().map(|&v| n(v)).collect();
    let expected = NodeSet::first_n(s.nodes as usize) - victims;
    let survivors: Vec<u8> = (0..s.nodes).filter(|id| !s.victims.contains(id)).collect();

    // Invariant 1: every correct node holds the expected view.
    for &id in &survivors {
        let view = sim.app::<CanelyStack>(n(id)).view();
        prop_assert_eq!(
            view,
            expected,
            "node {} view {} != expected {} in {:?}",
            id,
            view,
            expected,
            s
        );
    }
    // Invariant 2: every victim was notified exactly once at each
    // survivor.
    for &id in &survivors {
        let stack = sim.app::<CanelyStack>(n(id));
        for &victim in &s.victims {
            let notifications = stack
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(victim)))
                .count();
            prop_assert_eq!(
                notifications,
                1,
                "node {} saw {} notifications for victim {} in {:?}",
                id,
                notifications,
                victim,
                s
            );
        }
    }
    // Invariant 3: no correct node was expelled.
    for &id in &survivors {
        prop_assert!(
            !sim.app::<CanelyStack>(n(id)).is_out_of_service(),
            "correct node {} expelled in {:?}",
            id,
            s
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn agreement_invariants_hold_for_random_scenarios(s in arb_scenario()) {
        run_scenario(&s)?;
    }
}

/// Regression corpus: scenarios that once looked suspicious, pinned
/// as plain tests.
#[test]
fn pinned_scenarios() {
    for s in [
        Scenario {
            nodes: 3,
            victims: vec![0],
            crash_offsets: vec![0, 0, 0],
            seed: 0,
            traffic_mask: 0xFF,
        },
        Scenario {
            nodes: 9,
            victims: vec![0, 4, 8],
            crash_offsets: vec![0, 30_000, 59_999],
            seed: 1234,
            traffic_mask: 0,
        },
        Scenario {
            nodes: 4,
            victims: vec![],
            crash_offsets: vec![0, 0, 0],
            seed: u64::MAX,
            traffic_mask: 0b1010,
        },
    ] {
        run_scenario(&s).unwrap_or_else(|e| panic!("pinned scenario {s:?} failed: {e}"));
    }
}
