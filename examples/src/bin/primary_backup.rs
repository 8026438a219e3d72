//! Primary/backup fail-over driven by consistent group views.
//!
//! The classic use of a membership service in control systems: a
//! replicated controller where the *primary* is chosen
//! deterministically from the group view (lowest identifier). Because
//! the CANELy failure notifications are agreed, every replica and
//! every observer switches to the same new primary at the same
//! notification instant — no election protocol needed.
//!
//! Scenario: three controller replicas (nodes 0, 1, 2) in process
//! group 1, plus two sensor nodes. The primary crashes twice; the
//! fail-over chain 0 → 1 → 2 is observed identically everywhere.
//!
//! Run with `cargo run --release -p examples --bin primary_backup`.

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId, NodeSet};
use canely::{CanelyConfig, TrafficConfig};
use canely_groups::{GroupId, GroupStack};
use examples::fmt_ms;

const CONTROLLERS: GroupId = GroupId::new(1);

/// The primary of a group view: its lowest-identifier member.
fn primary(view: NodeSet) -> Option<NodeId> {
    view.iter().next()
}

fn main() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());

    // Three controller replicas.
    for id in 0..3u8 {
        sim.add_node(
            NodeId::new(id),
            GroupStack::new(config.clone()).with_group_join_at(CONTROLLERS, BitTime::new(150_000)),
        );
    }
    // Two sensor nodes (observers of the controller group).
    for id in 3..5u8 {
        sim.add_node(
            NodeId::new(id),
            GroupStack::new(config.clone()).with_traffic(
                TrafficConfig::periodic(BitTime::new(4_000), 4)
                    .with_offset(BitTime::new(u64::from(id) * 101)),
            ),
        );
    }

    // The primary (node 0) crashes; later its successor (node 1) too.
    sim.schedule_crash(NodeId::new(0), BitTime::new(300_000));
    sim.schedule_crash(NodeId::new(1), BitTime::new(500_000));
    sim.run_until(BitTime::new(800_000));

    // Reconstruct the fail-over chain each node observed from its
    // group-event history.
    println!("primary fail-over chain as observed at each node:");
    let mut chains = Vec::new();
    for id in [2u8, 3, 4] {
        let stack = sim.app::<GroupStack>(NodeId::new(id));
        let mut chain: Vec<(BitTime, Option<NodeId>)> = Vec::new();
        for event in stack.groups().events() {
            if event.group == CONTROLLERS {
                let p = primary(event.view);
                if chain.last().map(|&(_, last)| last) != Some(p) {
                    chain.push((event.time, p));
                }
            }
        }
        let rendered: Vec<String> = chain
            .iter()
            .map(|&(t, p)| {
                format!(
                    "{}@{}",
                    p.map_or("-".to_string(), |n| n.to_string()),
                    fmt_ms(t)
                )
            })
            .collect();
        println!("  node {id}: {}", rendered.join(" -> "));
        chains.push(chain.iter().map(|&(_, p)| p).collect::<Vec<_>>());
    }

    // Every observer saw the same chain of primaries.
    assert!(chains.windows(2).all(|w| w[0] == w[1]), "chains diverged");
    let final_primary = primary(
        sim.app::<GroupStack>(NodeId::new(2))
            .group_view(CONTROLLERS),
    );
    assert_eq!(final_primary, Some(NodeId::new(2)));
    println!("\nall observers agree; final primary: node 2 ✓");
}
