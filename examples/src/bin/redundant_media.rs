//! Media redundancy (\[17\], "A Columbus' egg idea for CAN media
//! redundancy") in action.
//!
//! The CANELy system model *excludes* permanent channel failures such
//! as a medium partition, and the paper's footnote says how that
//! assumption is enforced: by the replicated-media scheme of \[17\].
//! This example shows both sides of that coin on the same scenario —
//! a cable fault severing nodes {2,3} from {0,1} for 300 ms:
//!
//! * on a single-medium bus the partition causes **split brain**: each
//!   side declares the other failed and continues with its own view;
//! * with the dual-media scheme, the same fault on medium 0 is
//!   completely masked by medium 1 — no failure notifications, the
//!   view never changes.
//!
//! Run with `cargo run --release -p examples --bin redundant_media`.

use can_bus::{BusConfig, FaultPlan, MediaFault};
use can_controller::Simulator;
use can_types::{BitTime, NodeId, NodeSet};
use canely::{CanelyConfig, CanelyStack, UpperEvent};
use examples::fmt_ms;

fn run(media_count: usize) -> Simulator {
    let mut faults = FaultPlan::none().with_media_count(media_count);
    faults.push_media_fault(MediaFault {
        medium: 0,
        isolated: NodeSet::from_bits(0b1100), // nodes 2,3 severed
        from: BitTime::new(300_000),
        until: BitTime::new(600_000),
    });
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), faults);
    for id in 0..4u8 {
        sim.add_node(NodeId::new(id), CanelyStack::new(config.clone()));
    }
    sim.run_until(BitTime::new(550_000));
    sim
}

fn report(label: &str, sim: &Simulator) {
    println!("{label}");
    for id in 0..4u8 {
        let stack = sim.app::<CanelyStack>(NodeId::new(id));
        let failures: Vec<String> = stack
            .events()
            .iter()
            .filter_map(|&(t, e)| match e {
                UpperEvent::FailureNotified(r) => Some(format!("{r}@{}", fmt_ms(t))),
                UpperEvent::Expelled => Some(format!("self-expelled@{}", fmt_ms(t))),
                _ => None,
            })
            .collect();
        println!(
            "  node {id}: view {}  failures seen: [{}]",
            stack.view(),
            failures.join(", ")
        );
    }
}

fn main() {
    println!("cable fault: nodes {{2,3}} severed from {{0,1}} on medium 0, 300-600 ms\n");

    let single = run(1);
    report(
        "single medium — the partition splits the membership:",
        &single,
    );
    let side_a = single.app::<CanelyStack>(NodeId::new(0)).view();
    let side_b = single.app::<CanelyStack>(NodeId::new(2)).view();
    assert_ne!(side_a, side_b, "split brain expected");

    println!();
    let dual = run(2);
    report("dual media ([17]) — the same fault is masked:", &dual);
    for id in 0..4u8 {
        let stack = dual.app::<CanelyStack>(NodeId::new(id));
        assert_eq!(stack.view(), NodeSet::first_n(4));
        assert!(stack
            .events()
            .iter()
            .all(|(_, e)| !matches!(e, UpperEvent::FailureNotified(_))));
    }
    println!("\nthe replicated medium preserves the single-channel assumption ✓");
}
