//! Fault storm: the membership service under sustained network
//! faults — stochastic consistent *and* inconsistent omissions plus a
//! scripted inconsistent-life-sign-with-sender-crash, the hardest
//! scenario of Sec. 6.1 ("the delivery of node activity signals cannot
//! be guaranteed when a given message transmission is affected by an
//! inconsistent omission error and the sender fails before completing
//! the transmission").
//!
//! The run demonstrates the paper's claims: every correct node gets
//! the same failure notifications and converges to the same view, and
//! the bounded omission degree keeps the detection latency bounded.
//!
//! Run with `cargo run --release -p examples --bin fault_storm`.

use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
use can_controller::Simulator;
use can_types::{BitTime, MsgType, NodeId, NodeSet};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};
use examples::fmt_ms;

const N: u8 = 8;

fn main() {
    let mut agreed_runs = 0;
    for seed in 0..10u64 {
        if run_storm(seed) {
            agreed_runs += 1;
        }
    }
    println!("\n{agreed_runs}/10 seeded storms ended in full agreement ✓");
    assert_eq!(agreed_runs, 10, "agreement must survive every storm");
}

/// Returns whether all correct nodes agreed on everything.
fn run_storm(seed: u64) -> bool {
    let mut faults = FaultPlan::seeded(seed)
        .with_consistent_rate(0.02)
        .with_inconsistent_rate(0.005)
        .with_omission_bound(16, BitTime::new(100_000))
        .with_inconsistent_bound(2);
    // The nightmare scenario, scripted deterministically on top of the
    // stochastic noise: node 5's life-sign reaches exactly one node,
    // then node 5 dies.
    faults.push_scripted(ScriptedFault {
        matcher: FaultMatcher {
            msg_type: Some(MsgType::Els),
            mid_node: Some(NodeId::new(5)),
            not_before: BitTime::new(300_000),
            ..FaultMatcher::default()
        },
        effect: FaultEffect::InconsistentOmission {
            accepters: AccepterSpec::Exactly(NodeSet::singleton(NodeId::new(0))),
            crash_sender: true,
        },
        count: 1,
    });

    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), faults);
    for id in 0..N {
        let mut stack = CanelyStack::new(config.clone());
        if id % 2 == 0 {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(4_000), 4)
                    .with_offset(BitTime::new(u64::from(id) * 211)),
            );
        }
        sim.add_node(NodeId::new(id), stack);
    }
    // A second, plain crash later in the run.
    sim.schedule_crash(NodeId::new(6), BitTime::new(450_000));
    sim.run_until(BitTime::new(900_000));

    let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(900_000));
    let survivors: Vec<u8> = (0..N).filter(|&id| id != 5 && id != 6).collect();
    let reference_view = sim.app::<CanelyStack>(NodeId::new(0)).view();
    let expected = NodeSet::first_n(N as usize)
        - NodeSet::singleton(NodeId::new(5))
        - NodeSet::singleton(NodeId::new(6));

    let mut agreed = reference_view == expected;
    let mut latencies = Vec::new();
    for &id in &survivors {
        let stack = sim.app::<CanelyStack>(NodeId::new(id));
        agreed &= stack.view() == reference_view;
        for victim in [5u8, 6] {
            if let Some(&(t, _)) = stack
                .events()
                .iter()
                .find(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if r.as_u8() == victim))
            {
                latencies.push(t);
            } else {
                agreed = false;
            }
        }
    }
    let worst = latencies.iter().max().copied().unwrap_or(BitTime::ZERO);
    println!(
        "seed {seed:>2}: {} bus transactions, {} errored ({:.1}%), \
         final view {} at all {} survivors: {} (last notification {})",
        stats.transactions,
        stats.errors,
        stats.errors as f64 / stats.transactions.max(1) as f64 * 100.0,
        reference_view,
        survivors.len(),
        if agreed { "AGREED" } else { "DISAGREED" },
        fmt_ms(worst),
    );
    agreed
}
