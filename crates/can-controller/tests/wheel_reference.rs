//! The hierarchical `TimerWheel` against the heap of carriers it
//! replaced (`reference`, kept verbatim): over random soups of starts,
//! restarts, cancels, crash-cancels, polls and pops on three time
//! scales, both hand out the same handles and report the same `len`,
//! `next_deadline` and `pop_due` sequence — the whole of what the
//! simulator reads, so every run fires the same timers in the same
//! order on either.

mod reference;

use can_controller::TimerWheel;
use can_types::{BitTime, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Start(u8, u64),
    /// Handles are picked among all issued so far: fired, cancelled
    /// and crash-cancelled ones included.
    Restart(usize, u8, u64),
    Cancel(usize),
    CancelNode(u8),
    NextDeadline,
    PopDue(u64),
}

/// Three scales: shared instants, a run's worth of protocol delays,
/// and deadlines far enough apart to reach the top levels.
fn instant() -> impl Strategy<Value = u64> {
    (0u8..3, any::<u64>()).prop_map(|(scale, x)| match scale {
        0 => x % 12,
        1 => x % 300_000,
        _ => x >> 8,
    })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..16, any::<usize>(), 0u8..4, instant()).prop_map(|(which, pick, node, at)| match which {
        0..=3 => Op::Start(node, at),
        4..=8 => Op::Restart(pick, node, at),
        9..=10 => Op::Cancel(pick),
        11 => Op::CancelNode(node),
        12 => Op::NextDeadline,
        _ => Op::PopDue(at),
    })
}

proptest! {
    #[test]
    fn the_wheel_fires_what_the_heap_fired(ops in prop::collection::vec(op(), 1..300)) {
        let mut wheel = TimerWheel::new();
        let mut heap = reference::TimerWheel::new();
        let mut issued = Vec::new();
        for (tag, op) in ops.into_iter().enumerate() {
            let (tag, pick) = (tag as u64, |i: usize, ids: &[_]| ids[i % ids.len()]);
            match op {
                Op::Start(node, at) => {
                    let (node, at) = (NodeId::new(node), BitTime::new(at));
                    let ids = (wheel.start(node, at, tag), heap.start(node, at, tag));
                    prop_assert_eq!(ids.0.as_u64(), ids.1.as_u64());
                    issued.push(ids);
                }
                Op::Restart(i, node, at) if !issued.is_empty() => {
                    let (old, node, at) = (pick(i, &issued), NodeId::new(node), BitTime::new(at));
                    let ids = (
                        wheel.restart(old.0, node, at, tag),
                        heap.restart(old.1, node, at, tag),
                    );
                    prop_assert_eq!(ids.0.as_u64(), ids.1.as_u64());
                    issued.push(ids);
                }
                Op::Cancel(i) if !issued.is_empty() => {
                    let id = pick(i, &issued);
                    prop_assert_eq!(wheel.cancel(id.0), heap.cancel(id.1));
                }
                Op::Restart(..) | Op::Cancel(_) => {}
                Op::CancelNode(node) => {
                    wheel.cancel_node(NodeId::new(node));
                    heap.cancel_node(NodeId::new(node));
                }
                Op::NextDeadline => prop_assert_eq!(wheel.next_deadline(), heap.next_deadline()),
                Op::PopDue(now) => {
                    let now = BitTime::new(now);
                    let fired = (wheel.pop_due(now), heap.pop_due(now));
                    prop_assert_eq!(
                        fired.0.map(|f| (f.deadline, f.id.as_u64(), f.node, f.tag)),
                        fired.1.map(|f| (f.deadline, f.id.as_u64(), f.node, f.tag))
                    );
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both: the rest fires in the same order too.
        let end = BitTime::new(u64::MAX);
        loop {
            let fired = (wheel.pop_due(end), heap.pop_due(end));
            prop_assert_eq!(fired.0.map(|f| f.id.as_u64()), fired.1.map(|f| f.id.as_u64()));
            if fired.0.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}
