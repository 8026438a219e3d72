//! Property-based tests of the protocol state machines, driven
//! directly (no simulator): randomized input sequences must preserve
//! the per-entity invariants regardless of ordering.

use can_controller::Rig;
use can_types::{BitTime, NodeId, NodeSet, Payload};
use canely::fda::Fda;
use canely::membership::Membership;
use canely::rha::{Rha, RhaNotification, SharedSets};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u8..64).prop_map(NodeId::new)
}

fn arb_set() -> impl Strategy<Value = NodeSet> {
    any::<u64>().prop_map(NodeSet::from_bits)
}

proptest! {
    /// FDA: any interleaving of invocations and frame arrivals
    /// delivers at most one notification per failed node and issues at
    /// most one transmit request per failed node.
    #[test]
    fn fda_delivers_once_requests_once(
        ops in prop::collection::vec((any::<bool>(), arb_node()), 1..60),
    ) {
        let mut h = Rig::new(0);
        let mut fda = Fda::new();
        let mut delivered: Vec<NodeId> = Vec::new();
        h.ctx(|ctx| {
            for (is_invoke, node) in &ops {
                if *is_invoke {
                    fda.invoke(ctx, *node);
                } else if let Some(r) = fda.on_rtr_ind(ctx, Fda::failure_sign_mid(*node)) {
                    delivered.push(r);
                }
            }
        });
        // At most one delivery per node.
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), delivered.len(), "duplicate deliveries");
        // Queue holds at most one request per distinct node (requests
        // may already have been consumed in a real run; here nothing
        // drains the queue, so queue length == distinct requests).
        let distinct: std::collections::HashSet<u8> =
            ops.iter().map(|(_, n)| n.as_u8()).collect();
        prop_assert!(h.ctl.queue_len() <= distinct.len());
    }

    /// RHA: an arbitrary stream of RHV signals keeps the local vector
    /// equal to the intersection of the initial proposal with every
    /// received vector (monotone shrinkage, order-independent result).
    #[test]
    fn rha_vector_is_running_intersection(
        vs_bits in any::<u64>(),
        signals in prop::collection::vec((1u8..64, any::<u64>()), 1..30),
    ) {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        let sets = SharedSets {
            vs: NodeSet::from_bits(vs_bits | 1), // we are a member
            vj: NodeSet::EMPTY,
            vl: NodeSet::EMPTY,
        };
        h.ctx(|ctx| {
            rha.request(ctx, sets);
        });
        let mut expected = sets.vs;
        for (from, bits) in &signals {
            let v = NodeSet::from_bits(*bits);
            let mid = Rha::rhv_mid(NodeId::new(*from), v);
            let payload = Payload::from_slice(&v.to_bytes()).unwrap();
            h.ctx(|ctx| {
                rha.on_data_ind(ctx, mid, &payload, true, sets);
            });
            expected &= v;
            prop_assert_eq!(rha.current_vector(), expected);
        }
        // Termination returns exactly the intersection and resets.
        let nty = h.ctx(|ctx| rha.on_timeout(ctx));
        prop_assert_eq!(nty, RhaNotification::End(expected));
        prop_assert!(!rha.is_running());
    }

    /// RHA is order-insensitive: permuting the received signals yields
    /// the same final vector.
    #[test]
    fn rha_result_is_permutation_invariant(
        vs_bits in any::<u64>(),
        signals in prop::collection::vec(any::<u64>(), 2..12),
    ) {
        let run = |order: &[u64]| {
            let mut h = Rig::new(0);
            let mut rha = Rha::new(BitTime::new(5_000), 2);
            let sets = SharedSets {
                vs: NodeSet::from_bits(vs_bits | 1),
                vj: NodeSet::EMPTY,
                vl: NodeSet::EMPTY,
            };
            h.ctx(|ctx| {
                rha.request(ctx, sets);
            });
            for (i, bits) in order.iter().enumerate() {
                let v = NodeSet::from_bits(*bits);
                let mid = Rha::rhv_mid(NodeId::new((i % 63 + 1) as u8), v);
                let payload = Payload::from_slice(&v.to_bytes()).unwrap();
                h.ctx(|ctx| {
                    rha.on_data_ind(ctx, mid, &payload, true, sets);
                });
            }
            match h.ctx(|ctx| rha.on_timeout(ctx)) {
                RhaNotification::End(v) => v,
                RhaNotification::Init => unreachable!(),
            }
        };
        let forward = run(&signals);
        let mut reversed = signals.clone();
        reversed.reverse();
        prop_assert_eq!(forward, run(&reversed));
    }

    /// Membership: join/leave indications never corrupt the view
    /// directly (only settlements do), and failure notifications
    /// always shrink it.
    #[test]
    fn membership_view_changes_only_at_settlements(
        initial in arb_set(),
        ops in prop::collection::vec((0u8..3, arb_node()), 1..40),
    ) {
        let mut h = Rig::new(0);
        let mut msh = Membership::new(BitTime::new(30_000), BitTime::new(60_000));
        // Install an initial view via a settlement.
        h.ctx(|ctx| {
            msh.on_rha_end(ctx, initial | NodeSet::singleton(NodeId::new(0)));
        });
        let view_after_install = msh.view();
        let mut failed = NodeSet::EMPTY;
        for (op, node) in &ops {
            match op {
                0 => msh.on_join_ind(*node),
                1 => msh.on_leave_ind(*node),
                _ => {
                    h.ctx(|ctx| {
                        msh.on_fd_nty(ctx, *node);
                    });
                    failed.insert(*node);
                }
            }
            // Joins/leaves alone never grow the view; the view only
            // changes through view-processing points.
            prop_assert_eq!(msh.view(), view_after_install);
        }
        // The next settlement applies the accumulated failures.
        let agreed = view_after_install;
        h.ctx(|ctx| {
            msh.on_rha_end(ctx, agreed);
        });
        if !msh.is_out_of_service() {
            prop_assert_eq!(msh.view(), agreed - failed);
        }
    }

    /// Membership: settled views never contain a node reported failed
    /// in the same cycle, regardless of op interleaving.
    #[test]
    fn settlement_excludes_same_cycle_failures(
        agreed in arb_set(),
        victims in prop::collection::vec(arb_node(), 0..5),
    ) {
        let mut h = Rig::new(0);
        let mut msh = Membership::new(BitTime::new(30_000), BitTime::new(60_000));
        h.ctx(|ctx| {
            msh.on_rha_end(ctx, NodeSet::ALL);
        });
        let mut failed = NodeSet::EMPTY;
        for v in &victims {
            if v.as_u8() != 0 {
                h.ctx(|ctx| {
                    msh.on_fd_nty(ctx, *v);
                });
                failed.insert(*v);
            }
        }
        h.ctx(|ctx| {
            msh.on_rha_end(ctx, agreed | NodeSet::singleton(NodeId::new(0)));
        });
        prop_assert!((msh.view() & failed).is_empty());
    }
}
