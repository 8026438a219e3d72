//! A bounded exhaustive check of the gateway role machine
//! ([`GatewayRole::step`]), run without a simulator: one segment of up
//! to four nodes, every sequence of up to five segment-wide inputs.

use can_types::{NodeId, NodeSet};
use canely_federation::{GatewayRole, RoleInput, RoleOutput};
use std::collections::HashSet;

/// The largest digest epoch the exhaustive check puts on the bus.
const MAX_EPOCH: u32 = 3;

/// One node of the exhaustive check: its role machine plus the two
/// facts the gateway feeds it — the last view it installed and the
/// highest own-segment epoch it holds.
#[derive(Debug, Clone, Copy)]
struct Node {
    role: GatewayRole,
    view: NodeSet,
    known: u32,
}

/// A segment-wide input: every node's machine receives it.
#[derive(Debug, Clone, Copy)]
enum Step {
    View(NodeSet),
    Digest(NodeId, u32),
    Restart(NodeId),
}

/// Applies `step` to every node the way `Gateway` drives its role
/// (a view reaches the machine only when it differs from the last
/// one; an active gateway announces it under `known + 1`; a heard
/// digest raises `known`; a restart forgets everything), asserting
/// the per-transition properties. `trail` led to `nodes`.
fn apply(nodes: &mut [Node], step: Step, trail: &[Step]) {
    let mut promoted = 0;
    for (i, node) in nodes.iter_mut().enumerate() {
        let me = NodeId::new(i as u8);
        let before = node.role;
        let input = match step {
            Step::View(view) if view == node.view => continue,
            Step::View(view) => {
                let prev = std::mem::replace(&mut node.view, view);
                RoleInput::ViewInstalled { prev, view }
            }
            Step::Digest(transmitter, epoch) => RoleInput::DigestHeard { transmitter, epoch },
            Step::Restart(who) if who != me => continue,
            Step::Restart(_) => RoleInput::Restarted,
        };
        let output = node.role.step(me, node.known, input);
        match (step, output) {
            (_, Some(RoleOutput::Promote { epoch, .. })) => {
                let leaderless = GatewayRole::Standby { leader: None };
                assert_ne!(
                    before, leaderless,
                    "leaderless standby promoted: {trail:?} {step:?}"
                );
                promoted += 1;
                node.known = epoch;
            }
            (Step::View(_), _) if node.role.is_active() => node.known += 1,
            (Step::Digest(transmitter, epoch), output) => {
                if output == Some(RoleOutput::Demote) {
                    let leader = Some(transmitter);
                    let demoted = GatewayRole::Standby { leader };
                    assert_eq!(node.role, demoted, "{trail:?} {step:?}");
                }
                node.known = node.known.max(epoch);
            }
            (Step::Restart(_), _) => (node.view, node.known) = (NodeSet::EMPTY, 0),
            _ => {}
        }
        // Every epoch above the largest digest epoch compares
        // alike, so saturating it keeps the state space finite.
        node.known = node.known.min(MAX_EPOCH + 1);
    }
    assert!(
        promoted <= 1,
        "{promoted} nodes promoted on one expulsion: {trail:?} {step:?}"
    );
}

/// After a digest every node heard: if no live node held a higher
/// own-segment epoch, or the same one under a lower id, at most one
/// live node still acts.
fn check_freshest(before: &[Node], after: &[Node], step: Step, view: NodeSet, trail: &[Step]) {
    let Step::Digest(transmitter, epoch) = step else {
        return;
    };
    let mut acting = 0;
    for (j, (before, after)) in before.iter().zip(after).enumerate() {
        if !view.contains(NodeId::new(j as u8)) {
            continue;
        }
        if before.known > epoch || (before.known == epoch && j < transmitter.as_usize()) {
            return;
        }
        acting += usize::from(after.role.is_active());
    }
    assert!(acting <= 1, "two live gateways act: {trail:?} {step:?}");
}

/// A state's identity: 4 bits of role, 4 of view and 3 of
/// (saturated) epoch per node, above the segment's 4-bit view.
fn key(nodes: &[Node], view: NodeSet) -> u64 {
    nodes.iter().fold(view.bits(), |key, node| {
        let role = match node.role {
            GatewayRole::Active { rejoin_pending } => rejoin_pending.map_or(0, |e| 1 + e),
            GatewayRole::Standby { leader } => leader.map_or(7, |id| 8 + u32::from(id.as_u8())),
        };
        key << 11 | u64::from(role) << 7 | node.view.bits() << 3 | u64::from(node.known)
    })
}

#[test]
fn no_short_input_sequence_forks_the_role() {
    // The first slice of an exhaustive check: one segment of n ≤ 4
    // nodes, node 0 the configured gateway, every sequence of ≤ 5
    // segment-wide inputs (any installed view, any own-segment
    // digest up to epoch 3, any restart). View agreement means
    // every node sees the same input sequence. Breadth first, so
    // each distinct state is expanded once, at its shortest trail.
    for n in 2..=4u8 {
        let mut alphabet: Vec<Step> = (0..1u64 << n)
            .map(|bits| Step::View(NodeSet::from_bits(bits)))
            .collect();
        for id in (0..n).map(NodeId::new) {
            alphabet.extend((0..=MAX_EPOCH).map(|epoch| Step::Digest(id, epoch)));
            alphabet.push(Step::Restart(id));
        }
        // A fixed array (of which the first `n` nodes take part) keeps
        // every step allocation-free.
        let mut nodes = [Node {
            role: GatewayRole::Standby {
                leader: Some(NodeId::new(0)),
            },
            view: NodeSet::EMPTY,
            known: 0,
        }; 4];
        nodes[0].role = GatewayRole::Active {
            rejoin_pending: None,
        };
        let n = usize::from(n);
        let mut seen = HashSet::from([key(&nodes[..n], NodeSet::EMPTY)]);
        let mut frontier = vec![(nodes, NodeSet::EMPTY, Vec::new())];
        for depth in 1..=5 {
            let mut reached = Vec::new();
            for (nodes, view, trail) in &frontier {
                for &step in &alphabet {
                    let mut next = *nodes;
                    apply(&mut next[..n], step, trail);
                    let view = if let Step::View(v) = step { v } else { *view };
                    check_freshest(&nodes[..n], &next[..n], step, view, trail);
                    if depth < 5 && seen.insert(key(&next[..n], view)) {
                        reached.push((next, view, [trail.as_slice(), &[step]].concat()));
                    }
                }
            }
            frontier = reached;
        }
    }
}
