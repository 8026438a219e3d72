//! Gateway failover election: who represents a segment after its
//! acting gateway is expelled.
//!
//! The election is *implicit* and free of extra wire traffic: every
//! node of a federated segment runs the [`Gateway`](crate::Gateway)
//! wrapper in one of two roles, and the segment's own CANELy
//! membership doubles as the failure detector and the agreement layer
//! for the representative role.
//!
//! * **Active** — the acting representative: announces digests, relays
//!   bridge traffic, owns the gossip timer.
//! * **Standby** — a warm spare: passively adopts every digest claim
//!   it hears on the local bus (so its tables match the active
//!   gateway's) but emits nothing and arms nothing.
//!
//! When a membership view change expels the node a standby believes to
//! be the acting gateway, every surviving standby deterministically
//! ranks the *installed* view by node id; the top-ranked survivor (the
//! lowest live id — CAN arbitration order, where lower always wins)
//! promotes itself. Because all members install the same view —
//! that is the paper's membership agreement property — at most one
//! node promotes per expulsion, with no ballots on the wire.
//!
//! The promoted gateway bumps the segment epoch past the highest it
//! ever heard and re-announces, so the far ends' stable-cut rule
//! replaces the dead representative's last claim. An active gateway
//! that hears an own-segment digest under a *fresher* epoch (or the
//! same epoch from a lower id) yields: it demotes to standby and
//! clears its bridge outbox — a restarted former gateway can therefore
//! never fork the representative role.
//!
//! The role is a pure machine: [`GatewayRole::step`] maps one
//! [`RoleInput`] to at most one [`RoleOutput`], with no stack, no
//! context and no allocation, so a test can enumerate it without a
//! simulator. The gateway only carries out the outputs' effects.

use can_types::{NodeId, NodeSet};

/// The role a [`Gateway`](crate::Gateway) currently plays for its
/// segment, and what that role knows. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayRole {
    /// The acting representative: gossips, installs, relays.
    /// `rejoin_pending` is the promotion epoch still awaiting the
    /// own-segment install (`None` once reached, or never promoted).
    Active { rejoin_pending: Option<u32> },
    /// A warm spare: tracks digest state silently, ready to promote.
    /// `leader` is who it believes acts (`None` until the next
    /// own-segment digest names one).
    Standby { leader: Option<NodeId> },
}

/// One event the role machine reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleInput {
    /// The segment membership replaced view `prev` with `view`.
    ViewInstalled { prev: NodeSet, view: NodeSet },
    /// `transmitter` put an own-segment digest under `epoch` on the bus.
    DigestHeard { transmitter: NodeId, epoch: u32 },
    /// The global view installed the own segment at `epoch`.
    InstallReached { epoch: u32 },
    /// The node power-cycled: it forgets the role and the leader.
    Restarted,
}

/// What a role transition asks the gateway to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleOutput {
    /// This node took the role from `expelled` and announces `epoch`.
    Promote { expelled: NodeId, epoch: u32 },
    /// This node yielded the role: its bridge outbox is void.
    Demote,
    /// The promotion epoch reached the global view (the *rejoin*).
    Rejoined,
}

impl GatewayRole {
    /// Whether this is the acting representative.
    pub fn is_active(self) -> bool {
        matches!(self, GatewayRole::Active { .. })
    }

    /// Applies one input at node `me`, whose highest own-segment epoch
    /// is `known`; returns the effect the gateway must carry out.
    pub fn step(&mut self, me: NodeId, known: u32, input: RoleInput) -> Option<RoleOutput> {
        use GatewayRole::{Active, Standby};
        match (*self, input) {
            (_, RoleInput::Restarted) => *self = Standby { leader: None },
            (
                Standby {
                    leader: Some(expelled),
                },
                RoleInput::ViewInstalled { prev, view },
            ) if prev.contains(expelled) && !view.contains(expelled) => {
                // The membership expelled the acting gateway: the
                // successor promotes, every other survivor forgets it.
                *self = Standby { leader: None };
                if successor(view) == Some(me) {
                    let (epoch, rejoin_pending) = (known + 1, Some(known + 1));
                    *self = Active { rejoin_pending };
                    return Some(RoleOutput::Promote { expelled, epoch });
                }
            }
            (_, RoleInput::DigestHeard { transmitter, epoch }) if transmitter != me => {
                let leader = Some(transmitter);
                match *self {
                    Standby { .. } if epoch >= known => *self = Standby { leader },
                    Active { .. } if epoch > known || (epoch == known && transmitter < me) => {
                        *self = Standby { leader };
                        return Some(RoleOutput::Demote);
                    }
                    _ => {}
                }
            }
            (
                Active {
                    rejoin_pending: Some(pending),
                },
                RoleInput::InstallReached { epoch },
            ) if epoch >= pending => {
                *self = Active {
                    rejoin_pending: None,
                };
                return Some(RoleOutput::Rejoined);
            }
            _ => {}
        }
        None
    }
}

/// The deterministic successor for a segment view: the lowest node id
/// in `view` (ranking by id mirrors CAN arbitration, where the lowest
/// identifier always wins the bus). Returns `None` for an empty view.
pub fn successor(view: NodeSet) -> Option<NodeId> {
    view.iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_is_the_lowest_live_id() {
        let view = NodeSet::from_bits(0b1011_0100);
        assert_eq!(successor(view), Some(NodeId::new(2)));
        assert_eq!(successor(NodeSet::EMPTY), None);
        assert_eq!(
            successor(NodeSet::singleton(NodeId::new(31))),
            Some(NodeId::new(31))
        );
    }

    #[test]
    fn successor_is_total_over_any_view() {
        // Every non-empty view has exactly one successor, and removing
        // it yields the next rank — the property the failover cascade
        // relies on under repeated gateway loss.
        let mut view = NodeSet::from_bits(0b0110_1010);
        let mut order = Vec::new();
        while let Some(next) = successor(view) {
            order.push(next.as_u8());
            view.remove(next);
        }
        assert_eq!(order, vec![1, 3, 5, 6]);
    }
}
