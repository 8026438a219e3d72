//! Failure Detection Agreement — the FDA micro-protocol (paper Fig. 6).
//!
//! FDA secures the *reliable broadcast of a failure-sign message*: once
//! any correct node signals the crash of node `r`, every correct node
//! eventually delivers exactly one `fda-can.nty(r)`, even if the
//! original transmission suffers inconsistent omissions or the
//! signalling node itself crashes.
//!
//! It is "a simplified and optimized version of the Eager Diffusion
//! (EDCAN) protocol": every recipient of the *first* copy of a
//! failure-sign delivers it upstairs and — absent an own equivalent
//! request — immediately requests its retransmission. Because
//! failure-signs are remote frames whose identifier depends only on
//! the failed node, all those retransmission requests **cluster into a
//! single physical frame** on the wired-AND bus, so agreement
//! typically costs just one extra frame.
//!
//! State is two counters per message identifier
//! ([`can_controller::FirstCopy`]), exactly as in the pseudo-code:
//!
//! * `fs_ndup(mid)` — failure-sign duplicates seen;
//! * `fs_nreq(mid)` — own transmit requests issued.

use crate::obs::{EventSink, ProtocolEvent};
use can_controller::{Ctx, FirstCopy};
use can_types::{Mid, MsgType, NodeId};
use std::collections::HashMap;

/// The FDA micro-protocol entity of one node.
///
/// Drive it with [`Fda::invoke`] (the `fda-can.req` primitive) and
/// [`Fda::on_rtr_ind`] (arrivals of FDA remote frames); the latter
/// returns the `fda-can.nty` deliveries due to the layer above.
#[derive(Debug)]
pub struct Fda {
    state: HashMap<NodeId, FirstCopy>,
    obs: EventSink,
    eager_diffusion: bool,
}

impl Default for Fda {
    fn default() -> Self {
        Fda::new()
    }
}

impl Fda {
    /// A fresh FDA entity.
    pub fn new() -> Self {
        Fda {
            state: HashMap::new(),
            obs: EventSink::disabled(),
            eager_diffusion: true,
        }
    }

    /// Disables the eager diffusion step (Fig. 5, r04–r07): the entity
    /// still delivers and deduplicates failure signs but never joins
    /// the rebroadcast. This is the FDA half of the `weakened_fda`
    /// mutation knob — without diffusion the protocol loses its
    /// inconsistent-omission masking redundancy. Fault-injection use
    /// only.
    pub fn set_eager_diffusion(&mut self, eager: bool) {
        self.eager_diffusion = eager;
    }

    /// Installs the structured-event sink (see [`crate::obs`]).
    pub fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// The mid of a failure-sign for failed node `r`. It does *not*
    /// depend on the transmitter — that is what makes the signs
    /// cluster.
    pub fn failure_sign_mid(r: NodeId) -> Mid {
        Mid::new(MsgType::Fda, 0, r)
    }

    /// `fda-can.req(r)`: invoked (typically by the failure detection
    /// protocol) to reliably disseminate the failure of node `r`
    /// (Fig. 6, lines s00–s05).
    pub fn invoke(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.obs
            .emit(ctx.now(), ctx.me(), ProtocolEvent::FdaInvoked { failed: r });
        if self.state.entry(r).or_default().request() {
            ctx.can_rtr_req(Self::failure_sign_mid(r)); // s03
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::FdaSignSent {
                    failed: r,
                    diffusion: false,
                },
            );
        }
    }

    /// Handles an arriving FDA remote frame (Fig. 6, lines r00–r09;
    /// own transmissions included). Returns `Some(r)` when the *first*
    /// copy arrives and `fda-can.nty(r)` must be delivered upstairs.
    pub fn on_rtr_ind(&mut self, ctx: &mut Ctx<'_>, mid: Mid) -> Option<NodeId> {
        debug_assert_eq!(mid.msg_type(), MsgType::Fda);
        let r = mid.node();
        let Some(first_request) = self.state.entry(r).or_default().copy() else {
            // r01: a duplicate, already handled
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::FdaSignReceived {
                    failed: r,
                    duplicate: true,
                },
            );
            return None;
        };
        // First copy: deliver upstairs (r03) and, in the absence of an
        // equivalent transmit request, join the diffusion (r04–r07).
        let diffuse = first_request && self.eager_diffusion;
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FdaSignReceived {
                failed: r,
                duplicate: false,
            },
        );
        if diffuse {
            ctx.can_rtr_req(Self::failure_sign_mid(r)); // r06
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::FdaSignSent {
                    failed: r,
                    diffusion: true,
                },
            );
        }
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FdaDelivered { failed: r },
        );
        Some(r)
    }

    /// Clears the protocol state for node `r`. Called when `r`
    /// rejoins the membership: a later failure of the same node is a
    /// new protocol execution.
    pub fn reset(&mut self, r: NodeId) {
        self.state.remove(&r);
    }

    /// Number of duplicates seen for the failure-sign of `r`
    /// (introspection for tests/benches).
    pub fn duplicates(&self, r: NodeId) -> u32 {
        self.state.get(&r).map_or(0, |s| s.ndup)
    }

    /// Whether this node has issued a transmit request for the
    /// failure-sign of `r`.
    pub fn has_requested(&self, r: NodeId) -> bool {
        self.state.get(&r).is_some_and(|s| s.nreq > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    #[test]
    fn invoke_issues_exactly_one_request() {
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        rig.ctx(|ctx| {
            fda.invoke(ctx, NodeId::new(3));
            fda.invoke(ctx, NodeId::new(3)); // s02 guard
        });
        assert_eq!(rig.ctl.queue_len(), 1);
        assert!(fda.has_requested(NodeId::new(3)));
    }

    #[test]
    fn first_copy_delivers_and_diffuses() {
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        let mid = Fda::failure_sign_mid(NodeId::new(7));
        let delivered = rig.ctx(|ctx| fda.on_rtr_ind(ctx, mid));
        assert_eq!(delivered, Some(NodeId::new(7)));
        // The recipient joined the diffusion.
        assert_eq!(rig.ctl.queue_len(), 1);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        let mid = Fda::failure_sign_mid(NodeId::new(7));
        rig.ctx(|ctx| {
            assert!(fda.on_rtr_ind(ctx, mid).is_some());
            assert!(fda.on_rtr_ind(ctx, mid).is_none());
            assert!(fda.on_rtr_ind(ctx, mid).is_none());
        });
        assert_eq!(fda.duplicates(NodeId::new(7)), 3);
        // Only the first copy triggered a diffusion request.
        assert_eq!(rig.ctl.queue_len(), 1);
    }

    #[test]
    fn own_prior_request_prevents_rediffusion() {
        // A node that already invoked FDA for r does not request again
        // upon receiving the (possibly own) failure-sign (r05 guard).
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        let r = NodeId::new(9);
        rig.ctx(|ctx| {
            fda.invoke(ctx, r);
            let delivered = fda.on_rtr_ind(ctx, Fda::failure_sign_mid(r));
            // First copy still delivers upstairs…
            assert_eq!(delivered, Some(r));
        });
        // …but no second transmit request was issued.
        assert_eq!(rig.ctl.queue_len(), 1);
    }

    #[test]
    fn independent_state_per_failed_node() {
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        rig.ctx(|ctx| {
            assert!(fda
                .on_rtr_ind(ctx, Fda::failure_sign_mid(NodeId::new(1)))
                .is_some());
            assert!(fda
                .on_rtr_ind(ctx, Fda::failure_sign_mid(NodeId::new(2)))
                .is_some());
        });
        assert_eq!(rig.ctl.queue_len(), 2);
    }

    #[test]
    fn reset_allows_a_new_execution() {
        let mut fda = Fda::new();
        let mut rig = Rig::new(0);
        let r = NodeId::new(4);
        rig.ctx(|ctx| {
            assert!(fda.on_rtr_ind(ctx, Fda::failure_sign_mid(r)).is_some());
            fda.reset(r);
            assert!(fda.on_rtr_ind(ctx, Fda::failure_sign_mid(r)).is_some());
        });
    }

    #[test]
    fn failure_sign_mid_is_transmitter_independent() {
        assert_eq!(
            Fda::failure_sign_mid(NodeId::new(5)).to_can_id(),
            Fda::failure_sign_mid(NodeId::new(5)).to_can_id()
        );
    }
}
