//! Reception History Agreement — the RHA micro-protocol (paper Fig. 7).
//!
//! RHA makes all correct nodes agree on the value of a *reception
//! history vector* (RHV): the set of nodes that should compose the
//! next membership view, given the join/leave requests each node has
//! (possibly inconsistently) received.
//!
//! Operation, per the pseudo-code:
//!
//! * a **full member** starts the protocol on `rha-can.req` with the
//!   initial vector `((Vs ∪ Vj) − Vl) ∩ Vw` (line a03) and broadcasts
//!   it as an *RHV signal* — a data frame whose mid carries the vector
//!   cardinality `#V_RHV` and the transmitter, and whose 8-byte data
//!   field is the vector itself;
//! * any node receiving an RHV signal while idle joins the protocol,
//!   non-members adopting the received vector verbatim (line a05);
//! * on receiving a vector that *excludes* a node still present
//!   locally, a node aborts its pending signal, intersects, and
//!   re-broadcasts (lines r04–r07) — vectors shrink monotonically, so
//!   the number of rounds is bounded;
//! * once `j` copies of the current local value have been observed
//!   (LCAN4's inconsistent-omission bound), a pending own transmission
//!   is aborted to save bandwidth (lines r08–r09);
//! * the protocol terminates at `Trha` after each node's own start,
//!   delivering `rha-can.nty(END, V_RHV)` upstairs (lines r14–r18).

use crate::obs::{EventSink, ObsTimer, ProtocolEvent};
use crate::tags::TimerOwner;
use can_controller::{Ctx, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};
use std::collections::HashMap;

/// Notifications RHA delivers to the membership layer
/// (`rha-can.nty`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhaNotification {
    /// `rha-can.nty(INIT, ∅)`: protocol execution started at this
    /// node. The membership protocol uses it to (re)synchronize its
    /// cycle timer (Fig. 9, line s17).
    Init,
    /// `rha-can.nty(END, V_RHV)`: protocol execution finished; the
    /// payload is the agreed reception history vector.
    End(NodeSet),
}

/// The local-variable snapshot RHA shares with the membership protocol
/// (Fig. 7, line i04: "Shared Variables: full-member (`Vs`), joining
/// (`Vj`) and leaving (`Vl`) node sets").
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedSets {
    /// `Vs`: the site membership view.
    pub vs: NodeSet,
    /// `Vj`: nodes in a joining process.
    pub vj: NodeSet,
    /// `Vl`: nodes requesting withdrawal.
    pub vl: NodeSet,
}

/// The RHA micro-protocol entity of one node.
#[derive(Debug)]
pub struct Rha {
    /// `Trha`: maximum termination time (line a01).
    trha: BitTime,
    /// `j`: inconsistent omission degree bound (line r08).
    j: u32,
    /// `tid`: the termination alarm; `None` means idle.
    tid: Option<TimerId>,
    /// `V_RHV`: the local reception history vector proposal.
    v_rhv: NodeSet,
    /// `rhv_ndup`: duplicates seen, per RHV signal *value*.
    ndup: HashMap<NodeSet, u32>,
    /// Own RHV broadcasts in the current execution (metrics).
    sends: u32,
    /// Structured-event sink (disabled by default).
    obs: EventSink,
}

impl Rha {
    /// Creates an RHA entity with termination time `trha` and
    /// inconsistent-degree bound `j`.
    pub fn new(trha: BitTime, j: u32) -> Self {
        Rha {
            trha,
            j,
            tid: None,
            v_rhv: NodeSet::EMPTY,
            ndup: HashMap::new(),
            sends: 0,
            obs: EventSink::disabled(),
        }
    }

    /// Installs the structured-event sink (see [`crate::obs`]).
    pub fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// The mid of an RHV signal: type RHA, reference `#V_RHV`,
    /// node = transmitter (unique per sender — RHV signals are data
    /// frames and must not collide).
    pub fn rhv_mid(transmitter: NodeId, vector: NodeSet) -> Mid {
        Mid::new(MsgType::Rha, vector.len() as u16, transmitter)
    }

    /// Whether a protocol execution is in progress at this node.
    pub fn is_running(&self) -> bool {
        self.tid.is_some()
    }

    /// The current local vector proposal (meaningful while running).
    pub fn current_vector(&self) -> NodeSet {
        self.v_rhv
    }

    /// `rha-can.req()`: protocol invocation by the membership layer.
    /// Only full members may start in isolation (Fig. 7, line s00 —
    /// the caller guarantees `p ∈ Vs`). No-op if already running.
    pub fn request(&mut self, ctx: &mut Ctx<'_>, sets: SharedSets) -> Option<RhaNotification> {
        if self.tid.is_some() {
            return None; // s01 guard
        }
        Some(self.init_send(ctx, NodeSet::ALL, true, sets)) // s02: Vw = U
    }

    /// `rha-init-send` (Fig. 7, lines a00–a09).
    fn init_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        vw: NodeSet,
        full_member: bool,
        sets: SharedSets,
    ) -> RhaNotification {
        self.tid = Some(ctx.start_alarm(self.trha, TimerOwner::RhaTermination.encode())); // a01
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::RhaTermination,
                deadline: ctx.now() + self.trha,
            },
        );
        self.v_rhv = if full_member {
            ((sets.vs | sets.vj) - sets.vl) & vw // a03
        } else {
            vw // a05: non-members use the received vector
        };
        self.sends = 0;
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::RhaStarted {
                proposal: self.v_rhv,
                full_member,
            },
        );
        self.broadcast_current(ctx); // a07
        RhaNotification::Init // a08
    }

    fn broadcast_current(&mut self, ctx: &mut Ctx<'_>) {
        let mid = Self::rhv_mid(ctx.me(), self.v_rhv);
        let payload = Payload::from_slice(&self.v_rhv.to_bytes()).expect("8-byte vector");
        ctx.can_data_req(mid, payload);
        self.sends += 1;
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::RhvSent { vector: self.v_rhv },
        );
    }

    /// Handles an arriving RHV signal (Fig. 7, lines r00–r13; own
    /// transmissions included). `full_member` tells whether the local
    /// node currently belongs to the site membership view.
    pub fn on_data_ind(
        &mut self,
        ctx: &mut Ctx<'_>,
        mid: Mid,
        payload: &Payload,
        full_member: bool,
        sets: SharedSets,
    ) -> Option<RhaNotification> {
        debug_assert_eq!(mid.msg_type(), MsgType::Rha);
        let Ok(bytes) = <[u8; 8]>::try_from(payload.as_slice()) else {
            return None; // malformed RHV signal: ignore
        };
        let v_remote = NodeSet::from_bytes(bytes);
        *self.ndup.entry(v_remote).or_default() += 1; // r01
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::RhvReceived {
                from: mid.node(),
                vector: v_remote,
            },
        );

        if self.tid.is_none() {
            // r02–r03: join the execution using the received vector.
            return Some(self.init_send(ctx, v_remote, full_member, sets));
        }
        if (self.v_rhv & v_remote) != self.v_rhv {
            // r04–r07: the remote vector excludes nodes we still hold.
            ctx.can_abort_req(Self::rhv_mid(ctx.me(), self.v_rhv)); // r05
            self.v_rhv &= v_remote; // r06
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::RhaNarrowed { vector: self.v_rhv },
            );
            self.broadcast_current(ctx); // r07
        } else if self.ndup.get(&self.v_rhv).copied().unwrap_or(0) >= self.j {
            // r08–r09: enough copies of our value circulate already.
            ctx.can_abort_req(Self::rhv_mid(ctx.me(), self.v_rhv));
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::RhaQuenched { vector: self.v_rhv },
            );
        }
        None
    }

    /// Handles the expiry of the RHA termination alarm (Fig. 7, lines
    /// r14–r18). Returns the END notification with the agreed vector.
    pub fn on_timeout(&mut self, ctx: &mut Ctx<'_>) -> RhaNotification {
        let vector = self.v_rhv;
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::RhaSettled {
                vector,
                broadcasts: self.sends,
            },
        );
        self.tid = None; // r16
        self.v_rhv = NodeSet::EMPTY; // r17
        self.ndup.clear(); // new execution starts fresh
        self.sends = 0;
        RhaNotification::End(vector) // r15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    fn sets(vs: u64, vj: u64, vl: u64) -> SharedSets {
        SharedSets {
            vs: NodeSet::from_bits(vs),
            vj: NodeSet::from_bits(vj),
            vl: NodeSet::from_bits(vl),
        }
    }

    fn signal(from: u8, bits: u64) -> (Mid, Payload) {
        let v = NodeSet::from_bits(bits);
        (
            Rha::rhv_mid(NodeId::new(from), v),
            Payload::from_slice(&v.to_bytes()).unwrap(),
        )
    }

    #[test]
    fn member_start_proposes_vs_plus_joiners_minus_leavers() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        let nty = h.ctx(|ctx| rha.request(ctx, sets(0b0111, 0b1000, 0b0001)));
        assert_eq!(nty, Some(RhaNotification::Init));
        assert!(rha.is_running());
        // (Vs ∪ Vj) − Vl = {1,2,3}.
        assert_eq!(rha.current_vector(), NodeSet::from_bits(0b1110));
        assert_eq!(h.ctl.queue_len(), 1, "RHV signal queued");
    }

    #[test]
    fn request_while_running_is_a_no_op() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        h.ctx(|ctx| rha.request(ctx, sets(0b1, 0, 0)));
        let again = h.ctx(|ctx| rha.request(ctx, sets(0b1, 0, 0)));
        assert_eq!(again, None);
        assert_eq!(h.ctl.queue_len(), 1);
    }

    #[test]
    fn idle_non_member_adopts_received_vector() {
        let mut h = Rig::new(5);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        let (mid, payload) = signal(1, 0b10_0111);
        let nty = h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, false, sets(0, 0b10_0000, 0)));
        assert_eq!(nty, Some(RhaNotification::Init));
        // a05: uses the received vector verbatim.
        assert_eq!(rha.current_vector(), NodeSet::from_bits(0b10_0111));
    }

    #[test]
    fn idle_member_intersects_with_received_vector() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        // Local knowledge: view {0,1,2}, joiner {3}.
        // Remote vector excludes node 2.
        let (mid, payload) = signal(1, 0b1011);
        h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, true, sets(0b0111, 0b1000, 0)));
        // ((Vs ∪ Vj) − Vl) ∩ Vw = {0,1,3}.
        assert_eq!(rha.current_vector(), NodeSet::from_bits(0b1011));
    }

    #[test]
    fn conflicting_vector_triggers_abort_intersect_rebroadcast() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 99);
        h.ctx(|ctx| rha.request(ctx, sets(0b1111, 0, 0)));
        assert_eq!(h.ctl.queue_len(), 1);
        // Remote proposes {0,1} — smaller than our {0,1,2,3}.
        let (mid, payload) = signal(2, 0b0011);
        let nty = h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, true, sets(0b1111, 0, 0)));
        assert_eq!(nty, None);
        assert_eq!(rha.current_vector(), NodeSet::from_bits(0b0011));
        // Old signal aborted, new one queued: still exactly one pending.
        assert_eq!(h.ctl.queue_len(), 1);
        let head = h.ctl.head().unwrap();
        let head_mid = Mid::from_can_id(head.id()).unwrap();
        assert_eq!(head_mid.reference(), 2, "mid carries new #V_RHV");
    }

    #[test]
    fn superset_vector_does_not_trigger_rebroadcast() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 99);
        h.ctx(|ctx| rha.request(ctx, sets(0b0011, 0, 0)));
        let (mid, payload) = signal(2, 0b1111);
        h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, true, sets(0b0011, 0, 0)));
        // Our vector is a subset of the remote one: nothing to remove.
        assert_eq!(rha.current_vector(), NodeSet::from_bits(0b0011));
        assert_eq!(h.ctl.queue_len(), 1, "original signal still pending");
    }

    #[test]
    fn duplicate_bound_aborts_pending_signal() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        h.ctx(|ctx| rha.request(ctx, sets(0b0011, 0, 0)));
        assert_eq!(h.ctl.queue_len(), 1);
        // Two copies of our exact value arrive (j = 2).
        let (mid, payload) = signal(1, 0b0011);
        h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, true, sets(0b0011, 0, 0)));
        assert_eq!(h.ctl.queue_len(), 1, "first copy: below bound");
        let (mid2, payload2) = signal(2, 0b0011);
        h.ctx(|ctx| rha.on_data_ind(ctx, mid2, &payload2, true, sets(0b0011, 0, 0)));
        assert_eq!(h.ctl.queue_len(), 0, "j-th copy aborts own pending signal");
    }

    #[test]
    fn timeout_delivers_end_and_resets() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        h.ctx(|ctx| rha.request(ctx, sets(0b0101, 0, 0)));
        let nty = h.ctx(|ctx| rha.on_timeout(ctx));
        assert_eq!(nty, RhaNotification::End(NodeSet::from_bits(0b0101)));
        assert!(!rha.is_running());
        assert_eq!(rha.current_vector(), NodeSet::EMPTY);
        // A new execution can start.
        let again = h.ctx(|ctx| rha.request(ctx, sets(0b0101, 0, 0)));
        assert_eq!(again, Some(RhaNotification::Init));
    }

    #[test]
    fn malformed_payload_ignored() {
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 2);
        let mid = Rha::rhv_mid(NodeId::new(1), NodeSet::EMPTY);
        let bad = Payload::from_slice(&[1, 2, 3]).unwrap();
        let nty = h.ctx(|ctx| rha.on_data_ind(ctx, mid, &bad, true, sets(0, 0, 0)));
        assert_eq!(nty, None);
        assert!(!rha.is_running());
    }

    #[test]
    fn vectors_shrink_monotonically() {
        // Convergence argument: every update is an intersection.
        let mut h = Rig::new(0);
        let mut rha = Rha::new(BitTime::new(5_000), 99);
        h.ctx(|ctx| rha.request(ctx, sets(0xFF, 0, 0)));
        let mut previous = rha.current_vector();
        for (from, bits) in [(1u8, 0x7Fu64), (2, 0x3F), (3, 0x0F)] {
            let (mid, payload) = signal(from, bits);
            h.ctx(|ctx| rha.on_data_ind(ctx, mid, &payload, true, sets(0xFF, 0, 0)));
            assert!(rha.current_vector().is_subset(previous));
            previous = rha.current_vector();
        }
        assert_eq!(previous, NodeSet::from_bits(0x0F));
    }
}
