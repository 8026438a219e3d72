//! OSEK-NM direct network management (logical ring).
//!
//! "In OSEK network management, every node is actively monitored by
//! every other node in the network, using a logical ring organization
//! that includes the set of currently active nodes. … The
//! disadvantages of this method are concerned with: a potentially high
//! utilization of network bandwidth and a high node failure detection
//! latency. For example, … the period required to detect the failure
//! of a node may be in the order of one second." (Sec. 6.6)
//!
//! The model implements the core of OSEK/VDX direct NM:
//!
//! * the logical ring orders the configured nodes by identifier; the
//!   token holder waits `T_Typ` and then sends a *ring message* to its
//!   successor (a data frame carrying the sender's view of the
//!   configuration);
//! * every node observes all ring messages (CAN broadcast), marking
//!   transmitters present and restarting its token-lost timer `T_Max`;
//! * when `T_Max` expires at the node that last forwarded the token,
//!   the silent successor is declared absent, removed from the
//!   configuration and the token is re-sent to the next successor;
//!   at any other node it triggers a ring re-initialization by the
//!   lowest-identifier member.
//!
//! Worst-case detection latency is one full ring circulation plus the
//! token-lost timeout — `(n−1)·T_Typ + T_Max` — which with the
//! standard parameters (`T_Typ` tens of ms, n a few dozen nodes) lands
//! in the *seconds*, matching the paper's criticism.

use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};

const TAG_TTYP: u64 = 1;
const TAG_TMAX: u64 = 2;

/// One OSEK-NM node.
#[derive(Debug)]
pub struct OsekNode {
    t_typ: BitTime,
    t_max: BitTime,
    config: NodeSet,
    /// Successor we last forwarded the token to (we are responsible
    /// for detecting its silence).
    awaiting: Option<NodeId>,
    ttyp_timer: Option<TimerId>,
    tmax_timer: Option<TimerId>,
    detected: Vec<(BitTime, NodeId)>,
    ring_messages_sent: u64,
}

impl OsekNode {
    /// Creates a node with the initial ring configuration.
    ///
    /// # Panics
    ///
    /// Panics if the timers are zero or `T_Max ≤ T_Typ`.
    pub fn new(t_typ: BitTime, t_max: BitTime, config: NodeSet) -> Self {
        assert!(!t_typ.is_zero(), "T_Typ must be positive");
        assert!(t_max > t_typ, "T_Max must exceed T_Typ");
        OsekNode {
            t_typ,
            t_max,
            config,
            awaiting: None,
            ttyp_timer: None,
            tmax_timer: None,
            detected: Vec::new(),
            ring_messages_sent: 0,
        }
    }

    /// Failures detected at this node (with timestamps).
    pub fn detected(&self) -> &[(BitTime, NodeId)] {
        &self.detected
    }

    /// The node's current view of the ring configuration.
    pub fn config(&self) -> NodeSet {
        self.config
    }

    /// Ring messages transmitted by this node.
    pub fn ring_messages_sent(&self) -> u64 {
        self.ring_messages_sent
    }

    /// The successor of `node` in the logical ring over `config`
    /// (wrapping; identifier order).
    fn successor(&self, node: NodeId) -> NodeId {
        let mut after = self.config.iter().filter(|&m| m.as_u8() > node.as_u8());
        if let Some(next) = after.next() {
            return next;
        }
        self.config
            .iter()
            .next()
            .expect("ring configuration never empty for a live member")
    }

    fn arm_tmax(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(old) = self.tmax_timer.take() {
            ctx.cancel_alarm(old);
        }
        self.tmax_timer = Some(ctx.start_alarm(self.t_max, TAG_TMAX));
    }

    fn take_token(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(old) = self.ttyp_timer.take() {
            ctx.cancel_alarm(old);
        }
        self.ttyp_timer = Some(ctx.start_alarm(self.t_typ, TAG_TTYP));
    }

    fn forward_token(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let dest = self.successor(me);
        self.awaiting = if dest == me { None } else { Some(dest) };
        // Ring message: reference field carries the destination, the
        // payload carries the sender's configuration.
        ctx.can_data_req(
            Mid::new(MsgType::OsekRing, u16::from(dest.as_u8()), me),
            Payload::from_slice(&self.config.to_bytes()).expect("8-byte config"),
        );
        self.ring_messages_sent += 1;
    }
}

impl Application for OsekNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.config.insert(ctx.me());
        // Alive message announces presence (logical ring start-up).
        ctx.can_data_req(
            Mid::new(MsgType::OsekAlive, 0, ctx.me()),
            Payload::from_slice(&self.config.to_bytes()).expect("8-byte config"),
        );
        // The lowest-identifier member initiates the ring.
        if self.config.iter().next() == Some(ctx.me()) {
            self.take_token(ctx);
        }
        self.arm_tmax(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        let DriverEvent::DataInd { mid, payload } = event else {
            return;
        };
        match mid.msg_type() {
            MsgType::OsekAlive => {
                self.config.insert(mid.node());
            }
            MsgType::OsekRing => {
                let sender = mid.node();
                self.config.insert(sender);
                // Merge the circulating configuration.
                if let Ok(bytes) = <[u8; 8]>::try_from(payload.as_slice()) {
                    // A node absent from the circulating config that is
                    // not the local node has been skipped: adopt removal.
                    let circulating = NodeSet::from_bytes(bytes);
                    let me = ctx.me();
                    self.config = (self.config & circulating)
                        | NodeSet::singleton(me)
                        | NodeSet::singleton(sender);
                }
                // The token moved: everyone's token-lost timer restarts.
                self.arm_tmax(ctx);
                if self.awaiting == Some(sender) {
                    // Our successor spoke: it is alive.
                    self.awaiting = None;
                }
                let dest = NodeId::new((mid.reference() & 0x3F) as u8);
                if dest == ctx.me() {
                    self.take_token(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_TTYP => {
                self.ttyp_timer = None;
                self.forward_token(ctx);
            }
            TAG_TMAX => {
                self.tmax_timer = None;
                if let Some(silent) = self.awaiting.take() {
                    // Our successor never spoke: declare it absent and
                    // route the token around it.
                    self.config.remove(silent);
                    self.detected.push((ctx.now(), silent));
                    self.forward_token(ctx);
                } else if self.config.iter().next() == Some(ctx.me()) {
                    // Token lost elsewhere: the lowest member re-initiates.
                    self.forward_token(ctx);
                }
                self.arm_tmax(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_bus::{BusConfig, FaultPlan};
    use can_controller::Simulator;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn ring(sim: &mut Simulator, count: u8, t_typ: BitTime, t_max: BitTime) {
        let config = NodeSet::first_n(count as usize);
        for id in 0..count {
            sim.add_node(n(id), OsekNode::new(t_typ, t_max, config));
        }
    }

    #[test]
    fn ring_circulates_without_failures() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ring(&mut sim, 4, BitTime::new(5_000), BitTime::new(40_000));
        sim.run_until(BitTime::new(500_000));
        for id in 0..4 {
            let node = sim.app::<OsekNode>(n(id));
            assert_eq!(node.config(), NodeSet::first_n(4), "node {id} config");
            assert!(node.detected().is_empty());
            assert!(
                node.ring_messages_sent() > 5,
                "node {id} must hold the token"
            );
        }
    }

    #[test]
    fn successor_ordering_wraps() {
        let node = OsekNode::new(
            BitTime::new(1_000),
            BitTime::new(10_000),
            NodeSet::from_bits(0b10110),
        );
        assert_eq!(node.successor(n(1)), n(2));
        assert_eq!(node.successor(n(2)), n(4));
        assert_eq!(node.successor(n(4)), n(1));
    }

    #[test]
    fn crash_detected_and_ring_heals() {
        let t_typ = BitTime::new(5_000);
        let t_max = BitTime::new(40_000);
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ring(&mut sim, 4, t_typ, t_max);
        let crash_at = BitTime::new(200_000);
        sim.schedule_crash(n(2), crash_at);
        sim.run_until(BitTime::new(1_000_000));
        // The predecessor detects the silent successor…
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        let mut detections = 0;
        for id in [0u8, 1, 3] {
            let node = sim.app::<OsekNode>(n(id));
            assert_eq!(node.config(), expected, "node {id} config after heal");
            detections += node
                .detected()
                .iter()
                .filter(|(_, who)| *who == n(2))
                .count();
        }
        assert!(detections >= 1, "someone must detect the crash");
        // …and the ring keeps circulating afterwards.
        let before: u64 = (0..4)
            .filter(|&id| id != 2)
            .map(|id| sim.app::<OsekNode>(n(id)).ring_messages_sent())
            .sum();
        sim.run_until(BitTime::new(1_500_000));
        let after: u64 = (0..4)
            .filter(|&id| id != 2)
            .map(|id| sim.app::<OsekNode>(n(id)).ring_messages_sent())
            .sum();
        assert!(after > before, "ring must keep running after the heal");
    }

    #[test]
    fn detection_latency_scales_with_ring_size() {
        // The paper's point: latency is proportional to the ring
        // circulation, i.e. roughly n × T_Typ (+ T_Max).
        let t_typ = BitTime::new(25_000); // 25 ms
        let t_max = BitTime::new(100_000);
        // Detection latency depends on the token position at crash
        // time; the *worst case* over crash phases is what scales with
        // the ring circulation (n × T_Typ + T_Max).
        let worst_latency = |count: u8| {
            (0..8u64)
                .map(|phase| {
                    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
                    ring(&mut sim, count, t_typ, t_max);
                    let crash_at = BitTime::new(400_000 + phase * 30_000);
                    sim.schedule_crash(n(count - 1), crash_at);
                    sim.run_until(BitTime::new(5_000_000));
                    (0..count - 1)
                        .filter_map(|id| {
                            sim.app::<OsekNode>(n(id))
                                .detected()
                                .iter()
                                .find(|(_, who)| *who == n(count - 1))
                                .map(|&(t, _)| t)
                        })
                        .min()
                        .expect("crash detected")
                        - crash_at
                })
                .max()
                .expect("phases measured")
        };
        let small = worst_latency(3);
        let large = worst_latency(8);
        assert!(
            large > small,
            "larger ring must detect slower ({small} vs {large})"
        );
        // With 8 nodes at T_Typ = 25 ms the latency approaches the
        // "order of one second" ballpark quoted in Sec. 6.6 once n
        // grows to a few dozen; here it must already exceed 100 ms.
        assert!(large > BitTime::new(100_000), "large-ring latency {large}");
    }
}
