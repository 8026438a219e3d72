//! A TTP-style TDMA membership baseline (Figs. 1 and 11 comparison).
//!
//! "A TTP-based system consists of fail-silent nodes connected by two
//! replicated broadcast communication channels. … Media-access is
//! controlled by a conflict-free Time Division Multiple Access (TDMA)
//! strategy. It is assumed that nodes have their clocks synchronized
//! within a known precision." (Sec. 2)
//!
//! The baseline models the membership-relevant core: a static TDMA
//! round of `n` slots; node `i` transmits a frame carrying its
//! membership vector in slot `i` of every round; at each round
//! boundary every node recomputes its membership view from the slots
//! it heard. A crashed node's slot stays silent, so its failure is
//! observed by everyone **within one TDMA round** — the membership
//! property the comparison tables credit TTP with.
//!
//! (The second replicated channel and the bus guardian are out of
//! scope here; the simulated CAN bus plays the role of the broadcast
//! channel, with slots sized so that scheduled transmissions never
//! contend.)

use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};

const TAG_SLOT: u64 = 1;
const TAG_ROUND: u64 = 2;

/// A membership view change observed by a TTP node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtpViewChange {
    /// Round boundary instant.
    pub time: BitTime,
    /// The new membership.
    pub view: NodeSet,
}

/// One TTP node.
#[derive(Debug)]
pub struct TtpNode {
    /// Slot duration (must exceed the frame transmission time).
    slot: BitTime,
    /// The static schedule: all configured nodes, slot per identifier
    /// order.
    schedule: NodeSet,
    /// Who transmitted during the current round.
    heard: NodeSet,
    /// Current membership view.
    view: NodeSet,
    /// View history.
    changes: Vec<TtpViewChange>,
    frames_sent: u64,
}

impl TtpNode {
    /// Creates a TTP node for a static schedule of nodes, each with
    /// the given slot duration.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or the slot is shorter than a
    /// worst-case frame.
    pub fn new(slot: BitTime, schedule: NodeSet) -> Self {
        assert!(!schedule.is_empty(), "TDMA schedule must not be empty");
        let worst = can_types::FrameFormat::Extended.worst_case_bits(8) + 3;
        assert!(
            slot.as_u64() >= worst,
            "slot must fit a worst-case frame ({worst} bit-times)"
        );
        TtpNode {
            slot,
            schedule,
            heard: NodeSet::EMPTY,
            view: schedule,
            changes: Vec::new(),
            frames_sent: 0,
        }
    }

    /// The node's current membership view.
    pub fn view(&self) -> NodeSet {
        self.view
    }

    /// The recorded view changes.
    pub fn changes(&self) -> &[TtpViewChange] {
        &self.changes
    }

    /// TDMA frames transmitted.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Duration of a full TDMA round.
    pub fn round(&self) -> BitTime {
        self.slot * self.schedule.len() as u64
    }

    /// The slot index of a node in the static schedule.
    fn slot_index(&self, node: NodeId) -> u64 {
        self.schedule
            .iter()
            .position(|m| m == node)
            .expect("node is in the schedule") as u64
    }
}

impl Application for TtpNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // First transmission in our slot of round 0; round boundary
        // after one full round.
        let my_offset = self.slot * self.slot_index(ctx.me());
        ctx.start_alarm(my_offset + self.slot / 2, TAG_SLOT);
        ctx.start_alarm(self.round(), TAG_ROUND);
    }

    fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::DataInd { mid, .. } = event {
            if mid.msg_type() == MsgType::TtpSlot {
                self.heard.insert(mid.node());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_SLOT => {
                ctx.can_data_req(
                    Mid::new(MsgType::TtpSlot, 0, ctx.me()),
                    Payload::from_slice(&self.view.to_bytes()).expect("8-byte view"),
                );
                self.frames_sent += 1;
                ctx.start_alarm(self.round(), TAG_SLOT);
            }
            TAG_ROUND => {
                // Round boundary: membership = everyone heard this
                // round (the local node heard itself — own
                // transmissions included).
                let new_view = self.heard;
                if new_view != self.view && !new_view.is_empty() {
                    self.view = new_view;
                    self.changes.push(TtpViewChange {
                        time: ctx.now(),
                        view: new_view,
                    });
                }
                self.heard = NodeSet::EMPTY;
                ctx.start_alarm(self.round(), TAG_ROUND);
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

    const SLOT: BitTime = BitTime::new(500);

    fn cluster(sim: &mut Simulator, count: u8) {
        let schedule = NodeSet::first_n(count as usize);
        for id in 0..count {
            sim.add_node(n(id), TtpNode::new(SLOT, schedule));
        }
    }

    #[test]
    fn stable_cluster_keeps_full_view() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        sim.run_until(BitTime::new(100_000));
        for id in 0..4 {
            let node = sim.app::<TtpNode>(n(id));
            assert_eq!(node.view(), NodeSet::first_n(4));
            assert!(node.changes().is_empty(), "no spurious changes");
            assert!(node.frames_sent() > 10);
        }
    }

    #[test]
    fn slots_never_contend() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        sim.run_until(BitTime::new(100_000));
        // Every recorded transaction delivered on first attempt: a
        // collision or arbitration loss would show up as errors.
        let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(100_000));
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn crash_detected_within_two_rounds_by_everyone() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        let round = SLOT * 4;
        let crash_at = BitTime::new(20_000);
        sim.schedule_crash(n(2), crash_at);
        sim.run_until(BitTime::new(100_000));
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        for id in [0u8, 1, 3] {
            let node = sim.app::<TtpNode>(n(id));
            assert_eq!(node.view(), expected, "node {id}");
            let change = node
                .changes()
                .iter()
                .find(|c| c.view == expected)
                .expect("view change recorded");
            let latency = change.time - crash_at;
            assert!(
                latency <= round * 2,
                "node {id}: TTP must detect within two rounds, took {latency}"
            );
        }
    }

    #[test]
    fn detection_is_simultaneous_across_nodes() {
        // TDMA round boundaries are synchronized: every node commits
        // the view change at the same boundary.
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        sim.schedule_crash(n(1), BitTime::new(20_000));
        sim.run_until(BitTime::new(100_000));
        let times: Vec<BitTime> = [0u8, 2, 3]
            .iter()
            .map(|&id| sim.app::<TtpNode>(n(id)).changes()[0].time)
            .collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    }

    #[test]
    #[should_panic(expected = "slot must fit")]
    fn undersized_slot_rejected() {
        let _ = TtpNode::new(BitTime::new(100), NodeSet::first_n(2));
    }
}
