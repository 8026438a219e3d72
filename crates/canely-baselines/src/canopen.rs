//! CANopen network management: node guarding and heartbeat.
//!
//! "The industry standard CAN Application Layer (CAL), e.g. used in
//! the CANopen communication profile, specifically defines network
//! management service elements for the detection of node crash
//! failures. A master-slave architecture is used: one master node
//! cyclically inquires each slave node, through the issuing of a CAN
//! remote frame; the slave node replies with its actual state.
//! Alternatively, a producer-consumer communication model can be used:
//! nodes broadcast a heartbeat message containing their status. The
//! main disadvantages of this approach are related to: its centralized
//! nature; the lack of an effective support to fault-tolerant node
//! failure detection and site membership services." (Sec. 6.6)

use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};
use std::collections::HashMap;

const TAG_GUARD_TICK: u64 = 1;
const TAG_PRODUCE: u64 = 2;
const TAG_CONSUME_BASE: u64 = 0x100;

/// The node-guarding **master**: polls each slave with a remote frame
/// every `guard_time`; a slave silent for `guard_time ×
/// life_time_factor` is declared failed (locally — there is no
/// distributed agreement, which is exactly the weakness the paper
/// points out).
#[derive(Debug)]
pub struct CanopenMaster {
    guard_time: BitTime,
    life_time_factor: u32,
    slaves: NodeSet,
    last_response: HashMap<NodeId, BitTime>,
    detected: Vec<(BitTime, NodeId)>,
    polls: u64,
}

impl CanopenMaster {
    /// Creates a master guarding `slaves`.
    ///
    /// # Panics
    ///
    /// Panics if `guard_time` is zero or `life_time_factor` is zero.
    pub fn new(guard_time: BitTime, life_time_factor: u32, slaves: NodeSet) -> Self {
        assert!(!guard_time.is_zero(), "guard time must be positive");
        assert!(life_time_factor > 0, "life time factor must be positive");
        CanopenMaster {
            guard_time,
            life_time_factor,
            slaves,
            last_response: HashMap::new(),
            detected: Vec::new(),
            polls: 0,
        }
    }

    /// Failures detected so far, with detection timestamps.
    pub fn detected(&self) -> &[(BitTime, NodeId)] {
        &self.detected
    }

    /// Remote-frame polls issued so far (bandwidth accounting).
    pub fn polls(&self) -> u64 {
        self.polls
    }

    fn node_life_time(&self) -> BitTime {
        self.guard_time * u64::from(self.life_time_factor)
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let life = self.node_life_time();
        let mut newly_dead = Vec::new();
        for slave in self.slaves.iter() {
            // Poll.
            ctx.can_rtr_req(Mid::new(MsgType::NodeGuard, 0, slave));
            self.polls += 1;
            // Check.
            let last = self
                .last_response
                .get(&slave)
                .copied()
                .unwrap_or(BitTime::ZERO);
            if now.saturating_sub(last) > life {
                newly_dead.push(slave);
            }
        }
        for slave in newly_dead {
            self.slaves.remove(slave);
            self.detected.push((now, slave));
        }
        ctx.start_alarm(self.guard_time, TAG_GUARD_TICK);
    }
}

impl Application for CanopenMaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Give slaves one full guard period before the first deadline
        // check.
        let now = ctx.now();
        for slave in self.slaves.iter() {
            self.last_response.insert(slave, now);
        }
        ctx.start_alarm(self.guard_time, TAG_GUARD_TICK);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::DataInd { mid, .. } = event {
            if mid.msg_type() == MsgType::NodeGuard && self.slaves.contains(mid.node()) {
                self.last_response.insert(mid.node(), ctx.now());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_GUARD_TICK {
            self.tick(ctx);
        }
    }
}

/// A node-guarding **slave**: answers each poll with a status data
/// frame carrying the CANopen toggle bit.
#[derive(Debug, Default)]
pub struct CanopenSlave {
    toggle: bool,
    responses: u64,
}

impl CanopenSlave {
    /// Creates a slave.
    pub fn new() -> Self {
        CanopenSlave::default()
    }

    /// Responses issued so far.
    pub fn responses(&self) -> u64 {
        self.responses
    }
}

impl Application for CanopenSlave {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::RtrInd { mid } = event {
            if mid.msg_type() == MsgType::NodeGuard && mid.node() == ctx.me() {
                // Status 0x05 = operational, toggled per CiA 301.
                let status = 0x05u8 | if self.toggle { 0x80 } else { 0x00 };
                self.toggle = !self.toggle;
                self.responses += 1;
                ctx.can_data_req(
                    Mid::new(MsgType::NodeGuard, u16::from(self.toggle), ctx.me()),
                    Payload::from_slice(&[status]).expect("one byte"),
                );
            }
        }
    }
}

/// The producer–consumer **heartbeat** node: broadcasts its status
/// with `produce_period` and watches a set of producers, declaring one
/// failed after `consumer_time` of silence (CiA 301 recommends
/// `consumer_time ≥ 1.5 × produce_period`).
#[derive(Debug)]
pub struct HeartbeatNode {
    produce_period: Option<BitTime>,
    consumer_time: BitTime,
    watched: NodeSet,
    timers: HashMap<NodeId, TimerId>,
    detected: Vec<(BitTime, NodeId)>,
    beats: u64,
}

impl HeartbeatNode {
    /// Creates a heartbeat node. `produce_period = None` makes a pure
    /// consumer.
    ///
    /// # Panics
    ///
    /// Panics if `consumer_time` is zero while `watched` is non-empty.
    pub fn new(produce_period: Option<BitTime>, consumer_time: BitTime, watched: NodeSet) -> Self {
        assert!(
            watched.is_empty() || !consumer_time.is_zero(),
            "consumer time must be positive when watching producers"
        );
        HeartbeatNode {
            produce_period,
            consumer_time,
            watched,
            timers: HashMap::new(),
            detected: Vec::new(),
            beats: 0,
        }
    }

    /// Failures detected so far.
    pub fn detected(&self) -> &[(BitTime, NodeId)] {
        &self.detected
    }

    /// Heartbeats produced so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    fn arm_consumer(&mut self, ctx: &mut Ctx<'_>, producer: NodeId) {
        if let Some(old) = self.timers.remove(&producer) {
            ctx.cancel_alarm(old);
        }
        let tid = ctx.start_alarm(
            self.consumer_time,
            TAG_CONSUME_BASE + u64::from(producer.as_u8()),
        );
        self.timers.insert(producer, tid);
    }

    fn beat(&mut self, ctx: &mut Ctx<'_>) {
        ctx.can_data_req(
            Mid::new(MsgType::Heartbeat, 0, ctx.me()),
            Payload::from_slice(&[0x05]).expect("one byte"),
        );
        self.beats += 1;
        if let Some(period) = self.produce_period {
            ctx.start_alarm(period, TAG_PRODUCE);
        }
    }
}

impl Application for HeartbeatNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.produce_period.is_some() {
            self.beat(ctx);
        }
        let watched = self.watched;
        for producer in watched.iter() {
            self.arm_consumer(ctx, producer);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::DataInd { mid, .. } = event {
            if mid.msg_type() == MsgType::Heartbeat && self.watched.contains(mid.node()) {
                self.arm_consumer(ctx, mid.node());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_PRODUCE {
            self.beat(ctx);
        } else if tag >= TAG_CONSUME_BASE {
            let producer = NodeId::new((tag - TAG_CONSUME_BASE) as u8);
            if self.watched.remove(producer) {
                self.timers.remove(&producer);
                self.detected.push((ctx.now(), producer));
            }
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

    #[test]
    fn guarding_master_sees_live_slaves_forever() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        let slaves = NodeSet::from_bits(0b0110);
        sim.add_node(n(0), CanopenMaster::new(BitTime::new(10_000), 3, slaves));
        sim.add_node(n(1), CanopenSlave::new());
        sim.add_node(n(2), CanopenSlave::new());
        sim.run_until(BitTime::new(500_000));
        let master = sim.app::<CanopenMaster>(n(0));
        assert!(master.detected().is_empty());
        assert!(master.polls() > 50);
        assert!(sim.app::<CanopenSlave>(n(1)).responses() > 20);
    }

    #[test]
    fn guarding_master_detects_crash_within_lifetime() {
        let guard = BitTime::new(10_000);
        let factor = 3u32;
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            CanopenMaster::new(guard, factor, NodeSet::from_bits(0b0110)),
        );
        sim.add_node(n(1), CanopenSlave::new());
        sim.add_node(n(2), CanopenSlave::new());
        let crash_at = BitTime::new(100_000);
        sim.schedule_crash(n(2), crash_at);
        sim.run_until(BitTime::new(500_000));
        let master = sim.app::<CanopenMaster>(n(0));
        assert_eq!(master.detected().len(), 1);
        let (when, who) = master.detected()[0];
        assert_eq!(who, n(2));
        // Detection within node-life-time plus one guard period.
        assert!(when > crash_at);
        assert!(when - crash_at <= guard * u64::from(factor + 1) + BitTime::new(1_000));
    }

    #[test]
    fn slave_toggles_its_response_bit() {
        let mut slave = CanopenSlave::new();
        assert!(!slave.toggle);
        let mut rig = can_controller::Rig::new(1);
        let guard = DriverEvent::RtrInd {
            mid: Mid::new(MsgType::NodeGuard, 0, n(1)),
        };
        for _ in 0..2 {
            rig.ctx(|ctx| slave.on_event(ctx, &guard));
        }
        assert_eq!(slave.responses(), 2);
        assert_eq!(rig.ctl.queue_len(), 2);
    }

    #[test]
    fn heartbeat_consumers_detect_silent_producer() {
        let period = BitTime::new(10_000);
        let consumer_time = BitTime::new(15_000); // 1.5 × period
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..3u8 {
            let watched = NodeSet::first_n(3) - NodeSet::singleton(n(id));
            sim.add_node(
                n(id),
                HeartbeatNode::new(Some(period), consumer_time, watched),
            );
        }
        let crash_at = BitTime::new(100_000);
        sim.schedule_crash(n(1), crash_at);
        sim.run_until(BitTime::new(300_000));
        for id in [0u8, 2] {
            let node = sim.app::<HeartbeatNode>(n(id));
            assert_eq!(node.detected().len(), 1, "node {id}");
            let (when, who) = node.detected()[0];
            assert_eq!(who, n(1));
            assert!(when - crash_at <= consumer_time + period);
        }
    }

    #[test]
    fn heartbeat_detection_is_not_agreed() {
        // The paper's criticism: producer-consumer detection has no
        // agreement — with an inconsistent final heartbeat, consumers
        // detect at different times.
        use can_bus::{AccepterSpec, FaultEffect, FaultMatcher, ScriptedFault};
        let period = BitTime::new(10_000);
        let consumer_time = BitTime::new(15_000);
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Heartbeat),
                mid_node: Some(n(1)),
                not_before: BitTime::new(95_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(0))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        for id in 0..3u8 {
            let watched = NodeSet::first_n(3) - NodeSet::singleton(n(id));
            sim.add_node(
                n(id),
                HeartbeatNode::new(Some(period), consumer_time, watched),
            );
        }
        sim.run_until(BitTime::new(400_000));
        let t0 = sim.app::<HeartbeatNode>(n(0)).detected()[0].0;
        let t2 = sim.app::<HeartbeatNode>(n(2)).detected()[0].0;
        assert_ne!(
            t0, t2,
            "no agreement: the consumer that got the last heartbeat detects later"
        );
        assert!(t0 > t2);
    }

    #[test]
    fn pure_consumer_never_beats() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            HeartbeatNode::new(
                Some(BitTime::new(10_000)),
                BitTime::new(15_000),
                NodeSet::EMPTY,
            ),
        );
        sim.add_node(
            n(1),
            HeartbeatNode::new(None, BitTime::new(15_000), NodeSet::singleton(n(0))),
        );
        sim.run_until(BitTime::new(100_000));
        assert_eq!(sim.app::<HeartbeatNode>(n(1)).beats(), 0);
        assert!(sim.app::<HeartbeatNode>(n(1)).detected().is_empty());
    }
}
