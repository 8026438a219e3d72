//! RELCAN — lazy diffusion broadcast.
//!
//! EDCAN pays one extra (clustered) frame on *every* broadcast.
//! RELCAN moves that cost to the failure path: the sender follows its
//! message with a short CONFIRM remote frame; recipients deliver the
//! message immediately, and only if the CONFIRM fails to arrive within
//! the confirmation timeout do they fall back to eager diffusion of
//! the message. In the failure-free case the overhead is a single
//! remote frame from one sender (no clustering needed); under an
//! inconsistent omission with sender crash, the accepters' fallback
//! diffusion completes the broadcast.

use crate::common::{Delivery, MsgKey, ScheduledSend};
use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, Payload};
use std::collections::HashMap;

const TAG_SEND_BASE: u64 = 0x1000;
const TAG_CNF_BASE: u64 = 0x100_0000;

fn cnf_tag(key: MsgKey) -> u64 {
    TAG_CNF_BASE | (u64::from(key.origin.as_u8()) << 16) | u64::from(key.seq)
}

fn key_from_cnf_tag(tag: u64) -> MsgKey {
    MsgKey::new(
        can_types::NodeId::new(((tag >> 16) & 0x3F) as u8),
        (tag & 0xFFFF) as u16,
    )
}

#[derive(Debug)]
struct Pending {
    payload: Payload,
    timer: TimerId,
}

/// The RELCAN protocol entity (one per node).
#[derive(Debug)]
pub struct Relcan {
    /// Confirmation timeout (covers the sender's CONFIRM transmission
    /// delay bound).
    cnf_timeout: BitTime,
    schedule: Vec<ScheduledSend>,
    next_seq: u16,
    delivered: HashMap<MsgKey, ()>,
    pending_cnf: HashMap<MsgKey, Pending>,
    diffused: HashMap<MsgKey, ()>,
    deliveries: Vec<Delivery>,
    fallbacks: u64,
    requests: u64,
}

impl Relcan {
    /// A node with the given confirmation timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero.
    pub fn new(cnf_timeout: BitTime) -> Self {
        assert!(
            !cnf_timeout.is_zero(),
            "confirmation timeout must be positive"
        );
        Relcan {
            cnf_timeout,
            schedule: Vec::new(),
            next_seq: 0,
            delivered: HashMap::new(),
            pending_cnf: HashMap::new(),
            diffused: HashMap::new(),
            deliveries: Vec::new(),
            fallbacks: 0,
            requests: 0,
        }
    }

    /// Schedules broadcasts.
    pub fn with_schedule(mut self, schedule: Vec<ScheduledSend>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Messages delivered upstairs, in delivery order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Number of eager-diffusion fallbacks taken (failure path).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Transmit requests issued by this node.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn data_mid(key: MsgKey) -> Mid {
        Mid::new(MsgType::Relcan, key.seq, key.origin)
    }

    fn cnf_mid(key: MsgKey) -> Mid {
        Mid::new(MsgType::RelcanConfirm, key.seq, key.origin)
    }

    /// Invokes the broadcast of a new message.
    pub fn broadcast(&mut self, ctx: &mut Ctx<'_>, payload: Payload) -> MsgKey {
        let key = MsgKey::new(ctx.me(), self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        ctx.can_data_req(Self::data_mid(key), payload);
        self.requests += 1;
        key
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, key: MsgKey, payload: &Payload) -> bool {
        if self.delivered.contains_key(&key) {
            return false;
        }
        self.delivered.insert(key, ());
        self.deliveries.push(Delivery {
            time: ctx.now(),
            key,
            payload: *payload,
        });
        true
    }
}

impl Application for Relcan {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, send) in self.schedule.iter().enumerate() {
            let delay = send.at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, TAG_SEND_BASE + i as u64);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        match event {
            DriverEvent::DataInd { mid, payload } if mid.msg_type() == MsgType::Relcan => {
                let key = MsgKey::new(mid.node(), mid.reference());
                let fresh = self.deliver(ctx, key, payload);
                // Recipients (not the origin) await the CONFIRM.
                if fresh && key.origin != ctx.me() {
                    let timer = ctx.start_alarm(self.cnf_timeout, cnf_tag(key));
                    self.pending_cnf.insert(
                        key,
                        Pending {
                            payload: *payload,
                            timer,
                        },
                    );
                }
            }
            DriverEvent::DataCnf { mid } if mid.msg_type() == MsgType::Relcan => {
                // Our message went out: follow with the CONFIRM.
                let key = MsgKey::new(mid.node(), mid.reference());
                ctx.can_rtr_req(Self::cnf_mid(key));
                self.requests += 1;
            }
            DriverEvent::RtrInd { mid } if mid.msg_type() == MsgType::RelcanConfirm => {
                let key = MsgKey::new(mid.node(), mid.reference());
                if let Some(pending) = self.pending_cnf.remove(&key) {
                    ctx.cancel_alarm(pending.timer);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag >= TAG_CNF_BASE {
            // CONFIRM missing: fall back to eager diffusion.
            let key = key_from_cnf_tag(tag);
            if let Some(pending) = self.pending_cnf.remove(&key) {
                if self.diffused.insert(key, ()).is_none() {
                    ctx.can_data_req(Self::data_mid(key), pending.payload);
                    self.requests += 1;
                    self.fallbacks += 1;
                }
            }
        } else if tag >= TAG_SEND_BASE {
            let idx = (tag - TAG_SEND_BASE) as usize;
            if let Some(send) = self.schedule.get(idx) {
                let payload = send.payload;
                self.broadcast(ctx, payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
    use can_controller::Simulator;
    use can_types::{NodeId, NodeSet};

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn payload(b: u8) -> Payload {
        Payload::from_slice(&[b; 4]).unwrap()
    }

    const CNF_TIMEOUT: BitTime = BitTime::new(2_000);

    fn one_sender(sim: &mut Simulator, receivers: u8) {
        sim.add_node(
            n(0),
            Relcan::new(CNF_TIMEOUT)
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(0xBB))]),
        );
        for id in 1..=receivers {
            sim.add_node(n(id), Relcan::new(CNF_TIMEOUT));
        }
    }

    #[test]
    fn failure_free_costs_message_plus_confirm() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        one_sender(&mut sim, 4);
        sim.run_until(BitTime::new(50_000));
        // Exactly two physical frames: DATA + CONFIRM.
        assert_eq!(sim.trace().len(), 2);
        for id in 0..=4u8 {
            assert_eq!(sim.app::<Relcan>(n(id)).deliveries().len(), 1, "node {id}");
            assert_eq!(sim.app::<Relcan>(n(id)).fallbacks(), 0);
        }
    }

    #[test]
    fn cheaper_than_edcan_when_failure_free() {
        // EDCAN: DATA + clustered echo (both full data frames).
        // RELCAN: DATA + short remote CONFIRM.
        let edcan_busy = {
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            sim.add_node(
                n(0),
                crate::edcan::Edcan::new()
                    .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(1))]),
            );
            for id in 1..4u8 {
                sim.add_node(n(id), crate::edcan::Edcan::new());
            }
            sim.run_until(BitTime::new(50_000));
            sim.trace().stats(BitTime::ZERO, BitTime::new(50_000)).busy
        };
        let relcan_busy = {
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            one_sender(&mut sim, 3);
            sim.run_until(BitTime::new(50_000));
            sim.trace().stats(BitTime::ZERO, BitTime::new(50_000)).busy
        };
        assert!(
            relcan_busy < edcan_busy,
            "RELCAN ({relcan_busy}) must beat EDCAN ({edcan_busy}) failure-free"
        );
    }

    #[test]
    fn fallback_masks_sender_crash_after_inconsistent_omission() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Relcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(2))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        one_sender(&mut sim, 3);
        sim.run_until(BitTime::new(50_000));
        // Node 2 accepted; its confirmation timeout fires; the
        // fallback diffusion reaches nodes 1 and 3.
        for id in 1..=3u8 {
            assert_eq!(
                sim.app::<Relcan>(n(id)).deliveries().len(),
                1,
                "correct node {id} must deliver"
            );
        }
        assert_eq!(sim.app::<Relcan>(n(2)).fallbacks(), 1);
    }

    #[test]
    fn confirm_cancels_fallback_timers() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        one_sender(&mut sim, 2);
        sim.run_until(BitTime::new(50_000));
        for id in 1..=2u8 {
            let node = sim.app::<Relcan>(n(id));
            assert!(node.pending_cnf.is_empty(), "node {id} still pending");
            assert_eq!(node.fallbacks(), 0);
        }
    }

    #[test]
    fn duplicate_deliveries_suppressed_after_fallback() {
        // Inconsistent omission without crash: the sender retransmits
        // *and* the accepter may fall back — everyone still delivers
        // exactly once.
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Relcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: false,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        one_sender(&mut sim, 3);
        sim.run_until(BitTime::new(50_000));
        for id in 0..=3u8 {
            assert_eq!(sim.app::<Relcan>(n(id)).deliveries().len(), 1, "node {id}");
        }
    }
}
