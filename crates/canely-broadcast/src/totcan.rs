//! TOTCAN — totally ordered atomic broadcast.
//!
//! The membership paper's claim that CAN alone does not give a totally
//! ordered atomic broadcast (the "misconception" dismissed by \[18\])
//! is remedied by a two-phase protocol:
//!
//! * the sender transmits the message (DATA phase); recipients
//!   *buffer* it without delivering;
//! * once the sender sees its own transmission complete it transmits
//!   an ACCEPT signal — a short remote frame; the ACCEPT is eagerly
//!   diffused (first-copy recipients retransmit the identical remote
//!   frame, which clusters) so it is all-or-nothing;
//! * recipients deliver the buffered message when the ACCEPT arrives;
//!   delivery order is the bus order of ACCEPT frames — identical at
//!   every node;
//! * a buffered message whose ACCEPT does not arrive within the abort
//!   timeout is discarded by everyone (atomicity under sender crash:
//!   either the ACCEPT wave completes and all correct nodes deliver,
//!   or nobody does).

use crate::common::{Delivery, MsgKey, ScheduledSend};
use can_controller::{Application, Ctx, DriverEvent, FirstCopy, TimerId};
use can_types::{BitTime, Mid, MsgType, Payload};
use std::collections::HashMap;

const TAG_SEND_BASE: u64 = 0x1000;
const TAG_ABORT_BASE: u64 = 0x100_0000;

fn abort_tag(key: MsgKey) -> u64 {
    TAG_ABORT_BASE | (u64::from(key.origin.as_u8()) << 16) | u64::from(key.seq)
}

fn key_from_abort_tag(tag: u64) -> MsgKey {
    MsgKey::new(
        can_types::NodeId::new(((tag >> 16) & 0x3F) as u8),
        (tag & 0xFFFF) as u16,
    )
}

#[derive(Debug)]
struct Buffered {
    payload: Payload,
    abort_timer: TimerId,
}

/// The TOTCAN protocol entity (one per node).
#[derive(Debug)]
pub struct Totcan {
    /// How long a buffered message waits for its ACCEPT before being
    /// discarded.
    abort_timeout: BitTime,
    schedule: Vec<ScheduledSend>,
    next_seq: u16,
    buffered: HashMap<MsgKey, Buffered>,
    accepts: HashMap<MsgKey, FirstCopy>,
    /// Messages already settled (delivered or discarded): late
    /// duplicate DATA copies must not be re-buffered.
    done: HashMap<MsgKey, ()>,
    deliveries: Vec<Delivery>,
    discarded: Vec<(BitTime, MsgKey)>,
}

impl Totcan {
    /// A node with the given abort timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero.
    pub fn new(abort_timeout: BitTime) -> Self {
        assert!(!abort_timeout.is_zero(), "abort timeout must be positive");
        Totcan {
            abort_timeout,
            schedule: Vec::new(),
            next_seq: 0,
            buffered: HashMap::new(),
            accepts: HashMap::new(),
            done: HashMap::new(),
            deliveries: Vec::new(),
            discarded: Vec::new(),
        }
    }

    /// Schedules broadcasts.
    pub fn with_schedule(mut self, schedule: Vec<ScheduledSend>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Messages delivered upstairs, in total order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Messages discarded for lack of an ACCEPT.
    pub fn discarded(&self) -> &[(BitTime, MsgKey)] {
        &self.discarded
    }

    fn data_mid(key: MsgKey) -> Mid {
        Mid::new(MsgType::Totcan, key.seq, key.origin)
    }

    fn accept_mid(key: MsgKey) -> Mid {
        Mid::new(MsgType::TotcanAccept, key.seq, key.origin)
    }

    /// Invokes the atomic broadcast of a new message.
    pub fn broadcast(&mut self, ctx: &mut Ctx<'_>, payload: Payload) -> MsgKey {
        let key = MsgKey::new(ctx.me(), self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        ctx.can_data_req(Self::data_mid(key), payload);
        key
    }

    fn on_accept_copy(&mut self, ctx: &mut Ctx<'_>, key: MsgKey) {
        let Some(rediffuse) = self.accepts.entry(key).or_default().copy() else {
            return;
        };
        // First ACCEPT copy: deliver the buffered message and join the
        // diffusion of the ACCEPT (clustered remote frames).
        if let Some(buffered) = self.buffered.remove(&key) {
            ctx.cancel_alarm(buffered.abort_timer);
            self.done.insert(key, ());
            self.deliveries.push(Delivery {
                time: ctx.now(),
                key,
                payload: buffered.payload,
            });
        }
        if rediffuse {
            ctx.can_rtr_req(Self::accept_mid(key));
        }
    }
}

impl Application for Totcan {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, send) in self.schedule.iter().enumerate() {
            let delay = send.at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, TAG_SEND_BASE + i as u64);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        match event {
            DriverEvent::DataInd { mid, payload } if mid.msg_type() == MsgType::Totcan => {
                let key = MsgKey::new(mid.node(), mid.reference());
                if self.buffered.contains_key(&key) || self.done.contains_key(&key) {
                    return; // duplicate DATA
                }
                let abort_timer = ctx.start_alarm(self.abort_timeout, abort_tag(key));
                self.buffered.insert(
                    key,
                    Buffered {
                        payload: *payload,
                        abort_timer,
                    },
                );
            }
            DriverEvent::DataCnf { mid } if mid.msg_type() == MsgType::Totcan => {
                // Our DATA is on the bus everywhere: sign the ACCEPT.
                let key = MsgKey::new(mid.node(), mid.reference());
                if self.accepts.entry(key).or_default().request() {
                    ctx.can_rtr_req(Self::accept_mid(key));
                }
            }
            DriverEvent::RtrInd { mid } if mid.msg_type() == MsgType::TotcanAccept => {
                let key = MsgKey::new(mid.node(), mid.reference());
                self.on_accept_copy(ctx, key);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag >= TAG_ABORT_BASE {
            let key = key_from_abort_tag(tag);
            if self.buffered.remove(&key).is_some() {
                self.done.insert(key, ());
                self.discarded.push((ctx.now(), key));
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

    const ABORT: BitTime = BitTime::new(5_000);

    #[test]
    fn all_nodes_deliver_in_the_same_order() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        // Three senders fire at the same instant: arbitration and the
        // ACCEPT waves serialize them identically everywhere.
        for id in 0..3u8 {
            sim.add_node(
                n(id),
                Totcan::new(ABORT)
                    .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(id))]),
            );
        }
        sim.add_node(n(3), Totcan::new(ABORT));
        sim.run_until(BitTime::new(100_000));
        let reference: Vec<MsgKey> = sim
            .app::<Totcan>(n(3))
            .deliveries()
            .iter()
            .map(|d| d.key)
            .collect();
        assert_eq!(reference.len(), 3);
        for id in 0..3u8 {
            let order: Vec<MsgKey> = sim
                .app::<Totcan>(n(id))
                .deliveries()
                .iter()
                .map(|d| d.key)
                .collect();
            assert_eq!(order, reference, "node {id} must agree on the order");
        }
    }

    #[test]
    fn sender_crash_before_accept_delivers_nowhere() {
        let mut faults = FaultPlan::none();
        // The DATA reaches only node 2, and the sender dies before
        // retransmitting (so no ACCEPT ever).
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Totcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(2))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(
            n(0),
            Totcan::new(ABORT)
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(9))]),
        );
        for id in 1..=3u8 {
            sim.add_node(n(id), Totcan::new(ABORT));
        }
        sim.run_until(BitTime::new(100_000));
        for id in 1..=3u8 {
            assert!(
                sim.app::<Totcan>(n(id)).deliveries().is_empty(),
                "atomicity: node {id} must not deliver"
            );
        }
        // The lone accepter discarded its buffered copy.
        assert_eq!(sim.app::<Totcan>(n(2)).discarded().len(), 1);
    }

    #[test]
    fn inconsistent_accept_is_healed_by_diffusion() {
        // The DATA goes everywhere; the *ACCEPT* suffers an
        // inconsistent omission and the sender crashes: the single
        // accepter's rediffusion completes the wave.
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::TotcanAccept),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(
            n(0),
            Totcan::new(ABORT)
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(7))]),
        );
        for id in 1..=3u8 {
            sim.add_node(n(id), Totcan::new(ABORT));
        }
        sim.run_until(BitTime::new(100_000));
        for id in 1..=3u8 {
            assert_eq!(
                sim.app::<Totcan>(n(id)).deliveries().len(),
                1,
                "correct node {id} must deliver after the ACCEPT heals"
            );
        }
    }

    #[test]
    fn delivery_waits_for_accept() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            Totcan::new(ABORT)
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(5))]),
        );
        sim.add_node(n(1), Totcan::new(ABORT));
        sim.run_until(BitTime::new(100_000));
        let receiver = sim.app::<Totcan>(n(1));
        assert_eq!(receiver.deliveries().len(), 1);
        // The DATA frame lands first; delivery happens strictly after
        // (on the ACCEPT).
        let data_end = sim
            .trace()
            .iter()
            .find(|r| r.mid().is_some_and(|m| m.msg_type() == MsgType::Totcan))
            .map(|r| r.bus_free)
            .unwrap();
        assert!(receiver.deliveries()[0].time > data_end);
    }

    #[test]
    fn duplicate_data_not_rebuffered() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Totcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: false,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(
            n(0),
            Totcan::new(ABORT)
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(3))]),
        );
        for id in 1..=2u8 {
            sim.add_node(n(id), Totcan::new(ABORT));
        }
        sim.run_until(BitTime::new(100_000));
        for id in 1..=2u8 {
            let node = sim.app::<Totcan>(n(id));
            assert_eq!(node.deliveries().len(), 1, "node {id}");
            assert!(node.discarded().is_empty(), "node {id}");
        }
    }
}
