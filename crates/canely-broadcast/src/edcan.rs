//! EDCAN — eager diffusion broadcast.
//!
//! Protocol (from \[18\]):
//!
//! * the sender requests transmission of the message;
//! * every recipient of the *first* copy delivers it upstairs and, in
//!   the absence of an own equivalent transmit request, requests the
//!   retransmission of an *identical* copy;
//! * identical copies transmitted simultaneously cluster into a single
//!   physical frame (wired-AND), so agreement typically costs one
//!   extra frame regardless of group size.
//!
//! The protocol masks the inconsistent-omission-plus-sender-crash
//! failure: if even one node accepted the frame, its rediffusion
//! reaches everyone (LCAN1/LCAN2 applied to the copy).

use crate::common::{Delivery, MsgKey, ScheduledSend};
use can_controller::{Application, Ctx, DriverEvent, FirstCopy, TimerId};
use can_types::{Mid, MsgType, Payload};
use std::collections::HashMap;

const TAG_SEND_BASE: u64 = 0x1000;

/// The EDCAN protocol entity (one per node).
#[derive(Debug, Default)]
pub struct Edcan {
    state: HashMap<MsgKey, FirstCopy>,
    deliveries: Vec<Delivery>,
    schedule: Vec<ScheduledSend>,
    next_seq: u16,
    requests: u64,
}

impl Edcan {
    /// A node with no scheduled broadcasts (pure relay/receiver).
    pub fn new() -> Self {
        Edcan::default()
    }

    /// Schedules broadcasts to be issued at given instants.
    pub fn with_schedule(mut self, schedule: Vec<ScheduledSend>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Messages delivered to the layer above, in delivery order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Transmit requests issued (originals plus rediffusions).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn mid(key: MsgKey) -> Mid {
        Mid::new(MsgType::Edcan, key.seq, key.origin)
    }

    /// Invokes the broadcast of a new message from this node.
    pub fn broadcast(&mut self, ctx: &mut Ctx<'_>, payload: Payload) -> MsgKey {
        let key = MsgKey::new(ctx.me(), self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.state.entry(key).or_default().request();
        ctx.can_data_req(Self::mid(key), payload);
        self.requests += 1;
        key
    }

    fn on_copy(&mut self, ctx: &mut Ctx<'_>, key: MsgKey, payload: &Payload) {
        let Some(rediffuse) = self.state.entry(key).or_default().copy() else {
            return; // duplicate
        };
        self.deliveries.push(Delivery {
            time: ctx.now(),
            key,
            payload: *payload,
        });
        // Eager diffusion: rediffuse unless we already requested an
        // equivalent transmission.
        if rediffuse {
            ctx.can_data_req(Self::mid(key), *payload);
            self.requests += 1;
        }
    }
}

impl Application for Edcan {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, send) in self.schedule.iter().enumerate() {
            let delay = send.at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, TAG_SEND_BASE + i as u64);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::DataInd { mid, payload } = event {
            if mid.msg_type() == MsgType::Edcan {
                let key = MsgKey::new(mid.node(), mid.reference());
                self.on_copy(ctx, key, payload);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag >= TAG_SEND_BASE {
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
    use can_types::{BitTime, NodeId, NodeSet};

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn payload(b: u8) -> Payload {
        Payload::from_slice(&[b; 4]).unwrap()
    }

    fn one_sender(sim: &mut Simulator, receivers: u8) {
        sim.add_node(
            n(0),
            Edcan::new()
                .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(0xAA))]),
        );
        for id in 1..=receivers {
            sim.add_node(n(id), Edcan::new());
        }
    }

    #[test]
    fn everyone_delivers_exactly_once() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        one_sender(&mut sim, 3);
        sim.run_until(BitTime::new(50_000));
        for id in 0..=3u8 {
            let node = sim.app::<Edcan>(n(id));
            assert_eq!(node.deliveries().len(), 1, "node {id}");
            assert_eq!(node.deliveries()[0].payload, payload(0xAA));
        }
    }

    #[test]
    fn diffusion_clusters_into_two_physical_frames() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        one_sender(&mut sim, 5);
        sim.run_until(BitTime::new(50_000));
        // Original + one clustered echo wave, regardless of group size.
        assert_eq!(sim.trace().len(), 2);
    }

    #[test]
    fn survives_inconsistent_omission_with_sender_crash() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Edcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(2))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        one_sender(&mut sim, 3);
        sim.run_until(BitTime::new(50_000));
        // Sender crashed, but node 2 accepted and rediffused: all
        // *correct* nodes deliver.
        for id in 1..=3u8 {
            assert_eq!(
                sim.app::<Edcan>(n(id)).deliveries().len(),
                1,
                "correct node {id} must deliver"
            );
        }
    }

    #[test]
    fn duplicates_are_suppressed_under_inconsistent_omission() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Edcan),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: false,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        one_sender(&mut sim, 3);
        sim.run_until(BitTime::new(50_000));
        // Node 1 receives the frame at least twice (accepted copy plus
        // the retransmission) but delivers exactly once (LCAN3 masked).
        assert_eq!(sim.app::<Edcan>(n(1)).deliveries().len(), 1);
    }

    #[test]
    fn concurrent_broadcasts_all_delivered() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4u8 {
            sim.add_node(
                n(id),
                Edcan::new()
                    .with_schedule(vec![ScheduledSend::new(BitTime::new(1_000), payload(id))]),
            );
        }
        sim.run_until(BitTime::new(100_000));
        for id in 0..4u8 {
            let node = sim.app::<Edcan>(n(id));
            assert_eq!(node.deliveries().len(), 4, "node {id}");
            // One delivery per origin.
            let mut origins: Vec<u8> = node
                .deliveries()
                .iter()
                .map(|d| d.key.origin.as_u8())
                .collect();
            origins.sort_unstable();
            assert_eq!(origins, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn sequence_numbers_distinguish_messages() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            Edcan::new().with_schedule(vec![
                ScheduledSend::new(BitTime::new(1_000), payload(1)),
                ScheduledSend::new(BitTime::new(2_000), payload(2)),
                ScheduledSend::new(BitTime::new(3_000), payload(3)),
            ]),
        );
        sim.add_node(n(1), Edcan::new());
        sim.run_until(BitTime::new(50_000));
        let deliveries = sim.app::<Edcan>(n(1)).deliveries();
        assert_eq!(deliveries.len(), 3);
        let seqs: Vec<u16> = deliveries.iter().map(|d| d.key.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
