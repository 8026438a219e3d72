//! The babbling-idiot extension ([2]) at system level: an application
//! flooding the bus starves lower-priority traffic; a rate guardian
//! confines it locally so the protocol suite keeps its bounds.

use can_bus::{BusConfig, FaultPlan};
use can_controller::{Application, Ctx, DriverEvent, GuardianPolicy, Simulator, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};
use canely::{CanelyConfig, CanelyStack, UpperEvent};
use integration::n;

/// An application gone mad: re-queues a high-priority frame the moment
/// the previous one confirms (continuous transmission pressure).
#[derive(Default)]
struct Babbler {
    sent: u64,
}

impl Babbler {
    // The babbler uses a *clock-sync-class* identifier: higher
    // priority than ELS/JOIN would be unrealistic for application SW,
    // but a misbehaving device driver owning a mid-priority id is
    // exactly the babbling-idiot scenario of [2].
    fn mid(&self, me: NodeId) -> Mid {
        Mid::new(MsgType::ClockSync, 0, me)
    }
}

impl Application for Babbler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mid = self.mid(ctx.me());
        ctx.can_data_req(mid, Payload::from_slice(&[0; 8]).unwrap());
        self.sent += 1;
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if let DriverEvent::DataCnf { .. } = event {
            let mid = self.mid(ctx.me());
            ctx.can_data_req(mid, Payload::from_slice(&[0; 8]).unwrap());
            self.sent += 1;
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {}
}

/// Without a guardian the babbler owns a huge share of the bus.
#[test]
fn unguarded_babbler_floods_the_bus() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    sim.add_node(n(0), Babbler::default());
    for id in 1..4u8 {
        sim.add_node(n(id), CanelyStack::new(CanelyConfig::default()));
    }
    sim.run_until(BitTime::new(500_000));
    let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(500_000));
    let babble_share = stats.utilization_of(&[MsgType::ClockSync]);
    assert!(
        babble_share > 0.5,
        "an unguarded babbler must flood the bus, got {babble_share}"
    );
}

/// With a guardian the babbler is confined and the membership suite
/// keeps operating with its usual latency.
#[test]
fn guardian_confines_the_babbler() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    sim.add_node(n(0), Babbler::default());
    // Budget: 10 frames per 100 ms — ~1.5 % of the bus.
    sim.set_guardian(n(0), GuardianPolicy::new(10, BitTime::new(100_000)));
    for id in 1..5u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    let crash_at = BitTime::new(300_000);
    sim.schedule_crash(n(3), crash_at);
    sim.run_until(BitTime::new(600_000));

    let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(600_000));
    let babble_share = stats.utilization_of(&[MsgType::ClockSync]);
    assert!(
        babble_share < 0.03,
        "guardian must confine the babbler, got {babble_share}"
    );
    assert!(sim.guardian_throttled(n(0)) > 0, "guardian actually acted");

    // The membership service is unimpaired: crash detected in bound.
    let expected = NodeSet::from_bits(0b1_0110);
    for id in [1u8, 2, 4] {
        let stack = sim.app::<CanelyStack>(n(id));
        assert_eq!(stack.view(), expected, "node {id}");
        let detected = stack
            .events()
            .iter()
            .find_map(|&(t, e)| match e {
                UpperEvent::FailureNotified(r) if r == n(3) => Some(t),
                _ => None,
            })
            .expect("crash detected despite babbler");
        assert!(
            detected - crash_at <= config.detection_latency_bound() + BitTime::new(2_000),
            "node {id}: latency {}",
            detected - crash_at
        );
    }
}

/// The guardian throttles *all* of a node's traffic — including its
/// own protocol frames — so its budget must be provisioned for the
/// protocol suite (the design tension [2] points out).
#[test]
fn undersized_guardian_budget_silences_its_own_node() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..4u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    // Node 3 gets an absurd budget: one frame per 100 ms — its ELS
    // (every 5 ms) cannot flow, so the others declare it failed.
    sim.set_guardian(n(3), GuardianPolicy::new(1, BitTime::new(100_000)));
    sim.run_until(BitTime::new(600_000));
    let expected = NodeSet::first_n(3);
    for id in 0..3u8 {
        assert_eq!(
            sim.app::<CanelyStack>(n(id)).view(),
            expected,
            "node {id}: a starved node is indistinguishable from a crashed one"
        );
    }
}
