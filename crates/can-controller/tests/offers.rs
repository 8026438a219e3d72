//! Every path that changes a node's bus offer, pinned to the
//! transactions the simulator produced when it re-synced every offer
//! after every callback. A callback now re-syncs only when its node's
//! controller queue or confinement state moved, the medium consumed the
//! node's offer, or the node has a guardian: each test below walks one
//! of those paths and checks the transaction that follows it.

use can_bus::{
    BusConfig, FaultEffect, FaultMatcher, FaultPlan, MediaFault, ScriptedFault, TxRecord,
};
use can_controller::{Application, Ctx, GuardianPolicy, Simulator, TimerId};
use can_types::{BitTime, Frame, FrameKind, Mid, MsgType, NodeId, NodeSet, Payload};

fn n(id: u8) -> NodeId {
    NodeId::new(id)
}

fn els(node: u8) -> Frame {
    Frame::remote(Mid::new(MsgType::Els, 0, n(node)))
}

fn data(node: u8, bytes: &[u8]) -> Frame {
    Frame::data(
        Mid::new(MsgType::AppData, 0, n(node)),
        Payload::from_slice(bytes).unwrap(),
    )
}

/// A node requesting `frames` at `at` (zero: at power-on), one alarm
/// for them all.
struct Sender {
    at: BitTime,
    frames: Vec<Frame>,
}

fn sends(at: u64, frames: &[Frame]) -> Sender {
    Sender {
        at: BitTime::new(at),
        frames: frames.to_vec(),
    }
}

impl Sender {
    fn issue(&self, ctx: &mut Ctx<'_>) {
        for frame in &self.frames {
            let mid = Mid::from_can_id(frame.id()).unwrap();
            match frame.kind() {
                FrameKind::Data => ctx.can_data_req(mid, *frame.payload()),
                FrameKind::Remote => ctx.can_rtr_req(mid),
            }
        }
    }
}

impl Application for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.at.saturating_sub(ctx.now()) {
            BitTime::ZERO => self.issue(ctx),
            delay => {
                ctx.start_alarm(delay, 0);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
        self.issue(ctx);
    }
}

fn faults_on_node_0(effect: FaultEffect, count: u32) -> FaultPlan {
    let mut faults = FaultPlan::none();
    let matcher = FaultMatcher {
        sender: Some(n(0)),
        ..FaultMatcher::default()
    };
    faults.push_scripted(ScriptedFault {
        matcher,
        effect,
        count,
    });
    faults
}

/// Nodes 0 and 1, run for 20 ms after `setup`.
fn pair(faults: FaultPlan, apps: [Sender; 2], setup: impl FnOnce(&mut Simulator)) -> Simulator {
    let mut sim = Simulator::new(BusConfig::default(), faults);
    for (id, app) in (0..).zip(apps) {
        sim.add_node(n(id), app);
    }
    setup(&mut sim);
    sim.run_until(BitTime::new(20_000));
    sim
}

/// The bus as the offer paths left it, per transaction: start, the
/// instant its frame was last (re)offered, identifier, transmitters,
/// whether it erred.
fn offers(sim: &Simulator) -> Vec<(u64, u64, u32, u64, bool)> {
    let row = |r: &TxRecord| {
        let (start, queued) = (r.start.as_u64(), r.queued_at.as_u64());
        (
            start,
            queued,
            r.frame.id().raw(),
            r.transmitters.bits(),
            r.errored,
        )
    };
    sim.trace().iter().map(row).collect()
}

const ELS0: u32 = 0x300_0000;
const ELS1: u32 = 0x300_0001;
const DATA0: u32 = 0x1800_0000;
const DATA1: u32 = 0x1800_0001;

#[test]
fn a_confirm_offers_the_next_queued_frame() {
    let apps = [
        sends(0, &[data(0, &[1]), els(0)]),
        sends(0, &[data(1, &[2])]),
    ];
    let sim = pair(FaultPlan::none(), apps, |_| {});
    let next = [(72, 69, DATA0, 1, false), (154, 0, DATA1, 2, false)];
    assert_eq!(
        offers(&sim),
        [&[(0, 0, ELS0, 1, false)][..], &next].concat()
    );
}

#[test]
fn a_consistent_error_keeps_the_offer() {
    let faults = faults_on_node_0(FaultEffect::ConsistentOmission, 2);
    let sim = pair(faults, [sends(0, &[els(0)]), sends(0, &[els(1)])], |_| {});
    let errors = [(0, 0, ELS0, 1, true), (92, 0, ELS0, 1, true)];
    let next = [(184, 0, ELS0, 1, false), (256, 0, ELS1, 2, false)];
    assert_eq!(offers(&sim), [errors, next].concat());
}

#[test]
fn an_ack_error_keeps_the_offer_through_its_backoff() {
    let mut faults = FaultPlan::none();
    let (from, until) = (BitTime::ZERO, BitTime::new(400));
    let isolated = NodeSet::singleton(n(0));
    faults.push_media_fault(MediaFault {
        medium: 0,
        isolated,
        from,
        until,
    });
    let sim = pair(
        faults,
        [sends(0, &[els(0)]), sends(100, &[data(1, &[3])])],
        |_| {},
    );
    let errors = [
        (0, 0, ELS0, 1, true),
        (100, 100, DATA1, 2, true),
        (348, 0, ELS0, 1, true),
    ];
    let next = [(457, 100, DATA1, 2, false), (952, 0, ELS0, 1, false)];
    assert_eq!(offers(&sim), [&errors[..], &next].concat());
}

#[test]
fn bus_off_withdraws_the_offer_for_good() {
    let faults = faults_on_node_0(FaultEffect::ConsistentOmission, 100);
    let apps = [
        sends(0, &[els(0), data(0, &[4])]),
        sends(0, &[data(1, &[5])]),
    ];
    let sim = pair(faults, apps, |_| {});
    assert!(sim.controller(n(0)).is_bus_off());
    // The 32nd error takes node 0 off the bus; node 1 goes next.
    let last = [(2852, 0, ELS0, 1, true), (2944, 0, DATA1, 2, false)];
    assert_eq!(offers(&sim)[31..], last);
}

#[test]
fn a_retry_limit_drop_offers_the_next_queued_frame() {
    let faults = faults_on_node_0(FaultEffect::ConsistentOmission, 3);
    let apps = [sends(0, &[els(0), data(0, &[6])]), sends(0, &[])];
    let sim = pair(faults, apps, |sim| sim.set_retry_limit(n(0), Some(1)));
    let errors = [(0, 0, ELS0, 1, true), (92, 0, ELS0, 1, true)];
    let next = [(184, 161, DATA0, 1, true), (285, 161, DATA0, 1, false)];
    assert_eq!(offers(&sim), [errors, next].concat());
}

#[test]
fn a_guardian_wake_re_offers_the_withheld_frame() {
    let apps = [
        sends(0, &[els(0), data(0, &[7])]),
        sends(0, &[data(1, &[8])]),
    ];
    let policy = GuardianPolicy::new(1, BitTime::new(1_000));
    let sim = pair(FaultPlan::none(), apps, |sim| {
        sim.set_guardian(n(0), policy)
    });
    let next = [(72, 0, DATA1, 2, false), (1069, 1069, DATA0, 1, false)];
    assert_eq!(
        offers(&sim),
        [&[(0, 0, ELS0, 1, false)][..], &next].concat()
    );
    // `admit` counts: a guarded node syncs after every callback.
    assert_eq!(sim.guardian_throttled(n(0)), 4);
}

#[test]
fn a_restart_offers_from_a_fresh_controller() {
    let apps = [
        sends(300, &[data(0, &[9])]),
        sends(1_000, &[data(1, &[10])]),
    ];
    let sim = pair(FaultPlan::none(), apps, |sim| {
        sim.schedule_crash(n(0), BitTime::new(310));
        sim.schedule_restart(n(0), BitTime::new(1_000), sends(0, &[els(0)]));
    });
    let next = [(1000, 1000, ELS0, 1, false), (1072, 1000, DATA1, 2, false)];
    assert_eq!(
        offers(&sim),
        [&[(300, 300, DATA0, 1, false)][..], &next].concat()
    );
}
