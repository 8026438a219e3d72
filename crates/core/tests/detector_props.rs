//! Differential property test pinning [`canely::SurveillanceDetector`]
//! — driven through the [`canely::FailureDetector`] trait seam — to
//! the pre-refactor `FailureDetector` implementation, copied below
//! verbatim (only the import paths and the struct name changed). Any
//! behavioural drift the trait extraction might have introduced shows
//! up as a divergence on some randomized schedule of START/STOP,
//! activity, timer-expiry and FDA-notification events.
//!
//! Pattern of `can-bus/tests/medium_props.rs`: a reference copy of
//! the seed implementation judged against the current code over
//! proptest-generated inputs.

use can_controller::{Ctx, Rig, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet};
use canely::obs::{EventSink, ObsTimer, ProtocolEvent};
use canely::tags::TimerOwner;
use canely::{DetectorTimer, FailureDetector as _, FdAction, SurveillanceDetector};
use proptest::prelude::*;
use std::collections::HashMap;

/// The seed-tree failure detector, verbatim (docs and tests elided;
/// `crate::` paths rewritten for the external-test context).
#[derive(Debug)]
struct LegacyFailureDetector {
    th: BitTime,
    ttd: BitTime,
    timers: HashMap<NodeId, TimerId>,
    monitored: NodeSet,
    els_sent: u64,
    obs: EventSink,
}

impl LegacyFailureDetector {
    fn new(th: BitTime, ttd: BitTime) -> Self {
        LegacyFailureDetector {
            th,
            ttd,
            timers: HashMap::new(),
            monitored: NodeSet::EMPTY,
            els_sent: 0,
            obs: EventSink::disabled(),
        }
    }

    fn els_mid(r: NodeId) -> Mid {
        Mid::new(MsgType::Els, 0, r)
    }

    fn monitored(&self) -> NodeSet {
        self.monitored
    }

    fn els_sent(&self) -> u64 {
        self.els_sent
    }

    fn start(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.insert(r);
        self.arm(ctx, r); // f01
    }

    fn stop(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.remove(r);
        if let Some(tid) = self.timers.remove(&r) {
            ctx.cancel_alarm(tid); // f18
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if let Some(old) = self.timers.remove(&r) {
            ctx.cancel_alarm(old);
        }
        let duration = if r == ctx.me() {
            self.th // a02
        } else {
            self.th + self.ttd + BitTime::new(u64::from(ctx.me().as_u8()) * 512)
        };
        let tid = ctx.start_alarm(duration, TimerOwner::Surveillance(r).encode());
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::Surveillance(r),
                deadline: ctx.now() + duration,
            },
        );
        self.timers.insert(r, tid);
    }

    fn on_activity(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if self.monitored.contains(r) {
            self.arm(ctx, r); // f04
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> Option<FdAction> {
        if !self.monitored.contains(r) {
            return None; // stale expiry after STOP
        }
        self.timers.remove(&r);
        if r == ctx.me() {
            ctx.can_rtr_req(Self::els_mid(r)); // f08
            self.els_sent += 1;
            self.obs
                .emit(ctx.now(), ctx.me(), ProtocolEvent::LifeSignSent);
            None
        } else {
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::SuspectRaised { suspect: r },
            );
            Some(FdAction::Suspect(r)) // f10
        }
    }

    fn on_fda_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> FdAction {
        self.monitored.remove(r);
        if let Some(tid) = self.timers.remove(&r) {
            ctx.cancel_alarm(tid); // f14
        }
        FdAction::Notify(r) // f15
    }
}

/// A randomized protocol stimulus. Selector ranges instead of
/// `prop_oneof!` (the vendored proptest has no such macro — same
/// style as `medium_props.rs`).
#[derive(Debug, Clone)]
struct Step {
    /// 0 = START, 1 = STOP, 2 = activity, 3 = fda-nty, 4.. = fire the
    /// next due timer (over-weighted so schedules actually expire).
    selector: u8,
    node: u8,
    /// Time advance before the step, in bit-times.
    delta: u16,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..8, 0u8..4, 0u16..6_000).prop_map(|(selector, node, delta)| Step {
        selector,
        node,
        delta,
    })
}

proptest! {
    /// The refactored detector behind the trait is action-for-action,
    /// timer-for-timer and frame-for-frame identical to the seed
    /// implementation on arbitrary fault schedules.
    #[test]
    fn surveillance_detector_matches_the_seed_implementation(
        me in 0u8..4,
        steps in prop::collection::vec(arb_step(), 1..48),
    ) {
        let th = BitTime::new(5_000);
        let ttd = BitTime::new(2_500);
        let mut old_world = Rig::new(me);
        let mut new_world = Rig::new(me);
        let mut old = LegacyFailureDetector::new(th, ttd);
        let mut new = SurveillanceDetector::new(th, ttd);

        for step in &steps {
            let now = old_world.now + BitTime::new(u64::from(step.delta));
            old_world.now = now;
            new_world.now = now;
            let r = NodeId::new(step.node);
            match step.selector {
                0 => {
                    old_world.ctx(|ctx| old.start(ctx, r));
                    new_world.ctx(|ctx| new.start(ctx, r));
                }
                1 => {
                    old_world.ctx(|ctx| old.stop(ctx, r));
                    new_world.ctx(|ctx| new.stop(ctx, r));
                }
                2 => {
                    old_world.ctx(|ctx| old.on_activity(ctx, r));
                    new_world.ctx(|ctx| new.on_activity(ctx, r));
                }
                3 => {
                    let a = old_world.ctx(|ctx| old.on_fda_nty(ctx, r));
                    let b = new_world.ctx(|ctx| new.on_fda_nty(ctx, r));
                    prop_assert_eq!(a, b);
                }
                _ => {
                    // Fire the next due timer, exactly as the simulator
                    // would: advance to the deadline, pop, dispatch.
                    let Some(deadline) = old_world.timers.next_deadline() else {
                        prop_assert_eq!(new_world.timers.next_deadline(), None);
                        continue;
                    };
                    prop_assert_eq!(new_world.timers.next_deadline(), Some(deadline));
                    old_world.now = deadline;
                    new_world.now = deadline;
                    let fired_old = old_world.timers.pop_due(deadline).expect("due");
                    let fired_new = new_world.timers.pop_due(deadline).expect("due");
                    prop_assert_eq!(fired_old.tag, fired_new.tag);
                    let Some(TimerOwner::Surveillance(victim)) =
                        TimerOwner::decode(fired_old.tag)
                    else {
                        panic!("surveillance detectors own only surveillance timers");
                    };
                    let a = old_world.ctx(|ctx| old.on_timer(ctx, victim));
                    let b =
                        new_world.ctx(|ctx| new.on_timer(ctx, DetectorTimer::Node(victim)));
                    prop_assert_eq!(a, b);
                }
            }
            // Lock-step observable state after every event.
            prop_assert_eq!(old.monitored(), new.monitored());
            prop_assert_eq!(old.els_sent(), new.els_sent());
            prop_assert_eq!(new.els_sent(), new.control_frames());
            prop_assert_eq!(old_world.timers.len(), new_world.timers.len());
            prop_assert_eq!(
                old_world.timers.next_deadline(),
                new_world.timers.next_deadline()
            );
            prop_assert_eq!(old_world.ctl.queue_len(), new_world.ctl.queue_len());
            prop_assert_eq!(
                old_world.ctl.head().map(can_types::Frame::id),
                new_world.ctl.head().map(can_types::Frame::id)
            );
        }
    }
}
