//! Differential property tests pinning [`canely::SurveillanceDetector`]
//! — driven through the [`canely::FailureDetector`] trait seam — to
//! the pre-refactor `FailureDetector` implementation, and its
//! [`canely::SurveillanceDetector::adaptive`] mode to the separate
//! ADD-channel ◇P type it replaced, both copied below verbatim (only
//! the import paths and the struct names changed). Any behavioural
//! drift a refactor might have introduced shows up as a divergence on
//! some randomized schedule of START/STOP, activity, timer-expiry and
//! FDA-notification events.
//!
//! Pattern of `can-bus/tests/medium_props.rs`: a reference copy of
//! the seed implementation judged against the current code over
//! proptest-generated inputs.

use can_controller::{Ctx, Rig, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, MAX_NODES};
use canely::fd::{els_mid, DetectorMetrics};
use canely::obs::{EventSink, ObsTimer, ProtocolEvent};
use canely::tags::{detector_skew as skew, TimerOwner};
use canely::{DetectorTimer, FailureDetector, FdAction, SurveillanceDetector};
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

/// The ADD-channel ◇P backend as a type of its own, verbatim from the
/// tree before it became [`SurveillanceDetector::adaptive`].
/// ADD-channel-style ◇P heartbeat detector with adaptive timeouts
/// (after Kumar & Welch).
///
/// The local node broadcasts an **unconditional** life-sign every
/// `Th` — implicit heartbeats never suppress it, modelling a
/// dedicated heartbeat stream over an ADD channel. For each remote
/// node the timeout adapts to the channel actually observed: it is
/// the worst inter-arrival gap seen so far plus `Ttd`, clamped
/// between the static floor `Th + Ttd` (never *more* suspicious than
/// the surveillance detector) and twice that floor (so detection
/// latency stays bounded — the ◇P promise is made *eventually
/// perfect within a bound* rather than merely eventual).
///
/// QoS profile: the steadiest bandwidth consumer of the three
/// backends (one ELS per node per `Th`, traffic or not), in exchange
/// for a detector that self-tunes its false-suspicion margin to
/// observed jitter.
#[derive(Debug)]
pub struct LegacyAddPhiDetector {
    /// `Th`: heartbeat period.
    th: BitTime,
    /// `Ttd`: transmission-delay margin.
    ttd: BitTime,
    /// Armed per-node timers (local heartbeat + remote timeouts).
    timers: [Option<TimerId>; MAX_NODES],
    /// Last observed activity per monitored remote node.
    last_heard: [BitTime; MAX_NODES],
    /// Worst observed inter-arrival gap per monitored remote node.
    max_gap: [BitTime; MAX_NODES],
    /// The set of nodes this detector watches.
    monitored: NodeSet,
    /// Life-signs issued.
    els_sent: u64,
    /// Structured-event sink (disabled by default).
    obs: EventSink,
    /// Live-telemetry counters (disabled by default).
    metrics: DetectorMetrics,
}

impl LegacyAddPhiDetector {
    /// Creates a detector with heartbeat period `th` and
    /// transmission-delay margin `ttd`.
    pub fn new(th: BitTime, ttd: BitTime) -> Self {
        LegacyAddPhiDetector {
            th,
            ttd,
            timers: [None; MAX_NODES],
            last_heard: [BitTime::ZERO; MAX_NODES],
            max_gap: [BitTime::ZERO; MAX_NODES],
            monitored: NodeSet::EMPTY,
            els_sent: 0,
            obs: EventSink::disabled(),
            metrics: DetectorMetrics::default(),
        }
    }

    /// The current adaptive timeout for remote node `r`:
    /// `clamp(worst observed gap + Ttd, Th + Ttd, 2·(Th + Ttd))`.
    pub fn timeout_for(&self, r: NodeId) -> BitTime {
        let floor = self.th + self.ttd;
        let adaptive = self.max_gap[r.as_usize()] + self.ttd;
        adaptive.max(floor).min(floor * 2)
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        let duration = if r == ctx.me() {
            self.th
        } else {
            self.timeout_for(r) + skew(ctx.me())
        };
        let tid = &mut self.timers[r.as_usize()];
        *tid = Some(ctx.restart_alarm(*tid, duration, TimerOwner::Surveillance(r).encode()));
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::Surveillance(r),
                deadline: ctx.now() + duration,
            },
        );
    }

    /// Stops watching `r`: cancels its timer and forgets the gaps
    /// observed so far.
    fn release(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.remove(r);
        self.max_gap[r.as_usize()] = BitTime::ZERO;
        if let Some(tid) = self.timers[r.as_usize()].take() {
            ctx.cancel_alarm(tid);
        }
    }
}

impl FailureDetector for LegacyAddPhiDetector {
    fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    fn set_metrics(&mut self, metrics: DetectorMetrics) {
        self.metrics = metrics;
    }

    fn start(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.insert(r);
        self.last_heard[r.as_usize()] = ctx.now();
        self.max_gap[r.as_usize()] = BitTime::ZERO;
        self.arm(ctx, r);
    }

    fn stop(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.release(ctx, r);
    }

    fn stop_all(&mut self, ctx: &mut Ctx<'_>) {
        for r in self.monitored {
            self.release(ctx, r);
        }
    }

    fn on_activity(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if !self.monitored.contains(r) || r == ctx.me() {
            // The local heartbeat is unconditional: own activity never
            // postpones it.
            return;
        }
        let now = ctx.now();
        let gap = now.saturating_sub(self.last_heard[r.as_usize()]);
        self.last_heard[r.as_usize()] = now;
        let worst = &mut self.max_gap[r.as_usize()];
        *worst = (*worst).max(gap);
        self.arm(ctx, r);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: DetectorTimer) -> Option<FdAction> {
        let DetectorTimer::Node(r) = timer else {
            return None; // no period tick in this backend
        };
        if !self.monitored.contains(r) {
            return None;
        }
        self.timers[r.as_usize()] = None;
        if r == ctx.me() {
            ctx.can_rtr_req(els_mid(r));
            self.els_sent += 1;
            self.obs
                .emit(ctx.now(), ctx.me(), ProtocolEvent::LifeSignSent);
            self.metrics.lifesigns.inc();
            // Unconditional cadence: re-arm immediately rather than
            // waiting for the life-sign to echo back.
            self.arm(ctx, r);
            None
        } else {
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::SuspectRaised { suspect: r },
            );
            self.metrics.suspicions.inc();
            Some(FdAction::Suspect(r))
        }
    }

    fn on_fda_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> FdAction {
        self.release(ctx, r);
        FdAction::Notify(r)
    }

    fn monitored(&self) -> NodeSet {
        self.monitored
    }

    fn els_sent(&self) -> u64 {
        self.els_sent
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

/// Drives `reference` and `subject` through `steps` in lock-step, each
/// in a world of its own owned by node `me`, and compares actions,
/// fired timer tags, the pending timers, the transmit queue,
/// `monitored` and `els_sent` after every step.
fn lockstep(
    me: u8,
    steps: &[Step],
    reference: &mut dyn FailureDetector,
    subject: &mut dyn FailureDetector,
) -> Result<(), TestCaseError> {
    let mut old_world = Rig::new(me);
    let mut new_world = Rig::new(me);
    for step in steps {
        let now = old_world.now + BitTime::new(u64::from(step.delta));
        old_world.now = now;
        new_world.now = now;
        let r = NodeId::new(step.node);
        match step.selector {
            0 => {
                old_world.ctx(|ctx| reference.start(ctx, r));
                new_world.ctx(|ctx| subject.start(ctx, r));
            }
            1 => {
                old_world.ctx(|ctx| reference.stop(ctx, r));
                new_world.ctx(|ctx| subject.stop(ctx, r));
            }
            2 => {
                old_world.ctx(|ctx| reference.on_activity(ctx, r));
                new_world.ctx(|ctx| subject.on_activity(ctx, r));
            }
            3 => {
                let a = old_world.ctx(|ctx| reference.on_fda_nty(ctx, r));
                let b = new_world.ctx(|ctx| subject.on_fda_nty(ctx, r));
                prop_assert_eq!(a, b);
            }
            _ => {
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
                let Some(TimerOwner::Surveillance(victim)) = TimerOwner::decode(fired_old.tag)
                else {
                    panic!("heartbeat detectors own only surveillance timers");
                };
                let timer = DetectorTimer::Node(victim);
                let a = old_world.ctx(|ctx| reference.on_timer(ctx, timer));
                let b = new_world.ctx(|ctx| subject.on_timer(ctx, timer));
                prop_assert_eq!(a, b);
            }
        }
        prop_assert_eq!(reference.monitored(), subject.monitored());
        prop_assert_eq!(reference.els_sent(), subject.els_sent());
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
    Ok(())
}

proptest! {
    /// The ◇P mode of the paper's detector is action-for-action,
    /// timer-for-timer and frame-for-frame identical to the separate
    /// ◇P type it replaced.
    #[test]
    fn adaptive_detector_matches_the_add_phi_type(
        me in 0u8..4,
        steps in prop::collection::vec(arb_step(), 1..48),
    ) {
        let th = BitTime::new(5_000);
        let ttd = BitTime::new(2_500);
        lockstep(
            me,
            &steps,
            &mut LegacyAddPhiDetector::new(th, ttd),
            &mut SurveillanceDetector::adaptive(th, ttd),
        )?;
    }
}
