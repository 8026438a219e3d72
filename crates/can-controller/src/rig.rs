//! One node's worth of world, without a simulator.
//!
//! A protocol entity touches its node only through a [`Ctx`]; a
//! [`Rig`] owns what a [`Ctx`] borrows, so a unit test, a property
//! test or an exhaustive interleaving check can hand an entity its
//! callbacks one at a time and look at the controller queue and the
//! timer wheel in between.

use crate::app::Ctx;
use crate::controller::Controller;
use crate::timer::TimerWheel;
use can_types::{BitTime, Mid, NodeId};

/// A controller, a timer wheel, an identity and a clock the
/// caller sets: everything a [`Ctx`] needs, and nothing that moves on
/// its own. No bus — frames stay in the transmit queue until
/// [`Rig::drain_frames`] confirms them — and no dispatcher: the caller
/// pops `timers` and calls the entity, which is what makes every
/// interleaving reachable.
///
/// # Examples
///
/// An entity that beats on a period, driven through one period by hand:
///
/// ```
/// use can_controller::{Application, Ctx, Rig, TimerId};
/// use can_types::{BitTime, Mid, MsgType};
///
/// struct Beater;
/// impl Application for Beater {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.start_alarm(BitTime::new(5_000), 7);
///     }
///     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
///         ctx.can_rtr_req(Mid::new(MsgType::Els, 0, ctx.me()));
///         ctx.start_alarm(BitTime::new(5_000), tag);
///     }
/// }
///
/// let mut rig = Rig::new(3);
/// let mut beater = Beater;
/// rig.ctx(|ctx| beater.on_start(ctx));
/// assert_eq!(rig.timers.next_deadline(), Some(BitTime::new(5_000)));
/// assert_eq!(rig.ctl.queue_len(), 0);
///
/// rig.now = BitTime::new(5_000);
/// let fired = rig.timers.pop_due(rig.now).expect("the alarm is due");
/// rig.ctx(|ctx| beater.on_timer(ctx, fired.id, fired.tag));
/// assert_eq!(rig.drain_frames(), [Mid::new(MsgType::Els, 0, rig.me)]);
/// assert_eq!(rig.timers.next_deadline(), Some(BitTime::new(10_000)));
/// ```
#[derive(Debug)]
pub struct Rig {
    /// The node's controller; requests issued through the context
    /// queue here.
    pub ctl: Controller,
    /// The node's alarms.
    pub timers: TimerWheel,
    /// The instant the next context reports as [`Ctx::now`].
    pub now: BitTime,
    /// The node's identity, reported as [`Ctx::me`].
    pub me: NodeId,
}

impl Rig {
    /// An idle node `me` at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a valid node identifier.
    pub fn new(me: u8) -> Self {
        Rig {
            ctl: Controller::new(),
            timers: TimerWheel::new(),
            now: BitTime::ZERO,
            me: NodeId::new(me),
        }
    }

    /// Runs `f` with a context for this node at `now`, exactly as a
    /// simulator frames an application callback.
    pub fn ctx<R>(&mut self, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx::new(self.now, self.me, &mut self.ctl, &mut self.timers);
        f(&mut ctx)
    }

    /// Confirms every queued transmit request in priority order, as a
    /// fault-free bus would, and returns their message identifiers.
    pub fn drain_frames(&mut self) -> Vec<Mid> {
        let mut mids = Vec::new();
        while let Some(frame) = self.ctl.head().copied() {
            mids.push(Mid::from_can_id(frame.id()).expect("every request is issued with a Mid"));
            self.ctl.confirm(&frame);
        }
        mids
    }
}
