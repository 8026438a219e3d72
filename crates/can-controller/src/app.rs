//! The protocol-entity abstraction: applications driven by driver
//! events and timers.
//!
//! A CANELy protocol stack (or a baseline protocol, or plain
//! application traffic) is an [`Application`]: a deterministic state
//! machine that reacts to [`DriverEvent`]s and timer expiries, and
//! acts through its [`Ctx`] — issuing `can-data.req`, `can-rtr.req`,
//! `can-abort.req` and managing local timers.

use crate::controller::Controller;
use crate::driver::DriverEvent;
use crate::timer::{TimerId, TimerWheel};
use can_types::{BitTime, CanId, Mid, NodeId, Payload};
use std::any::Any;

/// The execution context handed to an application callback.
///
/// Provides the node's identity, the simulation clock, the request
/// primitives of the CAN standard layer (Fig. 4) and local timers
/// (Fig. 5).
pub struct Ctx<'a> {
    now: BitTime,
    node: NodeId,
    controller: &'a mut Controller,
    timers: &'a mut TimerWheel,
}

impl<'a> Ctx<'a> {
    /// Frames one application callback: the simulator's `with_app`
    /// and [`crate::Rig::ctx`] are the only two callers.
    pub(crate) fn new(
        now: BitTime,
        node: NodeId,
        controller: &'a mut Controller,
        timers: &'a mut TimerWheel,
    ) -> Self {
        Ctx {
            now,
            node,
            controller,
            timers,
        }
    }

    /// The current simulation instant.
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// The identity of the local node (the pseudo-code's `p`).
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// `can-data.req`: requests transmission of a data frame.
    pub fn can_data_req(&mut self, mid: Mid, payload: Payload) {
        self.controller.request_data(mid, payload);
    }

    /// `can-rtr.req`: requests transmission of a remote frame.
    /// Identical requests issued by several nodes cluster into a
    /// single physical frame on the wire.
    pub fn can_rtr_req(&mut self, mid: Mid) {
        self.controller.request_rtr(mid);
    }

    /// `can-abort.req`: aborts pending transmit requests with the
    /// given identifier. "Has effect only on pending requests."
    /// Returns the number of aborted requests.
    pub fn can_abort_req(&mut self, id: impl Into<CanId>) -> usize {
        self.controller.abort(id)
    }

    /// `start_alarm`: starts a timer expiring `delay` from now,
    /// carrying an application-defined `tag`.
    pub fn start_alarm(&mut self, delay: BitTime, tag: u64) -> TimerId {
        self.timers.start(self.node, self.now + delay, tag)
    }

    /// `cancel_alarm(old)` followed by `start_alarm(delay, tag)`, as
    /// one step (see [`TimerWheel::restart`]). With no `old` handle,
    /// or one that already fired or was cancelled, a plain start.
    pub fn restart_alarm(&mut self, old: Option<TimerId>, delay: BitTime, tag: u64) -> TimerId {
        let deadline = self.now + delay;
        match old {
            Some(old) => self.timers.restart(old, self.node, deadline, tag),
            None => self.timers.start(self.node, deadline, tag),
        }
    }

    /// `cancel_alarm`: cancels a pending timer.
    pub fn cancel_alarm(&mut self, id: TimerId) -> bool {
        self.timers.cancel(id)
    }

    /// Read access to the node's controller (fault-confinement state,
    /// queue depth) for management-level applications.
    pub fn controller(&self) -> &Controller {
        self.controller
    }
}

/// A protocol entity running on one node.
///
/// All callbacks are optional. `Any` is a supertrait so that
/// [`crate::Simulator::app`] and [`crate::Simulator::drive`] recover
/// the concrete type by upcasting `dyn Application` to `dyn Any`; an
/// implementor writes nothing for it.
pub trait Application: Any {
    /// Called once when the simulation starts (or when the node is
    /// powered on, if it is added later).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called for every driver event addressed to this node.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        let _ = (ctx, event);
    }

    /// Called when a timer started by this node expires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        let _ = (ctx, id, tag);
    }
}

// The upcast `Simulator::app` relies on, checked where the trait is
// declared (stable since Rust 1.86; the workspace `rust-version` covers it).
const _: fn(&Box<dyn Application>) -> &dyn Any = |app| &**app;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rig;
    use can_types::MsgType;

    struct Probe;
    impl Application for Probe {}

    #[test]
    fn ctx_requests_reach_controller() {
        let mut rig = Rig::new(1);
        let mid = Mid::new(MsgType::Els, 0, NodeId::new(1));
        rig.ctx(|ctx| {
            ctx.can_rtr_req(mid);
            assert_eq!(ctx.controller().queue_len(), 1);
            assert_eq!(ctx.can_abort_req(mid), 1);
            assert_eq!(ctx.controller().queue_len(), 0);
        });
    }

    #[test]
    fn ctx_timers_are_relative_to_now() {
        let mut rig = Rig::new(1);
        rig.now = BitTime::new(100);
        rig.ctx(|ctx| ctx.start_alarm(BitTime::new(50), 9));
        assert_eq!(rig.timers.next_deadline(), Some(BitTime::new(150)));
    }

    #[test]
    fn default_callbacks_are_no_ops() {
        let mut probe = Probe;
        let mut rig = Rig::new(0);
        let id = TimerWheel::new().start(NodeId::new(0), BitTime::ZERO, 0);
        rig.ctx(|ctx| {
            probe.on_start(ctx);
            probe.on_timer(ctx, id, 0);
        });
        assert_eq!(rig.ctl.queue_len(), 0);
    }
}
