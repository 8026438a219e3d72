//! The site membership protocol (paper Fig. 9).
//!
//! The protocol maintains `Vs`, the *site membership view*, consistent
//! at all correct nodes:
//!
//! * join/leave requests travel as remote frames and accumulate in
//!   `Vj` / `Vl` during a membership cycle;
//! * when the cycle timer (`Tm`) expires — or an RHA execution is
//!   triggered remotely — pending join/leave requests are settled by
//!   one RHA run; an idle cycle **skips RHA entirely** to save
//!   bandwidth (line s24);
//! * node crash failures arrive from the companion failure detection
//!   service (`fd-can.nty`), are accumulated in `Fs` and notified
//!   *immediately* (line s15); the view is purged at the next
//!   view-processing point;
//! * a non-integrated node whose join-wait timer expires with no
//!   full member answering bootstraps the view from `Vj` (line s19).
//!
//! ## Reconstruction notes (garbled pseudo-code in the source scan)
//!
//! Two details of Fig. 9 are illegible in the available scan and are
//! reconstructed here from the surrounding prose, preserving the
//! documented intent:
//!
//! 1. **Two-cycle join straggler removal** (footnote 10): "an
//!    auxiliary set `V'j` allows to remove from `Vj`, within a period
//!    of two membership cycles, any node that on account of an
//!    inconsistent failure, does not succeed to be included in `Vs`."
//!    We implement: after each view settlement, a join request that
//!    did not make it into the view survives exactly one further
//!    settlement before being dropped.
//! 2. **Failed-join retry**: a joining node excluded from the agreed
//!    view re-issues its JOIN request on the next settlement instead
//!    of staying out forever.

use crate::obs::{EventSink, ObsTimer, ProtocolEvent};
use crate::rha::SharedSets;
use crate::tags::TimerOwner;
use can_controller::{Ctx, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet};

/// Actions the membership protocol hands back to the enclosing stack
/// for routing to the companion services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshAction {
    /// `fd-can.req(START, r)`: begin surveillance of a node.
    StartFd(NodeId),
    /// `fd-can.req(STOP, r)`: end surveillance of a node.
    StopFd(NodeId),
    /// `rha-can.req()`: settle pending join/leaves with an RHA run.
    InvokeRha,
    /// `msh-can.nty`: membership change notification to upper layers.
    Notify {
        /// The current set of active sites.
        view: NodeSet,
        /// The set of failed nodes reported with this change.
        failed: NodeSet,
    },
    /// The local node's leave completed: it is out of the service
    /// (Fig. 9, lines a13–a15).
    LeftService,
    /// The local node was declared failed by the agreement while still
    /// running (it was inaccessible longer than the detection bound):
    /// it must stop participating — fail-silence by expulsion.
    Expelled,
}

/// A membership change as recorded for upper layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// When the notification was delivered.
    pub time: BitTime,
    /// The set of active sites (`Vs` net of reported failures).
    pub view: NodeSet,
    /// The failed nodes reported with this notification (empty for
    /// join/leave changes).
    pub failed: NodeSet,
}

/// The site membership protocol entity of one node.
#[derive(Debug)]
pub struct Membership {
    /// `Tm`: membership cycle period.
    tm: BitTime,
    /// `Tjoin-wait`: maximum join wait delay.
    join_wait: BitTime,
    /// `Vs`: the site membership view.
    vs: NodeSet,
    /// `Vj`: nodes in a joining process.
    vj: NodeSet,
    /// `V'j`: join stragglers carried over one settlement (footnote 10).
    vj_prev: NodeSet,
    /// `Vl`: nodes requesting withdrawal.
    vl: NodeSet,
    /// `Fs`: node crash failures detected this cycle.
    fs: NodeSet,
    /// The shared cycle / join-wait alarm (`tid`).
    tid: Option<TimerId>,
    /// Whether the local node has an outstanding join attempt.
    joining: bool,
    /// Whether the local node has left (or been expelled from) the
    /// service.
    out_of_service: bool,
    /// Completed membership cycles (introspection).
    cycles: u64,
    /// Structured-event sink (disabled by default).
    obs: EventSink,
}

impl Membership {
    /// Creates a membership entity.
    pub fn new(tm: BitTime, join_wait: BitTime) -> Self {
        Membership {
            tm,
            join_wait,
            vs: NodeSet::EMPTY,
            vj: NodeSet::EMPTY,
            vj_prev: NodeSet::EMPTY,
            vl: NodeSet::EMPTY,
            fs: NodeSet::EMPTY,
            tid: None,
            joining: false,
            out_of_service: false,
            cycles: 0,
            obs: EventSink::disabled(),
        }
    }

    /// Installs the structured-event sink (see [`crate::obs`]).
    pub fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// The current site membership view `Vs`.
    pub fn view(&self) -> NodeSet {
        self.vs
    }

    /// Whether the local node is a full member.
    pub fn is_member(&self, me: NodeId) -> bool {
        self.vs.contains(me)
    }

    /// Whether the local node has left / been expelled.
    pub fn is_out_of_service(&self) -> bool {
        self.out_of_service
    }

    /// Completed membership cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Snapshot of the shared variables for an RHA invocation.
    pub fn shared_sets(&self) -> SharedSets {
        SharedSets {
            vs: self.vs,
            vj: self.vj,
            vl: self.vl,
        }
    }

    /// `msh-can.req(JOIN)` (lines s00–s03): request integration of the
    /// local node.
    pub fn request_join(&mut self, ctx: &mut Ctx<'_>) {
        if self.vs.contains(ctx.me()) || self.out_of_service {
            return;
        }
        self.joining = true;
        if self.tid.is_none() {
            self.tid = Some(ctx.start_alarm(
                self.join_wait, // s01: max join wait delay
                TimerOwner::MembershipCycle.encode(),
            ));
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::TimerArmed {
                    timer: ObsTimer::MembershipCycle,
                    deadline: ctx.now() + self.join_wait,
                },
            );
        }
        ctx.can_rtr_req(Mid::new(MsgType::Join, 0, ctx.me())); // s02
        self.obs
            .emit(ctx.now(), ctx.me(), ProtocolEvent::JoinRequested);
    }

    /// `msh-can.req(LEAVE)` (lines s07–s09): request withdrawal of the
    /// local node.
    pub fn request_leave(&mut self, ctx: &mut Ctx<'_>) {
        if !self.vs.contains(ctx.me()) {
            return; // s07 guard: only members leave
        }
        ctx.can_rtr_req(Mid::new(MsgType::Leave, 0, ctx.me())); // s08
        self.obs
            .emit(ctx.now(), ctx.me(), ProtocolEvent::LeaveRequested);
    }

    /// Arrival of a JOIN remote frame (lines s04–s06).
    pub fn on_join_ind(&mut self, r: NodeId) {
        self.vj.insert(r);
    }

    /// Arrival of a LEAVE remote frame (lines s10–s12).
    pub fn on_leave_ind(&mut self, r: NodeId) {
        self.vl.insert(r);
    }

    /// `fd-can.nty(r)`: a node crash failure was agreed (lines
    /// s13–s16). The change is notified immediately.
    pub fn on_fd_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> Vec<MshAction> {
        if self.out_of_service {
            return Vec::new();
        }
        self.fs.insert(r); // s14
        self.chg_nty(ctx, self.vs - self.fs, NodeSet::singleton(r)) // s15
    }

    /// Cycle boundary: the shared alarm expired (`expired = true`) or
    /// an RHA execution started (`rha-can.nty(INIT)`, `expired =
    /// false`) — lines s17–s27.
    pub fn on_cycle_boundary(&mut self, ctx: &mut Ctx<'_>, expired: bool) -> Vec<MshAction> {
        if self.out_of_service {
            return Vec::new();
        }
        let me = ctx.me();
        if expired && !self.vs.contains(me) {
            // s18–s19: no full member answered within the join wait —
            // bootstrap the view from the joining set.
            self.vs = self.vj;
            self.obs.emit(
                ctx.now(),
                me,
                ProtocolEvent::ViewBootstrapped { view: self.vs },
            );
        }
        // s21: restart the cycle timer.
        self.tid = Some(ctx.restart_alarm(self.tid, self.tm, TimerOwner::MembershipCycle.encode()));
        self.obs.emit(
            ctx.now(),
            me,
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::MembershipCycle,
                deadline: ctx.now() + self.tm,
            },
        );
        self.cycles += 1;

        let idle = self.vj.is_empty() && self.vl.is_empty();
        self.obs.emit(
            ctx.now(),
            me,
            ProtocolEvent::CycleStarted {
                index: self.cycles,
                idle,
            },
        );
        let mut actions = Vec::new();
        if !idle {
            actions.push(MshAction::InvokeRha); // s23
        } else {
            self.view_proc(ctx, self.vs); // s25: idle cycle — skip RHA
        }
        self.maybe_rejoin(ctx);
        actions
    }

    /// `rha-can.nty(END, V_RHV)` (lines s28–s34).
    pub fn on_rha_end(&mut self, ctx: &mut Ctx<'_>, v_rhv: NodeSet) -> Vec<MshAction> {
        if self.out_of_service {
            return Vec::new();
        }
        let me = ctx.me();
        let was_member = self.vs.contains(me);
        let vj_snapshot = self.vj;
        let vl_snapshot = self.vl;

        self.view_proc(ctx, v_rhv); // s29

        let mut actions = Vec::new();
        // s30–s32: notify if the settlement changed the composition.
        if !(vj_snapshot & self.vs).is_empty() || !(vl_snapshot - self.vs).is_empty() {
            actions.extend(self.chg_nty(ctx, self.vs, NodeSet::EMPTY));
        }
        if self.out_of_service {
            // The local node left with this settlement: nothing more
            // to manage.
            return actions;
        }

        // s33 / msh-data-proc (lines a03–a09).
        let became_member = !was_member && self.vs.contains(me);
        if became_member {
            self.joining = false;
            // A freshly integrated node starts surveillance of every
            // member, itself included (it has no incremental history).
            for s in self.vs.iter() {
                actions.push(MshAction::StartFd(s));
            }
        } else {
            for s in (vj_snapshot & self.vs).iter() {
                actions.push(MshAction::StartFd(s)); // a04–a05
            }
        }
        // Footnote-10 straggler removal: joins settled into the view
        // leave Vj; unsuccessful joins survive one more settlement.
        let stragglers = vj_snapshot - self.vs;
        self.vj = stragglers - self.vj_prev;
        self.vj_prev = stragglers;

        for s in (vl_snapshot - self.vs).iter() {
            actions.push(MshAction::StopFd(s)); // a07–a08
        }
        self.vl &= self.vs; // a09

        self.maybe_rejoin(ctx);
        actions
    }

    /// `msh-view-proc` (lines a00–a02): commit a vector as the view,
    /// net of the failures detected meanwhile.
    fn view_proc(&mut self, ctx: &mut Ctx<'_>, vw: NodeSet) {
        let next = vw - self.fs; // a01
        if next != self.vs {
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::ViewInstalled { view: next },
            );
        }
        self.vs = next;
        self.fs = NodeSet::EMPTY;
    }

    /// `msh-chg-nty` (lines a10–a18).
    fn chg_nty(&mut self, ctx: &mut Ctx<'_>, view: NodeSet, failed: NodeSet) -> Vec<MshAction> {
        let me = ctx.me();
        if failed.contains(me) {
            // The agreement expelled us (we were silent beyond the
            // detection bound): stop participating.
            if let Some(tid) = self.tid.take() {
                ctx.cancel_alarm(tid);
            }
            self.out_of_service = true;
            vec![MshAction::Expelled]
        } else if view.contains(me) || self.vs.contains(me) {
            // a11–a12: full member — deliver the change upstairs.
            vec![MshAction::Notify { view, failed }]
        } else if self.vl.contains(me) {
            // a13–a15: our leave completed.
            if let Some(tid) = self.tid.take() {
                ctx.cancel_alarm(tid);
            }
            self.out_of_service = true;
            self.vl.remove(me);
            vec![
                MshAction::Notify {
                    view,
                    failed: NodeSet::singleton(me),
                },
                MshAction::LeftService,
            ]
        } else {
            Vec::new()
        }
    }

    /// Reconstruction: retry a join that was not settled into the view.
    fn maybe_rejoin(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        if self.joining && !self.vs.contains(me) && !self.vj.contains(me) {
            ctx.can_rtr_req(Mid::new(MsgType::Join, 0, me));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    fn msh() -> Membership {
        Membership::new(BitTime::new(30_000), BitTime::new(60_000))
    }

    fn bits(b: u64) -> NodeSet {
        NodeSet::from_bits(b)
    }

    #[test]
    fn join_request_arms_wait_timer_and_broadcasts() {
        let mut h = Rig::new(2);
        let mut m = msh();
        h.ctx(|ctx| m.request_join(ctx));
        assert!(m.joining);
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(60_000)));
        let head = h.ctl.head().unwrap();
        assert_eq!(
            Mid::from_can_id(head.id()).unwrap().msg_type(),
            MsgType::Join
        );
    }

    #[test]
    fn member_does_not_rejoin() {
        let mut h = Rig::new(2);
        let mut m = msh();
        m.vs = bits(0b0100);
        h.ctx(|ctx| m.request_join(ctx));
        assert!(!m.joining);
        assert_eq!(h.ctl.queue_len(), 0);
    }

    #[test]
    fn leave_requires_membership() {
        let mut h = Rig::new(2);
        let mut m = msh();
        h.ctx(|ctx| m.request_leave(ctx));
        assert_eq!(h.ctl.queue_len(), 0);
        m.vs = bits(0b0100);
        h.ctx(|ctx| m.request_leave(ctx));
        assert_eq!(h.ctl.queue_len(), 1);
    }

    #[test]
    fn failure_notification_is_immediate() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b0111);
        let actions = h.ctx(|ctx| m.on_fd_nty(ctx, NodeId::new(2)));
        assert_eq!(
            actions,
            vec![MshAction::Notify {
                view: bits(0b0011),
                failed: bits(0b0100),
            }]
        );
        // Fs purges the view at the next processing point.
        let actions = h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        assert!(actions.is_empty(), "idle cycle skips RHA");
        assert_eq!(m.view(), bits(0b0011));
    }

    #[test]
    fn idle_cycle_skips_rha_pending_requests_invoke_it() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b0011);
        let idle = h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        assert!(idle.is_empty());
        m.on_join_ind(NodeId::new(5));
        let busy = h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        assert_eq!(busy, vec![MshAction::InvokeRha]);
    }

    #[test]
    fn bootstrap_view_from_joiners() {
        let mut h = Rig::new(0);
        let mut m = msh();
        h.ctx(|ctx| m.request_join(ctx));
        m.on_join_ind(NodeId::new(0));
        m.on_join_ind(NodeId::new(1));
        // Join-wait expired with no full member around: s18–s19.
        let actions = h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        assert_eq!(m.view(), bits(0b0011));
        assert_eq!(actions, vec![MshAction::InvokeRha]);
    }

    #[test]
    fn rha_end_settles_join_and_starts_fd() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b0011);
        m.on_join_ind(NodeId::new(2));
        let actions = h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0111)));
        assert_eq!(m.view(), bits(0b0111));
        assert!(actions.contains(&MshAction::Notify {
            view: bits(0b0111),
            failed: NodeSet::EMPTY,
        }));
        assert!(actions.contains(&MshAction::StartFd(NodeId::new(2))));
        assert!(m.vj.is_empty(), "settled join leaves Vj");
    }

    #[test]
    fn newly_integrated_node_starts_fd_for_every_member() {
        let mut h = Rig::new(4);
        let mut m = msh();
        h.ctx(|ctx| m.request_join(ctx));
        m.on_join_ind(NodeId::new(4));
        let actions = h.ctx(|ctx| m.on_rha_end(ctx, bits(0b1_0111)));
        let fd_starts: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                MshAction::StartFd(r) => Some(r.as_u8()),
                _ => None,
            })
            .collect();
        assert_eq!(fd_starts, vec![0, 1, 2, 4]);
        assert!(!m.joining, "join completed");
    }

    #[test]
    fn rha_end_settles_leave_and_stops_fd() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b0111);
        m.on_leave_ind(NodeId::new(2));
        let actions = h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0011)));
        assert_eq!(m.view(), bits(0b0011));
        assert!(actions.contains(&MshAction::StopFd(NodeId::new(2))));
        assert!(m.vl.is_empty());
    }

    #[test]
    fn leaving_node_gets_left_service() {
        let mut h = Rig::new(2);
        let mut m = msh();
        m.vs = bits(0b0111);
        m.on_leave_ind(NodeId::new(2)); // own leave echoed back
        let actions = h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0011)));
        assert!(actions.contains(&MshAction::LeftService));
        assert!(m.is_out_of_service());
        // Subsequent events are ignored.
        let after = h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        assert!(after.is_empty());
    }

    #[test]
    fn expulsion_when_declared_failed() {
        let mut h = Rig::new(2);
        let mut m = msh();
        m.vs = bits(0b0111);
        let actions = h.ctx(|ctx| m.on_fd_nty(ctx, NodeId::new(2)));
        assert!(actions.contains(&MshAction::Expelled));
        assert!(m.is_out_of_service());
    }

    #[test]
    fn straggler_join_dropped_after_two_settlements() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b0011);
        m.on_join_ind(NodeId::new(5));
        // First settlement excludes node 5 (inconsistent join).
        h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0011)));
        assert!(m.vj.contains(NodeId::new(5)), "survives one settlement");
        // Second settlement still excludes it: dropped.
        h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0011)));
        assert!(!m.vj.contains(NodeId::new(5)), "dropped after two");
    }

    #[test]
    fn failed_join_is_retried() {
        let mut h = Rig::new(3);
        let mut m = msh();
        h.ctx(|ctx| m.request_join(ctx));
        assert_eq!(h.ctl.queue_len(), 1);
        // The join was consumed (Vj cleared by a settlement that did
        // not include us) — the stack retries.
        h.ctx(|ctx| m.on_rha_end(ctx, bits(0b0011)));
        assert_eq!(h.ctl.queue_len(), 2, "JOIN re-issued");
        assert!(m.joining);
    }

    #[test]
    fn cycle_counter_advances() {
        let mut h = Rig::new(0);
        let mut m = msh();
        m.vs = bits(0b1);
        for _ in 0..3 {
            h.ctx(|ctx| m.on_cycle_boundary(ctx, true));
        }
        assert_eq!(m.cycles(), 3);
    }
}
