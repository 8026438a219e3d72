//! The deterministic simulation loop.
//!
//! [`Simulator`] owns the shared [`Medium`], one [`Controller`] and
//! one [`Application`] per node, the timer wheel and the lifecycle
//! agenda, and advances simulated time event by event:
//!
//! 1. node power-ons, node crashes and timer expiries fire at their
//!    scheduled instants;
//! 2. whenever the bus is free and at least one alive controller has a
//!    pending transmit offer, a bus transaction is resolved (arbitration,
//!    clustering, fault disposition) and its driver events are
//!    dispatched at frame-end time;
//! 3. timers and crashes falling *inside* a frame are processed before
//!    the frame's delivery, preserving causal order.
//!
//! Every run is reproducible: node iteration is in identifier order,
//! simultaneous timers fire in start order, and all randomness lives
//! in the caller-seeded [`FaultPlan`].

use crate::app::{Application, Ctx};
use crate::controller::Controller;
use crate::driver::DriverEvent;
use crate::guardian::{Guardian, GuardianPolicy};
use crate::timer::TimerWheel;
use can_bus::{BusConfig, FaultPlan, Medium, Transaction, TxOutcome};
use can_types::{BitTime, Frame, FrameKind, Mid, NodeId, NodeSet, MAX_NODES};
use canely_metrics::{PhaseProfiler, PhaseReport};
use std::any::Any;

/// The phases the simulator's self-profiler attributes wall time to,
/// in index order: event scheduling (finding the next event),
/// lifecycle events (power-on / crash / restart / guardian wake),
/// timer-wheel expiry, bus arbitration (medium resolution and
/// in-frame interleaving bookkeeping), and protocol dispatch (driver
/// events into the applications). See `docs/METRICS.md`.
pub const SIM_PHASES: &[&str] = &[
    "sched",
    "lifecycle",
    "timer-expiry",
    "bus-arbitration",
    "protocol-dispatch",
];

const PH_SCHED: usize = 0;
const PH_LIFECYCLE: usize = 1;
const PH_TIMER: usize = 2;
const PH_ARB: usize = 3;
const PH_DISPATCH: usize = 4;

/// Deterministic step-loop counters: derived purely from simulation
/// state, so for a given world and fault plan they are identical on
/// every execution regardless of wall clock or thread placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Scheduling-loop iterations (events processed).
    pub steps: u64,
    /// Timer-wheel expiries fired into applications.
    pub timer_expiries: u64,
    /// Bus transactions resolved (delivered or errored).
    pub bus_transactions: u64,
    /// Lifecycle events: power-ons, crashes, restarts, guardian wakes.
    pub lifecycle_events: u64,
}

fn downcast_mut<T: 'static>(app: &mut dyn Application) -> &mut T {
    let app: &mut dyn Any = app;
    app.downcast_mut().expect("application type mismatch")
}

/// A scheduled change to a node's life. The declaration order is the
/// order of events due at one instant.
enum Lifecycle {
    PowerOn,
    Crash,
    /// A power-cycle booting this application on a fresh controller.
    Restart(Box<dyn Application>),
    /// A guardian's budget is back: re-offer the node's queue head.
    GuardianWake,
}

/// An agenda entry's key: its instant, the rank of its [`Lifecycle`]
/// kind, its node, then its scheduling sequence number (so restarts
/// of one node at one instant fire in the order they were scheduled).
type Due = (BitTime, u8, NodeId, u64);

struct Slot {
    controller: Controller,
    app: Box<dyn Application>,
    guardian: Option<Guardian>,
    crashed: bool,
}

/// The whole-system simulator.
///
/// # Examples
///
/// A node transmitting an explicit life-sign that every other node
/// receives:
///
/// ```
/// use can_bus::{BusConfig, FaultPlan};
/// use can_controller::{Application, Ctx, DriverEvent, Simulator};
/// use can_types::{BitTime, Mid, MsgType, NodeId};
///
/// #[derive(Default)]
/// struct Sender;
/// impl Application for Sender {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.can_rtr_req(Mid::new(MsgType::Els, 0, ctx.me()));
///     }
/// }
///
/// #[derive(Default)]
/// struct Listener { heard: usize }
/// impl Application for Listener {
///     fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: &DriverEvent) {
///         if matches!(event, DriverEvent::RtrInd { .. }) { self.heard += 1; }
///     }
/// }
///
/// let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
/// sim.add_node(NodeId::new(0), Sender);
/// sim.add_node(NodeId::new(1), Listener::default());
/// sim.run_until(BitTime::new(1_000));
/// assert_eq!(sim.app::<Listener>(NodeId::new(1)).heard, 1);
/// ```
pub struct Simulator {
    medium: Medium,
    faults: FaultPlan,
    slots: Vec<Option<Slot>>,
    timers: TimerWheel,
    now: BitTime,
    bus_free_at: BitTime,
    alive: NodeSet,
    /// Every pending lifecycle event, latest first: the next one due is
    /// the last entry.
    agenda: Vec<(Due, Lifecycle)>,
    scheduled: u64,
    crash_log: Vec<(BitTime, NodeId)>,
    profiler: PhaseProfiler,
    stats: StepStats,
}

impl Simulator {
    /// Creates an empty simulator.
    pub fn new(config: BusConfig, faults: FaultPlan) -> Self {
        let mut slots = Vec::with_capacity(MAX_NODES);
        slots.resize_with(MAX_NODES, || None);
        Simulator {
            medium: Medium::new(config),
            faults,
            slots,
            timers: TimerWheel::new(),
            now: BitTime::ZERO,
            bus_free_at: BitTime::ZERO,
            alive: NodeSet::EMPTY,
            agenda: Vec::new(),
            scheduled: 0,
            crash_log: Vec::new(),
            profiler: PhaseProfiler::new(SIM_PHASES),
            stats: StepStats::default(),
        }
    }

    /// Enables the sampling self-profiler: subsequent
    /// [`Simulator::run_until`] time is attributed to the
    /// [`SIM_PHASES`] phases, drained with [`Simulator::take_profile`].
    /// Off by default; when off the step loop pays one branch per
    /// transition and reads no clock.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiler.set_enabled(enabled);
    }

    /// Drains the accumulated per-phase wall-time profile, resetting
    /// the profiler for the next run (the enabled flag is kept).
    pub fn take_profile(&mut self) -> PhaseReport {
        self.profiler.take()
    }

    /// Drains the step-loop counters, resetting them to zero.
    pub fn take_step_stats(&mut self) -> StepStats {
        std::mem::take(&mut self.stats)
    }

    /// Schedules a power-cycle of `node` at `at`: the node must be
    /// crashed by then; it restarts with a *fresh* controller and the
    /// given application (all volatile protocol state lost, as after a
    /// real reboot). The membership model expects reintegration "a
    /// period much higher than Tm" after the failure.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or the node was never added.
    pub fn schedule_restart(&mut self, node: NodeId, at: BitTime, app: impl Application + 'static) {
        assert!(at >= self.now, "cannot restart a node in the past");
        self.slot(node); // panics unless the node was added
        self.schedule(at, node, Lifecycle::Restart(Box::new(app)));
    }

    fn schedule(&mut self, at: BitTime, node: NodeId, event: Lifecycle) {
        let rank = match event {
            Lifecycle::PowerOn => 0,
            Lifecycle::Crash => 1,
            Lifecycle::Restart(_) => 2,
            Lifecycle::GuardianWake => 3,
        };
        let due = (at, rank, node, self.scheduled);
        self.scheduled += 1;
        let i = self.agenda.partition_point(|&(d, _)| d > due);
        self.agenda.insert(i, (due, event));
    }

    /// Installs a babbling-idiot bus guardian on `node` (extension
    /// study \[2\]): the node's transmissions are rate-limited to the
    /// given policy, protocol frames included.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn set_guardian(&mut self, node: NodeId, policy: GuardianPolicy) {
        self.slot_mut(node).guardian = Some(Guardian::new(node, policy));
    }

    /// Enables bounded retransmission on `node`'s controller (the
    /// CANELy inaccessibility-control mechanism): a frame erroring
    /// more than `limit` consecutive times is dropped and reported to
    /// the application with `can-fail.ind`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn set_retry_limit(&mut self, node: NodeId, limit: Option<u32>) {
        self.slot_mut(node).controller.set_retry_limit(limit);
    }

    /// Diagnostics: how many transmissions the guardian of `node` has
    /// withheld (0 without a guardian).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn guardian_throttled(&self, node: NodeId) -> u64 {
        self.slot(node)
            .guardian
            .as_ref()
            .map_or(0, Guardian::throttled)
    }

    /// Adds a node powered on from time zero.
    ///
    /// # Panics
    ///
    /// Panics if the node identifier is already taken.
    pub fn add_node(&mut self, node: NodeId, app: impl Application + 'static) {
        self.add_node_at(node, app, BitTime::ZERO);
    }

    /// Adds a node that powers on at `start` (its `on_start` runs then).
    ///
    /// # Panics
    ///
    /// Panics if the node identifier is already taken or `start` is in
    /// the past.
    pub fn add_node_at(&mut self, node: NodeId, app: impl Application + 'static, start: BitTime) {
        assert!(start >= self.now, "cannot power on a node in the past");
        let slot = &mut self.slots[node.as_usize()];
        assert!(slot.is_none(), "node {node} already exists");
        *slot = Some(Slot {
            controller: Controller::new(),
            app: Box::new(app),
            guardian: None,
            crashed: false,
        });
        self.schedule(start, node, Lifecycle::PowerOn);
    }

    /// Schedules a fail-silent crash of `node` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_crash(&mut self, node: NodeId, at: BitTime) {
        assert!(at >= self.now, "cannot crash a node in the past");
        self.schedule(at, node, Lifecycle::Crash);
    }

    /// The current simulation instant.
    pub fn now(&self) -> BitTime {
        self.now
    }

    /// The currently alive (powered, non-crashed) nodes.
    pub fn alive(&self) -> NodeSet {
        self.alive
    }

    /// The bus transaction trace.
    pub fn trace(&self) -> &can_bus::BusTrace {
        self.medium.trace()
    }

    /// Makes the bus keep only the statistics of `[from, to)`, for a run
    /// whose records nobody reads ([`can_bus::BusTrace::summarize`]:
    /// before the first transaction).
    pub fn summarize_bus(&mut self, from: BitTime, to: BitTime) {
        self.medium.summarize_trace(from, to);
    }

    /// Every crash that occurred, in order: scheduled crashes,
    /// fault-induced sender crashes (inconsistent omissions with
    /// `crash_sender`), and the implicit crash half of power-cycling a
    /// live node. Campaign oracles use this as ground truth for which
    /// failures the membership service was required to detect.
    pub fn crash_times(&self) -> &[(BitTime, NodeId)] {
        &self.crash_log
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        self.medium.config()
    }

    /// Immutable access to a node's application, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or its application is not a `T`.
    pub fn app<T: 'static>(&self, node: NodeId) -> &T {
        let app: &dyn Any = self.slot(node).app.as_ref();
        app.downcast_ref().expect("application type mismatch")
    }

    /// Mutable access to a node's application, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or its application is not a `T`.
    pub fn app_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        downcast_mut(self.slot_mut(node).app.as_mut())
    }

    /// Runs an external callback against a node's application,
    /// downcast to `T`, with a live [`Ctx`] handle, exactly as a driver
    /// callback would — used by harnesses that compose simulators
    /// (e.g. a federation layer injecting frames relayed from another
    /// segment). Returns `false` without invoking the callback if the
    /// node is dead, so injected work naturally stops at a crashed
    /// gateway.
    ///
    /// # Panics
    ///
    /// Panics if the node was never added, or is alive and its
    /// application is not a `T`.
    pub fn drive<T: 'static>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>),
    ) -> bool {
        self.slot(node); // panics unless the node was added
        if !self.alive.contains(node) {
            return false;
        }
        self.with_app(node, |app, ctx| f(downcast_mut(app), ctx));
        true
    }

    /// Read access to a node's controller.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn controller(&self, node: NodeId) -> &Controller {
        &self.slot(node).controller
    }

    fn slot(&self, node: NodeId) -> &Slot {
        self.slots[node.as_usize()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {node} does not exist"))
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut Slot {
        self.slots[node.as_usize()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {node} does not exist"))
    }

    /// Runs the simulation for `duration` from the current instant.
    pub fn run_for(&mut self, duration: BitTime) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Runs the simulation until `deadline`.
    ///
    /// Every event *starting* at or before the deadline is processed;
    /// a frame whose transmission starts before the deadline completes
    /// (time may end slightly past the deadline).
    pub fn run_until(&mut self, deadline: BitTime) {
        loop {
            self.profiler.enter(PH_SCHED);
            let next_lifecycle = self.agenda.last().map(|&((t, ..), _)| t);
            let next_timer = self.timers.next_deadline();
            let next_bus = self.next_bus_start();
            let next = [next_lifecycle, next_timer, next_bus]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = next.filter(|&t| t <= deadline) else {
                // Never move the clock backwards: a frame completing
                // past an earlier deadline may already have advanced
                // `now` beyond this one.
                self.now = self.now.max(deadline);
                self.profiler.pause();
                return;
            };
            self.stats.steps += 1;

            // Priority at equal instants: power-on, crash, restart,
            // guardian wake, timer, bus.
            if next_lifecycle == Some(t) {
                self.fire(self.agenda.len() - 1);
            } else if next_timer == Some(t) && next_bus.is_none_or(|b| t <= b) {
                self.profiler.enter(PH_TIMER);
                self.now = self.now.max(t);
                self.fire_one_timer();
            } else {
                self.profiler.enter(PH_ARB);
                self.stats.bus_transactions += 1;
                let start = next_bus.expect("bus candidate was the minimum");
                self.now = self.now.max(start);
                let tx = self
                    .medium
                    .resolve(start, self.alive, &mut self.faults)
                    .expect("offers were pending");
                // The medium consumed or re-counted the transmitters'
                // offers: their next callback re-syncs.
                for node in tx.transmitters.iter() {
                    if let Some(slot) = self.slots[node.as_usize()].as_mut() {
                        slot.controller.synced = false;
                    }
                }
                self.interleave_until(tx.deliver_at);
                self.now = self.now.max(tx.deliver_at);
                self.bus_free_at = tx.bus_free;
                self.profiler.enter(PH_DISPATCH);
                self.dispatch(&tx);
            }
        }
    }

    /// Fires (and removes) agenda entry `i`.
    fn fire(&mut self, i: usize) {
        self.profiler.enter(PH_LIFECYCLE);
        self.stats.lifecycle_events += 1;
        let ((at, _, node, _), event) = self.agenda.remove(i);
        self.now = self.now.max(at);
        match event {
            Lifecycle::PowerOn => self.power_on(node),
            Lifecycle::Crash => self.crash(node),
            Lifecycle::Restart(app) => self.restart(node, app),
            Lifecycle::GuardianWake => self.sync_offer(node),
        }
    }

    /// Earliest instant a bus transaction could start, honouring bus
    /// occupancy and inaccessibility periods.
    fn next_bus_start(&self) -> Option<BitTime> {
        let ready = self.medium.next_ready(self.alive)?;
        let mut t = self.now.max(self.bus_free_at).max(ready);
        while let Some(hold) = self.faults.hold_until(t) {
            t = hold;
        }
        Some(t)
    }

    /// Processes timers and crashes scheduled strictly before `until`
    /// (they belong to the interval covered by an in-flight frame).
    fn interleave_until(&mut self, until: BitTime) {
        loop {
            let crash = (self.agenda.iter()).rposition(|(_, e)| matches!(e, Lifecycle::Crash));
            let next_crash = crash.map(|i| (i, self.agenda[i].0 .0));
            let next_timer = self.timers.next_deadline();
            match (next_crash, next_timer) {
                (Some((i, tc)), _) if tc < until && next_timer.is_none_or(|tt| tc <= tt) => {
                    self.fire(i);
                    self.profiler.enter(PH_ARB);
                }
                (_, Some(tt)) if tt < until => {
                    self.profiler.enter(PH_TIMER);
                    self.now = self.now.max(tt);
                    self.fire_one_timer();
                    self.profiler.enter(PH_ARB);
                }
                _ => return,
            }
        }
    }

    fn power_on(&mut self, node: NodeId) {
        if self.slot(node).crashed || self.alive.contains(node) {
            return;
        }
        self.alive.insert(node);
        self.with_app(node, |app, ctx| app.on_start(ctx));
    }

    fn crash(&mut self, node: NodeId) {
        let idx = node.as_usize();
        let Some(slot) = self.slots[idx].as_mut() else {
            return;
        };
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        self.alive.remove(node);
        self.timers.cancel_node(node);
        self.medium.withdraw(node);
        self.crash_log.push((self.now, node));
    }

    fn restart(&mut self, node: NodeId, app: Box<dyn Application>) {
        // Power-cycling a live node crashes it first (fail-silent).
        self.crash(node);
        let slot = self.slot_mut(node);
        (slot.controller, slot.app, slot.crashed) = (Controller::new(), app, false);
        self.power_on(node);
    }

    fn fire_one_timer(&mut self) {
        let Some(fired) = self.timers.pop_due(self.now) else {
            return;
        };
        self.stats.timer_expiries += 1;
        if !self.alive.contains(fired.node) {
            return;
        }
        self.with_app(fired.node, |app, ctx| {
            app.on_timer(ctx, fired.id, fired.tag)
        });
    }

    /// Runs an application callback and resynchronizes the node's bus
    /// offer with the controller's queue head afterwards — if the head
    /// may have moved, or a guardian has to admit it.
    fn with_app(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Application, &mut Ctx<'_>)) {
        let idx = node.as_usize();
        let slot = self.slots[idx].as_mut().expect("node exists");
        let mut ctx = Ctx::new(self.now, node, &mut slot.controller, &mut self.timers);
        f(slot.app.as_mut(), &mut ctx);
        if !slot.controller.synced || slot.guardian.is_some() {
            self.sync_offer(node);
        }
    }

    fn sync_offer(&mut self, node: NodeId) {
        if !self.alive.contains(node) {
            self.medium.withdraw(node);
            return;
        }
        let slot = self.slots[node.as_usize()]
            .as_mut()
            .expect("alive nodes exist");
        slot.controller.synced = true;
        let head = slot.controller.head().copied();
        // Bus-guardian gate: a rate-limited node must wait for its
        // budget before (re)offering.
        if let (Some(_), Some(guardian)) = (head, slot.guardian.as_mut()) {
            if let Err(free_at) = guardian.admit(self.now) {
                self.medium.withdraw(node);
                self.schedule(free_at, node, Lifecycle::GuardianWake);
                return;
            }
        }
        match (head, self.medium.current_offer(node).copied()) {
            (Some(want), Some(cur)) if want == cur => {}
            (Some(want), _) => self.medium.offer(self.now, node, want),
            (None, Some(_)) => {
                self.medium.withdraw(node);
            }
            (None, None) => {}
        }
    }

    fn dispatch(&mut self, tx: &Transaction) {
        let mid = Mid::from_can_id(tx.frame.id()); // non-mid traffic reaches nobody
        match &tx.outcome {
            TxOutcome::Delivered { receivers } => {
                let Some(mid) = mid else { return };
                let receivers = *receivers & self.alive;
                for node in receivers.iter() {
                    let is_transmitter = tx.transmitters.contains(node);
                    self.deliver_to(node, mid, &tx.frame, is_transmitter);
                }
            }
            TxOutcome::ConsistentError | TxOutcome::IdCollision => {
                self.note_error(tx, NodeSet::EMPTY);
            }
            TxOutcome::AckError => {
                // Nobody saw the frame: only the transmitters book the
                // (capped) error.
                for node in tx.transmitters.iter() {
                    if let Some(slot) = self.slots[node.as_usize()].as_mut() {
                        slot.controller.note_ack_error();
                    }
                }
            }
            TxOutcome::InconsistentError {
                accepters,
                crash_sender,
            } => {
                let crashes = if *crash_sender {
                    tx.transmitters
                } else {
                    NodeSet::EMPTY
                };
                self.note_error(tx, crashes);
                for node in crashes.iter() {
                    self.crash(node);
                }
                if let Some(mid) = mid {
                    for node in (*accepters & self.alive).iter() {
                        self.deliver_to(node, mid, &tx.frame, false);
                    }
                }
            }
        }
    }

    /// Fault-confinement bookkeeping for an errored transaction.
    fn note_error(&mut self, tx: &Transaction, skip: NodeSet) {
        for node in (tx.transmitters - skip).iter() {
            let Some(slot) = self.slots[node.as_usize()].as_mut() else {
                continue;
            };
            let state = slot.controller.note_tx_error();
            if matches!(state, crate::controller::FaultState::BusOff) {
                self.medium.withdraw(node);
                continue;
            }
            // Bounded retransmission (inaccessibility control): drop
            // the frame after the retry budget and tell the app.
            if let Some(dropped) = slot.controller.apply_retry_limit() {
                self.medium.withdraw(node);
                if let Some(mid) = Mid::from_can_id(dropped.id()) {
                    let event = DriverEvent::TxFailInd { mid };
                    self.with_app(node, |app, ctx| app.on_event(ctx, &event));
                } else {
                    self.sync_offer(node);
                }
            }
        }
        for node in (self.alive - tx.transmitters).iter() {
            if let Some(slot) = self.slots[node.as_usize()].as_mut() {
                slot.controller.note_rx(false);
            }
        }
    }

    /// Delivers the driver events of a successful frame, decoded to
    /// `mid`, to one node: `.cnf` for transmitters, then `.nty`/`.ind`.
    fn deliver_to(&mut self, node: NodeId, mid: Mid, frame: &Frame, is_transmitter: bool) {
        if is_transmitter {
            let confirmed = {
                let now = self.now;
                let slot = self.slots[node.as_usize()].as_mut().expect("node exists");
                if let Some(guardian) = slot.guardian.as_mut() {
                    guardian.note_transmission(now);
                }
                slot.controller.confirm(frame)
            };
            if confirmed {
                let event = match frame.kind() {
                    FrameKind::Data => DriverEvent::DataCnf { mid },
                    FrameKind::Remote => DriverEvent::RtrCnf { mid },
                };
                self.with_app(node, |app, ctx| app.on_event(ctx, &event));
            }
        } else if let Some(slot) = self.slots[node.as_usize()].as_mut() {
            slot.controller.note_rx(true);
        }
        match frame.kind() {
            FrameKind::Data => {
                let nty = DriverEvent::DataNty { mid };
                self.with_app(node, |app, ctx| app.on_event(ctx, &nty));
                let ind = DriverEvent::DataInd {
                    mid,
                    payload: *frame.payload(),
                };
                self.with_app(node, |app, ctx| app.on_event(ctx, &ind));
            }
            FrameKind::Remote => {
                let ind = DriverEvent::RtrInd { mid };
                self.with_app(node, |app, ctx| app.on_event(ctx, &ind));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_bus::{AccepterSpec, FaultEffect, FaultMatcher, ScriptedFault};
    use can_types::{MsgType, Payload};

    /// Records every event and timer with its timestamp.
    #[derive(Default)]
    struct Recorder {
        events: Vec<(BitTime, DriverEvent)>,
        timers: Vec<(BitTime, u64)>,
        send_at_start: Vec<Frame>,
        send_at: Vec<(BitTime, Frame)>,
        timer_at_start: Option<(BitTime, u64)>,
    }

    const SEND_TAG_BASE: u64 = 1_000_000;

    fn issue(ctx: &mut Ctx<'_>, frame: &Frame) {
        let mid = Mid::from_can_id(frame.id()).unwrap();
        match frame.kind() {
            FrameKind::Data => ctx.can_data_req(mid, *frame.payload()),
            FrameKind::Remote => ctx.can_rtr_req(mid),
        }
    }

    impl Application for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for frame in &self.send_at_start {
                issue(ctx, frame);
            }
            for (i, (at, _)) in self.send_at.iter().enumerate() {
                let delay = at.saturating_sub(ctx.now());
                ctx.start_alarm(delay, SEND_TAG_BASE + i as u64);
            }
            if let Some((delay, tag)) = self.timer_at_start {
                ctx.start_alarm(delay, tag);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
            self.events.push((ctx.now(), event.clone()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: crate::TimerId, tag: u64) {
            if tag >= SEND_TAG_BASE {
                if let Some((_, frame)) = self.send_at.get((tag - SEND_TAG_BASE) as usize) {
                    let frame = *frame;
                    issue(ctx, &frame);
                }
                return;
            }
            self.timers.push((ctx.now(), tag));
        }
    }

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn els(node: u8) -> Frame {
        Frame::remote(Mid::new(MsgType::Els, 0, n(node)))
    }

    fn sender(frames: Vec<Frame>) -> Recorder {
        Recorder {
            send_at_start: frames,
            ..Recorder::default()
        }
    }

    fn data(node: u8, bytes: &[u8]) -> Frame {
        Frame::data(
            Mid::new(MsgType::AppData, 0, n(node)),
            Payload::from_slice(bytes).unwrap(),
        )
    }

    #[test]
    fn remote_frame_reaches_everyone_including_sender() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(1_000));

        let sender = sim.app::<Recorder>(n(0));
        // Sender: cnf then own rtr.ind.
        assert!(matches!(sender.events[0].1, DriverEvent::RtrCnf { .. }));
        assert!(matches!(sender.events[1].1, DriverEvent::RtrInd { .. }));
        let listener = sim.app::<Recorder>(n(1));
        assert_eq!(listener.events.len(), 1);
        assert!(matches!(listener.events[0].1, DriverEvent::RtrInd { .. }));
    }

    #[test]
    fn data_frame_delivers_nty_before_ind() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![data(0, &[0xAA])]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(1_000));
        let listener = sim.app::<Recorder>(n(1));
        assert!(matches!(listener.events[0].1, DriverEvent::DataNty { .. }));
        assert!(matches!(listener.events[1].1, DriverEvent::DataInd { .. }));
    }

    #[test]
    fn delivery_time_matches_exact_frame_duration() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        let frame = els(0);
        sim.add_node(n(0), sender(vec![frame]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(1_000));
        let listener = sim.app::<Recorder>(n(1));
        assert_eq!(listener.events[0].0, frame.duration_exact());
    }

    #[test]
    fn arbitration_serializes_competing_frames() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![data(0, &[1])]));
        sim.add_node(n(1), sender(vec![els(1)]));
        sim.add_node(n(2), Recorder::default());
        sim.run_until(BitTime::new(2_000));
        let observer = sim.app::<Recorder>(n(2));
        // ELS (higher priority) first, then the data frame.
        let kinds: Vec<&DriverEvent> = observer.events.iter().map(|(_, e)| e).collect();
        assert!(matches!(kinds[0], DriverEvent::RtrInd { mid } if mid.msg_type() == MsgType::Els));
        assert!(
            matches!(kinds.last().unwrap(), DriverEvent::DataInd { mid, .. } if mid.msg_type() == MsgType::AppData)
        );
        // Second frame starts only after the first freed the bus.
        assert!(observer.events[1].0 > observer.events[0].0);
    }

    #[test]
    fn timers_fire_at_their_deadline() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            Recorder {
                timer_at_start: Some((BitTime::new(500), 42)),
                ..Recorder::default()
            },
        );
        sim.run_until(BitTime::new(1_000));
        let app = sim.app::<Recorder>(n(0));
        assert_eq!(app.timers, vec![(BitTime::new(500), 42)]);
    }

    #[test]
    fn crashed_node_stops_participating() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            Recorder {
                timer_at_start: Some((BitTime::new(500), 1)),
                ..Recorder::default()
            },
        );
        sim.add_node(n(1), Recorder::default());
        sim.schedule_crash(n(0), BitTime::new(100));
        sim.run_until(BitTime::new(1_000));
        assert!(!sim.alive().contains(n(0)));
        let app = sim.app::<Recorder>(n(0));
        assert!(app.timers.is_empty(), "timers cancelled on crash");
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.schedule_crash(n(1), BitTime::ZERO);
        sim.run_until(BitTime::new(1_000));
        assert!(sim.app::<Recorder>(n(1)).events.is_empty());
    }

    #[test]
    fn late_poweron_misses_earlier_traffic() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node_at(n(1), Recorder::default(), BitTime::new(10_000));
        sim.run_until(BitTime::new(20_000));
        assert!(sim.app::<Recorder>(n(1)).events.is_empty());
        assert!(sim.alive().contains(n(1)));
    }

    #[test]
    fn consistent_omission_is_masked_by_retransmission() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(5_000));
        let listener = sim.app::<Recorder>(n(1));
        assert_eq!(listener.events.len(), 1, "LCAN1: eventually delivered");
        // The sender's TEC recorded the failed attempt.
        assert!(sim.controller(n(0)).confinement().tec() > 0);
    }

    #[test]
    fn inconsistent_omission_duplicates_at_accepters() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: false,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.add_node(n(2), Recorder::default());
        sim.run_until(BitTime::new(5_000));
        // LCAN3 at-least-once: the accepter sees the frame twice.
        assert_eq!(sim.app::<Recorder>(n(1)).events.len(), 2);
        // The other listener sees it exactly once (the retransmission).
        assert_eq!(sim.app::<Recorder>(n(2)).events.len(), 1);
    }

    #[test]
    fn inconsistent_omission_with_sender_crash_splits_the_system() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.add_node(n(2), Recorder::default());
        sim.run_until(BitTime::new(5_000));
        // This is the LCAN2 caveat: node 1 got the message, node 2
        // never will — the exact inconsistency FDA exists to mask.
        assert_eq!(sim.app::<Recorder>(n(1)).events.len(), 1);
        assert_eq!(sim.app::<Recorder>(n(2)).events.len(), 0);
        assert!(!sim.alive().contains(n(0)));
    }

    #[test]
    fn identical_requests_cluster_and_both_confirm() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        let fda = Frame::remote(Mid::new(MsgType::Fda, 0, n(5)));
        for id in 0..2 {
            sim.add_node(n(id), sender(vec![fda]));
        }
        sim.add_node(n(2), Recorder::default());
        sim.run_until(BitTime::new(2_000));
        // One physical frame on the bus.
        assert_eq!(sim.trace().len(), 1);
        // Both transmitters confirmed.
        for id in 0..2 {
            let app = sim.app::<Recorder>(n(id));
            assert!(app
                .events
                .iter()
                .any(|(_, e)| matches!(e, DriverEvent::RtrCnf { .. })));
        }
        // The third node heard it once.
        assert_eq!(sim.app::<Recorder>(n(2)).events.len(), 1);
    }

    #[test]
    fn inaccessibility_delays_transmission() {
        let mut faults = FaultPlan::none();
        faults.push_inaccessibility(BitTime::ZERO, BitTime::new(2_000));
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![els(0)]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(5_000));
        let listener = sim.app::<Recorder>(n(1));
        assert_eq!(listener.events.len(), 1);
        assert!(
            listener.events[0].0 >= BitTime::new(2_000),
            "frame must wait out the inaccessibility period, got {}",
            listener.events[0].0
        );
    }

    #[test]
    fn timer_during_frame_fires_before_delivery() {
        // A timer set inside a frame's transmission window must fire
        // at its own deadline, before frame delivery.
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(
            n(0),
            Recorder {
                send_at_start: vec![data(0, &[0; 8])],
                timer_at_start: Some((BitTime::new(20), 7)),
                ..Recorder::default()
            },
        );
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(1_000));
        let app = sim.app::<Recorder>(n(0));
        assert_eq!(app.timers, vec![(BitTime::new(20), 7)]);
        let delivery = app.events[0].0;
        assert!(delivery > BitTime::new(20));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = Simulator::new(
                BusConfig::default(),
                FaultPlan::seeded(5).with_consistent_rate(0.2),
            );
            for id in 0..4 {
                sim.add_node(n(id), sender(vec![data(id, &[id; 4])]));
            }
            sim.run_until(BitTime::new(50_000));
            (0..4)
                .map(|id| sim.app::<Recorder>(n(id)).events.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retry_limit_drops_frame_and_reports() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::ConsistentOmission,
            count: 10,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![data(0, &[9])]));
        sim.add_node(n(1), Recorder::default());
        sim.set_retry_limit(n(0), Some(3));
        sim.run_until(BitTime::new(50_000));
        // Dropped after 3 retries: the app learns via can-fail.ind…
        let sender = sim.app::<Recorder>(n(0));
        assert!(sender
            .events
            .iter()
            .any(|(_, e)| matches!(e, DriverEvent::TxFailInd { .. })));
        // …and the receiver never gets the frame.
        assert!(sim.app::<Recorder>(n(1)).events.is_empty());
        // Exactly limit+1 errored attempts on the wire.
        let stats = sim.trace().stats(BitTime::ZERO, BitTime::new(50_000));
        assert_eq!(stats.errors, 4);
    }

    #[test]
    fn without_retry_limit_retransmission_eventually_succeeds() {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::ConsistentOmission,
            count: 10,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(n(0), sender(vec![data(0, &[9])]));
        sim.add_node(n(1), Recorder::default());
        sim.run_until(BitTime::new(50_000));
        assert_eq!(sim.app::<Recorder>(n(1)).events.len(), 2, "nty + ind");
    }

    #[test]
    fn retry_limit_counter_resets_on_success() {
        let mut faults = FaultPlan::none();
        // Two separate single-error episodes, below the limit each.
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                not_before: BitTime::new(10_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        sim.add_node(
            n(0),
            Recorder {
                send_at_start: vec![data(0, &[1])],
                send_at: vec![(BitTime::new(10_000), data(0, &[2]))],
                ..Recorder::default()
            },
        );
        sim.add_node(n(1), Recorder::default());
        sim.set_retry_limit(n(0), Some(1));
        sim.run_until(BitTime::new(50_000));
        // Both frames delivered (each suffered one error, below the
        // budget of consecutive errors).
        let inds = sim
            .app::<Recorder>(n(1))
            .events
            .iter()
            .filter(|(_, e)| matches!(e, DriverEvent::DataInd { .. }))
            .count();
        assert_eq!(inds, 2);
        assert!(sim
            .app::<Recorder>(n(0))
            .events
            .iter()
            .all(|(_, e)| !matches!(e, DriverEvent::TxFailInd { .. })));
    }

    #[test]
    fn run_until_never_rewinds_the_clock() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), sender(vec![data(0, &[0; 8])]));
        sim.add_node(n(1), Recorder::default());
        // The frame starts before this deadline and completes after it,
        // so `now` legitimately ends past 50.
        sim.run_until(BitTime::new(50));
        let after_first = sim.now();
        assert!(after_first > BitTime::new(50));
        // An earlier/equal deadline must be a no-op, not a rewind.
        sim.run_until(BitTime::new(60));
        assert_eq!(sim.now(), after_first, "clock must be monotonic");
    }

    #[test]
    fn lifecycle_events_at_one_instant_fire_by_kind_node_and_schedule_order() {
        let tagged = |tag| Recorder {
            timer_at_start: Some((BitTime::new(1_000), tag)),
            ..Recorder::default()
        };
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        (1..5).for_each(|id| sim.add_node(n(id), Recorder::default()));
        sim.run_until(BitTime::new(50));
        // Scheduled in the reverse of the firing order: kinds rank
        // power-on 0, crash 1, restart 2, guardian wake 3.
        let t = BitTime::new(100);
        sim.schedule(t, n(3), Lifecycle::GuardianWake);
        sim.schedule_restart(n(4), t, tagged(40));
        sim.schedule_restart(n(4), t, tagged(41));
        sim.schedule_restart(n(2), t, tagged(20));
        sim.schedule_crash(n(1), t);
        sim.add_node_at(n(0), Recorder::default(), t);
        let order = sim
            .agenda
            .iter()
            .rev()
            .map(|&((_, rank, node, _), _)| (rank, node.as_u8()));
        assert!(order.eq([(0, 0), (1, 1), (2, 2), (2, 4), (2, 4), (3, 3)]));
        sim.run_until(t);
        // The crash of n1 precedes the crash halves of the power-cycles,
        // and the restart scheduled last boots last.
        assert_eq!(sim.crash_times(), [1, 2, 4, 4].map(|id| (t, n(id))));
        assert_eq!(sim.app::<Recorder>(n(4)).timer_at_start.unwrap().1, 41);
        assert_eq!(sim.alive(), NodeSet::first_n(5) - NodeSet::singleton(n(1)));
        assert_eq!(sim.take_step_stats().lifecycle_events, 4 + 6);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_node_rejected() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), Recorder::default());
        sim.add_node(n(0), Recorder::default());
    }

    #[test]
    #[should_panic(expected = "application type mismatch")]
    fn app_of_the_wrong_type_is_refused() {
        struct Wrong;
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), Recorder::default());
        sim.app::<Wrong>(n(0));
    }

    #[test]
    fn drive_hands_the_concrete_app_a_live_ctx_and_skips_the_dead() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), Recorder::default());
        sim.add_node(n(1), Recorder::default());
        sim.schedule_crash(n(1), BitTime::new(10));
        sim.run_until(BitTime::new(20));
        let inject = |app: &mut Recorder, ctx: &mut Ctx<'_>| {
            app.timers.push((ctx.now(), 0));
            issue(ctx, &els(0));
        };
        assert!(sim.drive(n(0), inject));
        assert!(!sim.drive(n(1), inject));
        assert_eq!(sim.controller(n(0)).queue_len(), 1);
        assert_eq!(sim.app::<Recorder>(n(0)).timers, [(sim.now(), 0)]);
        assert!(sim.app::<Recorder>(n(1)).timers.is_empty());
    }
}
