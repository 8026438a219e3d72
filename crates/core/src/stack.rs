//! The per-node CANELy stack: the composition of Fig. 5.
//!
//! [`CanelyStack`] wires the four protocol entities together exactly
//! as the architecture diagram prescribes:
//!
//! * driver events fan out to the failure detector (activity
//!   signalling), the FDA and RHA agreement modules and the membership
//!   protocol;
//! * FDA notifications flow through the failure detector
//!   (`fda-can.nty` → `fd-can.nty`) into the membership protocol;
//! * RHA notifications (`INIT`/`END`) drive the membership cycle;
//! * membership actions (`fd-can.req(START/STOP)`, `rha-can.req`)
//!   flow back down.
//!
//! The stack also hosts the optional cyclic application traffic
//! generator, whose data frames double as implicit heartbeats, and
//! records every upper-layer notification with its timestamp for
//! post-run analysis.

use crate::config::{CanelyConfig, RHA_TIMEOUT};
use crate::fd::{DetectorTimer, FailureDetector, FdAction};
use crate::fda::Fda;
use crate::membership::{Membership, MembershipEvent, MshAction};
use crate::obs::{Cause, EventSink, ObsTimer, ProtocolEvent};
use crate::rha::{Rha, RhaNotification};
use crate::tags::TimerOwner;
use crate::traffic::{TrafficConfig, TrafficGenerator};
use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, MsgType, NodeId, NodeSet};

const SCRIPT_JOIN: u32 = 0;
const SCRIPT_LEAVE: u32 = 1;

/// How long an expelled node (declared failed while running — e.g. its
/// fresh incarnation rebooted before the old failure settled) waits
/// before it rejoins as a new incarnation: 240 ms, honouring the
/// Sec. 6.4 assumption that reintegration happens "a period much
/// higher than Tm" after removal.
const EXPULSION_REJOIN_DELAY: BitTime = BitTime::new(240_000);

/// An upper-layer notification recorded by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpperEvent {
    /// `msh-can.nty`: a membership change.
    MembershipChange {
        /// The set of active sites.
        view: NodeSet,
        /// The failed nodes reported with this change.
        failed: NodeSet,
    },
    /// `fd-can.nty(r)` as seen by the membership layer: the failure of
    /// `r` was consistently agreed.
    FailureNotified(NodeId),
    /// The local node's leave completed.
    LeftService,
    /// The local node was expelled (declared failed while running).
    Expelled,
}

/// The CANELy protocol stack of one node.
///
/// # Examples
///
/// ```
/// use can_types::BitTime;
/// use canely::{CanelyConfig, CanelyStack, TrafficConfig};
///
/// // A node with 2 ms cyclic sensor traffic that joins at power-on
/// // and leaves the membership after one second.
/// let stack = CanelyStack::new(CanelyConfig::default())
///     .with_traffic(TrafficConfig::periodic(BitTime::new(2_000), 4))
///     .with_leave_at(BitTime::new(1_000_000));
/// assert!(stack.view().is_empty());
/// ```
#[derive(Debug)]
pub struct CanelyStack {
    config: CanelyConfig,
    fda: Fda,
    rha: Rha,
    fd: Box<dyn FailureDetector>,
    msh: Membership,
    traffic: Option<TrafficGenerator>,
    leave_at: Option<BitTime>,
    active: bool,
    events: Vec<(BitTime, UpperEvent)>,
    obs: EventSink,
}

impl CanelyStack {
    /// Creates a stack that joins the membership at power-on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CanelyConfig::validate`]).
    pub fn new(config: CanelyConfig) -> Self {
        config.validate().expect("invalid CANELy configuration");
        let mut fda = Fda::new();
        // The weakened mutant forgets the Tina term in surveillance
        // margins and stops FDA eager diffusion (see
        // `CanelyConfig::weakened_fda`).
        fda.set_eager_diffusion(!config.weakened_fda);
        CanelyStack {
            fda,
            rha: Rha::new(RHA_TIMEOUT, config.inconsistent_degree),
            fd: config
                .detector
                .build(config.heartbeat_period, config.surveillance_margin()),
            msh: Membership::new(config.membership_cycle, config.join_wait),
            traffic: None,
            leave_at: None,
            active: true,
            events: Vec::new(),
            obs: EventSink::disabled(),
            config,
        }
    }

    /// Installs a structured-event sink on the whole stack: every
    /// protocol entity (failure detection, FDA, RHA, membership) emits
    /// its [`crate::obs::ProtocolEvent`]s into the shared log behind
    /// the sink. Pass a clone of the same [`crate::obs::ObsLog`] sink
    /// to every node of a simulation to obtain one merged trace.
    pub fn with_obs(mut self, sink: EventSink) -> Self {
        self.fda.set_sink(sink.clone());
        self.rha.set_sink(sink.clone());
        self.fd.set_sink(sink.clone());
        self.msh.set_sink(sink.clone());
        self.obs = sink;
        self
    }

    /// Installs live-telemetry counters on the failure-detector
    /// backend (see [`crate::DetectorMetrics`]).
    pub fn set_detector_metrics(&mut self, metrics: crate::DetectorMetrics) {
        self.fd.set_metrics(metrics);
    }

    /// Adds cyclic application traffic (implicit heartbeats).
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = Some(TrafficGenerator::new(traffic));
        self
    }

    /// Schedules a leave request at the given absolute instant.
    pub fn with_leave_at(mut self, at: BitTime) -> Self {
        self.leave_at = Some(at);
        self
    }

    /// The stack configuration.
    pub fn config(&self) -> &CanelyConfig {
        &self.config
    }

    /// The structured-event sink installed by [`CanelyStack::with_obs`]
    /// (disabled by default). Layers wrapped around the stack emit
    /// their own events through a clone of it.
    pub fn obs(&self) -> &EventSink {
        &self.obs
    }

    /// The current site membership view `Vs`.
    pub fn view(&self) -> NodeSet {
        self.msh.view()
    }

    /// Whether the local node currently belongs to the view. (Only
    /// meaningful with the node's own id, which the stack learns at
    /// power-on; before that it reports on raw view contents.)
    pub fn is_out_of_service(&self) -> bool {
        self.msh.is_out_of_service()
    }

    /// All upper-layer notifications recorded so far.
    pub fn events(&self) -> &[(BitTime, UpperEvent)] {
        &self.events
    }

    /// The membership-change history (timestamped views).
    pub fn membership_history(&self) -> Vec<MembershipEvent> {
        self.events
            .iter()
            .filter_map(|&(time, event)| match event {
                UpperEvent::MembershipChange { view, failed } => {
                    Some(MembershipEvent { time, view, failed })
                }
                _ => None,
            })
            .collect()
    }

    /// Number of explicit life-signs issued by this node.
    pub fn els_sent(&self) -> u64 {
        self.fd.els_sent()
    }

    /// Total failure-detector control frames issued by this node:
    /// life-signs plus any backend-specific probe traffic (see
    /// [`crate::FailureDetector::control_frames`]).
    pub fn detector_frames(&self) -> u64 {
        self.fd.control_frames()
    }

    /// Number of application messages emitted by the traffic generator.
    pub fn traffic_sent(&self) -> u64 {
        self.traffic.as_ref().map_or(0, TrafficGenerator::sent)
    }

    /// The nodes currently under surveillance by the local failure
    /// detector.
    pub fn monitored(&self) -> NodeSet {
        self.fd.monitored()
    }

    fn record(&mut self, ctx: &Ctx<'_>, event: UpperEvent) {
        // Mirror the upper-layer notification into the structured
        // trace so one export covers the whole stack.
        let mirrored = match event {
            UpperEvent::MembershipChange { view, failed } => {
                ProtocolEvent::ViewChanged { view, failed }
            }
            UpperEvent::FailureNotified(r) => ProtocolEvent::FailureNotified { failed: r },
            UpperEvent::LeftService => ProtocolEvent::LeftService,
            UpperEvent::Expelled => ProtocolEvent::Expelled,
        };
        self.obs.emit(ctx.now(), ctx.me(), mirrored);
        self.events.push((ctx.now(), event));
    }

    /// Routes membership actions to the companion services.
    fn handle_msh_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<MshAction>) {
        for action in actions {
            match action {
                MshAction::StartFd(r) => {
                    // A (re)joining node resets any stale FDA state so
                    // a later failure is a fresh protocol execution.
                    self.fda.reset(r);
                    self.fd.start(ctx, r);
                }
                MshAction::StopFd(r) => self.fd.stop(ctx, r),
                MshAction::InvokeRha => {
                    if let Some(nty) = self.rha.request(ctx, self.msh.shared_sets()) {
                        self.handle_rha_nty(ctx, nty);
                    }
                }
                MshAction::Notify { view, failed } => {
                    self.record(ctx, UpperEvent::MembershipChange { view, failed });
                }
                MshAction::LeftService => {
                    self.fd.stop_all(ctx);
                    self.active = false;
                    self.record(ctx, UpperEvent::LeftService);
                }
                MshAction::Expelled => {
                    self.fd.stop_all(ctx);
                    self.record(ctx, UpperEvent::Expelled);
                    // Fresh incarnation: membership and agreement state
                    // are discarded and a reintegration is attempted
                    // "a period much higher than Tm" later (Sec. 6.4).
                    // The FDA duplicate counters are deliberately KEPT:
                    // they suppress the still-circulating failure-sign
                    // of the old incarnation (resetting them would make
                    // this node re-diffuse its own failure-sign forever).
                    self.rha = Rha::new(RHA_TIMEOUT, self.config.inconsistent_degree);
                    self.msh = Membership::new(self.config.membership_cycle, self.config.join_wait);
                    // The fresh incarnation keeps emitting into the
                    // same trace.
                    self.rha.set_sink(self.obs.clone());
                    self.msh.set_sink(self.obs.clone());
                    let rejoin = TimerOwner::Scripted(SCRIPT_JOIN).encode();
                    ctx.start_alarm(EXPULSION_REJOIN_DELAY, rejoin);
                }
            }
        }
    }

    fn handle_rha_nty(&mut self, ctx: &mut Ctx<'_>, nty: RhaNotification) {
        let actions = match nty {
            // Fig. 9, line s17: INIT (re)synchronizes the cycle.
            RhaNotification::Init => self.msh.on_cycle_boundary(ctx, false),
            RhaNotification::End(vector) => self.msh.on_rha_end(ctx, vector),
        };
        self.handle_msh_actions(ctx, actions);
    }
}

impl Application for CanelyStack {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Power-on actions have no in-protocol trigger.
        self.obs.clear_cause();
        if let Some(traffic) = &self.traffic {
            traffic.start(ctx);
        }
        self.msh.request_join(ctx);
        if let Some(at) = self.leave_at {
            let delay = at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, TimerOwner::Scripted(SCRIPT_LEAVE).encode());
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        if !self.active {
            return;
        }
        // Everything the stack does inside this dispatch is a reaction
        // to the frame delivered at this instant; the delivery instant
        // names the bus transaction uniquely (the bus is serialized).
        self.obs.set_cause(Cause::Bus {
            deliver_at: ctx.now(),
        });
        match event {
            DriverEvent::DataNty { mid } => {
                // Sec. 6.3: every data frame is an implicit heartbeat
                // of its transmitter.
                if self.config.implicit_heartbeats {
                    self.fd.on_activity(ctx, mid.node());
                }
            }
            DriverEvent::DataInd { mid, payload } => {
                if mid.msg_type() == MsgType::Rha {
                    let full_member = self.msh.is_member(ctx.me());
                    let sets = self.msh.shared_sets();
                    if let Some(nty) = self.rha.on_data_ind(ctx, *mid, payload, full_member, sets) {
                        self.handle_rha_nty(ctx, nty);
                    }
                }
            }
            DriverEvent::RtrInd { mid } => match mid.msg_type() {
                MsgType::Els => {
                    self.obs.emit(
                        ctx.now(),
                        ctx.me(),
                        ProtocolEvent::LifeSignObserved { of: mid.node() },
                    );
                    self.fd.on_activity(ctx, mid.node());
                }
                MsgType::Fda => {
                    if let Some(r) = self.fda.on_rtr_ind(ctx, *mid) {
                        let FdAction::Notify(r) = self.fd.on_fda_nty(ctx, r) else {
                            unreachable!("on_fda_nty always notifies");
                        };
                        self.record(ctx, UpperEvent::FailureNotified(r));
                        let actions = self.msh.on_fd_nty(ctx, r);
                        self.handle_msh_actions(ctx, actions);
                    }
                }
                MsgType::Join => {
                    self.obs.emit(
                        ctx.now(),
                        ctx.me(),
                        ProtocolEvent::JoinObserved {
                            subject: mid.node(),
                        },
                    );
                    self.msh.on_join_ind(mid.node());
                }
                MsgType::Leave => {
                    self.obs.emit(
                        ctx.now(),
                        ctx.me(),
                        ProtocolEvent::LeaveObserved {
                            subject: mid.node(),
                        },
                    );
                    self.msh.on_leave_ind(mid.node());
                }
                MsgType::Ping => {
                    // Probe frames of the SWIM-style backend; other
                    // backends ignore them.
                    self.fd.on_detector_frame(ctx, *mid);
                }
                _ => {}
            },
            DriverEvent::DataCnf { .. }
            | DriverEvent::RtrCnf { .. }
            | DriverEvent::TxFailInd { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        let Some(owner) = TimerOwner::decode(tag) else {
            return;
        };
        // The traffic generator keeps running even after a leave (the
        // node still computes; it just left the membership service) —
        // everything else stops.
        if let TimerOwner::Traffic = owner {
            if let Some(traffic) = &mut self.traffic {
                traffic.on_tick(ctx);
            }
            return;
        }
        if !self.active {
            return;
        }
        if let Some(timer) = match owner {
            TimerOwner::Surveillance(r) => Some(ObsTimer::Surveillance(r)),
            TimerOwner::RhaTermination => Some(ObsTimer::RhaTermination),
            TimerOwner::MembershipCycle => Some(ObsTimer::MembershipCycle),
            // Detector period ticks are untraced like traffic ticks:
            // they are pacing, not protocol state.
            TimerOwner::Traffic
            | TimerOwner::Scripted(_)
            | TimerOwner::DetectorPeriod
            | TimerOwner::FederationDigest => None,
        } {
            // The expiry links back to its arming (resolved inside the
            // log); everything handled below is caused by the expiry.
            self.obs.clear_cause();
            if let Some(seq) =
                self.obs
                    .emit(ctx.now(), ctx.me(), ProtocolEvent::TimerExpired { timer })
            {
                self.obs.set_cause(Cause::Event { seq });
            }
        } else {
            // Scripted join/leave alarms have no in-protocol trigger.
            self.obs.clear_cause();
        }
        match owner {
            TimerOwner::Surveillance(r) => {
                if let Some(FdAction::Suspect(r)) = self.fd.on_timer(ctx, DetectorTimer::Node(r)) {
                    self.fda.invoke(ctx, r); // Fig. 8, line f10
                }
            }
            TimerOwner::DetectorPeriod => {
                if let Some(FdAction::Suspect(r)) = self.fd.on_timer(ctx, DetectorTimer::Period) {
                    self.fda.invoke(ctx, r);
                }
            }
            TimerOwner::RhaTermination => {
                let nty = self.rha.on_timeout(ctx);
                self.handle_rha_nty(ctx, nty);
            }
            TimerOwner::MembershipCycle => {
                let actions = self.msh.on_cycle_boundary(ctx, true);
                self.handle_msh_actions(ctx, actions);
            }
            TimerOwner::Scripted(SCRIPT_JOIN) => self.msh.request_join(ctx),
            TimerOwner::Scripted(SCRIPT_LEAVE) => self.msh.request_leave(ctx),
            // Federation digest ticks belong to the gateway wrapper,
            // which intercepts them before delegating here; a plain
            // stack ignores them.
            TimerOwner::Scripted(_) | TimerOwner::Traffic | TimerOwner::FederationDigest => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
    use can_controller::Simulator;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn cluster(sim: &mut Simulator, count: u8) {
        for id in 0..count {
            sim.add_node(n(id), CanelyStack::new(CanelyConfig::default()));
        }
    }

    /// Time comfortably past bootstrap (join wait + a few cycles).
    const SETTLED: BitTime = BitTime::new(200_000);

    #[test]
    fn cluster_bootstraps_to_common_view() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 5);
        sim.run_until(SETTLED);
        let expected = NodeSet::first_n(5);
        for id in 0..5 {
            assert_eq!(
                sim.app::<CanelyStack>(n(id)).view(),
                expected,
                "node {id} disagrees"
            );
        }
    }

    #[test]
    fn all_members_monitor_each_other_after_bootstrap() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 3);
        sim.run_until(SETTLED);
        for id in 0..3 {
            assert_eq!(
                sim.app::<CanelyStack>(n(id)).monitored(),
                NodeSet::first_n(3)
            );
        }
    }

    #[test]
    fn idle_cluster_emits_life_signs() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 3);
        sim.run_until(SETTLED);
        for id in 0..3 {
            assert!(
                sim.app::<CanelyStack>(n(id)).els_sent() > 0,
                "idle node {id} must send explicit life-signs"
            );
        }
    }

    #[test]
    fn cyclic_traffic_suppresses_life_signs() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..3 {
            sim.add_node(
                n(id),
                CanelyStack::new(CanelyConfig::default())
                    .with_traffic(TrafficConfig::periodic(BitTime::new(2_000), 4)),
            );
        }
        sim.run_until(SETTLED);
        for id in 0..3 {
            let app = sim.app::<CanelyStack>(n(id));
            assert!(app.traffic_sent() > 50);
            assert_eq!(
                app.els_sent(),
                0,
                "implicit heartbeats must suppress ELS at node {id}"
            );
        }
    }

    #[test]
    fn crash_is_detected_and_view_purged_everywhere() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        let crash_at = BitTime::new(250_000);
        sim.schedule_crash(n(2), crash_at);
        sim.run_until(BitTime::new(500_000));
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        for id in [0u8, 1, 3] {
            let app = sim.app::<CanelyStack>(n(id));
            assert_eq!(app.view(), expected, "node {id} view");
            let failure = app
                .events()
                .iter()
                .find(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(2)))
                .unwrap_or_else(|| panic!("node {id} missed the failure"));
            assert!(failure.0 > crash_at);
            // Detection latency bound: Th + Ttd plus dissemination.
            let bound = CanelyConfig::default().detection_latency_bound() + BitTime::new(1_000);
            assert!(
                failure.0 - crash_at <= bound,
                "node {id}: detection took {} (bound {})",
                failure.0 - crash_at,
                bound
            );
        }
    }

    #[test]
    fn alternative_backends_bootstrap_without_false_suspicions() {
        use crate::fd::DetectorKind;
        for kind in DetectorKind::ALL {
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            for id in 0..4 {
                sim.add_node(
                    n(id),
                    CanelyStack::new(CanelyConfig::default().with_detector(kind)),
                );
            }
            sim.run_until(BitTime::new(400_000));
            let expected = NodeSet::first_n(4);
            for id in 0..4 {
                let app = sim.app::<CanelyStack>(n(id));
                assert_eq!(app.view(), expected, "{kind}: node {id} view");
                assert!(
                    !app.events()
                        .iter()
                        .any(|(_, e)| matches!(e, UpperEvent::FailureNotified(_))),
                    "{kind}: node {id} falsely suspected a live node"
                );
            }
        }
    }

    #[test]
    fn alternative_backends_detect_crashes_within_their_bounds() {
        use crate::fd::DetectorKind;
        for kind in [DetectorKind::Swim, DetectorKind::AddPhi] {
            let config = CanelyConfig::default().with_detector(kind);
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            for id in 0..4 {
                sim.add_node(n(id), CanelyStack::new(config.clone()));
            }
            let crash_at = BitTime::new(250_000);
            sim.schedule_crash(n(2), crash_at);
            sim.run_until(BitTime::new(500_000));
            let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
            for id in [0u8, 1, 3] {
                let app = sim.app::<CanelyStack>(n(id));
                assert_eq!(app.view(), expected, "{kind}: node {id} view");
                let failure = app
                    .events()
                    .iter()
                    .find(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(2)))
                    .unwrap_or_else(|| panic!("{kind}: node {id} missed the failure"));
                let bound = config.detection_latency_bound() + BitTime::new(1_000);
                assert!(
                    failure.0 - crash_at <= bound,
                    "{kind}: node {id} detection took {} (bound {})",
                    failure.0 - crash_at,
                    bound
                );
            }
        }
    }

    #[test]
    fn swim_backend_probes_instead_of_heartbeating() {
        use crate::fd::DetectorKind;
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..3 {
            sim.add_node(
                n(id),
                CanelyStack::new(CanelyConfig::default().with_detector(DetectorKind::Swim)),
            );
        }
        sim.schedule_crash(n(2), BitTime::new(250_000));
        sim.run_until(BitTime::new(400_000));
        // Survivors probed the silent node: probe traffic beyond ELS.
        let probes: u64 = (0..2)
            .map(|id| {
                let app = sim.app::<CanelyStack>(n(id));
                app.detector_frames() - app.els_sent()
            })
            .sum();
        assert!(probes > 0, "SWIM must have issued ping frames");
    }

    #[test]
    fn failure_notifications_are_simultaneous_and_consistent() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 4);
        sim.schedule_crash(n(1), BitTime::new(250_000));
        sim.run_until(BitTime::new(500_000));
        let times: Vec<BitTime> = [0u8, 2, 3]
            .iter()
            .map(|&id| {
                sim.app::<CanelyStack>(n(id))
                    .events()
                    .iter()
                    .find_map(|&(t, e)| match e {
                        UpperEvent::FailureNotified(r) if r == n(1) => Some(t),
                        _ => None,
                    })
                    .expect("failure notified")
            })
            .collect();
        // FDA delivers the failure-sign in one frame: all correct
        // nodes learn of the crash at the same delivery instant.
        assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    }

    #[test]
    fn late_node_joins_established_cluster() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 3);
        sim.add_node_at(
            n(5),
            CanelyStack::new(CanelyConfig::default()),
            BitTime::new(300_000),
        );
        sim.run_until(BitTime::new(600_000));
        let expected = NodeSet::first_n(3) | NodeSet::singleton(n(5));
        for id in [0u8, 1, 2, 5] {
            assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected);
        }
        // The joiner monitors everyone.
        assert_eq!(sim.app::<CanelyStack>(n(5)).monitored(), expected);
    }

    #[test]
    fn leave_withdraws_node_and_notifies_it() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..3 {
            let mut stack = CanelyStack::new(CanelyConfig::default());
            if id == 1 {
                stack = stack.with_leave_at(BitTime::new(300_000));
            }
            sim.add_node(n(id), stack);
        }
        sim.run_until(BitTime::new(600_000));
        let expected = NodeSet::from_bits(0b101);
        for id in [0u8, 2] {
            assert_eq!(sim.app::<CanelyStack>(n(id)).view(), expected);
        }
        let leaver = sim.app::<CanelyStack>(n(1));
        assert!(leaver.is_out_of_service());
        assert!(leaver
            .events()
            .iter()
            .any(|(_, e)| matches!(e, UpperEvent::LeftService)));
        // No spurious failure notifications for a clean leave.
        for id in [0u8, 2] {
            assert!(!sim
                .app::<CanelyStack>(n(id))
                .events()
                .iter()
                .any(|(_, e)| matches!(e, UpperEvent::FailureNotified(_))));
        }
    }

    #[test]
    fn inconsistent_life_sign_with_sender_crash_still_detected_consistently() {
        // The LCAN2 caveat scenario of Sec. 6.1: node 2's last
        // life-sign reaches only node 0, then node 2 crashes. FDA must
        // still produce a consistent failure notification everywhere.
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Els),
                mid_node: Some(n(2)),
                not_before: BitTime::new(250_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(0))),
                crash_sender: true,
            },
            count: 1,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        cluster(&mut sim, 4);
        sim.run_until(BitTime::new(600_000));
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        for id in [0u8, 1, 3] {
            let app = sim.app::<CanelyStack>(n(id));
            assert_eq!(app.view(), expected, "node {id}");
            assert!(app
                .events()
                .iter()
                .any(|(_, e)| matches!(e, UpperEvent::FailureNotified(r) if *r == n(2))));
        }
    }

    #[test]
    fn obs_log_captures_crash_detection_chain() {
        use crate::obs::{ObsLog, ProtocolEvent, Snapshot};
        let log = ObsLog::new();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4 {
            sim.add_node(
                n(id),
                CanelyStack::new(CanelyConfig::default()).with_obs(log.sink()),
            );
        }
        let crash_at = BitTime::new(250_000);
        log.record(crash_at, n(2), ProtocolEvent::NodeCrashed);
        sim.schedule_crash(n(2), crash_at);
        sim.run_until(BitTime::new(500_000));

        let events = log.events();
        let position = |pred: &dyn Fn(&ProtocolEvent) -> bool| {
            events
                .iter()
                .position(|e| pred(&e.event))
                .expect("event present in trace")
        };
        // The causal chain appears in order: crash marker, suspicion,
        // FDA invocation, delivery, notification, view change.
        let crash = position(&|e| matches!(e, ProtocolEvent::NodeCrashed));
        let suspect = position(
            &|e| matches!(e, ProtocolEvent::SuspectRaised { suspect } if *suspect == n(2)),
        );
        let invoked =
            position(&|e| matches!(e, ProtocolEvent::FdaInvoked { failed } if *failed == n(2)));
        let delivered =
            position(&|e| matches!(e, ProtocolEvent::FdaDelivered { failed } if *failed == n(2)));
        let notified = position(
            &|e| matches!(e, ProtocolEvent::FailureNotified { failed } if *failed == n(2)),
        );
        let changed = position(
            &|e| matches!(e, ProtocolEvent::ViewChanged { view, .. } if !view.contains(n(2))),
        );
        assert!(
            crash < suspect && suspect < invoked,
            "{crash} {suspect} {invoked}"
        );
        assert!(
            invoked < delivered && delivered < notified,
            "{delivered} {notified}"
        );
        assert!(notified < changed, "{notified} {changed}");

        // Causal threading: the suspicion was triggered by the
        // surveillance expiry, which links back to its (re)arming; the
        // FDA delivery was triggered by a bus transaction.
        let Cause::Event { seq } = events[suspect].cause else {
            panic!("suspicion must be event-caused: {:?}", events[suspect]);
        };
        let expiry = &events[seq as usize];
        assert!(
            matches!(
                expiry.event,
                ProtocolEvent::TimerExpired { timer: ObsTimer::Surveillance(r) } if r == n(2)
            ),
            "{expiry:?}"
        );
        let Cause::Event { seq: armed } = expiry.cause else {
            panic!("expiry must link to its arming: {expiry:?}");
        };
        assert!(
            matches!(
                events[armed as usize].event,
                ProtocolEvent::TimerArmed { timer: ObsTimer::Surveillance(r), .. } if r == n(2)
            ),
            "{:?}",
            events[armed as usize]
        );
        assert!(
            matches!(events[delivered].cause, Cause::Bus { .. }),
            "{:?}",
            events[delivered]
        );
        assert_eq!(events[crash].cause, Cause::Boot);

        // Metrics derived from the same log: a detection-latency sample
        // per surviving node, within the analytic bound.
        let snapshot = Snapshot::compute(&events, None);
        assert_eq!(snapshot.detection_latency.count(), 3);
        let bound = CanelyConfig::default().detection_latency_bound() + BitTime::new(1_000);
        assert!(snapshot.detection_latency.max().unwrap() <= bound.as_u64());
        assert!(snapshot.view_change_latency.count() >= 3);
        assert_eq!(snapshot.totals.of("node.crashed"), 1);
    }

    #[test]
    fn stack_without_obs_records_nothing() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        cluster(&mut sim, 3);
        sim.run_until(SETTLED);
        // No sink installed: the default path must not have grown any
        // observable state (events are only in the per-stack `events()`).
        for id in 0..3 {
            assert!(!sim.app::<CanelyStack>(n(id)).obs.is_enabled());
        }
    }

    #[test]
    fn deterministic_replay_of_full_stack() {
        let run = || {
            let mut sim = Simulator::new(
                BusConfig::default(),
                FaultPlan::seeded(11).with_consistent_rate(0.05),
            );
            cluster(&mut sim, 4);
            sim.schedule_crash(n(3), BitTime::new(300_000));
            sim.run_until(BitTime::new(600_000));
            (0..3)
                .map(|id| sim.app::<CanelyStack>(n(id)).events().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
