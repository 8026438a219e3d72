//! Node failure detection: the pluggable detector seam and the
//! paper's surveillance-timer protocol (Fig. 8).
//!
//! The stack talks to failure detection exclusively through the
//! [`FailureDetector`] trait, so the surveillance protocol of the
//! paper is one *backend* among several (see
//! [`SurveillanceDetector::adaptive`] for the ADD-channel ◇P variant,
//! [`crate::detectors`] for the SWIM-style alternative, and
//! `docs/DETECTORS.md` for the contract and a measured comparison).
//!
//! The default backend, [`SurveillanceDetector`], keeps one
//! surveillance timer per monitored node:
//!
//! * the **local** timer has duration `Th` — when it expires the node
//!   has been silent for a heartbeat period and must broadcast an
//!   explicit life-sign (ELS remote frame);
//! * **remote** timers have duration `Th + Ttd` (heartbeat period plus
//!   the bounded network transmission delay of MCAN4) — expiry means
//!   the remote node gave no sign of life in time, and the FDA
//!   micro-protocol is invoked to disseminate the failure consistently.
//!
//! Node activity is signalled *implicitly* by normal data traffic
//! (through the `can-data.nty` driver extension) and *explicitly* by
//! ELS frames; either restarts the corresponding surveillance timer.
//! "Explicit life-sign messages may need to be issued, but only if and
//! when the time between message transmit requests is higher than the
//! heartbeat period" — which is precisely what the local-timer rule
//! implements.

use crate::obs::{EventSink, ObsTimer, ProtocolEvent};
use crate::tags::{detector_skew, TimerOwner};
use can_controller::{Ctx, TimerId};
use can_types::{BitTime, Mid, NodeId, NodeSet, MAX_NODES};

/// Actions the failure detector hands back to the enclosing stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdAction {
    /// A remote node's surveillance timer expired: invoke
    /// `fda-can.req(r)` to disseminate the crash consistently
    /// (Fig. 8, line f10).
    Suspect(NodeId),
    /// `fd-can.nty(r)`: deliver the (agreed) failure notification to
    /// the companion membership protocol (line f15).
    Notify(NodeId),
}

/// A timer expiry routed to a failure-detector backend by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorTimer {
    /// A per-node timer (tag [`TimerOwner::Surveillance`]): the
    /// surveillance timer of the paper detector, or a probe
    /// acknowledgement deadline of the SWIM-style backend.
    Node(NodeId),
    /// The backend's protocol period tick (tag
    /// [`TimerOwner::DetectorPeriod`]), used by round-based backends.
    Period,
}

pub use crate::tags::els_mid;

/// Live-telemetry counter handles shared by all failure-detector
/// backends (see `docs/METRICS.md`). All handles default to disabled
/// (one branch per bump, no allocation), so a stack without telemetry
/// pays nothing; the campaign engine installs enabled handles via
/// `CanelyStack::set_detector_metrics` when a registry is attached.
/// Counters are bumped at the same sites that emit the corresponding
/// structured events, keeping live numbers and trace in agreement.
#[derive(Debug, Clone, Default)]
pub struct DetectorMetrics {
    /// Suspicions raised (`fd.suspect` events).
    pub suspicions: canely_metrics::Counter,
    /// Explicit life-signs issued (`fd.lifesign.tx` events).
    pub lifesigns: canely_metrics::Counter,
    /// Backend-specific probe frames issued (SWIM pings/ping-reqs;
    /// zero for backends without a wire protocol).
    pub probes: canely_metrics::Counter,
}

/// The failure-detection seam of the stack.
///
/// `CanelyStack` owns one boxed backend per node and routes the
/// protocol's inputs through this trait: membership `START`/`STOP`
/// requests, node activity (implicit heartbeats and explicit
/// life-signs), timer expiries tagged [`TimerOwner::Surveillance`] or
/// [`TimerOwner::DetectorPeriod`], agreed FDA failure notifications,
/// and — for backends with their own wire protocol — incoming
/// [`can_types::MsgType::Ping`] frames. Time reaches the backend through the
/// bit-time clock of the [`Ctx`] handle, and structured events leave
/// through the installed [`EventSink`]; a backend holds no other
/// channel to the outside world, which is what makes the campaign
/// oracle backend-agnostic.
///
/// Every backend must uphold the contract of Fig. 8's interface:
/// suspicions surface only as [`FdAction::Suspect`] (the stack then
/// invokes FDA for consistent dissemination), agreed failures arrive
/// via [`FailureDetector::on_fda_nty`] and must yield
/// [`FdAction::Notify`], and a stopped node must never be suspected
/// by a stale expiry.
pub trait FailureDetector: std::fmt::Debug {
    /// Installs the structured-event sink (see [`crate::obs`]).
    fn set_sink(&mut self, sink: EventSink);

    /// Installs live-telemetry counters (see [`DetectorMetrics`]).
    /// Backends that skip the default no-op bump the counters at the
    /// same sites that emit the corresponding structured events, so
    /// the live numbers always agree with the trace. Disabled handles
    /// cost one branch per bump.
    fn set_metrics(&mut self, _metrics: DetectorMetrics) {}

    /// `fd-can.req(START, r)`: begin monitoring node `r` (Fig. 8,
    /// lines f00–f02).
    fn start(&mut self, ctx: &mut Ctx<'_>, r: NodeId);

    /// `fd-can.req(STOP, r)`: stop monitoring node `r` (lines
    /// f17–f19).
    fn stop(&mut self, ctx: &mut Ctx<'_>, r: NodeId);

    /// Stops all monitoring (used when the node leaves the membership
    /// service).
    fn stop_all(&mut self, ctx: &mut Ctx<'_>);

    /// Node activity detected: a data frame from `r` arrived
    /// (`can-data.nty`) or an explicit life-sign of `r` was heard
    /// (`can-rtr.ind(mid{ELS,r})`). Activity of unmonitored nodes is
    /// ignored.
    fn on_activity(&mut self, ctx: &mut Ctx<'_>, r: NodeId);

    /// A timer owned by the detector expired. Returning
    /// [`FdAction::Suspect`] makes the stack invoke `fda-can.req`.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: DetectorTimer) -> Option<FdAction>;

    /// `fda-can.nty(r)` received: the failure of `r` is agreed —
    /// release all state about `r` and notify the membership layer
    /// (lines f13–f16).
    fn on_fda_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> FdAction;

    /// A detector-protocol frame ([`can_types::MsgType::Ping`]) was observed on
    /// the bus. Backends without a wire protocol ignore it.
    fn on_detector_frame(&mut self, _ctx: &mut Ctx<'_>, _mid: Mid) {}

    /// The set of currently monitored nodes.
    fn monitored(&self) -> NodeSet;

    /// Number of explicit life-signs this node has issued.
    fn els_sent(&self) -> u64;

    /// Total detector control frames issued by this node (life-signs
    /// plus any backend-specific probe traffic).
    fn control_frames(&self) -> u64 {
        self.els_sent()
    }
}

/// Selects a failure-detector backend (see `docs/DETECTORS.md`).
///
/// The same campaign matrices and invariant oracle run against every
/// backend; selection threads through [`crate::CanelyConfig`], the
/// scenario DSL (`detector <key>`), and `.campaign` specs
/// (`detector <key>...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectorKind {
    /// The paper's surveillance-timer protocol
    /// ([`SurveillanceDetector`], Fig. 8). The default.
    #[default]
    Surveillance,
    /// SWIM-style round-based probing with indirect pings
    /// ([`crate::detectors::SwimDetector`]).
    Swim,
    /// ADD-channel-style ◇P heartbeats with adaptive timeouts
    /// ([`SurveillanceDetector::adaptive`], after Kumar & Welch).
    AddPhi,
}

impl DetectorKind {
    /// Every backend, in documentation order.
    pub const ALL: [DetectorKind; 3] = [
        DetectorKind::Surveillance,
        DetectorKind::Swim,
        DetectorKind::AddPhi,
    ];

    /// The stable textual key used by the scenario DSL, `.campaign`
    /// specs, and reports.
    pub fn key(self) -> &'static str {
        match self {
            DetectorKind::Surveillance => "surveillance",
            DetectorKind::Swim => "swim",
            DetectorKind::AddPhi => "add-phi",
        }
    }

    /// Parses a textual key (inverse of [`DetectorKind::key`]).
    pub fn from_key(key: &str) -> Option<DetectorKind> {
        match key {
            "surveillance" => Some(DetectorKind::Surveillance),
            "swim" => Some(DetectorKind::Swim),
            "add-phi" => Some(DetectorKind::AddPhi),
            _ => None,
        }
    }

    /// Builds a backend instance with heartbeat period `th` and
    /// transmission-delay margin `ttd`.
    pub fn build(self, th: BitTime, ttd: BitTime) -> Box<dyn FailureDetector> {
        match self {
            DetectorKind::Surveillance => Box::new(SurveillanceDetector::new(th, ttd)),
            DetectorKind::Swim => Box::new(crate::detectors::SwimDetector::new(th, ttd)),
            DetectorKind::AddPhi => Box::new(SurveillanceDetector::adaptive(th, ttd)),
        }
    }

    /// Worst-case detection margin this backend needs *beyond* the
    /// surveillance detector's `Th + Ttd` timer, expressed in terms of
    /// the same `th`/`ttd` operating point. Used by the campaign
    /// engine to widen the oracle's detection-latency bound per
    /// backend (see `canely-campaign::spec`).
    ///
    /// * surveillance — zero, it *is* the baseline;
    /// * SWIM — a stale target waits up to one period for staleness
    ///   plus one period for the next probe round, then a direct and
    ///   an indirect probe phase (`ttd` and `2·ttd`);
    /// * ADD ◇P — the adaptive timeout is capped at twice the static
    ///   floor `th + ttd`.
    pub fn extra_detection_margin(self, th: BitTime, ttd: BitTime) -> BitTime {
        match self {
            DetectorKind::Surveillance => BitTime::ZERO,
            DetectorKind::Swim => th + th + ttd + ttd + ttd,
            DetectorKind::AddPhi => th + ttd,
        }
    }
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The paper's failure detection protocol entity (Fig. 8): one
/// surveillance timer per monitored node, restarted by implicit and
/// explicit life-signs. The default [`FailureDetector`] backend.
///
/// [`SurveillanceDetector::adaptive`] is the ADD-channel ◇P backend
/// (after Kumar & Welch) on the same timers, with two changes. The
/// local life-sign is **unconditional**: own activity never postpones
/// it and it re-arms as soon as it is sent, modelling a dedicated
/// heartbeat stream over an ADD channel. A remote timeout adapts to the
/// channel actually observed ([`SurveillanceDetector::timeout_for`]).
/// That makes the ◇P mode the steadiest bandwidth consumer of the
/// three backends (one ELS per node per `Th`, traffic or not), in
/// exchange for a false-suspicion margin that self-tunes to observed
/// jitter.
#[derive(Debug)]
pub struct SurveillanceDetector {
    /// `Th`: heartbeat period (local timer duration).
    th: BitTime,
    /// `Ttd`: network transmission delay bound added for remote nodes.
    ttd: BitTime,
    /// `tid(r)`: the armed surveillance timers, by monitored node.
    timers: [Option<TimerId>; MAX_NODES],
    /// The set of nodes this detector watches (`fd-can.req(START)`ed).
    monitored: NodeSet,
    /// Explicit life-signs issued (introspection / bandwidth studies).
    els_sent: u64,
    /// Structured-event sink (disabled by default).
    obs: EventSink,
    /// Live-telemetry counters (disabled by default).
    metrics: DetectorMetrics,
    /// ◇P only: per node, the last activity heard and the worst gap
    /// between two activities since `START`.
    gaps: Option<Box<[(BitTime, BitTime); MAX_NODES]>>,
}

impl SurveillanceDetector {
    /// Creates a detector with heartbeat period `th` and transmission
    /// delay bound `ttd`.
    pub fn new(th: BitTime, ttd: BitTime) -> Self {
        SurveillanceDetector {
            th,
            ttd,
            timers: [None; MAX_NODES],
            monitored: NodeSet::EMPTY,
            els_sent: 0,
            obs: EventSink::disabled(),
            metrics: DetectorMetrics::default(),
            gaps: None,
        }
    }

    /// Creates the ADD-channel ◇P detector: unconditional local
    /// life-signs every `th`, and adaptive remote timeouts.
    pub fn adaptive(th: BitTime, ttd: BitTime) -> Self {
        let gaps = Box::new([(BitTime::ZERO, BitTime::ZERO); MAX_NODES]);
        SurveillanceDetector {
            gaps: Some(gaps),
            ..SurveillanceDetector::new(th, ttd)
        }
    }

    /// The timeout of remote node `r` before the observer's skew:
    /// `Th + Ttd`, or for the ◇P detector `clamp(worst observed gap +
    /// Ttd, Th + Ttd, 2·(Th + Ttd))` — never *more* suspicious than the
    /// paper's, and bounded, so the ◇P promise is made *eventually
    /// perfect within a bound* rather than merely eventual.
    pub fn timeout_for(&self, r: NodeId) -> BitTime {
        let floor = self.th + self.ttd;
        match &self.gaps {
            None => floor,
            Some(gaps) => (gaps[r.as_usize()].1 + self.ttd).max(floor).min(floor * 2),
        }
    }

    /// The mid of an explicit life-sign of node `r`.
    pub fn els_mid(r: NodeId) -> Mid {
        els_mid(r)
    }

    /// `fd-alarm-start(r)` (lines a00–a06): (re)arms the surveillance
    /// timer — `Th` for the local node, [`Self::timeout_for`] (`Th +
    /// Ttd`) for remote nodes.
    fn arm(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        let duration = if r == ctx.me() {
            self.th // a02
        } else {
            // a04, plus the per-observer skew: surveillance timers
            // armed by the same frame delivery do not expire in
            // lock-step, so the first detector's failure-sign reaches —
            // and cancels — every later observer before it fires.
            // (Perfectly simultaneous expiry would make all observers
            // transmit the sign in one cluster, leaving no same-side
            // receiver to acknowledge it under a partition.)
            self.timeout_for(r) + detector_skew(ctx.me())
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

    /// Cancels the surveillance timer of `r`, if one is armed.
    fn disarm(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if let Some(tid) = self.timers[r.as_usize()].take() {
            ctx.cancel_alarm(tid);
        }
    }
}

impl FailureDetector for SurveillanceDetector {
    fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    fn set_metrics(&mut self, metrics: DetectorMetrics) {
        self.metrics = metrics;
    }

    /// `fd-can.req(START, r)` (Fig. 8, lines f00–f02).
    fn start(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.insert(r);
        if let Some(gaps) = &mut self.gaps {
            gaps[r.as_usize()] = (ctx.now(), BitTime::ZERO); // ◇P: a new watch forgets old gaps
        }
        self.arm(ctx, r); // f01
    }

    /// `fd-can.req(STOP, r)` (lines f17–f19).
    fn stop(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.remove(r);
        self.disarm(ctx, r); // f18
    }

    fn stop_all(&mut self, ctx: &mut Ctx<'_>) {
        for tid in self.timers.iter_mut().filter_map(Option::take) {
            ctx.cancel_alarm(tid);
        }
        self.monitored = NodeSet::EMPTY;
    }

    /// Restarts the surveillance timer of `r` (lines f03–f05).
    fn on_activity(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if !self.monitored.contains(r) {
            return;
        }
        if let Some(gaps) = &mut self.gaps {
            if r == ctx.me() {
                return; // ◇P: own activity never postpones the life-sign
            }
            let (last, worst) = &mut gaps[r.as_usize()];
            *worst = (*worst).max(ctx.now().saturating_sub(*last));
            *last = ctx.now();
        }
        self.arm(ctx, r); // f04
    }

    /// A surveillance timer expired (lines f06–f12). For the local
    /// node an explicit life-sign is broadcast (its own reception will
    /// restart the timer; the ◇P detector re-arms at once instead);
    /// for a remote node the caller must invoke FDA.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: DetectorTimer) -> Option<FdAction> {
        let DetectorTimer::Node(r) = timer else {
            return None; // the paper detector has no period tick
        };
        if !self.monitored.contains(r) {
            return None; // stale expiry after STOP
        }
        self.timers[r.as_usize()] = None;
        if r == ctx.me() {
            ctx.can_rtr_req(els_mid(r)); // f08
            self.els_sent += 1;
            self.obs
                .emit(ctx.now(), ctx.me(), ProtocolEvent::LifeSignSent);
            self.metrics.lifesigns.inc();
            if self.gaps.is_some() {
                self.arm(ctx, r); // ◇P: unconditional cadence
            }
            None
        } else {
            self.obs.emit(
                ctx.now(),
                ctx.me(),
                ProtocolEvent::SuspectRaised { suspect: r },
            );
            self.metrics.suspicions.inc();
            Some(FdAction::Suspect(r)) // f10
        }
    }

    fn on_fda_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> FdAction {
        self.monitored.remove(r);
        self.disarm(ctx, r); // f14
        FdAction::Notify(r) // f15
    }

    fn monitored(&self) -> NodeSet {
        self.monitored
    }

    fn els_sent(&self) -> u64 {
        self.els_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    fn fd() -> SurveillanceDetector {
        SurveillanceDetector::new(BitTime::new(5_000), BitTime::new(2_500))
    }

    fn node_timer(r: u8) -> DetectorTimer {
        DetectorTimer::Node(NodeId::new(r))
    }

    #[test]
    fn local_timer_uses_th_remote_uses_th_plus_ttd() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(0)));
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(5_000)));
        let mut h2 = Rig::new(0);
        let mut d2 = fd();
        h2.ctx(|ctx| d2.start(ctx, NodeId::new(1)));
        assert_eq!(h2.timers.next_deadline(), Some(BitTime::new(7_500)));
    }

    #[test]
    fn activity_restarts_monitored_timer() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(1)));
        h.now = BitTime::new(4_000);
        h.ctx(|ctx| d.on_activity(ctx, NodeId::new(1)));
        // Restarted at t=4000: new deadline 11_500, old one cancelled.
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(11_500)));
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn activity_of_unmonitored_node_is_ignored() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.on_activity(ctx, NodeId::new(9)));
        assert!(h.timers.is_empty());
        assert_eq!(d.monitored(), NodeSet::EMPTY);
    }

    #[test]
    fn local_expiry_broadcasts_els() {
        let mut h = Rig::new(3);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(3)));
        h.now = BitTime::new(5_000);
        let action = h.ctx(|ctx| d.on_timer(ctx, node_timer(3)));
        assert_eq!(action, None);
        assert_eq!(d.els_sent(), 1);
        // An ELS remote frame is queued.
        let head = h.ctl.head().unwrap();
        assert!(head.is_remote());
        assert_eq!(
            Mid::from_can_id(head.id()).unwrap(),
            els_mid(NodeId::new(3))
        );
    }

    #[test]
    fn own_els_reception_restarts_local_timer() {
        // The elegant loop of Fig. 8: the node's own ELS arrives back
        // (own transmissions included) and f03 restarts the timer.
        let mut h = Rig::new(3);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(3)));
        h.now = BitTime::new(5_000);
        let fired = h.timers.pop_due(h.now).expect("local timer due");
        assert_eq!(
            fired.tag,
            crate::tags::TimerOwner::Surveillance(NodeId::new(3)).encode()
        );
        h.ctx(|ctx| d.on_timer(ctx, node_timer(3)));
        assert!(h.timers.is_empty(), "no timer while ELS in flight");
        h.now = BitTime::new(5_080);
        h.ctx(|ctx| d.on_activity(ctx, NodeId::new(3)));
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(10_080)));
    }

    #[test]
    fn remote_expiry_suspects() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(2)));
        h.now = BitTime::new(7_500);
        let action = h.ctx(|ctx| d.on_timer(ctx, node_timer(2)));
        assert_eq!(action, Some(FdAction::Suspect(NodeId::new(2))));
        // No ELS issued for remote nodes.
        assert_eq!(h.ctl.queue_len(), 0);
    }

    #[test]
    fn period_tick_is_inert() {
        // The paper detector is purely event-driven: a stray period
        // tick (e.g. after a backend swap) must be a no-op.
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(2)));
        let action = h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period));
        assert_eq!(action, None);
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn stop_cancels_and_squelches_stale_expiry() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(2)));
        h.ctx(|ctx| d.stop(ctx, NodeId::new(2)));
        assert!(h.timers.is_empty());
        // A stale expiry (raced with STOP) is ignored.
        let action = h.ctx(|ctx| d.on_timer(ctx, node_timer(2)));
        assert_eq!(action, None);
    }

    #[test]
    fn fda_notification_cancels_and_notifies() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(2)));
        let action = h.ctx(|ctx| d.on_fda_nty(ctx, NodeId::new(2)));
        assert_eq!(action, FdAction::Notify(NodeId::new(2)));
        assert!(h.timers.is_empty());
        assert!(!d.monitored().contains(NodeId::new(2)));
    }

    #[test]
    fn stop_all_clears_everything() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| {
            d.start(ctx, NodeId::new(0));
            d.start(ctx, NodeId::new(1));
            d.start(ctx, NodeId::new(2));
        });
        assert_eq!(h.timers.len(), 3);
        h.ctx(|ctx| d.stop_all(ctx));
        assert!(h.timers.is_empty());
        assert_eq!(d.monitored(), NodeSet::EMPTY);
    }

    #[test]
    fn restart_replaces_rather_than_accumulates_timers() {
        let mut h = Rig::new(0);
        let mut d = fd();
        h.ctx(|ctx| d.start(ctx, NodeId::new(1)));
        for step in 1..=5u64 {
            h.now = BitTime::new(step * 1_000);
            h.ctx(|ctx| d.on_activity(ctx, NodeId::new(1)));
        }
        assert_eq!(h.timers.len(), 1, "exactly one live timer per node");
    }

    #[test]
    fn detector_kind_keys_round_trip() {
        for kind in DetectorKind::ALL {
            assert_eq!(DetectorKind::from_key(kind.key()), Some(kind));
            assert_eq!(kind.to_string(), kind.key());
        }
        assert_eq!(DetectorKind::from_key("gossip"), None);
        assert_eq!(DetectorKind::default(), DetectorKind::Surveillance);
    }

    #[test]
    fn every_kind_builds_a_backend() {
        let th = BitTime::new(5_000);
        let ttd = BitTime::new(2_500);
        for kind in DetectorKind::ALL {
            let d = kind.build(th, ttd);
            assert_eq!(d.monitored(), NodeSet::EMPTY);
            assert_eq!(d.control_frames(), 0);
        }
        // The baseline backend needs no extra detection margin; the
        // alternatives do.
        assert_eq!(
            DetectorKind::Surveillance.extra_detection_margin(th, ttd),
            BitTime::ZERO
        );
        for kind in [DetectorKind::Swim, DetectorKind::AddPhi] {
            assert!(kind.extra_detection_margin(th, ttd) > BitTime::ZERO);
        }
    }
}
