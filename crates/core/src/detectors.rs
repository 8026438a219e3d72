//! Alternative failure-detector backends behind the
//! [`FailureDetector`] seam.
//!
//! The paper's surveillance-timer protocol
//! ([`crate::SurveillanceDetector`]) is one point in the failure
//! detection design space. Two classic alternatives let the campaign
//! engine measure the trade-offs under identical fault matrices (see
//! `docs/DETECTORS.md` for the shootout):
//!
//! * [`SwimDetector`] (this module) — SWIM-style round-based probing with indirect
//!   pings (Das, Gupta & Motivala, DSN 2002): silence triggers a
//!   direct ping; an unanswered ping escalates to a *ping-req* that
//!   enlists helper nodes before the target is suspected. On a
//!   broadcast bus the indirect phase acts as a redundancy layer
//!   against *inconsistent omissions* — a helper that received the
//!   life-sign the prober missed re-probes the target, giving it
//!   another chance to answer before suspicion.
//! * [`crate::SurveillanceDetector::adaptive`] — an ADD-channel-style
//!   eventually-perfect (◇P) heartbeat detector (after Kumar & Welch):
//!   the paper's surveillance timers with unconditional periodic
//!   life-signs, and per-node timeouts that stretch with the worst
//!   observed inter-arrival gap (bounded by twice the static floor,
//!   which keeps detection latency bounded).
//!
//! SWIM reuses the stack's existing plumbing: per-node timers carry
//! the [`TimerOwner::Surveillance`] tag (so causal timer tracing works
//! unchanged), probe rounds tick on [`TimerOwner::DetectorPeriod`],
//! and the probe wire protocol rides on [`can_types::MsgType::Ping`]
//! remote frames.

use crate::fd::{els_mid, DetectorMetrics, DetectorTimer, FailureDetector, FdAction};
use crate::obs::{EventSink, ObsTimer, ProtocolEvent};
use crate::tags::{
    detector_skew as skew, ping_mid, TimerOwner, PING_DIRECT, PING_REQ, SWIM_HELPERS,
};
use can_controller::{Ctx, TimerId};
use can_types::{BitTime, Mid, NodeId, NodeSet, MAX_NODES};

/// Phase of an in-flight SWIM probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbePhase {
    /// Waiting for the target to answer a direct ping.
    Direct,
    /// Direct ping unanswered; waiting out the indirect (ping-req)
    /// round.
    Indirect,
}

/// An in-flight probe of one monitored node.
#[derive(Debug, Clone, Copy)]
struct Probe {
    phase: ProbePhase,
    tid: TimerId,
}

/// SWIM-style failure detector: round-based probing with indirect
/// pings.
///
/// Every `Th` the period timer ticks and the node probes each
/// monitored peer it has not heard from for at least `Th`: a direct
/// [`can_types::MsgType::Ping`] remote frame asks the target to emit a life-sign
/// (any node answers pings addressed to it with an ELS broadcast,
/// which — the bus being a broadcast medium — simultaneously
/// acquits it to every other prober). If the direct probe is not
/// answered within `Ttd`, a *ping-req* enlists up to `SWIM_HELPERS`
/// (= 3) helper nodes, each of which re-probes the target;
/// only when the indirect round (`2·Ttd`) also elapses in silence is
/// the target suspected and FDA invoked.
///
/// Unlike the surveillance backend the node issues **no periodic
/// life-signs of its own** — it answers probes instead — so in a
/// quiet, healthy network the detector consumes almost no bandwidth,
/// at the price of a longer worst-case detection latency (up to two
/// probe periods plus three probe-phase timeouts; see
/// [`crate::DetectorKind::extra_detection_margin`]).
#[derive(Debug)]
pub struct SwimDetector {
    /// `Th`: probe period, and the silence threshold for probing.
    th: BitTime,
    /// `Ttd`: transmission-delay margin for one probe phase.
    ttd: BitTime,
    /// The set of nodes this detector watches.
    monitored: NodeSet,
    /// Last time any frame of each monitored node was observed.
    last_heard: [BitTime; MAX_NODES],
    /// In-flight probes, by target.
    probes: [Option<Probe>; MAX_NODES],
    /// The protocol period timer.
    period: Option<TimerId>,
    /// Life-signs issued (all in answer to probes).
    els_sent: u64,
    /// Probe frames issued (direct pings, ping-reqs, helper re-pings).
    pings_sent: u64,
    /// Structured-event sink (disabled by default).
    obs: EventSink,
    /// Live-telemetry counters (disabled by default).
    metrics: DetectorMetrics,
}

impl SwimDetector {
    /// Creates a detector with probe period `th` and per-phase
    /// transmission-delay margin `ttd`.
    pub fn new(th: BitTime, ttd: BitTime) -> Self {
        SwimDetector {
            th,
            ttd,
            monitored: NodeSet::EMPTY,
            last_heard: [BitTime::ZERO; MAX_NODES],
            probes: [None; MAX_NODES],
            period: None,
            els_sent: 0,
            pings_sent: 0,
            obs: EventSink::disabled(),
            metrics: DetectorMetrics::default(),
        }
    }

    /// Probe frames issued by this node.
    pub fn pings_sent(&self) -> u64 {
        self.pings_sent
    }

    fn arm_probe(&mut self, ctx: &mut Ctx<'_>, target: NodeId, phase: ProbePhase) {
        let duration = match phase {
            ProbePhase::Direct => self.ttd,
            ProbePhase::Indirect => self.ttd * 2,
        } + skew(ctx.me());
        let tid = ctx.start_alarm(duration, TimerOwner::Surveillance(target).encode());
        self.obs.emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::Surveillance(target),
                deadline: ctx.now() + duration,
            },
        );
        self.probes[target.as_usize()] = Some(Probe { phase, tid });
    }

    fn cancel_probe(&mut self, ctx: &mut Ctx<'_>, target: NodeId) {
        if let Some(probe) = self.probes[target.as_usize()].take() {
            ctx.cancel_alarm(probe.tid);
        }
    }

    fn send_ping(&mut self, ctx: &mut Ctx<'_>, subkind: u16, target: NodeId) {
        ctx.can_rtr_req(ping_mid(subkind, ctx.me(), target));
        self.pings_sent += 1;
        self.metrics.probes.inc();
    }

    /// Whether this node is one of the up-to-[`SWIM_HELPERS`] helpers
    /// (lowest eligible node ids) enlisted by a ping-req.
    fn is_helper(&self, me: NodeId, prober: NodeId, target: NodeId) -> bool {
        let eligible = self.monitored - NodeSet::from_iter([prober, target]);
        eligible.contains(me) && eligible.iter().take(SWIM_HELPERS).any(|n| n == me)
    }
}

impl FailureDetector for SwimDetector {
    fn set_sink(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    fn set_metrics(&mut self, metrics: DetectorMetrics) {
        self.metrics = metrics;
    }

    fn start(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.insert(r);
        self.last_heard[r.as_usize()] = ctx.now();
        if self.period.is_none() {
            // First period staggered per node rank so the fleet's
            // probe rounds do not tick in lock-step.
            let tid = ctx.start_alarm(
                self.th + skew(ctx.me()),
                TimerOwner::DetectorPeriod.encode(),
            );
            self.period = Some(tid);
        }
    }

    fn stop(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        self.monitored.remove(r);
        self.cancel_probe(ctx, r);
    }

    fn stop_all(&mut self, ctx: &mut Ctx<'_>) {
        for probe in self.probes.iter_mut().filter_map(Option::take) {
            ctx.cancel_alarm(probe.tid);
        }
        if let Some(tid) = self.period.take() {
            ctx.cancel_alarm(tid);
        }
        self.monitored = NodeSet::EMPTY;
    }

    fn on_activity(&mut self, ctx: &mut Ctx<'_>, r: NodeId) {
        if !self.monitored.contains(r) {
            return;
        }
        self.last_heard[r.as_usize()] = ctx.now();
        // Any sign of life acquits an in-flight probe of `r`.
        self.cancel_probe(ctx, r);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: DetectorTimer) -> Option<FdAction> {
        match timer {
            DetectorTimer::Period => {
                let tid = ctx.start_alarm(self.th, TimerOwner::DetectorPeriod.encode());
                self.period = Some(tid);
                let me = ctx.me();
                let now = ctx.now();
                for r in self.monitored.iter().filter(|&r| r != me) {
                    if now.saturating_sub(self.last_heard[r.as_usize()]) < self.th {
                        continue;
                    }
                    match self.probes[r.as_usize()].map(|p| p.phase) {
                        None => {
                            self.send_ping(ctx, PING_DIRECT, r);
                            self.arm_probe(ctx, r, ProbePhase::Direct);
                        }
                        // Keep re-pinging through a long indirect
                        // round: extra chances against omissions, at
                        // one frame per period.
                        Some(ProbePhase::Indirect) => self.send_ping(ctx, PING_DIRECT, r),
                        Some(ProbePhase::Direct) => {}
                    }
                }
                None
            }
            DetectorTimer::Node(r) => {
                if !self.monitored.contains(r) {
                    self.probes[r.as_usize()] = None;
                    return None;
                }
                let probe = self.probes[r.as_usize()].take()?;
                match probe.phase {
                    ProbePhase::Direct => {
                        // Escalate: enlist helpers via ping-req.
                        self.send_ping(ctx, PING_REQ, r);
                        self.arm_probe(ctx, r, ProbePhase::Indirect);
                        None
                    }
                    ProbePhase::Indirect => {
                        self.obs.emit(
                            ctx.now(),
                            ctx.me(),
                            ProtocolEvent::SuspectRaised { suspect: r },
                        );
                        self.metrics.suspicions.inc();
                        Some(FdAction::Suspect(r))
                    }
                }
            }
        }
    }

    fn on_fda_nty(&mut self, ctx: &mut Ctx<'_>, r: NodeId) -> FdAction {
        self.monitored.remove(r);
        self.cancel_probe(ctx, r);
        FdAction::Notify(r)
    }

    fn on_detector_frame(&mut self, ctx: &mut Ctx<'_>, mid: Mid) {
        let subkind = mid.reference() >> 8;
        let prober_bits = mid.reference() & 0xFF;
        if prober_bits >= 64 {
            return;
        }
        let prober = NodeId::new(prober_bits as u8);
        let target = mid.node();
        // A probe frame is itself a sign of life of the prober.
        self.on_activity(ctx, prober);
        let me = ctx.me();
        match subkind {
            PING_DIRECT | PING_REQ if target == me => {
                // Answer with a life-sign broadcast: its reception
                // acquits this node at every prober at once.
                ctx.can_rtr_req(els_mid(me));
                self.els_sent += 1;
                self.obs.emit(ctx.now(), me, ProtocolEvent::LifeSignSent);
                self.metrics.lifesigns.inc();
            }
            PING_REQ
                if prober != me
                    && self.monitored.contains(target)
                    && self.probes[target.as_usize()].is_none()
                    && self.is_helper(me, prober, target) =>
            {
                // Helper relay: re-probe the target on the prober's
                // behalf (fire-and-forget — the prober keeps the
                // deadline).
                self.send_ping(ctx, PING_DIRECT, target);
            }
            _ => {}
        }
    }

    fn monitored(&self) -> NodeSet {
        self.monitored
    }

    fn els_sent(&self) -> u64 {
        self.els_sent
    }

    fn control_frames(&self) -> u64 {
        self.els_sent + self.pings_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    const TH: BitTime = BitTime::new(5_000);
    const TTD: BitTime = BitTime::new(2_500);

    fn swim() -> SwimDetector {
        SwimDetector::new(TH, TTD)
    }

    fn add_phi() -> crate::SurveillanceDetector {
        crate::SurveillanceDetector::adaptive(TH, TTD)
    }

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    // ---- SWIM ----

    #[test]
    fn swim_idle_healthy_network_sends_nothing() {
        let mut h = Rig::new(0);
        let mut d = swim();
        h.ctx(|ctx| {
            d.start(ctx, n(0));
            d.start(ctx, n(1));
        });
        // Only the period timer is armed; no frames and no life-signs.
        assert_eq!(h.timers.len(), 1);
        assert_eq!(h.ctl.queue_len(), 0);
        // Fresh activity keeps the first round quiet too.
        h.now = BitTime::new(4_000);
        h.ctx(|ctx| d.on_activity(ctx, n(1)));
        h.now = BitTime::new(5_000);
        h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period));
        assert_eq!(h.ctl.queue_len(), 0);
        assert_eq!(d.control_frames(), 0);
    }

    #[test]
    fn swim_probes_stale_node_then_escalates_then_suspects() {
        let mut h = Rig::new(0);
        let mut d = swim();
        h.ctx(|ctx| {
            d.start(ctx, n(0));
            d.start(ctx, n(2));
        });
        // n2 silent for a full period: the round probes it.
        h.now = BitTime::new(5_000);
        assert_eq!(h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period)), None);
        assert_eq!(h.drain_frames(), vec![ping_mid(PING_DIRECT, n(0), n(2))]);
        // Direct phase expires unanswered → ping-req.
        h.now = BitTime::new(7_500);
        assert_eq!(
            h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Node(n(2)))),
            None
        );
        assert_eq!(h.drain_frames(), vec![ping_mid(PING_REQ, n(0), n(2))]);
        // Indirect phase expires unanswered → suspect.
        h.now = BitTime::new(12_500);
        assert_eq!(
            h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Node(n(2)))),
            Some(FdAction::Suspect(n(2)))
        );
        assert_eq!(d.pings_sent(), 2);
    }

    #[test]
    fn swim_activity_acquits_inflight_probe() {
        let mut h = Rig::new(0);
        let mut d = swim();
        h.ctx(|ctx| {
            d.start(ctx, n(0));
            d.start(ctx, n(2));
        });
        h.now = BitTime::new(5_000);
        h.timers.pop_due(h.now).expect("period tick due");
        h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period));
        assert_eq!(h.timers.len(), 2, "period + probe deadline");
        // The target answers (e.g. its ELS arrives): probe cancelled,
        // and the now-stale expiry would be squelched anyway.
        h.now = BitTime::new(6_000);
        h.ctx(|ctx| d.on_activity(ctx, n(2)));
        assert_eq!(h.timers.len(), 1, "probe deadline cancelled");
        h.now = BitTime::new(7_500);
        assert_eq!(
            h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Node(n(2)))),
            None
        );
    }

    #[test]
    fn swim_answers_pings_with_a_life_sign() {
        let mut h = Rig::new(2);
        let mut d = swim();
        h.ctx(|ctx| {
            d.start(ctx, n(1));
            d.start(ctx, n(2));
        });
        h.now = BitTime::new(6_000);
        h.ctx(|ctx| d.on_detector_frame(ctx, ping_mid(PING_DIRECT, n(1), n(2))));
        assert_eq!(h.drain_frames(), vec![els_mid(n(2))]);
        assert_eq!(d.els_sent(), 1);
        // The ping also counted as activity of the prober.
        h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period));
        assert!(!h
            .drain_frames()
            .contains(&ping_mid(PING_DIRECT, n(2), n(1))));
    }

    #[test]
    fn swim_helper_relays_ping_req() {
        // Node 1 hears node 0's ping-req for node 3 and, as one of the
        // lowest eligible ids, re-probes node 3 on its behalf.
        let mut h = Rig::new(1);
        let mut d = swim();
        h.ctx(|ctx| {
            for id in 0..4 {
                d.start(ctx, n(id));
            }
        });
        h.now = BitTime::new(7_500);
        h.ctx(|ctx| d.on_detector_frame(ctx, ping_mid(PING_REQ, n(0), n(3))));
        assert_eq!(h.drain_frames(), vec![ping_mid(PING_DIRECT, n(1), n(3))]);
        // A high-rank node (outside the helper set) stays quiet.
        let mut h2 = Rig::new(9);
        let mut d2 = swim();
        h2.ctx(|ctx| {
            for id in [0, 1, 2, 3, 4, 9] {
                d2.start(ctx, n(id));
            }
        });
        h2.now = BitTime::new(7_500);
        h2.ctx(|ctx| d2.on_detector_frame(ctx, ping_mid(PING_REQ, n(0), n(3))));
        assert_eq!(h2.ctl.queue_len(), 0);
    }

    #[test]
    fn swim_stop_all_cancels_period_and_probes() {
        let mut h = Rig::new(0);
        let mut d = swim();
        h.ctx(|ctx| {
            d.start(ctx, n(0));
            d.start(ctx, n(2));
        });
        h.now = BitTime::new(5_000);
        h.timers.pop_due(h.now).expect("period tick due");
        h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Period));
        assert!(h.timers.len() >= 2);
        h.ctx(|ctx| d.stop_all(ctx));
        assert!(h.timers.is_empty());
        assert_eq!(d.monitored(), NodeSet::EMPTY);
    }

    // ---- ADD ◇P ----

    #[test]
    fn add_phi_heartbeat_is_unconditional() {
        let mut h = Rig::new(0);
        let mut d = add_phi();
        h.ctx(|ctx| d.start(ctx, n(0)));
        assert_eq!(h.timers.next_deadline(), Some(TH));
        // Own activity does NOT postpone the heartbeat (contrast with
        // the surveillance detector's suppression rule).
        h.now = BitTime::new(4_000);
        h.ctx(|ctx| d.on_activity(ctx, n(0)));
        assert_eq!(h.timers.next_deadline(), Some(TH));
        // Expiry broadcasts and re-arms immediately.
        h.now = BitTime::new(5_000);
        h.timers.pop_due(h.now).expect("heartbeat due");
        assert_eq!(
            h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Node(n(0)))),
            None
        );
        assert_eq!(d.els_sent(), 1);
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(10_000)));
    }

    #[test]
    fn add_phi_timeout_adapts_to_observed_gaps_with_cap() {
        let mut h = Rig::new(0);
        let mut d = add_phi();
        h.ctx(|ctx| d.start(ctx, n(2)));
        let floor = TH + TTD;
        assert_eq!(d.timeout_for(n(2)), floor);
        // A 6 ms gap stretches the timeout to gap + Ttd.
        h.now = BitTime::new(6_000);
        h.ctx(|ctx| d.on_activity(ctx, n(2)));
        assert_eq!(d.timeout_for(n(2)), BitTime::new(8_500));
        assert_eq!(h.timers.next_deadline(), Some(BitTime::new(14_500)));
        // A huge gap is clamped at twice the floor.
        h.now = BitTime::new(60_000);
        h.ctx(|ctx| d.on_activity(ctx, n(2)));
        assert_eq!(d.timeout_for(n(2)), floor * 2);
    }

    #[test]
    fn add_phi_remote_expiry_suspects() {
        let mut h = Rig::new(0);
        let mut d = add_phi();
        h.ctx(|ctx| d.start(ctx, n(2)));
        h.now = BitTime::new(7_500);
        assert_eq!(
            h.ctx(|ctx| d.on_timer(ctx, DetectorTimer::Node(n(2)))),
            Some(FdAction::Suspect(n(2)))
        );
        // FDA agreement then releases the state.
        let action = h.ctx(|ctx| d.on_fda_nty(ctx, n(2)));
        assert_eq!(action, FdAction::Notify(n(2)));
        assert!(!d.monitored().contains(n(2)));
    }

    #[test]
    fn add_phi_observer_skew_spreads_remote_deadlines() {
        let mut h = Rig::new(3);
        let mut d = add_phi();
        h.ctx(|ctx| d.start(ctx, n(2)));
        assert_eq!(
            h.timers.next_deadline(),
            Some(TH + TTD + BitTime::new(3 * 512))
        );
    }
}
