//! The federation harness: K per-segment simulators in lockstep, plus
//! the bridges between their gateways.
//!
//! Every segment is a complete, unmodified single-bus CANELy world —
//! its own [`Simulator`], its own fault plan, its own [`ObsLog`]. The
//! federation couples them only through the gateways: the harness
//! advances all segments to the same instant in fixed *quanta*, then
//! pumps each gateway's outbox across its bridges and injects the
//! frames at the far end (see [`Gateway::inject`]). Iteration order is
//! fixed (segment 0, 1, …), so a federated run is exactly as
//! deterministic and replayable as a single-segment run.
//!
//! Bridge-level fault injection mirrors the single-bus fault kinds one
//! level up: a **gateway crash** is an ordinary scheduled node crash
//! that happens to hit a representative; an **inter-segment
//! partition** drops every bridge frame in both directions for a
//! window; an **asymmetric inaccessibility** window drops one
//! direction of one bridge — the federation analogue of LCAN4's
//! inconsistent channel. A **gateway restart** power-cycles the
//! configured gateway node back as a fresh standby.
//!
//! The harness is failover-aware: every node of a bridged world hosts
//! a [`Gateway`] wrapper, and the pump drains and injects at whichever
//! node currently holds the active role (see [`crate::election`]).
//! Whether a frame crosses, waits or is lost is the delivery machine's
//! decision ([`crate::bridge`]); the harness only carries it out.
//!
//! One segment *is* the paper's single bus: with no bridge there is
//! nothing to represent, relay or pump, so such a world hosts bare
//! [`CanelyStack`]s and advances to the deadline in one stride.
//! [`FederationSim::stack`] hides the difference from callers.

use crate::bridge::{Bridges, Verdict, QUANTUM};
use crate::election::{GatewayRole, RoleInput};
use crate::gateway::{Gateway, RelayFilter};
use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId};
use canely::obs::{ObsLog, Retention};
use canely::tags::MAX_SEGMENTS;
use canely::{CanelyConfig, CanelyStack, DetectorMetrics, TrafficConfig};

/// How the segments' bridges are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeKind {
    /// Segment `i` bridges to `i + 1`.
    Line,
    /// A line plus the closing `K−1 ↔ 0` bridge.
    Ring,
    /// Every segment bridges to segment 0.
    Star,
    /// Every pair of segments is bridged.
    Full,
}

impl BridgeKind {
    /// The stable keyword used by scenario and campaign documents.
    pub fn key(self) -> &'static str {
        match self {
            BridgeKind::Line => "line",
            BridgeKind::Ring => "ring",
            BridgeKind::Star => "star",
            BridgeKind::Full => "full",
        }
    }

    /// Parses a scenario keyword.
    pub fn from_key(word: &str) -> Option<BridgeKind> {
        use BridgeKind::{Full, Line, Ring, Star};
        [Line, Ring, Star, Full]
            .into_iter()
            .find(|kind| kind.key() == word)
    }

    /// The bridge set for `k` segments, as ordered pairs `(a, b)` with
    /// `a < b`.
    pub fn bridges(self, k: u8) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        match self {
            BridgeKind::Line => out.extend((1..k).map(|i| (i - 1, i))),
            BridgeKind::Ring => {
                out.extend((1..k).map(|i| (i - 1, i)));
                if k > 2 {
                    out.push((0, k - 1));
                }
            }
            BridgeKind::Star => out.extend((1..k).map(|i| (0, i))),
            BridgeKind::Full => out.extend((0..k).flat_map(|a| (a + 1..k).map(move |b| (a, b)))),
        }
        out
    }
}

impl std::fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// The static shape of a federation.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Per-node stack configuration (identical across segments).
    pub config: CanelyConfig,
    /// Number of segments `K`.
    pub segments: u8,
    /// Population of every segment (local ids `0..nodes`); at most 32
    /// when bridged, so segment views fit the digest wire encoding.
    pub nodes: u8,
    /// Local id of each segment's gateway.
    pub gateway: u8,
    /// Bridge topology.
    pub topology: BridgeKind,
    /// What crosses the bridges besides digests.
    pub filter: RelayFilter,
    /// The event kinds the segment logs store ([`ObsLog::retaining`]).
    pub retention: Retention,
}

impl FederationConfig {
    /// A federation of `segments × nodes` with defaults matching the
    /// single-bus campaign model.
    ///
    /// # Panics
    ///
    /// Panics on a shape the readers refuse on its line:
    /// `grammar::segment_count` bounds `segments` to
    /// `1..=MAX_SEGMENTS`; `grammar::federated_population` caps a
    /// bridged population at 32, and `Scenario::judged` and the
    /// campaign `nodes` reader hold every judged one to at least 2.
    pub fn new(config: CanelyConfig, segments: u8, nodes: u8) -> Self {
        assert!(
            (1..=MAX_SEGMENTS).contains(&usize::from(segments)),
            "{segments} segments: grammar::segment_count refuses it"
        );
        assert!(
            segments == 1 || (2..=32).contains(&nodes),
            "{nodes} bridged nodes: grammar::federated_population and Scenario::judged refuse it"
        );
        FederationConfig {
            config,
            segments,
            nodes,
            gateway: 0,
            topology: BridgeKind::Ring,
            filter: RelayFilter::None,
            retention: Retention::ALL,
        }
    }

    /// Sets the bridge topology.
    pub fn with_topology(mut self, topology: BridgeKind) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the relay filter.
    pub fn with_filter(mut self, filter: RelayFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Makes the segment logs store only the events of `keep`'s kinds.
    pub fn with_retention(mut self, keep: Retention) -> Self {
        self.retention = keep;
        self
    }

    /// Sets the gateway's local node id.
    ///
    /// # Panics
    ///
    /// Panics if `gateway` is outside the population, which
    /// `grammar::gateway_in_segment` refuses on its line.
    pub fn with_gateway(mut self, gateway: u8) -> Self {
        assert!(
            gateway < self.nodes,
            "gateway outside the population: grammar::gateway_in_segment refuses it"
        );
        self.gateway = gateway;
        self
    }
}

/// Live-telemetry counters for the federation bridge pump and the
/// failover machinery. The counters are derived purely from
/// simulation state (quanta advanced, frames fanned out, retries
/// scheduled, promotions performed), so they are deterministic for a
/// given spec — `Stable` in registry terms. `bridge_health` is a
/// last-write gauge (the number of currently healthy bridge
/// directions) and therefore `Volatile`: concurrent campaign runs
/// overwrite it in scheduler order. The default handles are disabled
/// and cost one branch per bump.
#[derive(Debug, Clone, Default)]
pub struct FedMetrics {
    /// Lockstep quanta advanced across all segments.
    pub quanta: canely_metrics::Counter,
    /// Bridge frames delivered to a far-end gateway inbox.
    pub relayed: canely_metrics::Counter,
    /// Delivery attempts that found the direction blocked or the
    /// destination headless (each such attempt defers or drops).
    pub blocked: canely_metrics::Counter,
    /// Gateway promotions (standby → active) across all segments.
    pub elections: canely_metrics::Counter,
    /// Segment rejoins: a promoted gateway's re-announced view
    /// reaching the global stable cut.
    pub rejoins: canely_metrics::Counter,
    /// Bridge frames deferred into the retry queue.
    pub retry_queued: canely_metrics::Counter,
    /// Retried frames that eventually crossed.
    pub retry_delivered: canely_metrics::Counter,
    /// Frames dropped from the retry path (budget or queue bound).
    pub retry_dropped: canely_metrics::Counter,
    /// Currently healthy bridge directions (last deliver succeeded).
    pub bridge_health: canely_metrics::Gauge,
}

/// K coupled per-segment simulators (see the module docs).
pub struct FederationSim {
    sims: Vec<Simulator>,
    logs: Vec<ObsLog>,
    /// The delivery machine: bridges, blocked windows, retries.
    bridges: Bridges,
    /// The shape, kept so a gateway restart can build a fresh standby
    /// identical to the original population's wrappers.
    fed: FederationConfig,
    traffic: Option<BitTime>,
    now: BitTime,
    /// Live-telemetry counters (disabled by default).
    metrics: FedMetrics,
}

impl FederationSim {
    /// Builds the federation: every segment gets a fresh simulator
    /// seeded from `seed_of(segment)`. In a bridged world every node
    /// hosts a [`Gateway`] wrapper — the configured gateway id starts
    /// [`GatewayRole::Active`], everyone else a warm standby ready to
    /// take over; a single segment hosts the bare stacks. `traffic`
    /// mirrors the campaign's per-node cyclic traffic model.
    pub fn new(
        fed: &FederationConfig,
        traffic: Option<BitTime>,
        seed_of: impl Fn(u8) -> u64,
        plan_of: impl Fn(u64) -> FaultPlan,
    ) -> Self {
        let mut this = FederationSim {
            sims: Vec::with_capacity(fed.segments as usize),
            logs: (0..fed.segments)
                .map(|_| ObsLog::retaining(fed.retention))
                .collect(),
            bridges: Bridges::new(fed.topology.bridges(fed.segments), seed_of(0)),
            fed: fed.clone(),
            traffic,
            now: BitTime::ZERO,
            metrics: FedMetrics::default(),
        };
        for seg in 0..fed.segments {
            let mut sim = Simulator::new(BusConfig::default(), plan_of(seed_of(seg)));
            for id in 0..fed.nodes {
                let node = NodeId::new(id);
                if this.bridged() {
                    sim.add_node(node, this.node_gateway(seg, id, this.initial_role(node)));
                } else {
                    sim.add_node(node, this.node_stack(seg, id));
                }
            }
            this.sims.push(sim);
        }
        this
    }

    /// Whether any bridge exists, i.e. whether nodes host [`Gateway`]
    /// wrappers and the pump has work.
    fn bridged(&self) -> bool {
        !self.bridges.pairs().is_empty()
    }

    /// The role `node` boots in: the configured gateway acts, everyone
    /// else is a standby that believes in it.
    fn initial_role(&self, node: NodeId) -> GatewayRole {
        let (leader, rejoin_pending) = (Some(self.gateway()), None);
        if node == self.gateway() {
            GatewayRole::Active { rejoin_pending }
        } else {
            GatewayRole::Standby { leader }
        }
    }

    /// One node's unmodified protocol stack, wired to its segment's
    /// log and loaded with the harness's cyclic traffic.
    fn node_stack(&self, seg: u8, id: u8) -> CanelyStack {
        let stack =
            CanelyStack::new(self.fed.config.clone()).with_obs(self.logs[seg as usize].sink());
        match self.traffic {
            Some(period) => stack.with_traffic(TrafficConfig::staggered(period, id)),
            None => stack,
        }
    }

    /// The gateway wrapper around [`FederationSim::node_stack`] that a
    /// node of a bridged world hosts.
    fn node_gateway(&self, seg: u8, id: u8, role: GatewayRole) -> Gateway {
        let stack = self.node_stack(seg, id);
        let mut gateway = Gateway::new(stack, seg, &self.fed, role);
        gateway.set_fed_counters(self.metrics.elections.clone(), self.metrics.rejoins.clone());
        gateway
    }

    /// Installs live-telemetry counters on the bridge pump and the
    /// election machinery (see [`FedMetrics`]).
    pub fn set_metrics(&mut self, metrics: FedMetrics) {
        if self.bridged() {
            for sim in &mut self.sims {
                for id in 0..self.fed.nodes {
                    sim.app_mut::<Gateway>(NodeId::new(id))
                        .set_fed_counters(metrics.elections.clone(), metrics.rejoins.clone());
                }
            }
        }
        self.metrics = metrics;
    }

    /// Installs failure-detector counters on the plain members'
    /// stacks: every node of a single segment; in a bridged world
    /// every node but the configured gateway, whose detector traffic
    /// is booked to the representative role rather than to a member.
    pub fn set_detector_metrics(&mut self, metrics: DetectorMetrics) {
        let (bridged, gateway) = (self.bridged(), self.gateway());
        for sim in &mut self.sims {
            for node in (0..self.fed.nodes).map(NodeId::new) {
                let metrics = metrics.clone();
                if !bridged {
                    sim.app_mut::<CanelyStack>(node)
                        .set_detector_metrics(metrics);
                } else if node != gateway {
                    sim.app_mut::<Gateway>(node).set_detector_metrics(metrics);
                }
            }
        }
    }

    /// The gateway's local node id (same in every segment).
    pub fn gateway(&self) -> NodeId {
        NodeId::new(self.fed.gateway)
    }

    /// One segment's simulator.
    pub fn sim(&self, seg: u8) -> &Simulator {
        &self.sims[seg as usize]
    }

    /// Mutable access to one segment's simulator (crash scheduling).
    pub fn sim_mut(&mut self, seg: u8) -> &mut Simulator {
        &mut self.sims[seg as usize]
    }

    /// One segment's observation log.
    pub fn log(&self, seg: u8) -> &ObsLog {
        &self.logs[seg as usize]
    }

    /// Any node's protocol stack: bare in a single segment, inside
    /// its [`Gateway`] wrapper in a bridged world.
    pub fn stack(&self, seg: u8, node: NodeId) -> &CanelyStack {
        let sim = &self.sims[seg as usize];
        if self.bridged() {
            sim.app::<Gateway>(node).stack()
        } else {
            sim.app::<CanelyStack>(node)
        }
    }

    /// Any node's gateway wrapper (bridged worlds only).
    pub fn node_app(&self, seg: u8, node: NodeId) -> &Gateway {
        self.sims[seg as usize].app::<Gateway>(node)
    }

    /// The node currently holding the active gateway role in `seg`,
    /// if any survivor does: the lowest-id live active wrapper (ties
    /// can only exist transiently, before a demotion lands).
    pub fn active_gateway(&self, seg: u8) -> Option<NodeId> {
        let sim = &self.sims[seg as usize];
        let alive = sim.alive();
        (0..self.fed.nodes)
            .map(NodeId::new)
            .find(|&node| alive.contains(node) && sim.app::<Gateway>(node).role().is_active())
    }

    /// Schedules a fail-silent crash of `seg`'s gateway.
    pub fn schedule_gateway_crash(&mut self, seg: u8, at: BitTime) {
        let gw = self.gateway();
        self.sims[seg as usize].schedule_crash(gw, at);
    }

    /// Schedules a power-cycle of `seg`'s *configured* gateway node at
    /// `at`: it reboots as a fresh **standby** with no leader belief,
    /// so it reintegrates the segment as an ordinary member and defers
    /// to whichever successor was promoted in the meantime (it only
    /// learns the acting gateway — and any fresher epoch — from the
    /// digests it then hears).
    ///
    /// # Panics
    ///
    /// Panics in a single-segment world, which has no gateway: the
    /// readers refuse `gateway-restart` without `segments` above 1
    /// (`scenario.rs::finish`, `spec.rs::validate`).
    pub fn schedule_gateway_restart(&mut self, seg: u8, at: BitTime) {
        assert!(
            self.bridged(),
            "gateway restart in a single segment: the readers refuse it"
        );
        let gw = self.gateway();
        let mut role = self.initial_role(gw);
        role.step(gw, 0, RoleInput::Restarted);
        let app = self.node_gateway(seg, gw.as_u8(), role);
        self.sims[seg as usize].schedule_restart(gw, at, app);
    }

    /// Blocks every bridge in both directions during `[from, until)`,
    /// a window [`Bridges::block`] requires to be non-empty.
    pub fn schedule_partition(&mut self, from: BitTime, until: BitTime) {
        self.bridges.block(None, from..until);
    }

    /// Blocks the `from_seg → to_seg` direction of that pair's bridge
    /// during `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not bridged — `scenario.rs::finish` refuses
    /// such an `asymmetric` line, and campaign expansion draws the
    /// pair from the topology's bridges — or the window is empty
    /// ([`Bridges::block`]).
    pub fn schedule_asymmetric(&mut self, from_seg: u8, to_seg: u8, from: BitTime, until: BitTime) {
        let pair = (from_seg.min(to_seg), from_seg.max(to_seg));
        assert!(
            self.bridges.pairs().contains(&pair),
            "unbridged asymmetric window: scenario.rs::finish refuses it"
        );
        self.bridges.block(Some((from_seg, to_seg)), from..until);
    }

    /// Advances every segment to `deadline`, pumping the bridges once
    /// per quantum. A single segment has nothing to pump: it runs to
    /// the deadline in one stride, and no quantum is counted.
    pub fn run_until(&mut self, deadline: BitTime) {
        let bridged = self.bridged();
        while self.now < deadline {
            let next = if bridged {
                (self.now + QUANTUM).min(deadline)
            } else {
                deadline
            };
            for sim in &mut self.sims {
                sim.run_until(next);
            }
            self.now = next;
            if bridged {
                self.metrics.quanta.inc();
                self.pump();
            }
        }
    }

    /// One bridge pump: replay due retries, then drain every acting
    /// gateway's outbox and fan its frames out across that segment's
    /// bridges — all in fixed order (retry FIFO, then segment order),
    /// so a federated run stays deterministic — and carry out the
    /// delivery machine's verdict on each attempt.
    fn pump(&mut self) {
        let mut attempts = self.bridges.due(self.now);
        for seg in 0..self.fed.segments {
            // No acting representative: nothing drains. The old
            // gateway's queue died with it (and a demoted one clears
            // its own), so nothing is silently leaked.
            if let Some(src) = self.active_gateway(seg) {
                let frames = self.sims[seg as usize]
                    .app_mut::<Gateway>(src)
                    .take_outbox();
                self.bridges.fan_out(seg, &frames, &mut attempts);
            }
        }
        for attempt in attempts {
            let to_seg = attempt.to_seg;
            match self
                .bridges
                .attempt(self.now, attempt, self.active_gateway(to_seg))
            {
                Verdict::Deliver(at) => {
                    let frame = &attempt.frame;
                    let sim = &mut self.sims[to_seg as usize];
                    sim.drive(at, |gateway: &mut Gateway, ctx| gateway.inject(ctx, frame));
                    self.metrics.relayed.inc();
                    if attempt.attempts > 0 {
                        self.metrics.retry_delivered.inc();
                    }
                }
                Verdict::Deferred => {
                    self.metrics.blocked.inc();
                    self.metrics.retry_queued.inc();
                }
                Verdict::Dropped => {
                    self.metrics.blocked.inc();
                    self.metrics.retry_dropped.inc();
                }
            }
        }
        let healthy = self.bridges.healthy() as u64;
        self.metrics.bridge_health.set(healthy);
    }

    /// The merged, segment-qualified JSONL trace: every segment's bus
    /// and protocol records tagged with a `seg` field and interleaved
    /// by time (ties: segment order). The single-segment degenerate
    /// case carries no `seg` field, so it is byte-identical to the
    /// non-federated exporter.
    pub fn export_jsonl(&self) -> String {
        let segments: Vec<_> = self
            .logs
            .iter()
            .zip(&self.sims)
            .map(|(log, sim)| (log, Some(sim.trace())))
            .collect();
        canely::obs::export_segments_string(&segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::NodeSet;

    fn fed(segments: u8, nodes: u8) -> FederationSim {
        let cfg = FederationConfig::new(CanelyConfig::default(), segments, nodes);
        FederationSim::new(&cfg, Some(BitTime::new(4_000)), u64::from, |_| {
            FaultPlan::none()
        })
    }

    /// The view of `subject` that `seg`'s acting representative
    /// installed globally.
    fn installed(sim: &FederationSim, seg: u8, subject: usize) -> NodeSet {
        let rep = sim
            .active_gateway(seg)
            .expect("the segment has a representative");
        let claim = sim.node_app(seg, rep).installed_views()[subject];
        claim
            .unwrap_or_else(|| panic!("segment {seg} never installed {subject}"))
            .1
    }

    #[test]
    fn bridge_topologies() {
        assert_eq!(BridgeKind::Line.bridges(3), vec![(0, 1), (1, 2)]);
        assert_eq!(BridgeKind::Ring.bridges(3), vec![(0, 1), (1, 2), (0, 2)]);
        assert_eq!(BridgeKind::Ring.bridges(2), vec![(0, 1)]);
        assert!(
            BridgeKind::Ring.bridges(1).is_empty(),
            "one segment, no bridge"
        );
        assert_eq!(BridgeKind::Star.bridges(4), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(BridgeKind::Full.bridges(3).len(), 3);
        assert_eq!(BridgeKind::Full.bridges(4).len(), 6);
    }

    #[test]
    fn quiet_federation_installs_every_segment_view_everywhere() {
        let mut sim = fed(3, 4);
        sim.run_until(BitTime::new(300_000));
        let expected = NodeSet::first_n(4);
        for seg in 0..3 {
            for subject in 0..3 {
                let view = installed(&sim, seg, subject);
                assert_eq!(view, expected, "segment {seg}, subject {subject}");
            }
        }
    }

    #[test]
    fn segment_crash_updates_the_global_view() {
        let mut sim = fed(3, 4);
        // Crash a non-gateway node of segment 1.
        sim.sim_mut(1)
            .schedule_crash(NodeId::new(2), BitTime::new(150_000));
        sim.run_until(BitTime::new(400_000));
        let full = NodeSet::first_n(4);
        let reduced = full - NodeSet::singleton(NodeId::new(2));
        for seg in 0..3 {
            assert_eq!(installed(&sim, seg, 0), full, "segment {seg} about 0");
            assert_eq!(installed(&sim, seg, 1), reduced, "segment {seg} about 1");
            assert_eq!(installed(&sim, seg, 2), full, "segment {seg} about 2");
        }
    }

    #[test]
    fn healed_partition_converges() {
        let mut sim = fed(3, 4);
        sim.schedule_partition(BitTime::new(100_000), BitTime::new(180_000));
        sim.sim_mut(1)
            .schedule_crash(NodeId::new(3), BitTime::new(120_000));
        sim.run_until(BitTime::new(450_000));
        let reduced = NodeSet::first_n(4) - NodeSet::singleton(NodeId::new(3));
        for seg in 0..3 {
            assert_eq!(
                installed(&sim, seg, 1),
                reduced,
                "segment {seg} must learn the post-partition view of 1"
            );
        }
    }

    #[test]
    fn crashed_gateway_hands_over_and_the_segment_rejoins() {
        // Pre-failover, a gateway crash silently amputated its segment
        // from the global view; now the successor (lowest live id)
        // promotes itself and re-announces the post-crash view.
        let mut sim = fed(4, 4);
        sim.schedule_gateway_crash(2, BitTime::new(150_000));
        // A later change in segment 2 IS reported — by the successor.
        sim.sim_mut(2)
            .schedule_crash(NodeId::new(3), BitTime::new(300_000));
        sim.run_until(BitTime::new(600_000));
        let promoted = sim
            .active_gateway(2)
            .expect("segment 2 must elect a successor");
        assert_eq!(promoted, NodeId::new(1), "lowest surviving id takes over");
        assert_eq!(
            sim.node_app(2, promoted).role(),
            GatewayRole::Active {
                rejoin_pending: None
            },
            "the promoted gateway must see its own segment re-converge"
        );
        let expect_2 = NodeSet::first_n(4)
            - NodeSet::singleton(NodeId::new(0))
            - NodeSet::singleton(NodeId::new(3));
        for seg in [0u8, 1, 3] {
            assert_eq!(
                installed(&sim, seg, 2),
                expect_2,
                "segment {seg} must install 2's post-failover view"
            );
        }
    }

    #[test]
    fn restarted_gateway_stays_standby_under_the_successor() {
        let mut sim = fed(3, 4);
        sim.schedule_gateway_crash(1, BitTime::new(120_000));
        sim.schedule_gateway_restart(1, BitTime::new(250_000));
        sim.run_until(BitTime::new(700_000));
        // The configured gateway (node 0) is back and alive, but the
        // promoted successor keeps the role: ranking only runs when a
        // leader is expelled, and the reboot came back leaderless.
        assert!(sim.sim(1).alive().contains(NodeId::new(0)));
        let active = sim
            .active_gateway(1)
            .expect("segment 1 has a representative");
        assert_eq!(active, NodeId::new(1), "no failback to the restarted node");
        let leader = Some(NodeId::new(1));
        let restarted = sim.node_app(1, NodeId::new(0)).role();
        assert_eq!(restarted, GatewayRole::Standby { leader });
        // The rejoined member reappears in the globally installed view.
        let full = NodeSet::first_n(4);
        for seg in 0..3 {
            assert_eq!(
                installed(&sim, seg, 1),
                full,
                "segment {seg} must see the restarted member again"
            );
        }
    }

    #[test]
    fn failover_survives_a_concurrent_partition() {
        // The retry/backoff queue carries the handover digests across
        // a partition window that overlaps the failover.
        let mut sim = fed(3, 4);
        sim.schedule_gateway_crash(2, BitTime::new(120_000));
        sim.schedule_partition(BitTime::new(130_000), BitTime::new(220_000));
        sim.run_until(BitTime::new(700_000));
        let reduced = NodeSet::first_n(4) - NodeSet::singleton(NodeId::new(0));
        for seg in 0..3 {
            assert_eq!(
                installed(&sim, seg, 2),
                reduced,
                "segment {seg} must converge on 2's post-crash view"
            );
        }
        assert_eq!(
            sim.bridges.healthy(),
            6,
            "every direction of the 3-ring reports healthy after the window heals"
        );
    }

    #[test]
    fn single_segment_export_has_no_seg_field() {
        let mut sim = fed(1, 3);
        sim.run_until(BitTime::new(150_000));
        let export = sim.export_jsonl();
        assert!(!export.is_empty());
        assert!(!export.contains("\"seg\":"));
    }

    #[test]
    fn federated_export_is_seg_tagged_and_deterministic() {
        let run = || {
            let mut sim = fed(2, 3);
            sim.run_until(BitTime::new(200_000));
            sim.export_jsonl()
        };
        let export = run();
        assert!(export.contains("\"seg\":0"));
        assert!(export.contains("\"seg\":1"));
        for line in export.lines() {
            assert!(
                line.starts_with("{\"t\":") && line.contains("\"seg\":"),
                "line not seg-tagged: {line}"
            );
        }
        assert_eq!(export, run(), "federated runs must be deterministic");
    }
}
