//! The gateway node: a CANELy stack plus the federation layer.
//!
//! A gateway is an ordinary member of its segment — it runs the
//! unmodified [`CanelyStack`] and is detected, expelled and agreed
//! upon exactly like any other node — that *additionally* acts as the
//! segment's representative in the hierarchical membership protocol
//! and as the frame relay of its inter-segment bridges:
//!
//! * **Representative.** Whenever the local stack installs a new
//!   segment view, the gateway bumps the segment's *epoch* and gossips
//!   the `(epoch, view)` digest. Digests are broadcast periodically on
//!   the local bus as [`MsgType::Digest`] data frames (so they appear
//!   in the trace, and double as implicit heartbeats of the gateway)
//!   and relayed across every bridge. On learning a fresher digest
//!   about any segment, a representative *endorses* it — re-stamps it
//!   with its own reporter id — so agreement is observable: a segment
//!   view is only installed into the global view once a quorum
//!   (`⌊K/2⌋ + 1` of `K` representatives) report byte-identical
//!   digests for it. This is the Rapid-style stable-cut rule: no
//!   single representative's observation can flip the global view.
//! * **Relay.** Data frames passing the configured [`RelayFilter`]
//!   are shipped over the bridges and re-broadcast on the peer
//!   segment's bus with the relaying gateway's own node id — the
//!   membership micro-protocols (ELS/FDA/RHA/JOIN/LEAVE/PING) are
//!   *never* relayed, which is what keeps every segment an unmodified
//!   single-bus CANELy world.
//!
//! Since the self-healing rework the gateway is a *role*, not a node:
//! every member of a federated segment runs this wrapper, in one of
//! the two [`GatewayRole`]s. The configured gateway starts `Active`;
//! everyone else is a `Standby` that silently mirrors the digest
//! tables and promotes itself (see [`crate::election`]) when the
//! segment's membership expels the acting gateway.
//!
//! A gateway exists only where a bridge does: a single-segment world
//! has nothing to represent or relay, so [`crate::FederationSim`]
//! hosts bare [`CanelyStack`]s there and never builds this wrapper.

use crate::election::{successor, GatewayRole};
use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};
use canely::obs::ProtocolEvent;
use canely::tags::{digest_mid, digest_mid_segments, TimerOwner, MAX_SEGMENTS};
use canely::{CanelyStack, DetectorMetrics};
use canely_metrics::Counter;

/// Which non-control data frames a gateway relays across its bridges.
///
/// Membership control traffic (every remote-frame micro-protocol plus
/// RHA data frames) is categorically excluded — the filter only
/// selects among application frames. Digest frames are the
/// federation's own control plane and always cross.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayFilter {
    /// Relay [`MsgType::AppData`] frames.
    pub app_data: bool,
    /// If set, only app frames whose mid `reference` is strictly below
    /// this bound are relayed (the "ID-filtered subset": low
    /// references name the segment-spanning streams).
    pub reference_below: Option<u16>,
}

impl RelayFilter {
    /// Relay nothing but the digest control plane.
    pub fn none() -> Self {
        RelayFilter {
            app_data: false,
            reference_below: None,
        }
    }

    /// Relay every application data frame.
    pub fn pass_through() -> Self {
        RelayFilter {
            app_data: true,
            reference_below: None,
        }
    }

    /// Relay only app frames with `reference < bound`.
    pub fn app_below(bound: u16) -> Self {
        RelayFilter {
            app_data: true,
            reference_below: Some(bound),
        }
    }

    /// Whether an application frame with this mid crosses the bridge.
    /// Digest frames are decided separately (they always cross).
    fn passes(&self, mid: Mid) -> bool {
        if mid.msg_type() != MsgType::AppData || !self.app_data {
            return false;
        }
        self.reference_below
            .is_none_or(|bound| mid.reference() < bound)
    }
}

/// A data frame in flight across a bridge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeFrame {
    /// The frame's mid as captured on the originating bus.
    pub mid: Mid,
    /// The frame payload.
    pub payload: Payload,
    /// Segment the frame was captured in.
    pub from_seg: u8,
}

/// One digest claim: what some representative reports a segment's
/// membership to be.
pub type Claim = (u32, NodeSet);

/// The number of consistent reporters required to install a segment
/// digest globally.
pub fn quorum(segments: usize) -> usize {
    segments / 2 + 1
}

/// One global-view install decision, kept as a small in-memory log so
/// the campaign oracle can check *when* a segment's view (re)converged
/// — installs are rare (one per view change per subject), so the log
/// stays a handful of entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallRecord {
    /// Segment the installed view describes.
    pub subject: u8,
    /// Installed epoch.
    pub epoch: u32,
    /// Installed segment view.
    pub view: NodeSet,
    /// Instant of the install decision.
    pub at: BitTime,
}

/// A segment representative: the unmodified per-segment CANELy stack
/// composed with digest gossip, stable-cut view installation and the
/// bridge relay (see the module docs).
#[derive(Debug)]
pub struct Gateway {
    stack: CanelyStack,
    seg: u8,
    segments: u8,
    filter: RelayFilter,
    digest_period: BitTime,
    last_view: NodeSet,
    /// `claims[reporter][subject]`; own row doubles as "what I will
    /// gossip next tick".
    claims: [[Option<Claim>; MAX_SEGMENTS]; MAX_SEGMENTS],
    /// Globally installed views, per subject segment.
    installed: [Option<Claim>; MAX_SEGMENTS],
    /// Highest epoch relayed onward per `(reporter, subject)` — the
    /// flood-dedup that terminates digest propagation on cyclic
    /// topologies.
    relayed: [[u32; MAX_SEGMENTS]; MAX_SEGMENTS],
    outbox: Vec<BridgeFrame>,
    /// Whether this node currently acts as the segment representative.
    role: GatewayRole,
    /// Whether a digest gossip alarm is pending — promotion after a
    /// demotion must not stack a second one.
    digest_timer_armed: bool,
    /// The node this gateway believes holds the active role; `None`
    /// until the next own-segment digest names one (or when active).
    leader: Option<NodeId>,
    /// Set at promotion to the announced epoch; cleared — with a
    /// `fed.rejoin` event — once the own-segment install catches up.
    rejoin_pending: Option<u32>,
    /// Install history for the oracle's rejoin-latency check.
    install_log: Vec<InstallRecord>,
    /// Promotions performed by this node (live telemetry).
    elections: Counter,
    /// Rejoin convergences observed by this node (live telemetry).
    rejoins: Counter,
}

impl Gateway {
    /// A gateway for segment `seg` of a `segments`-wide federation,
    /// wrapping the node's fully configured `stack`. Gateway events go
    /// to the stack's own observability sink.
    ///
    /// # Panics
    ///
    /// Panics if `seg >= segments` or `segments` exceeds
    /// [`MAX_SEGMENTS`].
    pub fn new(stack: CanelyStack, seg: u8, segments: u8, filter: RelayFilter) -> Self {
        assert!((segments as usize) <= MAX_SEGMENTS, "too many segments");
        assert!(seg < segments, "segment index out of range");
        Gateway {
            stack,
            seg,
            segments,
            filter,
            digest_period: BitTime::new(10_000),
            last_view: NodeSet::EMPTY,
            claims: [[None; MAX_SEGMENTS]; MAX_SEGMENTS],
            installed: [None; MAX_SEGMENTS],
            relayed: [[0; MAX_SEGMENTS]; MAX_SEGMENTS],
            outbox: Vec::new(),
            role: GatewayRole::Active,
            digest_timer_armed: false,
            leader: None,
            rejoin_pending: None,
            install_log: Vec::new(),
            elections: Counter::default(),
            rejoins: Counter::default(),
        }
    }

    /// Sets the starting role (the constructor default is `Active`,
    /// matching the configured gateway; every other member of a
    /// federated segment starts `Standby`).
    pub fn with_role(mut self, role: GatewayRole) -> Self {
        self.role = role;
        self
    }

    /// Seeds the standby's belief about who currently holds the active
    /// role — the configured gateway at construction time. A restarted
    /// former gateway is built with no leader: it only learns the
    /// promoted successor from its digests, so it can never trigger an
    /// election against it.
    pub fn with_leader(mut self, leader: Option<NodeId>) -> Self {
        self.leader = leader;
        self
    }

    /// Installs the federation-level election/rejoin counters (shared
    /// registry cells; the defaults are disabled).
    pub fn set_fed_counters(&mut self, elections: Counter, rejoins: Counter) {
        self.elections = elections;
        self.rejoins = rejoins;
    }

    /// Installs the failure-detector counters on the wrapped stack.
    pub fn set_detector_metrics(&mut self, metrics: DetectorMetrics) {
        self.stack.set_detector_metrics(metrics);
    }

    /// Overrides the digest gossip period (default 10 ms).
    pub fn with_digest_period(mut self, period: BitTime) -> Self {
        assert!(!period.is_zero(), "digest period must be positive");
        self.digest_period = period;
        self
    }

    /// The wrapped per-segment stack.
    pub fn stack(&self) -> &CanelyStack {
        &self.stack
    }

    /// This gateway's segment index.
    pub fn segment(&self) -> u8 {
        self.seg
    }

    /// The current role.
    pub fn role(&self) -> GatewayRole {
        self.role
    }

    /// Whether this node currently acts as the segment representative.
    pub fn is_active(&self) -> bool {
        self.role == GatewayRole::Active
    }

    /// Who this gateway believes holds the active role (standbys only;
    /// `None` while unknown or while active itself).
    pub fn leader(&self) -> Option<NodeId> {
        self.leader
    }

    /// The promotion epoch still awaiting global convergence, if any.
    pub fn rejoin_pending(&self) -> Option<u32> {
        self.rejoin_pending
    }

    /// Every global-view install this node decided, in order.
    pub fn install_log(&self) -> &[InstallRecord] {
        &self.install_log
    }

    /// Test/diagnostic access: how many frames sit in the bridge
    /// outbox right now.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// The globally installed view of one subject segment, if a quorum
    /// ever agreed on it.
    pub fn installed(&self, subject: u8) -> Option<Claim> {
        self.installed[subject as usize]
    }

    /// All installed views, indexed by subject segment.
    pub fn installed_views(&self) -> Vec<Option<Claim>> {
        self.installed[..self.segments as usize].to_vec()
    }

    /// Drains the frames queued for bridge relay.
    pub fn take_outbox(&mut self) -> Vec<BridgeFrame> {
        std::mem::take(&mut self.outbox)
    }

    /// Re-broadcasts a frame that arrived over a bridge onto the local
    /// bus. The mid's node field is rewritten to the gateway's own id:
    /// relayed traffic must act as an implicit heartbeat of the relay
    /// that actually transmitted it here, never of a foreign node that
    /// happens to share a local id.
    pub fn inject(&mut self, ctx: &mut Ctx<'_>, frame: &BridgeFrame) {
        let mid = Mid::new(frame.mid.msg_type(), frame.mid.reference(), ctx.me());
        self.stack.obs().clear_cause();
        self.stack.obs().emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FedRelay {
                mid,
                from_seg: frame.from_seg,
            },
        );
        ctx.can_data_req(mid, frame.payload);
    }

    /// Adopts a digest claim into the table; returns `true` if it was
    /// fresher than what the table held for `(reporter, subject)`.
    fn adopt(&mut self, reporter: u8, subject: u8, claim: Claim) -> bool {
        let slot = &mut self.claims[reporter as usize][subject as usize];
        if slot.is_some_and(|(epoch, _)| epoch >= claim.0) {
            return false;
        }
        *slot = Some(claim);
        true
    }

    /// Re-evaluates the stable-cut install rule for one subject: the
    /// highest-epoch claim wins once a quorum of distinct reporters
    /// carry it byte-identically. Standbys install silently (warm
    /// state, no event); the active gateway announces the install and,
    /// if it was awaiting its own promotion epoch, the rejoin.
    fn try_install(&mut self, ctx: &mut Ctx<'_>, subject: u8) {
        let s = subject as usize;
        let candidate = (0..self.segments as usize)
            .filter_map(|r| self.claims[r][s])
            .max_by_key(|&(epoch, _)| epoch);
        let Some(candidate) = candidate else { return };
        let votes = (0..self.segments as usize)
            .filter(|&r| self.claims[r][s] == Some(candidate))
            .count();
        if votes < quorum(self.segments as usize) {
            return;
        }
        if self.installed[s].is_some_and(|(epoch, _)| epoch >= candidate.0) {
            return;
        }
        self.installed[s] = Some(candidate);
        self.install_log.push(InstallRecord {
            subject,
            epoch: candidate.0,
            view: candidate.1,
            at: ctx.now(),
        });
        if self.role != GatewayRole::Active {
            return;
        }
        self.stack.obs().emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FedInstall {
                subject,
                epoch: candidate.0,
                view: candidate.1,
            },
        );
        if subject == self.seg {
            if let Some(pending) = self.rejoin_pending {
                if candidate.0 >= pending {
                    self.rejoin_pending = None;
                    self.rejoins.inc();
                    self.stack.obs().emit(
                        ctx.now(),
                        ctx.me(),
                        ProtocolEvent::FedRejoin {
                            subject,
                            epoch: candidate.0,
                        },
                    );
                }
            }
        }
    }

    /// Reacts to a digest frame observed on the local bus: adopt,
    /// endorse, re-check the install rule, and queue the frame for
    /// onward flooding if it was news. Standbys run the same table
    /// updates *silently* — no event, no outbox — which is what makes
    /// a later promotion warm; they additionally track the digest's
    /// transmitter as the acting leader. An active gateway that hears
    /// a rival own-segment announcement under a fresher epoch yields
    /// (see [`crate::election`]).
    fn on_digest(&mut self, ctx: &mut Ctx<'_>, mid: Mid, payload: &Payload) {
        let Some((reporter, subject)) = digest_mid_segments(mid) else {
            return;
        };
        let Some(claim) = decode_digest(payload) else {
            return;
        };
        if reporter >= self.segments || subject >= self.segments {
            return;
        }
        // Election bookkeeping: an own-segment digest from another
        // local transmitter names that transmitter as the acting
        // representative of this segment.
        if reporter == self.seg && subject == self.seg && mid.node() != ctx.me() {
            let transmitter = mid.node();
            let known = self.claims[self.seg as usize][self.seg as usize].map_or(0, |(e, _)| e);
            match self.role {
                GatewayRole::Standby if claim.0 >= known => {
                    self.leader = Some(transmitter);
                }
                GatewayRole::Active
                    if claim.0 > known
                        || (claim.0 == known && transmitter.as_u8() < ctx.me().as_u8()) =>
                {
                    self.demote(transmitter);
                }
                _ => {}
            }
        }
        let fresh = self.adopt(reporter, subject, claim);
        if fresh {
            if self.role == GatewayRole::Active {
                self.stack.obs().emit(
                    ctx.now(),
                    ctx.me(),
                    ProtocolEvent::FedDigest {
                        reporter,
                        subject,
                        epoch: claim.0,
                        view: claim.1,
                    },
                );
            }
            // Endorse: our own row now carries the freshest claim we
            // know for this subject, so the next gossip tick spreads
            // it under our reporter stamp — that is what makes the
            // quorum count *distinct* representatives.
            if subject != self.seg {
                self.adopt(self.seg, subject, claim);
            }
            self.try_install(ctx, subject);
        }
        // Flood-relay digest frames that carry news for some bridge
        // peer: anything fresher than what we relayed before. Standbys
        // only advance the dedup watermark, so a promotion does not
        // re-flood claims the old gateway already spread.
        let seen = &mut self.relayed[reporter as usize][subject as usize];
        if claim.0 > *seen {
            *seen = claim.0;
            if self.role == GatewayRole::Active {
                self.outbox.push(BridgeFrame {
                    mid,
                    payload: *payload,
                    from_seg: self.seg,
                });
            }
        }
    }

    /// Reacts to the wrapped stack's view after a delegated callback,
    /// according to role: the active gateway announces view changes
    /// ([`Gateway::track_view`]); a standby watches for the expulsion
    /// of the acting gateway ([`Gateway::observe_view`]).
    fn after_stack(&mut self, ctx: &mut Ctx<'_>) {
        match self.role {
            GatewayRole::Active => self.track_view(ctx),
            GatewayRole::Standby => self.observe_view(ctx),
        }
    }

    /// Tracks the wrapped stack's view after a delegated callback: a
    /// change bumps the segment epoch and refreshes the own-segment
    /// claim.
    fn track_view(&mut self, ctx: &mut Ctx<'_>) {
        let view = self.stack.view();
        if view == self.last_view {
            return;
        }
        self.last_view = view;
        let epoch = self.claims[self.seg as usize][self.seg as usize]
            .map_or(0, |(e, _)| e)
            + 1;
        self.claims[self.seg as usize][self.seg as usize] = Some((epoch, view));
        self.stack.obs().emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FedDigest {
                reporter: self.seg,
                subject: self.seg,
                epoch,
                view,
            },
        );
        self.try_install(ctx, self.seg);
    }

    /// Standby view tracking: when the installed view expels the node
    /// believed to hold the active role, the deterministic successor
    /// (lowest live id) promotes itself; every other survivor forgets
    /// the leader and waits for the successor's first digest.
    fn observe_view(&mut self, ctx: &mut Ctx<'_>) {
        let view = self.stack.view();
        if view == self.last_view {
            return;
        }
        let prev = self.last_view;
        self.last_view = view;
        let Some(leader) = self.leader else { return };
        if !prev.contains(leader) || view.contains(leader) {
            return;
        }
        // The membership expelled the acting gateway.
        self.leader = None;
        if view.contains(ctx.me()) && successor(view) == Some(ctx.me()) {
            self.promote(ctx, leader);
        }
    }

    /// Promotion: assume the active role, announce the segment under a
    /// bumped epoch on the local bus and across every bridge, and mark
    /// the rejoin as pending until the stable cut catches up.
    fn promote(&mut self, ctx: &mut Ctx<'_>, expelled: NodeId) {
        self.role = GatewayRole::Active;
        let epoch = self.claims[self.seg as usize][self.seg as usize]
            .map_or(0, |(e, _)| e)
            + 1;
        self.claims[self.seg as usize][self.seg as usize] = Some((epoch, self.last_view));
        self.rejoin_pending = Some(epoch);
        self.elections.inc();
        self.stack.obs().emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FedElect {
                leader: expelled,
                epoch,
            },
        );
        self.stack.obs().emit(
            ctx.now(),
            ctx.me(),
            ProtocolEvent::FedDigest {
                reporter: self.seg,
                subject: self.seg,
                epoch,
                view: self.last_view,
            },
        );
        self.try_install(ctx, self.seg);
        // Re-announce immediately (gossip also arms the digest timer
        // the standby never carried).
        self.on_gossip_tick(ctx);
    }

    /// Demotion: yield the active role to `new_leader`. The bridge
    /// outbox is voided — a demoted relay must never ship frames
    /// queued under its deposed tenure.
    fn demote(&mut self, new_leader: NodeId) {
        self.role = GatewayRole::Standby;
        self.leader = Some(new_leader);
        self.rejoin_pending = None;
        self.outbox.clear();
        debug_assert!(self.outbox.is_empty(), "demotion leaves a stale outbox");
    }

    /// Gossip tick: broadcast every claim of the own row as a digest
    /// data frame on the local bus *and* queue it for the bridges,
    /// then re-arm. The unconditional bridge copy is the anti-entropy
    /// that repairs loss: a digest dropped inside a partition window
    /// re-crosses on the first tick after heal, while the `relayed`
    /// dedup still keeps the reactive flood from echoing stale claims.
    fn on_gossip_tick(&mut self, ctx: &mut Ctx<'_>) {
        for subject in 0..self.segments {
            if let Some(claim) = self.claims[self.seg as usize][subject as usize] {
                let mid = digest_mid(self.seg, subject, ctx.me());
                let payload = encode_digest(claim);
                ctx.can_data_req(mid, payload);
                self.outbox.push(BridgeFrame {
                    mid,
                    payload,
                    from_seg: self.seg,
                });
                let seen = &mut self.relayed[self.seg as usize][subject as usize];
                *seen = (*seen).max(claim.0);
            }
        }
        self.arm_digest_timer(ctx);
    }

    /// Arms the gossip alarm unless one is already pending.
    fn arm_digest_timer(&mut self, ctx: &mut Ctx<'_>) {
        if !self.digest_timer_armed {
            self.digest_timer_armed = true;
            ctx.start_alarm(self.digest_period, TimerOwner::FederationDigest.encode());
        }
    }
}

/// Digest wire payload: view bits (low 32) then epoch, little-endian.
/// Segment populations are capped at 32 nodes so the claim fits one
/// CAN data frame.
fn encode_digest((epoch, view): Claim) -> Payload {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&(view.bits() as u32).to_le_bytes());
    bytes[4..].copy_from_slice(&epoch.to_le_bytes());
    Payload::from_slice(&bytes).expect("8 bytes fit a CAN frame")
}

fn decode_digest(payload: &Payload) -> Option<Claim> {
    let bytes: [u8; 8] = payload.as_slice().try_into().ok()?;
    let view = u64::from(u32::from_le_bytes(bytes[..4].try_into().ok()?));
    let epoch = u32::from_le_bytes(bytes[4..].try_into().ok()?);
    Some((epoch, NodeSet::from_bits(view)))
}

impl Application for Gateway {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.on_start(ctx);
        if self.role == GatewayRole::Active {
            self.track_view(ctx);
            self.arm_digest_timer(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        self.stack.on_event(ctx, event);
        self.after_stack(ctx);
        if let DriverEvent::DataInd { mid, payload } = event {
            if mid.msg_type() == MsgType::Digest {
                self.on_digest(ctx, *mid, payload);
            } else if self.role == GatewayRole::Active
                && self.filter.passes(*mid)
                && mid.node() != ctx.me()
            {
                // Own transmissions never cross: the gateway's
                // injections would otherwise ping-pong between
                // segments forever. App relay is thus single-hop,
                // neighbour-to-neighbour; the digest plane floods.
                self.outbox.push(BridgeFrame {
                    mid: *mid,
                    payload: *payload,
                    from_seg: self.seg,
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        if TimerOwner::decode(tag) == Some(TimerOwner::FederationDigest) {
            self.digest_timer_armed = false;
            // A timer armed before a demotion is swallowed un-rearmed:
            // only the active gateway gossips.
            if self.role == GatewayRole::Active {
                self.on_gossip_tick(ctx);
            }
            return;
        }
        self.stack.on_timer(ctx, id, tag);
        self.after_stack(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::NodeId;
    use canely::CanelyConfig;

    #[test]
    fn digest_payload_round_trips() {
        let claim = (7, NodeSet::from_bits(0b1011));
        assert_eq!(decode_digest(&encode_digest(claim)), Some(claim));
    }

    #[test]
    fn quorum_is_a_majority() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
    }

    #[test]
    fn filter_never_passes_control_traffic() {
        let filter = RelayFilter::pass_through();
        let app = Mid::new(MsgType::AppData, 3, NodeId::new(1));
        assert!(filter.passes(app));
        for control in [
            Mid::new(MsgType::Els, 0, NodeId::new(1)),
            Mid::new(MsgType::Fda, 0, NodeId::new(1)),
            Mid::new(MsgType::Rha, 0, NodeId::new(1)),
            Mid::new(MsgType::Join, 0, NodeId::new(1)),
        ] {
            assert!(!filter.passes(control));
        }
        assert!(!RelayFilter::none().passes(app));
        assert!(RelayFilter::app_below(4).passes(app));
        assert!(!RelayFilter::app_below(3).passes(app));
    }

    #[test]
    fn demotion_clears_the_bridge_outbox() {
        // Regression for the drains-but-drops hole: a gateway that
        // yields the active role must not leave frames queued under
        // its deposed tenure for the pump to ship (or leak) later.
        let stack = CanelyStack::new(CanelyConfig::default());
        let mut gw = Gateway::new(stack, 0, 4, RelayFilter::none());
        assert!(gw.is_active());
        gw.outbox.push(BridgeFrame {
            mid: Mid::new(MsgType::AppData, 1, NodeId::new(3)),
            payload: Payload::from_slice(&[1, 2, 3]).unwrap(),
            from_seg: 0,
        });
        assert_eq!(gw.outbox_len(), 1);
        gw.demote(NodeId::new(2));
        assert_eq!(gw.outbox_len(), 0, "demotion must void the outbox");
        assert!(!gw.is_active());
        assert_eq!(gw.leader(), Some(NodeId::new(2)));
        assert_eq!(gw.rejoin_pending(), None);
    }

    #[test]
    fn promotion_requires_an_expelled_leader() {
        // A standby whose leader is unknown (a restarted former
        // gateway) never ranks itself, whatever the view does.
        let stack = CanelyStack::new(CanelyConfig::default());
        let gw = Gateway::new(stack, 0, 4, RelayFilter::none())
            .with_role(crate::GatewayRole::Standby)
            .with_leader(None);
        assert!(!gw.is_active());
        assert_eq!(gw.leader(), None);
    }
}
