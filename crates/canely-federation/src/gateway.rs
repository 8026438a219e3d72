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

use crate::election::{GatewayRole, RoleInput, RoleOutput};
use crate::FederationConfig;
use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeSet, Payload};
use canely::obs::ProtocolEvent;
use canely::tags::{digest_mid, digest_mid_segments, TimerOwner, MAX_SEGMENTS};
use canely::{CanelyStack, DetectorMetrics};
use canely_metrics::Counter;

/// Which non-control data frames a gateway relays across its bridges.
///
/// Membership control traffic (every remote-frame micro-protocol plus
/// RHA data frames) is categorically excluded — the filter only
/// selects among [`MsgType::AppData`] frames. Digest frames are the
/// federation's own control plane and always cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayFilter {
    /// Relay nothing but the digest control plane.
    None,
    /// Relay every application data frame.
    All,
    /// Relay only app frames whose mid `reference` is strictly below
    /// the bound (the "ID-filtered subset": low references name the
    /// segment-spanning streams).
    Below(u16),
}

impl RelayFilter {
    /// Whether an application frame with this mid crosses the bridge.
    /// Digest frames are decided separately (they always cross).
    fn passes(self, mid: Mid) -> bool {
        mid.msg_type() == MsgType::AppData
            && match self {
                RelayFilter::None => false,
                RelayFilter::All => true,
                RelayFilter::Below(bound) => mid.reference() < bound,
            }
    }
}

/// A data frame in flight across a bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The digest gossip period of an active gateway.
pub const DIGEST_PERIOD: BitTime = BitTime::new(10_000);

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
    /// Frames queued for every bridge of this segment.
    outbox: Vec<(Mid, Payload)>,
    /// The role machine ([`crate::election`]); this type carries out
    /// its outputs.
    role: GatewayRole,
    /// Whether a digest gossip alarm is pending — promotion after a
    /// demotion must not stack a second one.
    digest_timer_armed: bool,
    /// Install history for the oracle's rejoin-latency check.
    install_log: Vec<InstallRecord>,
    /// Promotions performed by this node (live telemetry).
    elections: Counter,
    /// Rejoin convergences observed by this node (live telemetry).
    rejoins: Counter,
}

impl Gateway {
    /// A gateway for segment `seg` of the federation `fed`, wrapping
    /// the node's fully configured `stack`, starting in `role`. Gateway
    /// events go to the stack's own observability sink.
    ///
    /// # Panics
    ///
    /// Panics unless `seg < fed.segments`: the harness builds one
    /// gateway per segment of a shape [`FederationConfig::new`] checked.
    pub fn new(stack: CanelyStack, seg: u8, fed: &FederationConfig, role: GatewayRole) -> Self {
        let (segments, filter) = (fed.segments, fed.filter);
        assert!(
            seg < segments && usize::from(segments) <= MAX_SEGMENTS,
            "segment {seg} of {segments}: FederationConfig::new refuses the shape"
        );
        Gateway {
            stack,
            seg,
            segments,
            filter,
            last_view: NodeSet::EMPTY,
            claims: [[None; MAX_SEGMENTS]; MAX_SEGMENTS],
            installed: [None; MAX_SEGMENTS],
            relayed: [[0; MAX_SEGMENTS]; MAX_SEGMENTS],
            outbox: Vec::new(),
            role,
            digest_timer_armed: false,
            install_log: Vec::new(),
            elections: Counter::default(),
            rejoins: Counter::default(),
        }
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

    /// The wrapped per-segment stack.
    pub fn stack(&self) -> &CanelyStack {
        &self.stack
    }

    /// The current role.
    pub fn role(&self) -> GatewayRole {
        self.role
    }

    /// Every global-view install this node decided, in order.
    pub fn install_log(&self) -> &[InstallRecord] {
        &self.install_log
    }

    /// All installed views, indexed by subject segment.
    pub fn installed_views(&self) -> Vec<Option<Claim>> {
        self.installed[..self.segments as usize].to_vec()
    }

    /// Drains the frames queued for bridge relay.
    pub fn take_outbox(&mut self) -> Vec<(Mid, Payload)> {
        std::mem::take(&mut self.outbox)
    }

    /// Re-broadcasts a frame that arrived over a bridge onto the local
    /// bus. The mid's node field is rewritten to the gateway's own id:
    /// relayed traffic must act as an implicit heartbeat of the relay
    /// that actually transmitted it here, never of a foreign node that
    /// happens to share a local id.
    pub fn inject(&mut self, ctx: &mut Ctx<'_>, frame: &BridgeFrame) {
        let mid = Mid::new(frame.mid.msg_type(), frame.mid.reference(), ctx.me());
        let from_seg = frame.from_seg;
        self.stack.obs().clear_cause();
        self.emit(ctx, ProtocolEvent::FedRelay { mid, from_seg });
        ctx.can_data_req(mid, frame.payload);
    }

    /// Emits a federation event from this node at the current instant.
    fn emit(&self, ctx: &Ctx<'_>, event: ProtocolEvent) {
        self.stack.obs().emit(ctx.now(), ctx.me(), event);
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
        let reporters = || 0..self.segments as usize;
        let candidate = reporters()
            .filter_map(|r| self.claims[r][s])
            .max_by_key(|c| c.0);
        let Some(candidate @ (epoch, view)) = candidate else {
            return;
        };
        let votes = reporters().filter(|&r| self.claims[r][s] == Some(candidate));
        if votes.count() < quorum(self.segments as usize)
            || self.installed[s].is_some_and(|(installed, _)| installed >= epoch)
        {
            return;
        }
        self.installed[s] = Some(candidate);
        let at = ctx.now();
        let record = InstallRecord {
            subject,
            epoch,
            view,
            at,
        };
        self.install_log.push(record);
        if !self.role.is_active() {
            return;
        }
        self.emit(
            ctx,
            ProtocolEvent::FedInstall {
                subject,
                epoch,
                view,
            },
        );
        let reached = RoleInput::InstallReached { epoch };
        if subject == self.seg
            && self
                .role
                .step(ctx.me(), self.own_epoch(), reached)
                .is_some()
        {
            self.rejoins.inc();
            self.emit(ctx, ProtocolEvent::FedRejoin { subject, epoch });
        }
    }

    /// The highest own-segment epoch this node holds.
    fn own_epoch(&self) -> u32 {
        let s = self.seg as usize;
        self.claims[s][s].map_or(0, |(epoch, _)| epoch)
    }

    /// Reacts to a digest frame observed on the local bus: adopt,
    /// endorse, re-check the install rule, and queue the frame for
    /// onward flooding if it was news. Standbys run the same table
    /// updates *silently* — no event, no outbox — which is what makes
    /// a later promotion warm; an own-segment digest also feeds the
    /// role machine (see [`crate::election`]).
    fn on_digest(&mut self, ctx: &mut Ctx<'_>, mid: Mid, payload: &Payload) {
        let decoded = digest_mid_segments(mid).zip(decode_digest(payload));
        let Some(((reporter, subject), claim @ (epoch, view))) = decoded else {
            return;
        };
        if reporter >= self.segments || subject >= self.segments {
            return;
        }
        if (reporter, subject) == (self.seg, self.seg) {
            let (me, transmitter) = (ctx.me(), mid.node());
            let heard = RoleInput::DigestHeard { transmitter, epoch };
            if self.role.step(me, self.own_epoch(), heard) == Some(RoleOutput::Demote) {
                // A demoted relay must never ship frames queued under
                // its deposed tenure.
                self.outbox.clear();
            }
        }
        let active = self.role.is_active();
        if self.adopt(reporter, subject, claim) {
            if active {
                let event = ProtocolEvent::FedDigest {
                    reporter,
                    subject,
                    epoch,
                    view,
                };
                self.emit(ctx, event);
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
        if epoch > *seen {
            *seen = epoch;
            if active {
                self.outbox.push((mid, *payload));
            }
        }
    }

    /// Feeds a change of the wrapped stack's view to the role machine
    /// after a delegated callback: a standby may promote; the active
    /// gateway announces the new view under a bumped epoch.
    fn after_stack(&mut self, ctx: &mut Ctx<'_>) {
        let view = self.stack.view();
        if view == self.last_view {
            return;
        }
        let prev = std::mem::replace(&mut self.last_view, view);
        let known = self.own_epoch();
        let installed = RoleInput::ViewInstalled { prev, view };
        match self.role.step(ctx.me(), known, installed) {
            Some(RoleOutput::Promote { expelled, epoch }) => {
                self.elections.inc();
                let leader = expelled;
                self.emit(ctx, ProtocolEvent::FedElect { leader, epoch });
                self.announce(ctx, epoch);
                // Re-announce at once (gossip also arms the digest
                // timer the standby never carried).
                self.on_gossip_tick(ctx);
            }
            _ if self.role.is_active() => self.announce(ctx, known + 1),
            _ => {}
        }
    }

    /// Claims the current view for the own segment under `epoch`.
    fn announce(&mut self, ctx: &mut Ctx<'_>, epoch: u32) {
        let (seg, view) = (self.seg, self.last_view);
        self.claims[seg as usize][seg as usize] = Some((epoch, view));
        let (reporter, subject) = (seg, seg);
        let event = ProtocolEvent::FedDigest {
            reporter,
            subject,
            epoch,
            view,
        };
        self.emit(ctx, event);
        self.try_install(ctx, seg);
    }

    /// Gossip tick: broadcast every claim of the own row as a digest
    /// data frame on the local bus *and* queue it for the bridges,
    /// then re-arm. The unconditional bridge copy is the anti-entropy
    /// that repairs loss: a digest dropped inside a partition window
    /// re-crosses on the first tick after heal, while the `relayed`
    /// dedup still keeps the reactive flood from echoing stale claims.
    fn on_gossip_tick(&mut self, ctx: &mut Ctx<'_>) {
        let seg = self.seg as usize;
        for subject in 0..self.segments {
            if let Some(claim) = self.claims[seg][subject as usize] {
                let mid = digest_mid(self.seg, subject, ctx.me());
                let payload = encode_digest(claim);
                ctx.can_data_req(mid, payload);
                self.outbox.push((mid, payload));
                let seen = &mut self.relayed[seg][subject as usize];
                *seen = (*seen).max(claim.0);
            }
        }
        self.arm_digest_timer(ctx);
    }

    /// Arms the gossip alarm unless one is already pending.
    fn arm_digest_timer(&mut self, ctx: &mut Ctx<'_>) {
        if !self.digest_timer_armed {
            self.digest_timer_armed = true;
            ctx.start_alarm(DIGEST_PERIOD, TimerOwner::FederationDigest.encode());
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
    Payload::from(bytes)
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
        if self.role.is_active() {
            self.after_stack(ctx);
            self.arm_digest_timer(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        self.stack.on_event(ctx, event);
        self.after_stack(ctx);
        if let DriverEvent::DataInd { mid, payload } = event {
            if mid.msg_type() == MsgType::Digest {
                self.on_digest(ctx, *mid, payload);
            } else if self.role.is_active() && self.filter.passes(*mid) && mid.node() != ctx.me() {
                // Own transmissions never cross: the gateway's
                // injections would otherwise ping-pong between
                // segments forever. App relay is thus single-hop,
                // neighbour-to-neighbour; the digest plane floods.
                self.outbox.push((*mid, *payload));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        if TimerOwner::decode(tag) == Some(TimerOwner::FederationDigest) {
            self.digest_timer_armed = false;
            // A timer armed before a demotion is swallowed un-rearmed:
            // only the active gateway gossips.
            if self.role.is_active() {
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
    use can_controller::Rig;
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
        let app = Mid::new(MsgType::AppData, 3, NodeId::new(1));
        assert!(RelayFilter::All.passes(app));
        for control in [
            Mid::new(MsgType::Els, 0, NodeId::new(1)),
            Mid::new(MsgType::Fda, 0, NodeId::new(1)),
            Mid::new(MsgType::Rha, 0, NodeId::new(1)),
            Mid::new(MsgType::Join, 0, NodeId::new(1)),
        ] {
            assert!(!RelayFilter::All.passes(control));
            assert!(!RelayFilter::Below(u16::MAX).passes(control));
        }
        assert!(!RelayFilter::None.passes(app));
        assert!(RelayFilter::Below(4).passes(app));
        assert!(!RelayFilter::Below(3).passes(app));
    }

    #[test]
    fn demotion_clears_the_bridge_outbox() {
        // Regression for the drains-but-drops hole: a gateway that
        // yields the active role must not leave frames queued under
        // its deposed tenure for the pump to ship (or leak) later.
        let config = CanelyConfig::default();
        let fed = FederationConfig::new(config.clone(), 4, 4);
        let rejoin_pending = None;
        let active = GatewayRole::Active { rejoin_pending };
        let mut gw = Gateway::new(CanelyStack::new(config), 0, &fed, active);
        let payload = Payload::from_slice(&[1, 2, 3]).unwrap();
        gw.outbox
            .push((Mid::new(MsgType::AppData, 1, NodeId::new(3)), payload));
        // Node 2 announces the own segment under a fresher epoch.
        let rival = digest_mid(0, 0, NodeId::new(2));
        let claim = encode_digest((1, NodeSet::first_n(4)));
        Rig::new(0).ctx(|ctx| gw.on_digest(ctx, rival, &claim));
        assert!(gw.outbox.is_empty(), "demotion must void the outbox");
        let leader = Some(NodeId::new(2));
        assert_eq!(gw.role(), GatewayRole::Standby { leader });
    }
}
