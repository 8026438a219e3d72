//! Stack-wide observability: structured protocol events, a merged
//! machine-readable trace and derived metrics.
//!
//! Every protocol entity of the CANELy stack (failure detection, FDA,
//! RHA, membership) can be handed an [`EventSink`] — a cheap, cloneable
//! handle onto a shared, time-ordered event log ([`ObsLog`]). When no
//! sink is installed the instrumentation is free: emitting degrades to
//! a branch on an empty `Option` and never allocates (verified by an
//! allocation-counting test in the `bench` crate).
//!
//! The building blocks:
//!
//! * [`ProtocolEvent`] — one structured record per protocol-visible
//!   occurrence: timer arm/expiry, life-sign tx/rx, FDA invocation /
//!   sign exchange / delivery, RHV snapshots and agreement, membership
//!   cycles and view installs, plus externally recorded node crash /
//!   restart markers.
//! * [`ObsLog`] / [`EventSink`] — the shared log and the per-entity
//!   handle. All nodes of a simulation share **one** log, so a single
//!   export captures the whole run.
//! * [`ObsLog::write_jsonl`] — writes the protocol events, merged
//!   with the bus-level [`BusTrace`], to an `io::Write` as one
//!   time-ordered JSON-Lines document (schema: `docs/TRACE_SCHEMA.md`),
//!   record by record; [`ObsLog::export_jsonl`] is its `String` form.
//! * [`Snapshot`] — metrics derived by folding over the event log:
//!   per-node and global event counts by kind plus latency histograms
//!   (failure-detection and view-change latency, both from
//!   [`latency_samples`]; RHA broadcasts per agreement) and bus
//!   utilization.
//!
//! The event log is the single source of truth: metrics are *derived*
//! from it, never counted separately, so the numbers reported by the
//! CLI and the benches are exactly the numbers visible in the trace.

use can_bus::{BusStats, BusTrace, TxRecord};
use can_types::{BitTime, Mid, NodeId, NodeSet, MAX_NODES};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::io::{self, Write};
use std::rc::Rc;

/// Protocol timers visible in the trace (the application-traffic and
/// scripting alarms of the harness are deliberately excluded — they
/// are workload, not protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsTimer {
    /// Failure-detection surveillance timer for a node.
    Surveillance(NodeId),
    /// RHA maximum-termination alarm (`Trha`).
    RhaTermination,
    /// Membership cycle / join-wait alarm (`Tm` / `Tjoin-wait`).
    MembershipCycle,
}

impl std::fmt::Display for ObsTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsTimer::Surveillance(r) => write!(f, "surveillance:{}", r.as_u8()),
            ObsTimer::RhaTermination => f.write_str("rha-termination"),
            ObsTimer::MembershipCycle => f.write_str("membership-cycle"),
        }
    }
}

/// The JSONL label of every kind, by [`ProtocolEvent::kind_index`].
#[rustfmt::skip]
const KINDS: [&str; 33] = [
    "timer.armed", "timer.expired", "fd.lifesign.tx", "fd.lifesign.rx", "fd.suspect",
    "fd.notified", "fda.invoked", "fda.sign.tx", "fda.sign.rx", "fda.delivered",
    "rha.started", "rha.rhv.tx", "rha.rhv.rx", "rha.narrowed", "rha.quenched", "rha.settled",
    "msh.join.tx", "msh.leave.tx", "msh.join.rx", "msh.leave.rx", "msh.cycle",
    "view.bootstrap", "view.installed", "view.changed", "msh.expelled", "msh.left",
    "node.crashed", "node.restarted",
    "fed.digest", "fed.install", "fed.relay", "fed.elect", "fed.rejoin",
];

/// One structured protocol occurrence, as emitted by the stack's
/// entities. See `docs/TRACE_SCHEMA.md` for the wire (JSONL) schema of
/// every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A protocol timer was (re)armed; `deadline` is its expiry instant.
    TimerArmed {
        /// The owning protocol timer.
        timer: ObsTimer,
        /// Absolute expiry instant.
        deadline: BitTime,
    },
    /// A protocol timer expired and is about to be handled.
    TimerExpired {
        /// The owning protocol timer.
        timer: ObsTimer,
    },
    /// The local node broadcast an explicit life-sign (Fig. 8, f08).
    LifeSignSent,
    /// An explicit life-sign of node `of` was observed on the bus.
    LifeSignObserved {
        /// Whose life-sign it was.
        of: NodeId,
    },
    /// A remote surveillance timer expired: `suspect` is presumed
    /// crashed and FDA is about to be invoked (Fig. 8, f10).
    SuspectRaised {
        /// The node under suspicion.
        suspect: NodeId,
    },
    /// `fd-can.nty`: the failure of `failed` was consistently agreed
    /// and delivered to the membership layer (Fig. 8, f15).
    FailureNotified {
        /// The failed node.
        failed: NodeId,
    },
    /// `fda-can.req(r)`: FDA dissemination of a failure was invoked
    /// locally (Fig. 6, s00).
    FdaInvoked {
        /// The failed node.
        failed: NodeId,
    },
    /// A failure-sign transmit request was queued. `diffusion` is
    /// `false` for the original request (s03) and `true` for the
    /// eager-diffusion echo of a received first copy (r06).
    FdaSignSent {
        /// The failed node.
        failed: NodeId,
        /// Whether this is a diffusion echo rather than the original.
        diffusion: bool,
    },
    /// A failure-sign copy arrived (Fig. 6, r01).
    FdaSignReceived {
        /// The failed node.
        failed: NodeId,
        /// Whether this was a duplicate (not the first copy).
        duplicate: bool,
    },
    /// First failure-sign copy: `fda-can.nty(failed)` delivered
    /// upstairs (Fig. 6, r03).
    FdaDelivered {
        /// The failed node.
        failed: NodeId,
    },
    /// An RHA execution started at this node (Fig. 7, a00–a08).
    RhaStarted {
        /// The initial local vector proposal.
        proposal: NodeSet,
        /// Whether the node started as a full member (a03) or adopted
        /// the received vector verbatim (a05).
        full_member: bool,
    },
    /// An RHV signal carrying `vector` was queued for transmission.
    RhvSent {
        /// The broadcast vector.
        vector: NodeSet,
    },
    /// An RHV signal was received (own transmissions included).
    RhvReceived {
        /// The transmitter of the signal.
        from: NodeId,
        /// The received vector.
        vector: NodeSet,
    },
    /// The local vector was narrowed by intersection and re-broadcast
    /// (Fig. 7, r04–r07).
    RhaNarrowed {
        /// The narrowed local vector.
        vector: NodeSet,
    },
    /// `j` copies of the local value circulate: the pending own signal
    /// was aborted to save bandwidth (Fig. 7, r08–r09).
    RhaQuenched {
        /// The local vector whose transmission was aborted.
        vector: NodeSet,
    },
    /// The RHA termination alarm fired: agreement reached on `vector`
    /// after `broadcasts` own RHV transmissions (Fig. 7, r14–r18).
    RhaSettled {
        /// The agreed reception-history vector.
        vector: NodeSet,
        /// Own RHV broadcasts this execution (1 + narrowing rounds).
        broadcasts: u32,
    },
    /// The local node issued a JOIN request (Fig. 9, s02).
    JoinRequested,
    /// The local node issued a LEAVE request (Fig. 9, s08).
    LeaveRequested,
    /// A JOIN request of `subject` was observed (Fig. 9, s04–s06).
    JoinObserved {
        /// The joining node.
        subject: NodeId,
    },
    /// A LEAVE request of `subject` was observed (Fig. 9, s10–s12).
    LeaveObserved {
        /// The leaving node.
        subject: NodeId,
    },
    /// A membership cycle boundary was processed (Fig. 9, s17–s27).
    CycleStarted {
        /// Completed-cycle counter after this boundary.
        index: u64,
        /// Whether the cycle was idle (no pending join/leave — RHA
        /// skipped, line s24).
        idle: bool,
    },
    /// A non-integrated node bootstrapped its view from `Vj`
    /// (Fig. 9, s18–s19).
    ViewBootstrapped {
        /// The bootstrap view.
        view: NodeSet,
    },
    /// `msh-view-proc` committed a new view `Vs` (Fig. 9, a00–a02).
    /// Emitted only when the view actually changed.
    ViewInstalled {
        /// The committed view.
        view: NodeSet,
    },
    /// `msh-can.nty`: a membership change was delivered upstairs.
    ViewChanged {
        /// The notified set of active sites.
        view: NodeSet,
        /// The failed nodes reported with the change.
        failed: NodeSet,
    },
    /// The local node was expelled (declared failed while running).
    Expelled,
    /// The local node's leave completed; it is out of the service.
    LeftService,
    /// External marker: the node fail-silently crashed at this instant.
    NodeCrashed,
    /// External marker: the node was power-cycled at this instant.
    NodeRestarted,
    /// A federation gateway accepted a fresher segment-view digest
    /// (its own segment's change, or one relayed by a peer).
    FedDigest {
        /// Segment whose representative reported the digest.
        reporter: u8,
        /// Segment the digest describes.
        subject: u8,
        /// Epoch of the claimed view (monotonic per subject segment).
        epoch: u32,
        /// The claimed segment view.
        view: NodeSet,
    },
    /// A quorum of representatives agreed on a segment's digest: the
    /// gateway installed it into its global view (Rapid-style stable
    /// cut).
    FedInstall {
        /// Segment the installed view describes.
        subject: u8,
        /// Installed epoch.
        epoch: u32,
        /// Installed segment view.
        view: NodeSet,
    },
    /// A federation gateway relayed a frame that arrived over an
    /// inter-segment bridge onto the local bus.
    FedRelay {
        /// The relayed frame's mid (as re-transmitted locally).
        mid: Mid,
        /// Segment the frame came from.
        from_seg: u8,
    },
    /// A standby gateway promoted itself to the active role after the
    /// segment's membership expelled the previous gateway.
    FedElect {
        /// The expelled gateway the successor replaces.
        leader: NodeId,
        /// The epoch the promoted gateway announces under.
        epoch: u32,
    },
    /// A promoted gateway's re-announced segment view reached the
    /// global stable cut: the segment rejoined the federation.
    FedRejoin {
        /// The rejoining segment.
        subject: u8,
        /// The epoch at which the rejoin converged.
        epoch: u32,
    },
}

impl ProtocolEvent {
    /// The stable, dotted event-kind label used in the JSONL trace.
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index() as usize]
    }

    /// The kind's position in declaration order (`0..33`, the order of
    /// [`ProtocolEvent::one_of_each`]): a [`Retention`] is a set of
    /// these.
    pub const fn kind_index(&self) -> u32 {
        match self {
            ProtocolEvent::TimerArmed { .. } => 0,
            ProtocolEvent::TimerExpired { .. } => 1,
            ProtocolEvent::LifeSignSent => 2,
            ProtocolEvent::LifeSignObserved { .. } => 3,
            ProtocolEvent::SuspectRaised { .. } => 4,
            ProtocolEvent::FailureNotified { .. } => 5,
            ProtocolEvent::FdaInvoked { .. } => 6,
            ProtocolEvent::FdaSignSent { .. } => 7,
            ProtocolEvent::FdaSignReceived { .. } => 8,
            ProtocolEvent::FdaDelivered { .. } => 9,
            ProtocolEvent::RhaStarted { .. } => 10,
            ProtocolEvent::RhvSent { .. } => 11,
            ProtocolEvent::RhvReceived { .. } => 12,
            ProtocolEvent::RhaNarrowed { .. } => 13,
            ProtocolEvent::RhaQuenched { .. } => 14,
            ProtocolEvent::RhaSettled { .. } => 15,
            ProtocolEvent::JoinRequested => 16,
            ProtocolEvent::LeaveRequested => 17,
            ProtocolEvent::JoinObserved { .. } => 18,
            ProtocolEvent::LeaveObserved { .. } => 19,
            ProtocolEvent::CycleStarted { .. } => 20,
            ProtocolEvent::ViewBootstrapped { .. } => 21,
            ProtocolEvent::ViewInstalled { .. } => 22,
            ProtocolEvent::ViewChanged { .. } => 23,
            ProtocolEvent::Expelled => 24,
            ProtocolEvent::LeftService => 25,
            ProtocolEvent::NodeCrashed => 26,
            ProtocolEvent::NodeRestarted => 27,
            ProtocolEvent::FedDigest { .. } => 28,
            ProtocolEvent::FedInstall { .. } => 29,
            ProtocolEvent::FedRelay { .. } => 30,
            ProtocolEvent::FedElect { .. } => 31,
            ProtocolEvent::FedRejoin { .. } => 32,
        }
    }

    /// One sample of every variant, in declaration order — for tests
    /// that must hold over *all* kinds (the trace renderer's, and the
    /// campaign judge's retention predicate).
    pub fn one_of_each() -> Vec<ProtocolEvent> {
        let view = NodeSet::from_bits(0b11);
        vec![
            ProtocolEvent::TimerArmed {
                timer: ObsTimer::Surveillance(NodeId::new(3)),
                deadline: BitTime::new(10),
            },
            ProtocolEvent::TimerExpired {
                timer: ObsTimer::MembershipCycle,
            },
            ProtocolEvent::LifeSignSent,
            ProtocolEvent::LifeSignObserved { of: NodeId::new(1) },
            ProtocolEvent::SuspectRaised {
                suspect: NodeId::new(1),
            },
            ProtocolEvent::FailureNotified {
                failed: NodeId::new(1),
            },
            ProtocolEvent::FdaInvoked {
                failed: NodeId::new(1),
            },
            ProtocolEvent::FdaSignSent {
                failed: NodeId::new(1),
                diffusion: false,
            },
            ProtocolEvent::FdaSignReceived {
                failed: NodeId::new(1),
                duplicate: false,
            },
            ProtocolEvent::FdaDelivered {
                failed: NodeId::new(1),
            },
            ProtocolEvent::RhaStarted {
                proposal: view,
                full_member: true,
            },
            ProtocolEvent::RhvSent { vector: view },
            ProtocolEvent::RhvReceived {
                from: NodeId::new(2),
                vector: view,
            },
            ProtocolEvent::RhaNarrowed {
                vector: NodeSet::from_bits(0b01),
            },
            ProtocolEvent::RhaQuenched {
                vector: NodeSet::from_bits(0b01),
            },
            ProtocolEvent::RhaSettled {
                vector: NodeSet::from_bits(0b01),
                broadcasts: 2,
            },
            ProtocolEvent::JoinRequested,
            ProtocolEvent::LeaveRequested,
            ProtocolEvent::JoinObserved {
                subject: NodeId::new(9),
            },
            ProtocolEvent::LeaveObserved {
                subject: NodeId::new(9),
            },
            ProtocolEvent::CycleStarted {
                index: 4,
                idle: true,
            },
            ProtocolEvent::ViewBootstrapped { view },
            ProtocolEvent::ViewInstalled { view },
            ProtocolEvent::ViewChanged {
                view,
                failed: NodeSet::EMPTY,
            },
            ProtocolEvent::Expelled,
            ProtocolEvent::LeftService,
            ProtocolEvent::NodeCrashed,
            ProtocolEvent::NodeRestarted,
            ProtocolEvent::FedDigest {
                reporter: 0,
                subject: 1,
                epoch: 2,
                view,
            },
            ProtocolEvent::FedInstall {
                subject: 1,
                epoch: 2,
                view,
            },
            ProtocolEvent::FedRelay {
                mid: Mid::new(can_types::MsgType::Els, 0, NodeId::new(1)),
                from_seg: 1,
            },
            ProtocolEvent::FedElect {
                leader: NodeId::new(0),
                epoch: 3,
            },
            ProtocolEvent::FedRejoin {
                subject: 1,
                epoch: 3,
            },
        ]
    }

    /// Appends the variant-specific JSON fields (each preceded by a
    /// comma) to a JSON object under construction.
    fn write_json_fields(&self, out: &mut Vec<u8>) {
        match *self {
            ProtocolEvent::TimerArmed { timer, deadline } => {
                timer.push_field(out);
                push_field(out, ",\"deadline\":", deadline.as_u64());
            }
            ProtocolEvent::TimerExpired { timer } => timer.push_field(out),
            ProtocolEvent::LifeSignObserved { of } => push_node(out, ",\"of\":", of),
            ProtocolEvent::SuspectRaised { suspect } => push_node(out, ",\"suspect\":", suspect),
            ProtocolEvent::FailureNotified { failed }
            | ProtocolEvent::FdaInvoked { failed }
            | ProtocolEvent::FdaDelivered { failed } => push_node(out, ",\"failed\":", failed),
            ProtocolEvent::FdaSignSent { failed, diffusion } => {
                push_node(out, ",\"failed\":", failed);
                push_bool(out, ",\"diffusion\":", diffusion);
            }
            ProtocolEvent::FdaSignReceived { failed, duplicate } => {
                push_node(out, ",\"failed\":", failed);
                push_bool(out, ",\"duplicate\":", duplicate);
            }
            ProtocolEvent::RhaStarted {
                proposal,
                full_member,
            } => {
                push_set(out, ",\"proposal\":\"", proposal);
                push_bool(out, "\",\"full_member\":", full_member);
            }
            ProtocolEvent::RhvSent { vector }
            | ProtocolEvent::RhaNarrowed { vector }
            | ProtocolEvent::RhaQuenched { vector } => {
                push_set(out, ",\"vector\":\"", vector);
                out.push(b'"');
            }
            ProtocolEvent::RhvReceived { from, vector } => {
                push_node(out, ",\"from\":", from);
                push_set(out, ",\"vector\":\"", vector);
                out.push(b'"');
            }
            ProtocolEvent::RhaSettled { vector, broadcasts } => {
                push_set(out, ",\"vector\":\"", vector);
                push_field(out, "\",\"broadcasts\":", broadcasts.into());
            }
            ProtocolEvent::JoinObserved { subject } | ProtocolEvent::LeaveObserved { subject } => {
                push_node(out, ",\"subject\":", subject);
            }
            ProtocolEvent::CycleStarted { index, idle } => {
                push_field(out, ",\"index\":", index);
                push_bool(out, ",\"idle\":", idle);
            }
            ProtocolEvent::ViewBootstrapped { view } | ProtocolEvent::ViewInstalled { view } => {
                push_set(out, ",\"view\":\"", view);
                out.push(b'"');
            }
            ProtocolEvent::ViewChanged { view, failed } => {
                push_set(out, ",\"view\":\"", view);
                push_set(out, "\",\"failed\":\"", failed);
                out.push(b'"');
            }
            ProtocolEvent::FedDigest {
                reporter,
                subject,
                epoch,
                view,
            } => {
                push_field(out, ",\"reporter\":", reporter.into());
                push_field(out, ",\"subject\":", subject.into());
                push_field(out, ",\"epoch\":", epoch.into());
                push_set(out, ",\"view\":\"", view);
                out.push(b'"');
            }
            ProtocolEvent::FedInstall {
                subject,
                epoch,
                view,
            } => {
                push_field(out, ",\"subject\":", subject.into());
                push_field(out, ",\"epoch\":", epoch.into());
                push_set(out, ",\"view\":\"", view);
                out.push(b'"');
            }
            ProtocolEvent::FedRelay { mid, from_seg } => {
                out.extend_from_slice(b",\"mid\":\"");
                push_mid(out, mid);
                push_field(out, "\",\"from_seg\":", from_seg.into());
            }
            ProtocolEvent::FedElect { leader, epoch } => {
                push_node(out, ",\"leader\":", leader);
                push_field(out, ",\"epoch\":", epoch.into());
            }
            ProtocolEvent::FedRejoin { subject, epoch } => {
                push_field(out, ",\"subject\":", subject.into());
                push_field(out, ",\"epoch\":", epoch.into());
            }
            ProtocolEvent::LifeSignSent
            | ProtocolEvent::JoinRequested
            | ProtocolEvent::LeaveRequested
            | ProtocolEvent::Expelled
            | ProtocolEvent::LeftService
            | ProtocolEvent::NodeCrashed
            | ProtocolEvent::NodeRestarted => {}
        }
    }
}

/// The causal provenance of a protocol event: what triggered it.
///
/// Threaded through the stack so that every emitted event records the
/// bus delivery or prior event (typically a timer expiry) it reacts
/// to, letting `canely-trace` reconstruct end-to-end causal chains
/// (life-sign → surveillance expiry → failure-sign diffusion → RHA →
/// view install).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cause {
    /// No recorded trigger: power-on bootstrap, a scripted harness
    /// action, or tracing switched off when the trigger happened.
    #[default]
    Boot,
    /// The bus transaction whose frame was delivered at this instant.
    /// Delivery instants identify transactions uniquely because the
    /// bus is globally serialized.
    Bus {
        /// Delivery instant of the triggering transaction.
        deliver_at: BitTime,
    },
    /// A prior protocol event, referenced by its log sequence number
    /// (the `seq` field of the JSONL export).
    Event {
        /// Sequence number of the triggering event.
        seq: u64,
    },
}

impl Cause {
    /// Appends the `cause` JSON field (preceded by a comma) — nothing
    /// for [`Cause::Boot`], which is encoded as field absence.
    fn write_json_field(&self, out: &mut Vec<u8>) {
        match *self {
            Cause::Boot => {}
            Cause::Bus { deliver_at } => {
                push_field(out, ",\"cause\":\"bus:", deliver_at.as_u64());
                out.push(b'"');
            }
            Cause::Event { seq } => {
                push_field(out, ",\"cause\":\"event:", seq);
                out.push(b'"');
            }
        }
    }
}

/// A protocol event stamped with its instant and emitting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event happened (simulation bit-time).
    pub time: BitTime,
    /// The node it happened at (for external markers: the affected
    /// node).
    pub node: NodeId,
    /// What happened.
    pub event: ProtocolEvent,
    /// What triggered it.
    pub cause: Cause,
}

impl TimedEvent {
    /// An event with no recorded trigger ([`Cause::Boot`]).
    pub fn new(time: BitTime, node: NodeId, event: ProtocolEvent) -> Self {
        TimedEvent {
            time,
            node,
            event,
            cause: Cause::Boot,
        }
    }

    /// Renders the event as one JSONL object (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_seq(None)
    }

    /// Renders the event as one JSONL object, including its log
    /// sequence number (the target of `event:<seq>` cause references).
    pub fn to_json_seq(&self, seq: Option<u64>) -> String {
        let mut out = Vec::with_capacity(128);
        self.write_json_seq(None, seq, &mut out);
        ascii(out)
    }

    /// Appends the event as one JSONL object, with its segment tag and
    /// log sequence number where given.
    fn write_json_seq(&self, seg: Option<u8>, seq: Option<u64>, out: &mut Vec<u8>) {
        push_field(out, "{\"t\":", self.time.as_u64());
        if let Some(seg) = seg {
            push_field(out, ",\"seg\":", seg.into());
        }
        if let Some(seq) = seq {
            push_field(out, ",\"seq\":", seq);
        }
        push_node(out, ",\"node\":", self.node);
        out.extend_from_slice(b",\"kind\":\"");
        out.extend_from_slice(self.event.kind().as_bytes());
        out.push(b'"');
        self.event.write_json_fields(out);
        self.cause.write_json_field(out);
        out.push(b'}');
    }
}

impl ObsTimer {
    /// Appends the `timer` JSON field (preceded by a comma): the
    /// timer's [`Display`](std::fmt::Display) spelling, as a string.
    fn push_field(self, out: &mut Vec<u8>) {
        match self {
            ObsTimer::Surveillance(r) => {
                push_node(out, ",\"timer\":\"surveillance:", r);
                out.push(b'"');
            }
            ObsTimer::RhaTermination => out.extend_from_slice(b",\"timer\":\"rha-termination\""),
            ObsTimer::MembershipCycle => {
                out.extend_from_slice(b",\"timer\":\"membership-cycle\"");
            }
        }
    }
}

// The exporter spells every line from the byte helpers below: seven
// lines in eight of a trace are numbers and node sets between fixed
// labels, and `write!` spends more on its way to the digits than on
// them.

/// Appends `label` and `n` in decimal.
fn push_field(out: &mut Vec<u8>, label: &str, mut n: u64) {
    out.extend_from_slice(label.as_bytes());
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `label` and a node's number.
fn push_node(out: &mut Vec<u8>, label: &str, node: NodeId) {
    push_field(out, label, node.as_u8().into());
}

/// Appends `label` and `true` / `false`.
fn push_bool(out: &mut Vec<u8>, label: &str, b: bool) {
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `label` and a node set as its `Display` spells it: `{0,2,5}`.
fn push_set(out: &mut Vec<u8>, label: &str, set: NodeSet) {
    out.extend_from_slice(label.as_bytes());
    out.push(b'{');
    for (i, node) in set.iter().enumerate() {
        push_node(out, if i == 0 { "" } else { "," }, node);
    }
    out.push(b'}');
}

/// Appends a mid as its `Display` spells it (`FDA[0,n3]`), as a JSON
/// string's content.
fn push_mid(out: &mut Vec<u8>, mid: Mid) {
    push_escaped(out, mid.msg_type().name());
    push_field(out, "[", mid.reference().into());
    push_node(out, ",n", mid.node());
    out.push(b']');
}

/// Appends `s` escaped as what a JSON string must (quote, backslash,
/// control characters).
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            c if c < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&[HEX[usize::from(c >> 4)], HEX[usize::from(c & 15)]]);
            }
            c => out.push(c),
        }
    }
}

/// The text of a rendered line or document: the exporter writes ASCII.
fn ascii(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the trace exporter writes ASCII")
}

/// A set of event kinds: which emitted events a log stores (see
/// [`ObsLog::retaining`]). One bit per [`ProtocolEvent::kind_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retention(u64);

impl Retention {
    /// Every kind: what [`ObsLog::new`] stores.
    pub const ALL: Retention = Retention(u64::MAX);

    /// The kinds of the given sample events.
    pub const fn of(samples: &[ProtocolEvent]) -> Self {
        let (mut kinds, mut i) = (0, 0);
        while i < samples.len() {
            kinds |= 1 << samples[i].kind_index();
            i += 1;
        }
        Retention(kinds)
    }

    /// Whether `event`'s kind is in the set.
    #[inline]
    pub const fn keeps(self, event: &ProtocolEvent) -> bool {
        self.0 >> event.kind_index() & 1 == 1
    }
}

/// The state behind [`ObsLog`] / enabled [`EventSink`]s. Numbering an
/// event and testing its kind touch only the plain fields, so an event
/// the log does not store costs a counter bump and a bit test.
#[derive(Debug)]
struct Shared {
    /// Events emitted so far, stored or not: the next event's `seq`.
    emitted: Cell<u64>,
    /// The kinds stored; with [`Retention::ALL`] an event's `seq` is
    /// its index.
    retain: Retention,
    /// Ambient cause stamped onto subsequently emitted events (set by
    /// the stack's dispatch layer at every bus delivery / timer fire).
    cause: Cell<Cause>,
    stored: RefCell<LogInner>,
}

impl Shared {
    /// Numbers one event and stores it if its kind is retained.
    #[inline]
    fn emit(&self, time: BitTime, node: NodeId, event: ProtocolEvent) -> u64 {
        let seq = self.emitted.get();
        self.emitted.set(seq + 1);
        if self.retain.keeps(&event) {
            self.store(seq, time, node, event);
        }
        seq
    }

    /// Out of line, so the test in [`Shared::emit`] inlines alone.
    #[inline(never)]
    fn store(&self, seq: u64, time: BitTime, node: NodeId, event: ProtocolEvent) {
        let cause = self.cause.get();
        self.stored.borrow_mut().push(seq, cause, time, node, event);
    }
}

/// The stored events plus the causal-threading bookkeeping.
#[derive(Debug, Default)]
struct LogInner {
    events: Vec<TimedEvent>,
    /// Last stored `timer.armed` sequence number per (node, timer), so
    /// a `timer.expired` links back to the arming that scheduled it.
    /// Dense, indexed by [`timer_index`], grown on demand.
    armed: Vec<u64>,
}

/// `LogInner::armed` entry of a timer with no stored arming.
const NOT_ARMED: u64 = u64::MAX;

/// Index into the timer-arming table: one row per owning node, holding
/// a surveillance timer per monitored node, then the RHA termination
/// and membership cycle alarms.
fn timer_index(node: NodeId, timer: ObsTimer) -> usize {
    let column = match timer {
        ObsTimer::Surveillance(r) => r.as_usize(),
        ObsTimer::RhaTermination => MAX_NODES,
        ObsTimer::MembershipCycle => MAX_NODES + 1,
    };
    node.as_usize() * (MAX_NODES + 2) + column
}

impl LogInner {
    /// Appends event `seq` with its cause resolved: timer expiries link
    /// to their arming, everything else carries the ambient cause.
    fn push(&mut self, seq: u64, ambient: Cause, at: BitTime, node: NodeId, event: ProtocolEvent) {
        let cause = match event {
            ProtocolEvent::TimerExpired { timer } => self
                .armed
                .get(timer_index(node, timer))
                .filter(|&&armed_seq| armed_seq != NOT_ARMED)
                .map_or(ambient, |&armed_seq| Cause::Event { seq: armed_seq }),
            _ => ambient,
        };
        if let ProtocolEvent::TimerArmed { timer, .. } = event {
            let index = timer_index(node, timer);
            if index >= self.armed.len() {
                self.armed.resize(index + 1, NOT_ARMED);
            }
            self.armed[index] = seq;
        }
        self.events.push(TimedEvent {
            time: at,
            node,
            event,
            cause,
        });
    }
}

/// A cloneable handle through which protocol entities emit events.
///
/// The default ([`EventSink::disabled`]) handle is empty: emitting
/// through it is a branch on `None` — no allocation, no side effect.
/// Handles produced by [`ObsLog::sink`] append to the shared log.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    log: Option<Rc<Shared>>,
}

impl EventSink {
    /// A sink that drops everything (the default for every entity).
    pub const fn disabled() -> Self {
        EventSink { log: None }
    }

    /// Whether events emitted through this handle are recorded.
    pub fn is_enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Records one event. A no-op (and allocation-free) when disabled.
    /// Returns the event's log sequence number when the sink is
    /// enabled (whether or not the log retains the event), so the
    /// dispatcher can chain downstream causes onto it.
    #[inline]
    pub fn emit(&self, time: BitTime, node: NodeId, event: ProtocolEvent) -> Option<u64> {
        self.log.as_ref().map(|log| log.emit(time, node, event))
    }

    /// Sets the ambient cause stamped onto subsequently emitted
    /// events. A no-op (and allocation-free) when disabled.
    #[inline]
    pub fn set_cause(&self, cause: Cause) {
        if let Some(log) = &self.log {
            log.cause.set(cause);
        }
    }

    /// Resets the ambient cause to [`Cause::Boot`]. A no-op (and
    /// allocation-free) when disabled.
    #[inline]
    pub fn clear_cause(&self) {
        self.set_cause(Cause::Boot);
    }
}

/// The shared, append-only event log of one simulation run.
///
/// Create one log per run, hand [`ObsLog::sink`] clones to every
/// stack (via `CanelyStack::with_obs`), and read the merged record
/// back with [`ObsLog::events`] / [`ObsLog::export_jsonl`].
#[derive(Debug, Clone)]
pub struct ObsLog {
    log: Rc<Shared>,
}

impl Default for ObsLog {
    fn default() -> Self {
        ObsLog::retaining(Retention::ALL)
    }
}

impl ObsLog {
    /// An empty log that stores every event.
    pub fn new() -> Self {
        ObsLog::default()
    }

    /// An empty log that *numbers* every emitted event but *stores*
    /// only those of the kinds in `keep` — for a consumer that reads a
    /// few kinds and would otherwise pay for materialising all of them.
    /// Sequence numbers, [`ObsLog::emitted`] and the causes stamped on
    /// the stored events are exactly those of a full log; a stored
    /// `timer.expired` links to its arming only if that was stored
    /// too.
    pub fn retaining(keep: Retention) -> Self {
        let log = Rc::new(Shared {
            emitted: Cell::new(0),
            retain: keep,
            cause: Cell::new(Cause::Boot),
            stored: RefCell::default(),
        });
        ObsLog { log }
    }

    /// A sink handle appending to this log.
    pub fn sink(&self) -> EventSink {
        EventSink {
            log: Some(Rc::clone(&self.log)),
        }
    }

    /// Records an event from outside the stack — used by harnesses to
    /// inject the externally known crash/restart markers
    /// ([`ProtocolEvent::NodeCrashed`] / [`ProtocolEvent::NodeRestarted`])
    /// that anchor the latency metrics. Recorded with [`Cause::Boot`]:
    /// scripted actions have no in-protocol trigger.
    pub fn record(&self, time: BitTime, node: NodeId, event: ProtocolEvent) {
        let ambient = self.log.cause.replace(Cause::Boot);
        self.log.emit(time, node, event);
        self.log.cause.set(ambient);
    }

    /// A snapshot of all stored events.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.log.stored.borrow().events.clone()
    }

    /// Runs `f` over the stored events without cloning them.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TimedEvent]) -> R) -> R {
        f(&self.log.stored.borrow().events)
    }

    /// Number of *stored* events: equal to [`ObsLog::emitted`] unless
    /// the log retains fewer than all kinds ([`ObsLog::retaining`]).
    pub fn len(&self) -> usize {
        self.log.stored.borrow().events.len()
    }

    /// Whether no event is stored.
    pub fn is_empty(&self) -> bool {
        self.log.stored.borrow().events.is_empty()
    }

    /// Number of events emitted into the log, stored or not — one more
    /// than the highest sequence number handed out.
    pub fn emitted(&self) -> u64 {
        self.log.emitted.get()
    }

    /// Renders the log — merged with a bus trace, if given — as one
    /// time-ordered JSONL document: [`ObsLog::write_jsonl`] into a
    /// `String`.
    ///
    /// # Panics
    ///
    /// As [`export_segments_jsonl`].
    pub fn export_jsonl(&self, bus: Option<&BusTrace>) -> String {
        export_segments_string(&[(self, bus)])
    }

    /// Writes the log — merged with a bus trace, if given — to `out` as
    /// one time-ordered JSONL document (see [`export_segments_jsonl`]).
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    ///
    /// # Panics
    ///
    /// As [`export_segments_jsonl`].
    pub fn write_jsonl<W: Write + ?Sized>(
        &self,
        bus: Option<&BusTrace>,
        out: &mut W,
    ) -> io::Result<()> {
        export_segments_jsonl(&[(self, bus)], out)
    }
}

/// [`export_segments_jsonl`] into a `String`, reserved up front from
/// what the records of either class come to (a `timer.armed` is ~120
/// bytes, a `bus.tx` ~190).
///
/// # Panics
///
/// As [`export_segments_jsonl`].
pub fn export_segments_string(segments: &[(&ObsLog, Option<&BusTrace>)]) -> String {
    let events: usize = segments.iter().map(|(log, _)| log.len()).sum();
    let txs: usize = segments
        .iter()
        .flat_map(|(_, bus)| bus.map(BusTrace::len))
        .sum();
    let mut out = Vec::with_capacity(events * 144 + txs * 208);
    export_segments_jsonl(segments, &mut out).expect("a `Vec` takes every write");
    ascii(out)
}

/// Writes the logs and (optionally) bus transaction traces of one or
/// more bus segments to `out` as one merged JSON-Lines document, one
/// object per line, sorted by time.
///
/// Ordering guarantees (documented in `docs/TRACE_SCHEMA.md`):
/// primary key is the event instant `t`; at equal instants bus
/// transactions sort before protocol events (a frame *starts* before
/// anything reacts to it), and events of the same class keep their
/// recording order. With more than one segment every record carries
/// its segment's index as a `seg` field (after `t`), and records of
/// equal instant sort by segment first. The output is deterministic:
/// two identical runs produce byte-identical documents.
///
/// Each record is rendered into one reused line buffer and written as
/// it comes: the document is never held, and the merge holds a heap
/// entry per time-ordered stretch of records, not a key per record.
///
/// # Errors
///
/// The first error `out` returns; the records before it are written.
///
/// # Panics
///
/// If a log does not store every kind ([`ObsLog::retaining`]): it
/// holds no complete trace, and the stored events' positions are not
/// their sequence numbers.
pub fn export_segments_jsonl<W: Write + ?Sized>(
    segments: &[(&ObsLog, Option<&BusTrace>)],
    out: &mut W,
) -> io::Result<()> {
    let logs: Vec<_> = segments
        .iter()
        .map(|(log, _)| {
            assert!(
                log.log.retain == Retention::ALL,
                "a retaining log has no trace to export"
            );
            log.log.stored.borrow()
        })
        .collect();
    let buses: Vec<&[TxRecord]> = segments
        .iter()
        .map(|(_, bus)| bus.map_or(&[][..], |trace| trace.iter().as_slice()))
        .collect();
    // Record `index` of class `class` (0 = bus, 1 = protocol) of
    // segment `seg` sorts by the key (time, segment, class, index): a
    // total order, so nothing is assumed of the order records were made
    // in. As a rule each class of each segment is one stretch in time
    // order (a harness marker recorded after the run starts another),
    // and a heap of the stretches' next records — each stretch sorted
    // by that key already — merges them into the key's order.
    let time = |seg: u8, class: u8, index: usize| -> u64 {
        let seg = usize::from(seg);
        if class == 0 {
            buses[seg][index].start.as_u64()
        } else {
            logs[seg].events[index].time.as_u64()
        }
    };
    let mut heads = BinaryHeap::new();
    for (seg, (log, bus)) in logs.iter().zip(&buses).enumerate() {
        let seg = u8::try_from(seg).expect("segments are indexed by a byte");
        for (class, len) in [(0, bus.len()), (1, log.events.len())] {
            let mut start = 0;
            for end in 1..=len {
                if end == len || time(seg, class, end) < time(seg, class, end - 1) {
                    heads.push(Reverse((time(seg, class, start), seg, class, start, end)));
                    start = end;
                }
            }
        }
    }
    let tagged = segments.len() > 1;
    let mut line = Vec::with_capacity(256);
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, seg, class, index, end)) = *head;
        if index + 1 < end {
            *head = Reverse((time(seg, class, index + 1), seg, class, index + 1, end));
        } else {
            PeekMut::pop(head);
        }
        line.clear();
        let tag = tagged.then_some(seg);
        let seg = usize::from(seg);
        if class == 0 {
            write_bus_json(&buses[seg][index], tag, &mut line);
        } else {
            logs[seg].events[index].write_json_seq(tag, Some(index as u64), &mut line);
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    Ok(())
}

/// Appends one `bus.tx` record as a JSONL object.
fn write_bus_json(rec: &TxRecord, seg: Option<u8>, out: &mut Vec<u8>) {
    push_field(out, "{\"t\":", rec.start.as_u64());
    if let Some(seg) = seg {
        push_field(out, ",\"seg\":", seg.into());
    }
    out.extend_from_slice(b",\"kind\":\"bus.tx\",\"mid\":\"");
    match rec.mid() {
        Some(mid) => push_mid(out, mid),
        None => out.push(b'-'),
    }
    out.extend_from_slice(if rec.frame.is_remote() {
        b"\",\"frame\":\"rtr"
    } else {
        b"\",\"frame\":\"data"
    });
    push_set(out, "\",\"transmitters\":\"", rec.transmitters);
    push_field(out, "\",\"bus_free\":", rec.bus_free.as_u64());
    push_field(out, ",\"deliver\":", rec.deliver_at.as_u64());
    push_field(out, ",\"queued\":", rec.queued_at.as_u64());
    push_field(out, ",\"arb_losses\":", rec.arb_losses.into());
    push_bool(out, ",\"delivered\":", !rec.errored);
    push_bool(out, ",\"errored\":", rec.errored);
    out.push(b'}');
}

/// A simple sample-keeping histogram over `u64` values (latencies in
/// bit-times, round counts, …).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether the histogram holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Equal-width buckets spanning `[min, max]` — `(lo, hi, count)`
    /// triples for ASCII rendering. Empty for an empty histogram.
    pub fn buckets(&self, n: usize) -> Vec<(u64, u64, usize)> {
        let (Some(min), Some(max)) = (self.min(), self.max()) else {
            return Vec::new();
        };
        let n = n.max(1);
        let width = ((max - min) / n as u64).max(1);
        // A narrow value range needs fewer than `n` buckets; don't pad
        // with empty ranges past the maximum.
        let n = (((max - min) / width) as usize + 1).min(n);
        let mut buckets: Vec<(u64, u64, usize)> = (0..n)
            .map(|i| {
                let lo = min + width * i as u64;
                let hi = if i == n - 1 { max } else { lo + width - 1 };
                (lo, hi, 0)
            })
            .collect();
        for &s in &self.samples {
            let idx = (((s - min) / width) as usize).min(n - 1);
            buckets[idx].2 += 1;
        }
        buckets
    }
}

/// Event counts by kind: one cell per [`ProtocolEvent::kind_index`],
/// read by the kind's JSONL label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; KINDS.len()]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; KINDS.len()])
    }
}

impl Counts {
    fn bump(&mut self, event: &ProtocolEvent) {
        self.0[event.kind_index() as usize] += 1;
    }

    /// How many events of the kind labelled `kind` (e.g.
    /// `"fd.lifesign.tx"`, see `docs/TRACE_SCHEMA.md`) were counted.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not the label of an event kind.
    pub fn of(&self, kind: &str) -> u64 {
        let index = KINDS.iter().position(|&k| k == kind);
        self.0[index.unwrap_or_else(|| panic!("`{kind}` is not an event kind"))]
    }
}

/// When nodes were down, read off a stream's `node.crashed` /
/// `node.restarted` markers: a node is down from a crash marker until
/// its next lifecycle marker (either kind, strictly later), or for
/// good if none follows.
///
/// This is the one down-interval rule: [`latency_samples`], the
/// campaign oracle and its false-suspicion count all read it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Downtime(Vec<(NodeId, BitTime, Option<BitTime>)>);

impl Downtime {
    /// Folds the markers of `events` (in any order).
    pub fn of(events: &[TimedEvent]) -> Self {
        let lifecycle = |e: &&TimedEvent| {
            matches!(
                e.event,
                ProtocolEvent::NodeCrashed | ProtocolEvent::NodeRestarted
            )
        };
        let markers: Vec<&TimedEvent> = events.iter().filter(lifecycle).collect();
        let next = |m: &TimedEvent| {
            let later = markers
                .iter()
                .filter(|n| n.node == m.node && n.time > m.time);
            later.map(|n| n.time).min()
        };
        let crashes = markers
            .iter()
            .filter(|m| matches!(m.event, ProtocolEvent::NodeCrashed));
        Downtime(crashes.map(|m| (m.node, m.time, next(m))).collect())
    }

    /// One `(node, crash, end)` interval per crash marker, in stream
    /// order; `end` is `None` when the node stays down.
    pub fn intervals(&self) -> &[(NodeId, BitTime, Option<BitTime>)] {
        &self.0
    }

    /// Whether `node` was down at `t`.
    pub fn down_at(&self, node: NodeId, t: BitTime) -> bool {
        let covers = |&(n, from, end): &(NodeId, BitTime, Option<BitTime>)| {
            n == node && from <= t && end.is_none_or(|end| t < end)
        };
        self.0.iter().any(covers)
    }

    /// `node`'s first crash, if it ever crashed.
    pub fn first_crash(&self, node: NodeId) -> Option<BitTime> {
        let crashes = self.0.iter().filter(|&&(n, ..)| n == node);
        crashes.map(|&(_, at, _)| at).min()
    }
}

/// Measured detection and view-change latency samples (bit-times):
/// for every [`Downtime`] interval, each node's first `fd.notified` of
/// the victim and first `view.installed` excluding it within the
/// interval.
///
/// This is the one definition: [`Snapshot`], the campaign's run
/// outcomes and the live latency histograms all read it.
pub fn latency_samples(events: &[TimedEvent]) -> (Vec<u64>, Vec<u64>) {
    let mut detection = Vec::new();
    let mut view_change = Vec::new();
    for &(victim, at, end) in Downtime::of(events).intervals() {
        let horizon = end.unwrap_or(BitTime::new(u64::MAX));
        let mut notified = Vec::new();
        let mut installed = Vec::new();
        for e in events.iter().filter(|e| e.time >= at && e.time < horizon) {
            match e.event {
                ProtocolEvent::FailureNotified { failed }
                    if failed == victim && !notified.contains(&e.node) =>
                {
                    notified.push(e.node);
                    detection.push((e.time - at).as_u64());
                }
                ProtocolEvent::ViewInstalled { view }
                    if !view.contains(victim) && !installed.contains(&e.node) =>
                {
                    installed.push(e.node);
                    view_change.push((e.time - at).as_u64());
                }
                _ => {}
            }
        }
    }
    (detection, view_change)
}

/// Metrics derived from one event log (plus, optionally, the bus
/// trace): event counts and the latency histograms of the evaluation.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Events of all nodes, by kind.
    pub totals: Counts,
    per_node: Vec<(NodeId, Counts)>,
    /// Failure-detection latency samples of [`latency_samples`].
    pub detection_latency: Histogram,
    /// View-change latency samples of [`latency_samples`].
    pub view_change_latency: Histogram,
    /// Own RHV broadcasts per settled agreement (1 = no narrowing).
    pub rha_broadcasts: Histogram,
    /// Bus statistics over `[0, horizon)`, when a trace was supplied.
    pub bus: Option<BusStats>,
}

impl Snapshot {
    /// Folds an event log (and optionally the bus trace with the
    /// measurement horizon) into a metrics snapshot.
    ///
    /// The latency histograms need `node.crashed` markers in the log
    /// (recorded by the harness via [`ObsLog::record`]); without
    /// markers they stay empty.
    pub fn compute(events: &[TimedEvent], bus: Option<(&BusTrace, BitTime)>) -> Self {
        let mut totals = Counts::default();
        let mut per_node = vec![Counts::default(); MAX_NODES];
        let mut rha_broadcasts = Histogram::new();
        for e in events {
            totals.bump(&e.event);
            per_node[e.node.as_usize()].bump(&e.event);
            if let ProtocolEvent::RhaSettled { broadcasts, .. } = e.event {
                rha_broadcasts.record(u64::from(broadcasts));
            }
        }
        let (detection, view_change) = latency_samples(events);
        Snapshot {
            totals,
            per_node: per_node
                .into_iter()
                .enumerate()
                .filter(|(_, counts)| *counts != Counts::default())
                .map(|(i, counts)| (NodeId::new(i as u8), counts))
                .collect(),
            detection_latency: Histogram { samples: detection },
            view_change_latency: Histogram {
                samples: view_change,
            },
            rha_broadcasts,
            bus: bus
                .filter(|&(_, until)| !until.is_zero())
                .map(|(trace, until)| trace.stats(BitTime::ZERO, until)),
        }
    }

    /// Counts per node, in node order (only nodes with an event in the
    /// log).
    pub fn per_node(&self) -> &[(NodeId, Counts)] {
        &self.per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn t(v: u64) -> BitTime {
        BitTime::new(v)
    }

    #[test]
    fn disabled_sink_drops_events() {
        let sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(t(1), n(0), ProtocolEvent::LifeSignSent);
        // Nothing observable — the call must simply be a no-op.
    }

    #[test]
    fn sink_appends_to_shared_log() {
        let log = ObsLog::new();
        let a = log.sink();
        let b = log.sink();
        assert!(a.is_enabled());
        a.emit(t(5), n(0), ProtocolEvent::LifeSignSent);
        b.emit(t(9), n(1), ProtocolEvent::SuspectRaised { suspect: n(0) });
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, n(0));
        assert_eq!(
            events[1].event,
            ProtocolEvent::SuspectRaised { suspect: n(0) }
        );
    }

    #[test]
    fn json_lines_are_flat_objects() {
        let e = TimedEvent::new(
            t(1234),
            n(3),
            ProtocolEvent::FdaSignReceived {
                failed: n(7),
                duplicate: true,
            },
        );
        assert_eq!(
            e.to_json(),
            "{\"t\":1234,\"node\":3,\"kind\":\"fda.sign.rx\",\"failed\":7,\"duplicate\":true}"
        );
    }

    #[test]
    fn causes_render_as_compact_references() {
        let mut e = TimedEvent::new(t(10), n(1), ProtocolEvent::LifeSignSent);
        assert!(!e.to_json().contains("cause"), "boot cause is absent");
        e.cause = Cause::Bus { deliver_at: t(305) };
        assert!(
            e.to_json().ends_with("\"cause\":\"bus:305\"}"),
            "{}",
            e.to_json()
        );
        e.cause = Cause::Event { seq: 42 };
        assert_eq!(
            e.to_json_seq(Some(7)),
            "{\"t\":10,\"seq\":7,\"node\":1,\"kind\":\"fd.lifesign.tx\",\"cause\":\"event:42\"}"
        );
    }

    #[test]
    fn ambient_cause_is_stamped_and_timer_expiry_links_to_arming() {
        let log = ObsLog::new();
        let sink = log.sink();
        let timer = ObsTimer::Surveillance(n(2));
        sink.set_cause(Cause::Bus { deliver_at: t(100) });
        let armed_seq = sink
            .emit(
                t(100),
                n(0),
                ProtocolEvent::TimerArmed {
                    timer,
                    deadline: t(5_100),
                },
            )
            .unwrap();
        sink.clear_cause();
        sink.emit(t(5_100), n(0), ProtocolEvent::TimerExpired { timer });
        sink.set_cause(Cause::Event { seq: 1 });
        sink.emit(
            t(5_100),
            n(0),
            ProtocolEvent::SuspectRaised { suspect: n(2) },
        );
        let events = log.events();
        assert_eq!(events[0].cause, Cause::Bus { deliver_at: t(100) });
        assert_eq!(events[1].cause, Cause::Event { seq: armed_seq });
        assert_eq!(events[2].cause, Cause::Event { seq: 1 });
    }

    #[test]
    fn retaining_log_numbers_everything_and_stores_what_it_keeps() {
        let timer = ObsTimer::Surveillance(n(2));
        let keep = Retention::of(&[
            ProtocolEvent::TimerExpired { timer },
            ProtocolEvent::SuspectRaised { suspect: n(0) },
        ]);
        let armed = ProtocolEvent::TimerArmed {
            timer,
            deadline: t(5_100),
        };
        let stream = [
            (t(100), armed),
            (t(5_100), ProtocolEvent::TimerExpired { timer }),
            (t(5_100), ProtocolEvent::SuspectRaised { suspect: n(2) }),
            (t(5_200), ProtocolEvent::LifeSignSent),
        ];
        let (full, kept) = (ObsLog::new(), ObsLog::retaining(keep));
        for log in [&full, &kept] {
            let sink = log.sink();
            for (i, &(at, event)) in stream.iter().enumerate() {
                sink.set_cause(Cause::Bus { deliver_at: at });
                assert_eq!(sink.emit(at, n(0), event), Some(i as u64));
            }
            assert_eq!(log.emitted(), 4);
        }
        assert_eq!((full.len(), kept.len()), (4, 2));
        // The stored events are the full log's, but for the expiry's
        // link to an arming the retaining log never stored.
        let (full, stored) = (full.events(), kept.events());
        assert_eq!(full[1].cause, Cause::Event { seq: 0 });
        assert_eq!(
            stored[0].cause,
            Cause::Bus {
                deliver_at: t(5_100)
            }
        );
        assert_eq!(stored[1], full[2]);
    }

    #[test]
    fn harness_markers_are_boot_caused() {
        let log = ObsLog::new();
        let sink = log.sink();
        sink.set_cause(Cause::Bus { deliver_at: t(9) });
        log.record(t(50), n(3), ProtocolEvent::NodeCrashed);
        sink.emit(t(60), n(0), ProtocolEvent::LifeSignSent);
        let events = log.events();
        assert_eq!(events[0].cause, Cause::Boot, "scripted marker");
        assert_eq!(
            events[1].cause,
            Cause::Bus { deliver_at: t(9) },
            "ambient cause survives the marker"
        );
    }

    #[test]
    fn kind_indices_are_declaration_order_and_fit_a_set() {
        let variants = ProtocolEvent::one_of_each();
        assert!(variants.len() <= 64, "a `Retention` is one `u64`");
        for (i, event) in variants.iter().enumerate() {
            assert_eq!(event.kind_index() as usize, i, "{}", event.kind());
            assert!(Retention::ALL.keeps(event));
            let alone = Retention::of(std::slice::from_ref(event));
            assert_eq!(variants.iter().filter(|e| alone.keeps(e)).count(), 1);
        }
    }

    #[test]
    fn every_variant_renders_with_its_kind() {
        let variants = ProtocolEvent::one_of_each();
        let mut kinds: Vec<_> = variants.iter().map(ProtocolEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len(), "one sample per kind");
        for event in variants {
            let line = TimedEvent::new(t(1), n(0), event).to_json();
            assert!(
                line.contains(&format!("\"kind\":\"{}\"", event.kind())),
                "{line}"
            );
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn export_merges_and_sorts_by_time() {
        let log = ObsLog::new();
        log.record(t(300), n(1), ProtocolEvent::LifeSignSent);
        log.record(t(100), n(0), ProtocolEvent::NodeCrashed);
        let out = log.export_jsonl(None);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("node.crashed"), "{out}");
        assert!(lines[1].contains("fd.lifesign.tx"), "{out}");
        // Sequence numbers follow recording order, not sort order.
        assert!(lines[0].contains("\"seq\":1"), "{out}");
        assert!(lines[1].contains("\"seq\":0"), "{out}");
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.mean(), Some(25.0));
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.percentile(100.0), Some(40));
        let buckets = h.buckets(2);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets.iter().map(|b| b.2).sum::<usize>(), 4);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(99.0), None);
        assert!(h.buckets(4).is_empty());
    }

    #[test]
    fn snapshot_derives_detection_latency_from_markers() {
        let events = vec![
            TimedEvent::new(t(1_000), n(2), ProtocolEvent::NodeCrashed),
            TimedEvent::new(
                t(8_500),
                n(0),
                ProtocolEvent::FailureNotified { failed: n(2) },
            ),
            TimedEvent::new(
                t(8_500),
                n(1),
                ProtocolEvent::FailureNotified { failed: n(2) },
            ),
            TimedEvent::new(
                t(31_000),
                n(0),
                ProtocolEvent::ViewInstalled {
                    view: NodeSet::from_bits(0b011),
                },
            ),
        ];
        let s = Snapshot::compute(&events, None);
        assert_eq!(s.detection_latency.count(), 2);
        assert_eq!(s.detection_latency.min(), Some(7_500));
        assert_eq!(s.view_change_latency.count(), 1);
        assert_eq!(s.view_change_latency.min(), Some(30_000));
        assert_eq!(s.totals.of("fd.notified"), 2);
        assert_eq!(s.totals.of("node.crashed"), 1);
        // Per-node split: nodes 0, 1, 2 appear.
        assert_eq!(s.per_node().len(), 3);
    }

    #[test]
    fn snapshot_without_markers_has_empty_latency() {
        let events = vec![TimedEvent::new(
            t(8_500),
            n(0),
            ProtocolEvent::FailureNotified { failed: n(2) },
        )];
        let s = Snapshot::compute(&events, None);
        assert!(s.detection_latency.is_empty());
        assert_eq!(s.totals.of("fd.notified"), 1);
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        let mut out = Vec::new();
        push_escaped(&mut out, "a\"b\\c\nd\u{1f}");
        assert_eq!(ascii(out), "a\\\"b\\\\c\\u000ad\\u001f");
    }

    /// A marker-rich stream exercising every window rule of
    /// [`latency_samples`]: two victims, a restart that closes the first
    /// window and a re-crash that opens a third, installs still
    /// containing a victim, a bootstrap, RHA settlements and failure
    /// notifications.
    fn fold_fixture() -> Vec<TimedEvent> {
        vec![
            TimedEvent::new(t(1_000), n(2), ProtocolEvent::NodeCrashed),
            TimedEvent::new(t(2_000), n(3), ProtocolEvent::NodeCrashed),
            TimedEvent::new(
                t(8_500),
                n(0),
                ProtocolEvent::FailureNotified { failed: n(2) },
            ),
            TimedEvent::new(
                t(9_000),
                n(1),
                ProtocolEvent::FailureNotified { failed: n(3) },
            ),
            TimedEvent::new(
                t(10_000),
                n(2),
                ProtocolEvent::ViewInstalled {
                    // From victim 2 itself, which no real run emits:
                    // windows are filtered by victim, not by observer.
                    view: NodeSet::from_bits(0b0011),
                },
            ),
            TimedEvent::new(
                t(12_000),
                n(0),
                ProtocolEvent::ViewInstalled {
                    // Still contains victim 3: counts only for victim 2.
                    view: NodeSet::from_bits(0b1011),
                },
            ),
            TimedEvent::new(
                t(15_000),
                n(0),
                ProtocolEvent::ViewInstalled {
                    view: NodeSet::from_bits(0b0011),
                },
            ),
            TimedEvent::new(
                t(15_000),
                n(1),
                ProtocolEvent::ViewBootstrapped {
                    view: NodeSet::from_bits(0b0011),
                },
            ),
            TimedEvent::new(
                t(16_000),
                n(1),
                ProtocolEvent::RhaSettled {
                    vector: NodeSet::from_bits(0b0011),
                    broadcasts: 3,
                },
            ),
            TimedEvent::new(t(20_000), n(2), ProtocolEvent::NodeRestarted),
            TimedEvent::new(t(21_000), n(2), ProtocolEvent::NodeCrashed),
            TimedEvent::new(
                t(25_000),
                n(0),
                ProtocolEvent::FailureNotified { failed: n(2) },
            ),
            TimedEvent::new(
                t(30_000),
                n(1),
                ProtocolEvent::ViewInstalled {
                    view: NodeSet::from_bits(0b0011),
                },
            ),
        ]
    }

    #[test]
    fn snapshot_of_a_marker_rich_stream() {
        let s = Snapshot::compute(&fold_fixture(), None);
        assert_eq!(s.totals.of("node.crashed"), 3);
        assert_eq!(s.totals.of("fd.notified"), 3);
        assert_eq!(s.totals.of("view.bootstrap"), 1);
        let sorted = |h: &Histogram| {
            let mut samples = h.samples().to_vec();
            samples.sort_unstable();
            samples
        };
        assert_eq!(sorted(&s.detection_latency), [4_000, 7_000, 7_500]);
        // Victim 2's first window closes at its restart (20 000), so
        // n1's install at 30 000 counts only for victim 3 (28 000) and
        // the re-crash (9 000); the bootstrap is not a view change.
        assert_eq!(
            sorted(&s.view_change_latency),
            [8_000, 9_000, 9_000, 11_000, 13_000, 28_000]
        );
        assert_eq!(sorted(&s.rha_broadcasts), [3]);
    }
}
