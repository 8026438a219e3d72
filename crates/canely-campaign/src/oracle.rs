//! The invariant oracle: machine-checkable verdicts over a run's
//! structured event trace.
//!
//! The oracle consumes the PR-1 observability record (`core::obs`
//! [`TimedEvent`]s, including the externally injected
//! `node.crashed` ground-truth markers) plus each node's final state,
//! and checks the paper's agreement claims:
//!
//! * **false-suspicion** — no live, non-leaving node is ever suspected
//!   (`fd.suspect`) or declared failed (`fd.notified`): MCAN4's `Ttd`
//!   margin exists precisely so omission retries and inaccessibility
//!   cannot masquerade as a crash;
//! * **detection-latency** — every crash of an integrated member is
//!   notified at every correct observer within the analytical bound of
//!   `canely-analysis::bounds` (plus explicit slack and scheduled
//!   blackout time);
//! * **view-change-latency** — the view excluding the crashed node is
//!   installed at every correct observer within the detection bound
//!   plus one membership cycle and one RHA settlement;
//! * **view-agreement** — once the system is quiescent, all correct
//!   in-service nodes hold *identical* views (the paper's agreement
//!   property, which FDA/RHA must preserve through up to `k` omissions
//!   of degree-`j` inconsistency);
//! * **view-validity** — the agreed view is the *right* one: initial
//!   members minus crashed minus left.
//!
//! The oracle is a pure function of [`OracleInput`], so golden-trace
//! tests can hand-build inputs with known violations and assert the
//! exact verdicts.

use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::{Downtime, ProtocolEvent, Retention, TimedEvent};
use canely_federation::InstallRecord;
use std::collections::HashMap;

/// The invariant classes the oracle can report against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InvariantKind {
    /// A live node was suspected or declared failed.
    FalseSuspicion,
    /// A crash was notified late (or never) at a correct observer.
    DetectionLatency,
    /// The view change removing a crashed node was late (or absent).
    ViewChangeLatency,
    /// Correct in-service nodes ended the run with diverging views.
    ViewAgreement,
    /// The agreed view differs from members − crashed − left.
    ViewValidity,
    /// Live gateways ended the run with diverging globally installed
    /// segment views.
    GlobalAgreement,
    /// A globally installed view differs from the subject segment's
    /// actual final membership (checked only for subjects whose
    /// representative survived to report it).
    GlobalValidity,
    /// After a gateway loss, the global view did not re-converge to the
    /// promoted successor's re-announced segment view within the
    /// analytic rejoin bound (checked when a quorum of representatives
    /// survived).
    RejoinLatency,
}

impl InvariantKind {
    /// The stable kebab-case label used in summaries and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            InvariantKind::FalseSuspicion => "false-suspicion",
            InvariantKind::DetectionLatency => "detection-latency",
            InvariantKind::ViewChangeLatency => "view-change-latency",
            InvariantKind::ViewAgreement => "view-agreement",
            InvariantKind::ViewValidity => "view-validity",
            InvariantKind::GlobalAgreement => "global-view-agreement",
            InvariantKind::GlobalValidity => "global-view-validity",
            InvariantKind::RejoinLatency => "rejoin-latency",
        }
    }
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One oracle verdict: which invariant broke, where, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The broken invariant.
    pub invariant: InvariantKind,
    /// The node the violation is attributed to (observer for latency
    /// violations, the wrongly suspected node for false suspicion).
    pub node: Option<NodeId>,
    /// The instant the violation became observable, if point-like.
    pub time: Option<BitTime>,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.invariant)?;
        if let Some(node) = self.node {
            write!(f, " at {node}")?;
        }
        if let Some(time) = self.time {
            write!(f, " (t={time})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A node's end-of-run state, as read off the simulator.
#[derive(Debug, Clone, Copy)]
pub struct NodeFinal {
    /// The node.
    pub node: NodeId,
    /// Powered and not crashed at the horizon.
    pub alive: bool,
    /// Alive *and* integrated in the membership service.
    pub in_service: bool,
    /// The node's current view.
    pub view: NodeSet,
}

/// Everything the oracle judges: the merged event trace, final states,
/// and the admission bounds the caller derived from
/// `canely-analysis::bounds`.
#[derive(Debug, Clone, Copy)]
pub struct OracleInput<'a> {
    /// The run's protocol events (any order; the oracle sorts).
    pub events: &'a [TimedEvent],
    /// Final state of every node in the population.
    pub finals: &'a [NodeFinal],
    /// The run horizon.
    pub horizon: BitTime,
    /// The initial membership.
    pub members: NodeSet,
    /// Whether every scheduled disturbance settled before the horizon;
    /// end-state view checks only run when true.
    pub quiescent: bool,
    /// When the population finished bootstrapping (views installed,
    /// surveillance armed). Latency clocks for crashes before this
    /// instant start here — a node that dies during integration is
    /// only detectable once the detector exists.
    pub operational_from: BitTime,
    /// Admissible crash-to-`fd.notified` latency.
    pub detection_bound: BitTime,
    /// Admissible crash-to-view-change latency.
    pub view_change_bound: BitTime,
}

/// The event kinds the judge reads: exactly those [`check`],
/// [`canely::obs::latency_samples`] and [`crate::run::false_suspicion_count`]
/// match on. Each of the three returns the same on a stream and on the
/// stream's judged subset (relative order kept), so a run nobody
/// exports need not store anything else — this is the retention set
/// the executor installs on the logs of a non-capturing run.
pub const JUDGED: Retention = {
    let (node, view) = (NodeId::new(0), NodeSet::EMPTY);
    Retention::of(&[
        ProtocolEvent::NodeCrashed,
        ProtocolEvent::NodeRestarted,
        ProtocolEvent::LeaveRequested,
        ProtocolEvent::SuspectRaised { suspect: node },
        ProtocolEvent::FailureNotified { failed: node },
        ProtocolEvent::ViewInstalled { view },
        ProtocolEvent::ViewChanged { view, failed: view },
    ])
};

/// Whether the judge reads `event`'s kind ([`JUDGED`]).
pub fn judged(event: &ProtocolEvent) -> bool {
    JUDGED.keeps(event)
}

/// The [`judged`] events of a stream, in stream order: one pass, so
/// the judge's per-crash and per-suspicion rescans walk only what they
/// can match.
pub fn judged_subset(events: &[TimedEvent]) -> Vec<TimedEvent> {
    events
        .iter()
        .filter(|e| judged(&e.event))
        .copied()
        .collect()
}

/// Checks every invariant and returns all violations, ordered by
/// (invariant, node, time).
pub fn check(input: &OracleInput<'_>) -> Vec<Violation> {
    let mut events: Vec<&TimedEvent> = input.events.iter().collect();
    events.sort_by_key(|e| e.time);

    // Ground truth: the down intervals — a restart marker ends one, the
    // node is live and re-integrating again, so latency clocks for the
    // preceding crash stop there — and the first leave request per
    // node.
    let down = Downtime::of(input.events);
    let mut left_at: HashMap<NodeId, BitTime> = HashMap::new();
    for e in &events {
        if matches!(e.event, ProtocolEvent::LeaveRequested) {
            left_at.entry(e.node).or_insert(e.time);
        }
    }
    let dead_or_leaving = |node: NodeId, t: BitTime| {
        down.down_at(node, t) || left_at.get(&node).is_some_and(|&tl| tl <= t)
    };

    let mut violations = Vec::new();

    // ── false-suspicion ─────────────────────────────────────────────
    // Report each wrongly targeted node once, at the first offence.
    let mut flagged = NodeSet::EMPTY;
    for e in &events {
        let target = match e.event {
            ProtocolEvent::SuspectRaised { suspect } => Some(suspect),
            ProtocolEvent::FailureNotified { failed } => Some(failed),
            _ => None,
        };
        let Some(target) = target else { continue };
        if flagged.contains(target) || dead_or_leaving(target, e.time) {
            continue;
        }
        flagged.insert(target);
        violations.push(Violation {
            invariant: InvariantKind::FalseSuspicion,
            node: Some(target),
            time: Some(e.time),
            detail: format!(
                "{} {target} at node {} while {target} was live ({})",
                if matches!(e.event, ProtocolEvent::SuspectRaised { .. }) {
                    "suspected"
                } else {
                    "declared failed"
                },
                e.node,
                down.first_crash(target).map_or_else(
                    || "never crashed".to_string(),
                    |tc| format!("crashed only at t={tc}")
                ),
            ),
        });
    }

    // ── per-crash latency bounds ────────────────────────────────────
    // Observers: members that never crashed or left. A node must have
    // shown activity before the crash to count (it has: every booted
    // node arms timers from t = 0).
    let observers: Vec<NodeId> = input
        .members
        .iter()
        .filter(|&n| down.first_crash(n).is_none() && !left_at.contains_key(&n))
        .collect();
    let mut crashes: Vec<(BitTime, Option<BitTime>, NodeId)> = down
        .intervals()
        .iter()
        .filter(|&&(n, ..)| input.members.contains(n))
        .map(|&(n, tc, end)| (tc, end, n))
        .collect();
    crashes.sort();
    // Both latency rules: the first matching event at an observer in
    // the window — an fd.notified(victim) for detection, a view without
    // the victim for view change — is a violation if it is too late,
    // and so is none once the window outlasts the bound.
    let answers = |invariant, event, victim| match event {
        ProtocolEvent::FailureNotified { failed } => {
            invariant == InvariantKind::DetectionLatency && failed == victim
        }
        ProtocolEvent::ViewInstalled { view } | ProtocolEvent::ViewChanged { view, .. } => {
            invariant == InvariantKind::ViewChangeLatency && !view.contains(victim)
        }
        _ => false,
    };
    let rules = [
        (InvariantKind::DetectionLatency, input.detection_bound),
        (InvariantKind::ViewChangeLatency, input.view_change_bound),
    ];
    for &(tc, end, victim) in &crashes {
        // Latency clocks start when both the crash has happened and
        // the detectors are armed; a restart of the victim closes the
        // observation window (the node is heartbeating again, so
        // detections that had not fired yet legitimately never will).
        let t0 = tc.max(input.operational_from);
        let window_end = end.unwrap_or(input.horizon);
        for &o in &observers {
            for (invariant, bound) in rules {
                let found = events.iter().find(|e| {
                    e.node == o
                        && e.time >= tc
                        && e.time < window_end
                        && answers(invariant, e.event, victim)
                });
                let time = found.map(|e| e.time);
                let latency = time.unwrap_or(window_end).saturating_sub(t0);
                if latency <= bound {
                    continue;
                }
                let detail = match (invariant, time) {
                    (InvariantKind::DetectionLatency, Some(_)) => format!(
                        "crash of {victim} at t={tc} notified after {latency} \
                         (bound {bound})"
                    ),
                    (InvariantKind::DetectionLatency, None) => format!(
                        "crash of {victim} at t={tc} never notified \
                         (bound {bound} expired before the horizon)"
                    ),
                    (_, Some(_)) => format!(
                        "view excluding {victim} (crashed t={tc}) installed \
                         after {latency} (bound {bound})"
                    ),
                    (_, None) => format!(
                        "no view excluding {victim} (crashed t={tc}) installed \
                         (bound {bound} expired before the horizon)"
                    ),
                };
                violations.push(Violation {
                    invariant,
                    node: Some(o),
                    time,
                    detail,
                });
            }
        }
    }

    // ── end-state agreement and validity (quiescent runs only) ──────
    if input.quiescent {
        let correct: Vec<&NodeFinal> = input
            .finals
            .iter()
            .filter(|f| f.alive && f.in_service)
            .collect();
        if let Some(first) = correct.first() {
            if correct.iter().any(|f| f.view != first.view) {
                let mut detail = String::from("diverging final views:");
                for f in &correct {
                    detail.push_str(&format!(" {}={}", f.node, f.view));
                }
                violations.push(Violation {
                    invariant: InvariantKind::ViewAgreement,
                    node: None,
                    time: None,
                    detail,
                });
            }
            // A node whose last lifecycle marker is a restart is back
            // up (and, by quiescence, re-integrated): only nodes still
            // down at the horizon leave the expected view.
            let mut expected = input.members;
            for &(n, ..) in down.intervals() {
                if down.down_at(n, input.horizon) {
                    expected.remove(n);
                }
            }
            for &n in left_at.keys() {
                expected.remove(n);
            }
            for f in &correct {
                if f.view != expected {
                    violations.push(Violation {
                        invariant: InvariantKind::ViewValidity,
                        node: Some(f.node),
                        time: None,
                        detail: format!(
                            "final view {} differs from expected {expected} \
                             (members − crashed − left)",
                            f.view
                        ),
                    });
                }
            }
        }
    }

    violations.sort_by_key(|v| (v.invariant, v.node.map(NodeId::as_u8), v.time));
    violations
}

/// A gateway's end-of-run federation state, as read off the simulator.
/// Since the self-healing rework the *gateway* is whichever node holds
/// the active role at the horizon — the configured one or an elected
/// successor.
#[derive(Debug, Clone)]
pub struct GatewayFinal {
    /// The segment this gateway represents.
    pub seg: u8,
    /// Whether the segment still has a live acting representative at
    /// the horizon (the configured gateway or a promoted standby).
    pub alive: bool,
    /// Globally installed `(epoch, view)` per subject segment
    /// (indexed by subject; `None` = no quorum ever formed).
    pub installed: Vec<Option<(u32, NodeSet)>>,
    /// Every global install this representative decided, in order —
    /// the evidence for the rejoin-latency check.
    pub install_log: Vec<InstallRecord>,
}

/// What the global (federation-level) oracle judges: each gateway's
/// installed views against the segments' actual final memberships.
#[derive(Debug, Clone)]
pub struct GlobalOracleInput<'a> {
    /// Final state of every segment's gateway.
    pub gateways: &'a [GatewayFinal],
    /// Each segment's actual final membership (initial members minus
    /// everything that crashed there, including a crashed gateway).
    pub expected: &'a [NodeSet],
    /// Whether every scheduled disturbance — including bridge-level
    /// ones — settled before the horizon. The stable-cut rule only
    /// promises convergence after the digest gossip has had a
    /// propagation round, which the settle margin must cover; nothing
    /// is checked on non-quiescent runs.
    pub quiescent: bool,
    /// Representatives required for a global install
    /// (`canely_federation::quorum`).
    pub quorum: usize,
    /// Scheduled gateway losses `(segment, crash instant)` — each one
    /// starts a rejoin-latency clock.
    pub gateway_losses: &'a [(u8, BitTime)],
    /// Admissible gateway-loss-to-reconverged-install latency.
    pub rejoin_bound: BitTime,
    /// The run horizon (rejoin clocks still running there are not
    /// judged).
    pub horizon: BitTime,
}

/// Checks the hierarchical-membership invariants of a federated run:
///
/// * **global-view-agreement** — all *live* gateways hold identical
///   globally installed views for every subject segment (skipped when
///   fewer than a quorum of gateways survived: without a quorum the
///   stable-cut rule freezes by design, and stale-but-identical is the
///   only guarantee left — which the pairwise check still covers for
///   whatever was installed);
/// * **global-view-validity** — for every subject whose own
///   representative survived (so fresh digests kept flowing), the
///   installed view equals the segment's actual final membership.
///   Subjects with a crashed representative are exempt: their last
///   reported view is legitimately frozen;
/// * **rejoin-latency** — after every scheduled gateway loss whose
///   segment recovered a representative (the election promoted a
///   successor), each live representative must install a *fresher*
///   view of the bereaved segment — an epoch above everything it held
///   at the loss — within the analytic rejoin bound. Skipped without a
///   surviving quorum (the stable cut freezes by design) and for
///   clocks still running at the horizon.
pub fn check_global(input: &GlobalOracleInput<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !input.quiescent {
        return violations;
    }
    let live: Vec<&GatewayFinal> = input.gateways.iter().filter(|g| g.alive).collect();
    let rep_alive = |seg: u8| live.iter().any(|g| g.seg == seg);

    // Agreement: pairwise identical installed views among live
    // gateways, per subject.
    for (subject, _) in input.expected.iter().enumerate() {
        let mut claims = live
            .iter()
            .map(|g| (g.seg, g.installed.get(subject).copied().flatten()));
        if let Some((first_seg, first)) = claims.next() {
            for (seg, claim) in claims {
                if claim != first {
                    violations.push(Violation {
                        invariant: InvariantKind::GlobalAgreement,
                        node: None,
                        time: None,
                        detail: format!(
                            "gateways of segments {first_seg} and {seg} disagree about \
                             segment {subject}: {} vs {}",
                            fmt_claim(first),
                            fmt_claim(claim)
                        ),
                    });
                }
            }
        }
    }

    // Validity: needs a quorum of live reporters to have been able to
    // re-install after the last disturbance.
    if live.len() >= input.quorum {
        for (subject, &expected) in input.expected.iter().enumerate() {
            if !rep_alive(subject as u8) {
                continue; // frozen by representative loss — exempt
            }
            for g in &live {
                let installed = g.installed.get(subject).copied().flatten();
                if installed.map(|(_, view)| view) != Some(expected) {
                    violations.push(Violation {
                        invariant: InvariantKind::GlobalValidity,
                        node: None,
                        time: None,
                        detail: format!(
                            "gateway of segment {} holds {} for segment {subject}, \
                             whose actual final membership is {expected}",
                            g.seg,
                            fmt_claim(installed)
                        ),
                    });
                }
            }
        }
    }

    // Rejoin latency: every gateway loss whose segment recovered a
    // representative must re-converge the global view in time.
    if live.len() >= input.quorum {
        for &(subject, tc) in input.gateway_losses {
            if !rep_alive(subject) {
                continue; // the segment never recovered a representative
            }
            let deadline = tc + input.rejoin_bound;
            if deadline > input.horizon {
                continue; // the clock was still running at the horizon
            }
            for g in &live {
                let pre = g
                    .install_log
                    .iter()
                    .filter(|r| r.subject == subject && r.at <= tc)
                    .map(|r| r.epoch)
                    .max();
                let rejoined = g
                    .install_log
                    .iter()
                    .find(|r| r.subject == subject && r.at > tc && pre.is_none_or(|e| r.epoch > e));
                match rejoined {
                    Some(r) if r.at <= deadline => {}
                    Some(r) => violations.push(Violation {
                        invariant: InvariantKind::RejoinLatency,
                        node: None,
                        time: Some(r.at),
                        detail: format!(
                            "segment {subject} lost its gateway at t={tc}; the \
                             gateway of segment {} re-installed its view only \
                             after {} (bound {})",
                            g.seg,
                            r.at.saturating_sub(tc),
                            input.rejoin_bound
                        ),
                    }),
                    None => violations.push(Violation {
                        invariant: InvariantKind::RejoinLatency,
                        node: None,
                        time: None,
                        detail: format!(
                            "segment {subject} lost its gateway at t={tc} and the \
                             gateway of segment {} never installed the successor's \
                             re-announced view (bound {})",
                            g.seg, input.rejoin_bound
                        ),
                    }),
                }
            }
        }
    }
    violations
}

fn fmt_claim(claim: Option<(u32, NodeSet)>) -> String {
    match claim {
        Some((epoch, view)) => format!("{view}@e{epoch}"),
        None => "nothing installed".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(InvariantKind::FalseSuspicion.label(), "false-suspicion");
        assert_eq!(InvariantKind::ViewAgreement.label(), "view-agreement");
    }

    fn gw(seg: u8, alive: bool, installed: Vec<Option<(u32, NodeSet)>>) -> GatewayFinal {
        GatewayFinal {
            seg,
            alive,
            installed,
            install_log: Vec::new(),
        }
    }

    fn no_losses<'a>(
        gateways: &'a [GatewayFinal],
        expected: &'a [NodeSet],
        quiescent: bool,
        quorum: usize,
    ) -> GlobalOracleInput<'a> {
        GlobalOracleInput {
            gateways,
            expected,
            quiescent,
            quorum,
            gateway_losses: &[],
            rejoin_bound: BitTime::new(100_000),
            horizon: BitTime::new(1_000_000),
        }
    }

    #[test]
    fn global_oracle_flags_disagreement_and_staleness() {
        let full = NodeSet::first_n(4);
        let reduced = full - NodeSet::singleton(NodeId::new(2));
        let expected = vec![full, reduced, full];
        // Segment 1's rep is alive but gateway 2 still holds the stale
        // full view about it: both agreement and validity break.
        let gateways = vec![
            gw(
                0,
                true,
                vec![Some((1, full)), Some((2, reduced)), Some((1, full))],
            ),
            gw(
                1,
                true,
                vec![Some((1, full)), Some((2, reduced)), Some((1, full))],
            ),
            gw(
                2,
                true,
                vec![Some((1, full)), Some((1, full)), Some((1, full))],
            ),
        ];
        let violations = check_global(&no_losses(&gateways, &expected, true, 2));
        assert!(violations
            .iter()
            .any(|v| v.invariant == InvariantKind::GlobalAgreement));
        assert!(violations
            .iter()
            .any(|v| v.invariant == InvariantKind::GlobalValidity));
    }

    #[test]
    fn global_oracle_exempts_frozen_and_quorumless_states() {
        let full = NodeSet::first_n(4);
        let reduced = full - NodeSet::singleton(NodeId::new(3));
        // Segment 1's gateway crashed *and* a node crashed there after:
        // the frozen full view about segment 1 is legitimate as long as
        // the live gateways agree on it.
        let gateways = vec![
            gw(0, true, vec![Some((1, full)), Some((1, full))]),
            gw(1, false, vec![Some((1, full)), Some((1, full))]),
        ];
        let violations = check_global(&no_losses(&gateways, &[full, reduced], true, 2));
        assert!(
            violations.is_empty(),
            "frozen views of dead representatives are exempt: {violations:?}"
        );
        // Nothing at all is checked before quiescence.
        let violations = check_global(&no_losses(&gateways, &[reduced, reduced], false, 2));
        assert!(violations.is_empty());
    }

    #[test]
    fn rejoin_check_demands_a_fresh_install_in_time() {
        let full = NodeSet::first_n(4);
        let reduced = full - NodeSet::singleton(NodeId::new(0));
        let expected = vec![full, reduced, full];
        let record = |subject, epoch, view, at| InstallRecord {
            subject,
            epoch,
            view,
            at: BitTime::new(at),
        };
        // Segment 1 lost its gateway at t=200k; reps installed the
        // successor's epoch-3 view at 240k — inside a 100k bound.
        let mut gateways = vec![
            gw(
                0,
                true,
                vec![Some((1, full)), Some((3, reduced)), Some((1, full))],
            ),
            gw(
                1,
                true,
                vec![Some((1, full)), Some((3, reduced)), Some((1, full))],
            ),
            gw(
                2,
                true,
                vec![Some((1, full)), Some((3, reduced)), Some((1, full))],
            ),
        ];
        for g in &mut gateways {
            g.install_log = vec![record(1, 1, full, 50_000), record(1, 3, reduced, 240_000)];
        }
        let losses = [(1u8, BitTime::new(200_000))];
        let input = GlobalOracleInput {
            gateway_losses: &losses,
            ..no_losses(&gateways, &expected, true, 2)
        };
        assert!(
            check_global(&input).is_empty(),
            "{:?}",
            check_global(&input)
        );

        // The same log judged against a 30k bound is late; a log with
        // no post-loss install never rejoined.
        let tight = GlobalOracleInput {
            rejoin_bound: BitTime::new(30_000),
            ..input.clone()
        };
        let violations = check_global(&tight);
        assert_eq!(violations.len(), 3);
        assert!(violations
            .iter()
            .all(|v| v.invariant == InvariantKind::RejoinLatency));
        for g in &mut gateways {
            g.install_log.truncate(1);
        }
        let input = GlobalOracleInput {
            gateway_losses: &losses,
            ..no_losses(&gateways, &expected, true, 2)
        };
        assert!(check_global(&input)
            .iter()
            .all(|v| v.invariant == InvariantKind::RejoinLatency && v.time.is_none()));
        assert_eq!(check_global(&input).len(), 3);
    }

    #[test]
    fn empty_input_is_clean() {
        let input = OracleInput {
            events: &[],
            finals: &[],
            horizon: BitTime::new(100_000),
            members: NodeSet::first_n(4),
            quiescent: true,
            operational_from: BitTime::ZERO,
            detection_bound: BitTime::new(10_000),
            view_change_bound: BitTime::new(50_000),
        };
        assert!(check(&input).is_empty());
    }
}
