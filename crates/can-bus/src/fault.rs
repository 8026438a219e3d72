//! Fault injection honouring the paper's failure-mode assumptions.
//!
//! Section 4 bounds the misbehaviour of network components:
//!
//! * individual components are *weak-fail-silent* with omission degree
//!   `k` — the injector therefore never fails more than `k` successive
//!   attempts of the same transmission (MCAN3);
//! * some of the `k` omissions may be **inconsistent** (LCAN4, bounded
//!   by degree `j`): a fault in the last-two-bits region lets a subset
//!   of the receivers accept the frame while the rest reject it — on
//!   retransmission the accepters see a duplicate, and if the sender
//!   crashes before retransmitting the omission stays inconsistent;
//! * node crash failures (at most `f` per interval of reference);
//! * inaccessibility periods, where the bus refrains from providing
//!   service while remaining operational (\[22\]).
//!
//! Faults are injected from an explicit *script* (deterministic
//! scenarios for tests and benchmarks) and/or from seeded per-
//! transmission probabilities (fault campaigns).

use can_types::{mix64, BitTime, Frame, Mid, MsgType, NodeId, NodeSet, GOLDEN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Which receivers accept an inconsistently omitted frame.
#[derive(Debug, Clone)]
pub enum AccepterSpec {
    /// Exactly this set of nodes accepts (intersected with the actual
    /// listener set at injection time).
    Exactly(NodeSet),
    /// A random non-empty strict subset of the listeners accepts.
    RandomSubset,
    /// Every listener except these nodes accepts.
    AllExcept(NodeSet),
}

/// The effect of an injected fault on one transmission.
#[derive(Debug, Clone)]
pub enum FaultEffect {
    /// All receivers reject the frame; the transmitter sees the error
    /// and automatically retransmits. Masked at the LLC level (LCAN2).
    ConsistentOmission,
    /// A subset of receivers accepts the frame (the last-two-bits
    /// scenario of \[18\]).
    InconsistentOmission {
        /// Who accepts.
        accepters: AccepterSpec,
        /// Whether the sender crashes immediately after this
        /// transmission, *before* retransmitting — producing the
        /// inconsistent message omission that FDA/RHA must mask.
        crash_sender: bool,
    },
}

/// Selects the transmissions a scripted fault applies to.
///
/// All populated fields must match. `skip_matches` skips the first *n*
/// otherwise-matching transmissions, which allows targeting e.g. "the
/// second RHV signal of node 3".
#[derive(Debug, Clone, Default)]
pub struct FaultMatcher {
    /// Match only frames of this message type.
    pub msg_type: Option<MsgType>,
    /// Match only frames whose mid node field equals this node.
    pub mid_node: Option<NodeId>,
    /// Match only transmissions where this node is a transmitter.
    pub sender: Option<NodeId>,
    /// Match only transmissions starting at or after this instant.
    pub not_before: BitTime,
    /// Skip the first `skip_matches` matching transmissions.
    pub skip_matches: u32,
}

impl FaultMatcher {
    /// Matches every transmission.
    pub fn any() -> Self {
        FaultMatcher::default()
    }

    /// Matches frames of the given message type.
    pub fn of_type(msg_type: MsgType) -> Self {
        FaultMatcher {
            msg_type: Some(msg_type),
            ..FaultMatcher::default()
        }
    }

    fn matches(&self, attempt: &TxAttempt<'_>) -> bool {
        if attempt.now < self.not_before {
            return false;
        }
        let mid = Mid::from_can_id(attempt.frame.id());
        if let Some(want) = self.msg_type {
            match mid {
                Some(m) if m.msg_type() == want => {}
                _ => return false,
            }
        }
        if let Some(node) = self.mid_node {
            match mid {
                Some(m) if m.node() == node => {}
                _ => return false,
            }
        }
        if let Some(sender) = self.sender {
            if !attempt.transmitters.contains(sender) {
                return false;
            }
        }
        true
    }
}

/// A scripted fault: an effect applied to up to `count` transmissions
/// selected by a matcher.
#[derive(Debug, Clone)]
pub struct ScriptedFault {
    /// Which transmissions to hit.
    pub matcher: FaultMatcher,
    /// What happens to them.
    pub effect: FaultEffect,
    /// How many matching transmissions to hit (1 for a one-shot).
    pub count: u32,
}

#[derive(Debug, Clone)]
struct ScriptedEntry {
    fault: ScriptedFault,
    skipped: u32,
    fired: u32,
}

/// A transmission about to be resolved, as seen by the injector.
#[derive(Debug, Clone, Copy)]
pub struct TxAttempt<'a> {
    /// Start instant of the transmission.
    pub now: BitTime,
    /// The frame on the wire.
    pub frame: &'a Frame,
    /// Nodes transmitting (more than one when clustered).
    pub transmitters: NodeSet,
    /// Nodes listening (alive nodes other than the transmitters).
    pub listeners: NodeSet,
    /// Zero-based retry count of this frame by this transmitter set.
    pub attempt: u32,
}

/// The injector's verdict on one transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// The frame is delivered to every listener.
    Deliver,
    /// Every receiver rejects; automatic retransmission follows.
    ConsistentOmission,
    /// Only `accepters` receive the frame.
    InconsistentOmission {
        /// The subset of listeners that accepts the frame.
        accepters: NodeSet,
        /// Whether the sender must crash before retransmission.
        crash_sender: bool,
    },
}

/// A physical-media fault: on one medium, a set of nodes is severed
/// from the rest for a time window (cable cut, connector failure,
/// localized interference — the "subtle form of partitioning" of
/// \[22\]).
///
/// With a single medium a partition silently splits deliveries — the
/// exact channel failure the system model *excludes* (Sec. 4,
/// footnote: "this assumption can be enforced through the media
/// redundancy scheme described in \[17\]"). With
/// [`FaultPlan::with_media_count`]`(2)` the replicated medium masks
/// any single-medium partition, which is precisely the Columbus'-egg
/// redundancy scheme of \[17\].
#[derive(Debug, Clone)]
pub struct MediaFault {
    /// Index of the affected medium (`0 ..< media_count`).
    pub medium: usize,
    /// Nodes severed from the remaining nodes on that medium (both
    /// directions). `NodeSet::ALL` jams the whole medium.
    pub isolated: NodeSet,
    /// Window start.
    pub from: BitTime,
    /// Window end (exclusive).
    pub until: BitTime,
}

/// Scripted plus stochastic fault injection with paper-model bounds.
///
/// # Stochastic stability
///
/// Stochastic draws come from a **per-transmission independent
/// stream**: each [`decide`](FaultPlan::decide) call derives a fresh
/// [`SmallRng`] from the plan seed and the attempt's coordinates
/// (instant, CAN identifier, retry count, transmitter set) instead of
/// advancing one shared generator. Adding, removing, or re-ordering
/// faults — scripted or stochastic — therefore never perturbs the
/// draws of *unrelated* later transmissions: a transmission's fate
/// depends only on the seed and on that transmission itself. Fault
/// campaigns rely on this to shrink a failing schedule while keeping
/// the surviving faults bit-identical.
///
/// # Examples
///
/// A deterministic scenario: the first explicit life-sign of node 2 is
/// inconsistently omitted and node 2 crashes before retransmitting —
/// only node 0 hears the life-sign:
///
/// ```
/// use can_bus::fault::{AccepterSpec, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
/// use can_types::{MsgType, NodeId, NodeSet};
///
/// let mut plan = FaultPlan::none();
/// plan.push_scripted(ScriptedFault {
///     matcher: FaultMatcher {
///         msg_type: Some(MsgType::Els),
///         mid_node: Some(NodeId::new(2)),
///         ..FaultMatcher::default()
///     },
///     effect: FaultEffect::InconsistentOmission {
///         accepters: AccepterSpec::Exactly(NodeSet::singleton(NodeId::new(0))),
///         crash_sender: true,
///     },
///     count: 1,
/// });
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    consistent_rate: f64,
    inconsistent_rate: f64,
    scripted: Vec<ScriptedEntry>,
    inaccessibility: Vec<(BitTime, BitTime)>,
    /// MCAN3: at most `omission_degree` omissions per sliding window.
    omission_degree: u32,
    omission_window: BitTime,
    recent_omissions: VecDeque<BitTime>,
    /// LCAN4: at most `inconsistent_degree` inconsistent omissions per
    /// sliding window.
    inconsistent_degree: u32,
    recent_inconsistent: VecDeque<BitTime>,
    /// Number of replicated physical media (the scheme of \[17\]).
    media_count: usize,
    media_faults: Vec<MediaFault>,
}

impl FaultPlan {
    /// A plan that injects no faults at all.
    pub fn none() -> Self {
        FaultPlan::seeded(0)
    }

    /// An inert plan with the given RNG seed (stochastic rates start
    /// at zero; configure them with the `with_*` methods).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            consistent_rate: 0.0,
            inconsistent_rate: 0.0,
            scripted: Vec::new(),
            inaccessibility: Vec::new(),
            omission_degree: 16,
            omission_window: BitTime::new(100_000),
            recent_omissions: VecDeque::new(),
            inconsistent_degree: 2,
            recent_inconsistent: VecDeque::new(),
            media_count: 1,
            media_faults: Vec::new(),
        }
    }

    /// Sets the number of replicated physical media (default 1). The
    /// media redundancy scheme of \[17\] uses 2: every transmission is
    /// driven onto both media, so a single-medium partition is masked.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn with_media_count(mut self, count: usize) -> Self {
        assert!(count > 0, "at least one medium is required");
        self.media_count = count;
        self
    }

    /// The configured number of media.
    pub fn media_count(&self) -> usize {
        self.media_count
    }

    /// Declares a media fault.
    ///
    /// # Panics
    ///
    /// Panics if the medium index is out of range or the window is
    /// empty.
    pub fn push_media_fault(&mut self, fault: MediaFault) {
        assert!(fault.medium < self.media_count, "medium index out of range");
        assert!(
            fault.from < fault.until,
            "media fault window must be non-empty"
        );
        self.media_faults.push(fault);
    }

    /// The subset of `candidates` a frame transmitted by `from` at
    /// `now` physically reaches: a node is reachable if on *some*
    /// medium it sits on the same side of every active fault as the
    /// transmitter.
    pub fn reachable_from(&self, now: BitTime, from: NodeId, candidates: NodeSet) -> NodeSet {
        if self.media_faults.is_empty() {
            return candidates;
        }
        let mut reachable = NodeSet::EMPTY;
        for medium in 0..self.media_count {
            let mut group = candidates;
            for fault in &self.media_faults {
                if fault.medium != medium || now < fault.from || now >= fault.until {
                    continue;
                }
                if fault.isolated.contains(from) {
                    group &= fault.isolated;
                } else {
                    group -= fault.isolated;
                }
            }
            reachable |= group;
        }
        reachable
    }

    /// Sets the per-transmission probability of a consistent omission.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not within `[0, 1]`.
    pub fn with_consistent_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.consistent_rate = rate;
        self
    }

    /// Sets the per-transmission probability of an inconsistent
    /// omission (random accepter subset, no sender crash).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not within `[0, 1]`.
    pub fn with_inconsistent_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.inconsistent_rate = rate;
        self
    }

    /// Bounds stochastic omissions: at most `degree` per `window`
    /// (MCAN3's `k` in `Tk`). Scripted faults are exempt — scripts are
    /// assumed to encode a scenario the caller wants verbatim.
    pub fn with_omission_bound(mut self, degree: u32, window: BitTime) -> Self {
        self.omission_degree = degree;
        self.omission_window = window;
        self
    }

    /// Bounds stochastic *inconsistent* omissions: at most `degree`
    /// per omission window (LCAN4's `j`).
    pub fn with_inconsistent_bound(mut self, degree: u32) -> Self {
        self.inconsistent_degree = degree;
        self
    }

    /// Adds a scripted fault.
    pub fn push_scripted(&mut self, fault: ScriptedFault) {
        self.scripted.push(ScriptedEntry {
            fault,
            skipped: 0,
            fired: 0,
        });
    }

    /// Declares a bus inaccessibility period `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn push_inaccessibility(&mut self, from: BitTime, until: BitTime) {
        assert!(from < until, "inaccessibility period must be non-empty");
        self.inaccessibility.push((from, until));
        self.inaccessibility.sort();
    }

    /// If the bus is inaccessible at `now`, returns the end of the
    /// enclosing period.
    pub fn hold_until(&self, now: BitTime) -> Option<BitTime> {
        self.inaccessibility
            .iter()
            .find(|&&(from, until)| now >= from && now < until)
            .map(|&(_, until)| until)
    }

    /// Decides the fate of one transmission.
    ///
    /// Stochastic decisions draw from a stream derived solely from the
    /// plan seed and this attempt's coordinates (see *Stochastic
    /// stability* on [`FaultPlan`]); the verdict for one transmission
    /// is independent of how many other transmissions were decided
    /// before it.
    pub fn decide(&mut self, attempt: &TxAttempt<'_>) -> Disposition {
        let mut rng = self.attempt_stream(attempt);
        // Scripted faults take precedence and ignore stochastic caps.
        for entry in &mut self.scripted {
            if entry.fired >= entry.fault.count {
                continue;
            }
            if !entry.fault.matcher.matches(attempt) {
                continue;
            }
            if entry.skipped < entry.fault.matcher.skip_matches {
                entry.skipped += 1;
                continue;
            }
            entry.fired += 1;
            return match &entry.fault.effect {
                FaultEffect::ConsistentOmission => Disposition::ConsistentOmission,
                FaultEffect::InconsistentOmission {
                    accepters,
                    crash_sender,
                } => {
                    let accepters = Self::resolve_accepters(&mut rng, accepters, attempt.listeners);
                    Disposition::InconsistentOmission {
                        accepters,
                        crash_sender: *crash_sender,
                    }
                }
            };
        }

        // Stochastic faults, bounded per MCAN3/LCAN4. A frame that has
        // already burned its omission degree is let through: the model
        // says failure bursts never exceed k transmissions.
        self.expire(attempt.now);
        if attempt.attempt >= self.omission_degree {
            return Disposition::Deliver;
        }
        let omission_budget = self.recent_omissions.len() < self.omission_degree as usize;
        if omission_budget && self.inconsistent_rate > 0.0 {
            let inconsistent_budget =
                self.recent_inconsistent.len() < self.inconsistent_degree as usize;
            if inconsistent_budget
                && rng.gen_bool(self.inconsistent_rate)
                && !attempt.listeners.is_empty()
            {
                self.recent_omissions.push_back(attempt.now);
                self.recent_inconsistent.push_back(attempt.now);
                let accepters = Self::resolve_accepters(
                    &mut rng,
                    &AccepterSpec::RandomSubset,
                    attempt.listeners,
                );
                return Disposition::InconsistentOmission {
                    accepters,
                    crash_sender: false,
                };
            }
        }
        if omission_budget && self.consistent_rate > 0.0 && rng.gen_bool(self.consistent_rate) {
            self.recent_omissions.push_back(attempt.now);
            return Disposition::ConsistentOmission;
        }
        Disposition::Deliver
    }

    /// Derives the independent RNG stream for one transmission.
    ///
    /// The stream key folds in every coordinate that identifies the
    /// attempt — instant, CAN identifier, retry count and transmitter
    /// set — through a splitmix64-style finalizer, so distinct
    /// attempts get statistically independent streams while the same
    /// attempt under the same seed always draws identically.
    fn attempt_stream(&self, attempt: &TxAttempt<'_>) -> SmallRng {
        let mut h = mix64(self.seed ^ GOLDEN);
        for word in [
            attempt.now.as_u64(),
            u64::from(attempt.frame.id().raw()),
            u64::from(attempt.attempt),
            attempt.transmitters.bits(),
        ] {
            h = mix64(h.wrapping_add(GOLDEN) ^ word);
        }
        SmallRng::seed_from_u64(h)
    }

    fn expire(&mut self, now: BitTime) {
        let horizon = now.saturating_sub(self.omission_window);
        while self.recent_omissions.front().is_some_and(|&t| t < horizon) {
            self.recent_omissions.pop_front();
        }
        while self
            .recent_inconsistent
            .front()
            .is_some_and(|&t| t < horizon)
        {
            self.recent_inconsistent.pop_front();
        }
    }

    fn resolve_accepters(rng: &mut SmallRng, spec: &AccepterSpec, listeners: NodeSet) -> NodeSet {
        match spec {
            AccepterSpec::Exactly(set) => *set & listeners,
            AccepterSpec::AllExcept(set) => listeners - *set,
            AccepterSpec::RandomSubset => {
                if listeners.len() <= 1 {
                    // With one listener the only inconsistency is a
                    // full omission at that node.
                    return NodeSet::EMPTY;
                }
                loop {
                    let mask: u64 = rng.gen();
                    let subset = NodeSet::from_bits(mask) & listeners;
                    // Non-empty strict subset: inconsistency requires
                    // disagreement among listeners.
                    if !subset.is_empty() && subset != listeners {
                        return subset;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{Frame, Mid};

    fn attempt<'a>(frame: &'a Frame, now: u64, attempt_no: u32) -> TxAttempt<'a> {
        TxAttempt {
            now: BitTime::new(now),
            frame,
            transmitters: NodeSet::singleton(NodeId::new(1)),
            listeners: NodeSet::from_bits(0b1111_1101),
            attempt: attempt_no,
        }
    }

    fn els_frame(node: u8) -> Frame {
        Frame::remote(Mid::new(MsgType::Els, 0, NodeId::new(node)))
    }

    #[test]
    fn no_faults_means_deliver() {
        let mut plan = FaultPlan::none();
        let f = els_frame(1);
        assert_eq!(plan.decide(&attempt(&f, 0, 0)), Disposition::Deliver);
    }

    #[test]
    fn scripted_one_shot_fires_once() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher::of_type(MsgType::Els),
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let f = els_frame(1);
        assert_eq!(
            plan.decide(&attempt(&f, 0, 0)),
            Disposition::ConsistentOmission
        );
        assert_eq!(plan.decide(&attempt(&f, 100, 1)), Disposition::Deliver);
    }

    #[test]
    fn scripted_matcher_filters_by_mid_node() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Els),
                mid_node: Some(NodeId::new(2)),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let other = els_frame(1);
        let target = els_frame(2);
        assert_eq!(plan.decide(&attempt(&other, 0, 0)), Disposition::Deliver);
        assert_eq!(
            plan.decide(&attempt(&target, 10, 0)),
            Disposition::ConsistentOmission
        );
    }

    #[test]
    fn scripted_skip_matches() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Els),
                skip_matches: 2,
                ..FaultMatcher::default()
            },
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let f = els_frame(1);
        assert_eq!(plan.decide(&attempt(&f, 0, 0)), Disposition::Deliver);
        assert_eq!(plan.decide(&attempt(&f, 1, 0)), Disposition::Deliver);
        assert_eq!(
            plan.decide(&attempt(&f, 2, 0)),
            Disposition::ConsistentOmission
        );
    }

    #[test]
    fn scripted_not_before_gate() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                not_before: BitTime::new(1_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        let f = els_frame(1);
        assert_eq!(plan.decide(&attempt(&f, 999, 0)), Disposition::Deliver);
        assert_eq!(
            plan.decide(&attempt(&f, 1_000, 0)),
            Disposition::ConsistentOmission
        );
    }

    #[test]
    fn inconsistent_accepters_are_strict_subset() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::RandomSubset,
                crash_sender: false,
            },
            count: 1,
        });
        let f = els_frame(1);
        let a = attempt(&f, 0, 0);
        match plan.decide(&a) {
            Disposition::InconsistentOmission { accepters, .. } => {
                assert!(!accepters.is_empty());
                assert!(accepters.is_subset(a.listeners));
                assert_ne!(accepters, a.listeners);
            }
            other => panic!("expected inconsistent omission, got {other:?}"),
        }
    }

    #[test]
    fn exactly_spec_intersects_listeners() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                // Node 1 is the transmitter, not a listener.
                accepters: AccepterSpec::Exactly(NodeSet::from_bits(0b11)),
                crash_sender: true,
            },
            count: 1,
        });
        let f = els_frame(1);
        let a = attempt(&f, 0, 0);
        match plan.decide(&a) {
            Disposition::InconsistentOmission {
                accepters,
                crash_sender,
            } => {
                assert_eq!(accepters, NodeSet::singleton(NodeId::new(0)));
                assert!(crash_sender);
            }
            other => panic!("expected inconsistent omission, got {other:?}"),
        }
    }

    #[test]
    fn stochastic_omissions_respect_mcan3_bound() {
        let mut plan = FaultPlan::seeded(42)
            .with_consistent_rate(1.0)
            .with_omission_bound(3, BitTime::new(1_000_000));
        let f = els_frame(1);
        let mut omissions = 0;
        for i in 0..100 {
            if plan.decide(&attempt(&f, i, 0)) == Disposition::ConsistentOmission {
                omissions += 1;
            }
        }
        assert_eq!(omissions, 3, "window bound must cap stochastic omissions");
    }

    #[test]
    fn omission_budget_replenishes_after_window() {
        let mut plan = FaultPlan::seeded(7)
            .with_consistent_rate(1.0)
            .with_omission_bound(1, BitTime::new(100));
        let f = els_frame(1);
        assert_eq!(
            plan.decide(&attempt(&f, 0, 0)),
            Disposition::ConsistentOmission
        );
        // Budget exhausted inside the window (fresh frame, attempt 0).
        assert_eq!(plan.decide(&attempt(&f, 50, 0)), Disposition::Deliver);
        // Window expired: budget replenished.
        assert_eq!(
            plan.decide(&attempt(&f, 200, 0)),
            Disposition::ConsistentOmission
        );
    }

    #[test]
    fn retry_beyond_degree_always_delivers() {
        let mut plan = FaultPlan::seeded(3)
            .with_consistent_rate(1.0)
            .with_omission_bound(u32::MAX, BitTime::new(1)); // no window cap
        let mut plan2 = FaultPlan::seeded(3).with_consistent_rate(1.0);
        let f = els_frame(1);
        // With the default degree 16, attempt 16 must deliver.
        assert_eq!(plan2.decide(&attempt(&f, 0, 16)), Disposition::Deliver);
        let _ = &mut plan;
    }

    #[test]
    fn inaccessibility_periods() {
        let mut plan = FaultPlan::none();
        plan.push_inaccessibility(BitTime::new(100), BitTime::new(200));
        plan.push_inaccessibility(BitTime::new(500), BitTime::new(510));
        assert_eq!(plan.hold_until(BitTime::new(50)), None);
        assert_eq!(plan.hold_until(BitTime::new(100)), Some(BitTime::new(200)));
        assert_eq!(plan.hold_until(BitTime::new(199)), Some(BitTime::new(200)));
        assert_eq!(plan.hold_until(BitTime::new(200)), None);
        assert_eq!(plan.hold_until(BitTime::new(505)), Some(BitTime::new(510)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_inaccessibility_rejected() {
        let mut plan = FaultPlan::none();
        plan.push_inaccessibility(BitTime::new(5), BitTime::new(5));
    }

    #[test]
    fn single_listener_inconsistency_is_full_omission() {
        let mut plan = FaultPlan::none();
        plan.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::RandomSubset,
                crash_sender: false,
            },
            count: 1,
        });
        let f = els_frame(1);
        let a = TxAttempt {
            now: BitTime::ZERO,
            frame: &f,
            transmitters: NodeSet::singleton(NodeId::new(1)),
            listeners: NodeSet::singleton(NodeId::new(0)),
            attempt: 0,
        };
        match plan.decide(&a) {
            Disposition::InconsistentOmission { accepters, .. } => {
                assert!(accepters.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_medium_partition_splits_reachability() {
        let mut plan = FaultPlan::none();
        plan.push_media_fault(MediaFault {
            medium: 0,
            isolated: NodeSet::from_bits(0b1100),
            from: BitTime::new(100),
            until: BitTime::new(200),
        });
        let all = NodeSet::from_bits(0b1111);
        // Before the fault: full reachability.
        assert_eq!(
            plan.reachable_from(BitTime::new(50), NodeId::new(0), all),
            all
        );
        // During: node 0 reaches only its side.
        assert_eq!(
            plan.reachable_from(BitTime::new(150), NodeId::new(0), all),
            NodeSet::from_bits(0b0011)
        );
        // …and an isolated node reaches only the isolated group.
        assert_eq!(
            plan.reachable_from(BitTime::new(150), NodeId::new(3), all),
            NodeSet::from_bits(0b1100)
        );
        // After: healed.
        assert_eq!(
            plan.reachable_from(BitTime::new(200), NodeId::new(0), all),
            all
        );
    }

    #[test]
    fn dual_media_mask_single_partition() {
        // The Columbus'-egg scheme of [17]: the same partition on
        // medium 0 is masked because medium 1 still connects everyone.
        let mut plan = FaultPlan::none().with_media_count(2);
        plan.push_media_fault(MediaFault {
            medium: 0,
            isolated: NodeSet::from_bits(0b1100),
            from: BitTime::ZERO,
            until: BitTime::new(1_000),
        });
        let all = NodeSet::from_bits(0b1111);
        assert_eq!(
            plan.reachable_from(BitTime::new(500), NodeId::new(0), all),
            all
        );
    }

    #[test]
    fn dual_media_fail_only_when_both_partitioned() {
        let mut plan = FaultPlan::none().with_media_count(2);
        for medium in 0..2 {
            plan.push_media_fault(MediaFault {
                medium,
                isolated: NodeSet::from_bits(0b1100),
                from: BitTime::ZERO,
                until: BitTime::new(1_000),
            });
        }
        let all = NodeSet::from_bits(0b1111);
        assert_eq!(
            plan.reachable_from(BitTime::new(500), NodeId::new(0), all),
            NodeSet::from_bits(0b0011)
        );
    }

    #[test]
    fn jammed_medium_isolates_everyone_on_it() {
        let mut plan = FaultPlan::none();
        plan.push_media_fault(MediaFault {
            medium: 0,
            isolated: NodeSet::ALL,
            from: BitTime::ZERO,
            until: BitTime::new(100),
        });
        // Everyone is in the isolated group together: still connected
        // (a jam that severs *all* nodes from "the rest" severs
        // nothing among themselves — use inaccessibility for a true
        // global jam).
        let all = NodeSet::from_bits(0b11);
        assert_eq!(
            plan.reachable_from(BitTime::new(50), NodeId::new(0), all),
            all
        );
    }

    #[test]
    #[should_panic(expected = "medium index out of range")]
    fn media_fault_index_checked() {
        let mut plan = FaultPlan::none();
        plan.push_media_fault(MediaFault {
            medium: 1,
            isolated: NodeSet::EMPTY,
            from: BitTime::ZERO,
            until: BitTime::new(1),
        });
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::seeded(seed).with_consistent_rate(0.3);
            let f = els_frame(1);
            (0..64)
                .map(|i| plan.decide(&attempt(&f, i, 0)) == Disposition::Deliver)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn extra_transmission_does_not_perturb_later_draws() {
        // Stability guarantee: deciding one additional (unrelated)
        // transmission early must not shift the stochastic stream of
        // every transmission after it.
        let f = els_frame(1);
        let decisions = |extra_first: bool| {
            let mut plan = FaultPlan::seeded(77)
                .with_consistent_rate(0.3)
                .with_omission_bound(u32::MAX, BitTime::new(1));
            if extra_first {
                let _ = plan.decide(&attempt(&f, 0, 0));
            }
            (1..=64)
                .map(|i| plan.decide(&attempt(&f, i, 0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(false), decisions(true));
    }

    #[test]
    fn scripted_fault_does_not_perturb_stochastic_draws() {
        // Adding a scripted fault (which consumes RNG words for its
        // random accepter subset) must leave every other
        // transmission's stochastic verdict untouched.
        let f = els_frame(1);
        let decisions = |scripted: bool| {
            let mut plan = FaultPlan::seeded(123)
                .with_consistent_rate(0.25)
                .with_inconsistent_rate(0.1)
                .with_omission_bound(u32::MAX, BitTime::new(1))
                .with_inconsistent_bound(u32::MAX);
            if scripted {
                plan.push_scripted(ScriptedFault {
                    matcher: FaultMatcher {
                        not_before: BitTime::new(32),
                        ..FaultMatcher::default()
                    },
                    effect: FaultEffect::InconsistentOmission {
                        accepters: AccepterSpec::RandomSubset,
                        crash_sender: false,
                    },
                    count: 1,
                });
            }
            (0..64)
                .map(|i| plan.decide(&attempt(&f, i, 0)))
                .enumerate()
                .filter(|&(i, _)| i != 32) // the transmission the script hits
                .map(|(_, d)| d)
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(false), decisions(true));
    }

    #[test]
    fn same_attempt_same_seed_draws_identically() {
        // The per-attempt stream is a pure function of (seed, attempt
        // coordinates): re-deciding the same transmission in a fresh
        // plan reproduces the verdict exactly.
        let f = els_frame(1);
        for i in 0..32 {
            let mut a = FaultPlan::seeded(5).with_consistent_rate(0.5);
            let mut b = FaultPlan::seeded(5).with_consistent_rate(0.5);
            assert_eq!(
                a.decide(&attempt(&f, i * 1_000, 0)),
                b.decide(&attempt(&f, i * 1_000, 0)),
            );
        }
    }

    #[test]
    fn retry_attempts_use_distinct_streams() {
        // Successive retries of the same frame at the same instant
        // still see independent draws (the retry count is part of the
        // stream key) — otherwise a rate < 1 could deterministically
        // repeat for the whole retry ladder.
        let f = els_frame(1);
        let mut plan = FaultPlan::seeded(2024)
            .with_consistent_rate(0.5)
            .with_omission_bound(u32::MAX, BitTime::new(1));
        let verdicts: Vec<_> = (0..16)
            .map(|n| plan.decide(&attempt(&f, 500, n)) == Disposition::Deliver)
            .collect();
        assert!(verdicts.iter().any(|&d| d), "some retry must deliver");
        assert!(verdicts.iter().any(|&d| !d), "some retry must be omitted");
    }
}
