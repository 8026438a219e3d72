//! The shared bus: arbitration, clustering and transaction resolution.
//!
//! The medium resolves one *transaction* at a time: at a bus-idle
//! instant it arbitrates among the pending transmit offers (lowest
//! identifier wins — property of the dominant/recessive signalling),
//! merges wire-identical offers into a single physical transmission
//! (the wired-AND clustering of Sec. 6.2), asks the fault plan for a
//! verdict and produces a [`Transaction`] describing who transmitted,
//! for how long, and which nodes received the frame.
//!
//! MCAN1 (all correct nodes receiving an uncorrupted frame receive the
//! *same* frame) holds by construction: a transaction carries exactly
//! one frame value. MCAN2 (corruption is detected) is modelled by the
//! omission dispositions — a corrupted frame never surfaces as a
//! different frame, it surfaces as a (possibly inconsistent) omission.

use crate::config::BusConfig;
use crate::fault::{Disposition, FaultPlan, TxAttempt};
use crate::trace::{BusTrace, TxRecord};
use can_types::{BitTime, Frame, NodeId, NodeSet, MAX_NODES};
use std::ops::Deref;

/// Outcome of a bus transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// Delivered to every alive node (own transmissions included, as
    /// required of the exposed controller interface).
    Delivered {
        /// All nodes that received the frame (transmitters included).
        receivers: NodeSet,
    },
    /// All receivers rejected the frame; transmitters retransmit
    /// automatically (offer stays pending).
    ConsistentError,
    /// Only a subset accepted (last-two-bits scenario). Transmitters
    /// saw the error flag and will retransmit — unless they crash.
    InconsistentError {
        /// Listeners that accepted the frame.
        accepters: NodeSet,
        /// Whether the transmitters crash before retransmission (the
        /// inconsistent-message-omission scenario of LCAN2).
        crash_sender: bool,
    },
    /// Two alive nodes offered *different* frames with the same
    /// identifier — a protocol-design violation that real CAN turns
    /// into a bit error. Both transmitters back off and retransmit.
    IdCollision,
    /// No reachable node acknowledged the frame (the transmitter is
    /// alone on its side of a media partition). The transmitter
    /// retransmits; per the ISO 11898 exception its TEC stops
    /// escalating once error-passive, so it never goes bus-off from
    /// missing ACKs alone.
    AckError,
}

/// A resolved bus transaction: the [`TxRecord`] the trace keeps, plus
/// the outcome only the driving simulator reads. Derefs to the record.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// What the trace records.
    pub record: TxRecord,
    /// What happened.
    pub outcome: TxOutcome,
}

impl Deref for Transaction {
    type Target = TxRecord;

    fn deref(&self) -> &TxRecord {
        &self.record
    }
}

#[derive(Debug, Clone)]
struct Offer {
    frame: Frame,
    attempts: u32,
    /// Earliest instant this offer may compete again (ACK-error
    /// suspension with exponential backoff; zero otherwise).
    not_before: BitTime,
    /// Instant the controller queued this frame (for queue-delay
    /// profiling; survives retransmissions and lost arbitrations).
    queued_at: BitTime,
    /// Arbitration rounds this offer competed in and lost.
    arb_losses: u32,
}

/// Suspension applied after the `attempts`-th consecutive ACK error:
/// exponential backoff capped at 8192 bit-times. Models the suspend-
/// transmission rule plus driver-level retry management of a frame
/// nobody acknowledges — without it, an unacknowledgeable frame would
/// monopolize the (globally serialized) simulated bus, which a real
/// electrically-partitioned bus would not experience.
fn ack_backoff(attempts: u32) -> BitTime {
    BitTime::new(128u64 << attempts.min(6))
}

/// Fixed-capacity transmit-offer table indexed by dense [`NodeId`].
///
/// Node identifiers are small (`< MAX_NODES`), so the arbitration walk
/// is a bitset scan in ascending node order plus direct slot loads.
#[derive(Debug)]
struct OfferTable {
    slots: Box<[Option<Offer>]>,
    present: NodeSet,
}

impl OfferTable {
    fn new() -> Self {
        OfferTable {
            slots: (0..MAX_NODES).map(|_| None).collect(),
            present: NodeSet::EMPTY,
        }
    }

    /// Nodes with a pending offer, in ascending identifier order.
    fn present(&self) -> NodeSet {
        self.present
    }

    fn insert(&mut self, node: NodeId, offer: Offer) {
        self.slots[node.as_usize()] = Some(offer);
        self.present.insert(node);
    }

    fn remove(&mut self, node: NodeId) -> Option<Offer> {
        self.present.remove(node);
        self.slots[node.as_usize()].take()
    }

    fn get(&self, node: NodeId) -> Option<&Offer> {
        self.slots[node.as_usize()].as_ref()
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut Offer> {
        self.slots[node.as_usize()].as_mut()
    }

    /// Drops every offer whose node is outside `keep`.
    fn retain_inside(&mut self, keep: NodeSet) {
        for node in (self.present - keep).iter() {
            self.slots[node.as_usize()] = None;
        }
        self.present &= keep;
    }
}

/// The simulated bus medium.
///
/// Holds the set of pending transmit offers (one per node — a CAN
/// controller transmits from one buffer at a time; queueing above that
/// is the controller's business) and the transaction trace.
///
/// # Examples
///
/// ```
/// use can_bus::{BusConfig, FaultPlan, Medium, TxOutcome};
/// use can_types::{Frame, Mid, MsgType, NodeId, NodeSet, BitTime};
///
/// let mut bus = Medium::new(BusConfig::default());
/// let mut faults = FaultPlan::none();
/// let els = Frame::remote(Mid::new(MsgType::Els, 0, NodeId::new(1)));
///
/// // Nodes 1 and 2 offer the *same* life-sign: they cluster.
/// bus.offer(BitTime::ZERO, NodeId::new(1), els);
/// bus.offer(BitTime::ZERO, NodeId::new(2), els);
/// let alive = NodeSet::first_n(4);
/// let tx = bus.resolve(BitTime::ZERO, alive, &mut faults).unwrap();
/// assert_eq!(tx.transmitters.len(), 2);
/// assert!(matches!(tx.outcome, TxOutcome::Delivered { .. }));
/// assert!(!bus.has_offers(alive)); // both offers consumed by one frame
/// ```
#[derive(Debug)]
pub struct Medium {
    config: BusConfig,
    offers: OfferTable,
    trace: BusTrace,
}

impl Medium {
    /// Creates an idle bus with no pending offers.
    pub fn new(config: BusConfig) -> Self {
        Medium {
            config,
            offers: OfferTable::new(),
            trace: BusTrace::new(),
        }
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Registers (or replaces) `node`'s pending transmission, queued
    /// at instant `now` (the queue-delay profiling origin).
    pub fn offer(&mut self, now: BitTime, node: NodeId, frame: Frame) {
        self.offers.insert(
            node,
            Offer {
                frame,
                attempts: 0,
                not_before: BitTime::ZERO,
                queued_at: now,
                arb_losses: 0,
            },
        );
    }

    /// Earliest instant at which some alive offer is allowed to
    /// compete (ACK-error suspensions considered), or `None` if no
    /// alive node has a pending offer.
    pub fn next_ready(&self, alive: NodeSet) -> Option<BitTime> {
        (self.offers.present() & alive)
            .iter()
            .filter_map(|n| self.offers.get(n))
            .map(|o| o.not_before)
            .min()
    }

    /// Withdraws `node`'s pending transmission (the `can-abort.req`
    /// primitive acts here). Returns the aborted frame, if any.
    pub fn withdraw(&mut self, node: NodeId) -> Option<Frame> {
        self.offers.remove(node).map(|o| o.frame)
    }

    /// The frame `node` is currently offering, if any.
    pub fn current_offer(&self, node: NodeId) -> Option<&Frame> {
        self.offers.get(node).map(|o| &o.frame)
    }

    /// Whether any *alive* node has a pending offer.
    pub fn has_offers(&self, alive: NodeSet) -> bool {
        !(self.offers.present() & alive).is_empty()
    }

    /// Drops all offers of nodes outside `alive` (crashed nodes stop
    /// driving the bus).
    pub fn purge_dead(&mut self, alive: NodeSet) {
        self.offers.retain_inside(alive);
    }

    /// The completed-transaction trace.
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// Makes the trace keep only the statistics of `[from, to)`
    /// ([`BusTrace::summarize`]).
    pub fn summarize_trace(&mut self, from: BitTime, to: BitTime) {
        self.trace.summarize(from, to);
    }

    /// Resolves one transaction starting at `now`, or `None` if no
    /// alive node has a pending offer.
    ///
    /// On success the winning offers are consumed; on an omission they
    /// stay pending with their retry count bumped (automatic
    /// retransmission, LCAN-level behaviour) — unless the senders crash,
    /// which drops their offers.
    pub fn resolve(
        &mut self,
        now: BitTime,
        alive: NodeSet,
        faults: &mut FaultPlan,
    ) -> Option<Transaction> {
        self.purge_dead(alive);
        // One ascending walk over the offers allowed to compete. A
        // strictly lower identifier wins and restarts the cluster (so
        // identifier ties go to the lowest node); an equal one joins it,
        // wire-identical (wired-AND clustering) or colliding. The
        // cluster's retry count and profiling data fold on the way.
        let mut eligible = NodeSet::EMPTY;
        let mut winner: Option<Frame> = None;
        let (mut transmitters, mut collision) = (NodeSet::EMPTY, false);
        let (mut attempt, mut queued_at, mut arb_losses) = (0, now, 0);
        for node in self.offers.present().iter() {
            let offer = self.offers.get(node).expect("present offer");
            if offer.not_before > now {
                continue;
            }
            eligible.insert(node);
            match winner {
                Some(frame) if offer.frame.id() > frame.id() => {}
                Some(frame) if offer.frame.id() == frame.id() => {
                    transmitters.insert(node);
                    collision |= !offer.frame.clusters_with(&frame);
                    attempt = attempt.min(offer.attempts);
                    queued_at = queued_at.min(offer.queued_at);
                    arb_losses = arb_losses.max(offer.arb_losses);
                }
                _ => {
                    winner = Some(offer.frame);
                    (transmitters, collision) = (NodeSet::singleton(node), false);
                    (attempt, queued_at, arb_losses) =
                        (offer.attempts, offer.queued_at, offer.arb_losses);
                }
            }
        }
        let frame = winner?;
        // Profiling: every eligible offer outside the cluster lost this
        // arbitration round.
        for node in (eligible - transmitters).iter() {
            self.offers.get_mut(node).expect("present offer").arb_losses += 1;
        }

        let listeners = alive - transmitters;
        let outcome = if collision {
            // Real CAN turns the clash into a bit error; the whole frame
            // is conservatively charged, error signalling included.
            TxOutcome::IdCollision
        } else {
            let tx_attempt = TxAttempt {
                now,
                frame: &frame,
                transmitters,
                listeners,
                attempt,
            };
            match faults.decide(&tx_attempt) {
                Disposition::Deliver => {
                    // Physical reachability: with media faults active,
                    // only nodes connected to the transmitter on some
                    // medium receive the frame ([17], [22]). With no
                    // receiver at all the transmitters see an ACK error.
                    let representative = transmitters.iter().next().expect("a transmitter");
                    let reachable = faults.reachable_from(now, representative, listeners);
                    if reachable.is_empty() && !listeners.is_empty() {
                        TxOutcome::AckError
                    } else {
                        TxOutcome::Delivered {
                            receivers: transmitters | reachable,
                        }
                    }
                }
                Disposition::ConsistentOmission => TxOutcome::ConsistentError,
                Disposition::InconsistentOmission {
                    accepters,
                    crash_sender,
                } => TxOutcome::InconsistentError {
                    accepters,
                    crash_sender,
                },
            }
        };
        let delivered = matches!(outcome, TxOutcome::Delivered { .. });
        let deliver_at = now + self.config.frame_duration(&frame);
        let mut bus_free = deliver_at + self.config.intermission();
        if !delivered {
            bus_free += self.config.error_signalling();
        }

        for node in transmitters.iter() {
            match outcome {
                // Consumed, or the senders crashed and never retransmit.
                TxOutcome::Delivered { .. }
                | TxOutcome::InconsistentError {
                    crash_sender: true, ..
                } => {
                    self.offers.remove(node);
                }
                _ => {
                    let offer = self.offers.get_mut(node).expect("a transmitter's offer");
                    offer.attempts += 1;
                    if outcome == TxOutcome::AckError {
                        offer.not_before = bus_free + ack_backoff(offer.attempts);
                    }
                }
            }
        }

        let record = TxRecord {
            start: now,
            bus_free,
            deliver_at,
            queued_at,
            arb_losses,
            frame,
            transmitters,
            errored: !delivered,
        };
        self.trace.push(record);
        Some(Transaction { record, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{AccepterSpec, FaultEffect, FaultMatcher, ScriptedFault};
    use can_types::{Mid, MsgType, Payload};

    fn els(node: u8) -> Frame {
        Frame::remote(Mid::new(MsgType::Els, 0, NodeId::new(node)))
    }

    fn data(node: u8, payload: &[u8]) -> Frame {
        Frame::data(
            Mid::new(MsgType::AppData, 0, NodeId::new(node)),
            Payload::from_slice(payload).unwrap(),
        )
    }

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn empty_bus_resolves_nothing() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        assert!(bus
            .resolve(BitTime::ZERO, NodeSet::first_n(4), &mut faults)
            .is_none());
    }

    #[test]
    fn lowest_id_wins_arbitration() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(0), data(0, &[1]));
        bus.offer(BitTime::ZERO, n(1), els(1)); // ELS type outranks AppData
        let tx = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(4), &mut faults)
            .unwrap();
        assert_eq!(tx.frame, els(1));
        assert_eq!(tx.transmitters, NodeSet::singleton(n(1)));
        // The loser's offer is still pending.
        assert_eq!(bus.current_offer(n(0)), Some(&data(0, &[1])));
    }

    #[test]
    fn delivery_includes_own_transmission() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(2), els(2));
        let alive = NodeSet::first_n(5);
        let tx = bus.resolve(BitTime::ZERO, alive, &mut faults).unwrap();
        match tx.outcome {
            TxOutcome::Delivered { receivers } => assert_eq!(receivers, alive),
            ref other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn identical_remote_frames_cluster() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        let fda = Frame::remote(Mid::new(MsgType::Fda, 0, n(7)));
        bus.offer(BitTime::ZERO, n(0), fda);
        bus.offer(BitTime::ZERO, n(1), fda);
        bus.offer(BitTime::ZERO, n(2), fda);
        let tx = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(8), &mut faults)
            .unwrap();
        assert_eq!(tx.transmitters.len(), 3);
        assert!(!bus.has_offers(NodeSet::first_n(8)));
    }

    #[test]
    fn different_frames_same_id_is_collision() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(0), data(3, &[1]));
        bus.offer(BitTime::ZERO, n(1), data(3, &[2])); // same mid, different payload
        let tx = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(4), &mut faults)
            .unwrap();
        assert_eq!(tx.outcome, TxOutcome::IdCollision);
        // Both stay pending for retransmission.
        assert!(bus.current_offer(n(0)).is_some());
        assert!(bus.current_offer(n(1)).is_some());
    }

    #[test]
    fn consistent_error_keeps_offer_and_bumps_attempts() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::ConsistentOmission,
            count: 1,
        });
        bus.offer(BitTime::ZERO, n(0), els(0));
        let alive = NodeSet::first_n(3);
        let tx1 = bus.resolve(BitTime::ZERO, alive, &mut faults).unwrap();
        assert_eq!(tx1.outcome, TxOutcome::ConsistentError);
        assert!(bus.current_offer(n(0)).is_some(), "auto retransmission");
        // Error signalling lengthens bus occupancy.
        let good = bus.resolve(tx1.bus_free, alive, &mut faults).unwrap();
        assert!(matches!(good.outcome, TxOutcome::Delivered { .. }));
        assert!(
            tx1.bus_free - tx1.start > good.bus_free - good.start,
            "errored transaction must occupy the bus longer"
        );
    }

    #[test]
    fn inconsistent_error_with_sender_crash_drops_offer() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(2))),
                crash_sender: true,
            },
            count: 1,
        });
        bus.offer(BitTime::ZERO, n(0), els(0));
        let tx = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(4), &mut faults)
            .unwrap();
        match tx.outcome {
            TxOutcome::InconsistentError {
                accepters,
                crash_sender,
            } => {
                assert_eq!(accepters, NodeSet::singleton(n(2)));
                assert!(crash_sender);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert!(
            bus.current_offer(n(0)).is_none(),
            "crashed sender never retransmits"
        );
    }

    #[test]
    fn inconsistent_error_without_crash_retransmits() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher::any(),
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(2))),
                crash_sender: false,
            },
            count: 1,
        });
        bus.offer(BitTime::ZERO, n(0), els(0));
        let alive = NodeSet::first_n(4);
        let tx = bus.resolve(BitTime::ZERO, alive, &mut faults).unwrap();
        assert!(matches!(tx.outcome, TxOutcome::InconsistentError { .. }));
        // Retransmission delivers to everyone: node 2 sees a duplicate
        // (LCAN3 at-least-once).
        let tx2 = bus.resolve(tx.bus_free, alive, &mut faults).unwrap();
        assert!(matches!(tx2.outcome, TxOutcome::Delivered { .. }));
        assert_eq!(tx2.frame, els(0));
    }

    #[test]
    fn withdraw_implements_abort() {
        let mut bus = Medium::new(BusConfig::default());
        bus.offer(BitTime::ZERO, n(0), els(0));
        assert_eq!(bus.withdraw(n(0)), Some(els(0)));
        assert_eq!(bus.withdraw(n(0)), None);
    }

    #[test]
    fn dead_nodes_do_not_transmit() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(0), els(0));
        bus.offer(BitTime::ZERO, n(1), els(1));
        // Node 0 is dead.
        let alive = NodeSet::from_bits(0b1110);
        let tx = bus.resolve(BitTime::ZERO, alive, &mut faults).unwrap();
        assert_eq!(tx.frame, els(1));
        assert!(bus.current_offer(n(0)).is_none(), "dead offers purged");
    }

    #[test]
    fn trace_records_every_transaction() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(0), els(0));
        let t1 = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(2), &mut faults)
            .unwrap();
        bus.offer(BitTime::ZERO, n(1), els(1));
        let _t2 = bus.resolve(t1.bus_free, NodeSet::first_n(2), &mut faults);
        assert_eq!(bus.trace().len(), 2);
    }

    #[test]
    fn profiling_records_queue_delay_and_arb_losses() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        let alive = NodeSet::first_n(4);
        bus.offer(BitTime::ZERO, n(0), data(0, &[1]));
        bus.offer(BitTime::new(10), n(1), els(1)); // ELS outranks AppData
        let t1 = bus.resolve(BitTime::new(20), alive, &mut faults).unwrap();
        assert_eq!(t1.frame, els(1));
        assert_eq!(t1.queued_at, BitTime::new(10));
        assert_eq!(t1.arb_losses, 0);
        // The loser waited for the whole first transaction and records
        // the lost arbitration round.
        let t2 = bus.resolve(t1.bus_free, alive, &mut faults).unwrap();
        assert_eq!(t2.frame, data(0, &[1]));
        assert_eq!(t2.queued_at, BitTime::ZERO);
        assert_eq!(t2.arb_losses, 1);
        let rec = bus.trace().iter().last().unwrap();
        assert_eq!(rec.queued_at, BitTime::ZERO);
        assert_eq!(rec.arb_losses, 1);
        assert_eq!(rec.deliver_at, t2.deliver_at);
    }

    #[test]
    fn clustered_offers_keep_earliest_queue_instant() {
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        let fda = Frame::remote(Mid::new(MsgType::Fda, 0, n(7)));
        bus.offer(BitTime::new(5), n(0), fda);
        bus.offer(BitTime::new(9), n(1), fda);
        let tx = bus
            .resolve(BitTime::new(9), NodeSet::first_n(8), &mut faults)
            .unwrap();
        assert_eq!(tx.transmitters.len(), 2);
        assert_eq!(tx.queued_at, BitTime::new(5));
    }

    #[test]
    fn node_id_breaks_priority_ties_deterministically() {
        // Two *different* remote frames with different ids: lower mid
        // node gives lower id, wins.
        let mut bus = Medium::new(BusConfig::default());
        let mut faults = FaultPlan::none();
        bus.offer(BitTime::ZERO, n(5), els(5));
        bus.offer(BitTime::ZERO, n(3), els(3));
        let tx = bus
            .resolve(BitTime::ZERO, NodeSet::first_n(8), &mut faults)
            .unwrap();
        assert_eq!(tx.frame, els(3));
    }
}
