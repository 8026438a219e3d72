//! Local timers ("Timers" box of the paper's Fig. 5).
//!
//! Every micro-protocol in the suite is timer-driven: surveillance
//! timers of the failure detection protocol (`Th`, `Th + Ttd`), the
//! RHA termination timer (`Trha`), the membership cycle timer (`Tm`)
//! and the join-wait timer. [`TimerWheel`] multiplexes all of them
//! onto the simulation clock with `start_alarm`/`cancel_alarm`
//! semantics matching the pseudo-code.

use can_types::{BitTime, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle of a started timer (the pseudo-code's `tid`).
///
/// Ordered by start: a later `start`/`restart` yields a greater handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId {
    /// Monotonic start counter; never reused.
    seq: u64,
    /// The slab slot holding the timer while it is pending.
    slot: u32,
}

impl TimerId {
    /// The raw handle value: the wheel-wide start counter.
    pub fn as_u64(self) -> u64 {
        self.seq
    }
}

/// Firing order: earliest deadline first, start order within one instant.
type Key = (BitTime, u64);

/// `Slot::seq` of a slot on the free list (live handles start at 1).
const FREE: u64 = 0;

/// One slab cell: a pending timer, or a free-list member.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The pending timer's handle counter, or [`FREE`].
    seq: u64,
    deadline: BitTime,
    node: NodeId,
    tag: u64,
    /// Key of the one heap entry that stands for this slot. It never
    /// sorts after `(deadline, seq)`: a restart to a later deadline
    /// leaves it where it is, and the entry is re-keyed when it
    /// surfaces.
    carrier: Key,
}

/// A fired timer, as reported by [`TimerWheel::pop_due`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredTimer {
    /// When the timer expired.
    pub deadline: BitTime,
    /// The handle returned at start.
    pub id: TimerId,
    /// The owning node.
    pub node: NodeId,
    /// The caller-supplied tag (protocols encode the timer purpose
    /// and, e.g., the monitored node in it).
    pub tag: u64,
}

/// Deterministic timer multiplexer.
///
/// Timers firing at the same instant are delivered in start order
/// (handles are monotonic), which keeps whole-system runs reproducible.
///
/// Pending timers live in a slab; the heap holds one *carrier* entry
/// per slot, so re-arming a timer to a later deadline
/// ([`TimerWheel::restart`], the surveillance pattern) is a store into
/// its slot and the heap does not grow.
///
/// # Examples
///
/// ```
/// use can_controller::TimerWheel;
/// use can_types::{BitTime, NodeId};
///
/// let mut wheel = TimerWheel::new();
/// let id = wheel.start(NodeId::new(0), BitTime::new(100), 7);
/// assert_eq!(wheel.next_deadline(), Some(BitTime::new(100)));
/// wheel.cancel(id);
/// assert_eq!(wheel.next_deadline(), None);
/// ```
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(Key, u32)>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Starts a timer expiring at the *absolute* instant `deadline`,
    /// owned by `node`, carrying `tag`.
    pub fn start(&mut self, node: NodeId, deadline: BitTime, tag: u64) -> TimerId {
        self.next_seq += 1;
        let seq = self.next_seq;
        let cell = Slot {
            seq,
            deadline,
            node,
            tag,
            carrier: (deadline, seq),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = cell;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending timers");
                self.slots.push(cell);
                slot
            }
        };
        self.heap.push(Reverse((cell.carrier, slot)));
        TimerId { seq, slot }
    }

    /// Cancels `old` and starts its replacement in one step: the same
    /// handles, firing order and [`TimerWheel::len`] as
    /// [`TimerWheel::cancel`] followed by [`TimerWheel::start`], which
    /// is what it does when `old` is no longer pending. A pending
    /// timer's slot is rewritten in place, and the heap is touched
    /// only if the new deadline is earlier than the slot's carrier.
    pub fn restart(&mut self, old: TimerId, node: NodeId, deadline: BitTime, tag: u64) -> TimerId {
        if !self.is_pending(old) {
            return self.start(node, deadline, tag);
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let cell = &mut self.slots[old.slot as usize];
        (cell.seq, cell.deadline, cell.node, cell.tag) = (seq, deadline, node, tag);
        if (deadline, seq) < cell.carrier {
            cell.carrier = (deadline, seq);
            self.heap.push(Reverse((cell.carrier, old.slot)));
        }
        TimerId {
            seq,
            slot: old.slot,
        }
    }

    /// Cancels a timer. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let pending = self.is_pending(id);
        if pending {
            self.release(id.slot);
        }
        pending
    }

    /// Cancels every pending timer owned by `node` (used when a node
    /// crashes).
    pub fn cancel_node(&mut self, node: NodeId) {
        for slot in 0..self.slots.len() {
            let cell = &self.slots[slot];
            if cell.seq != FREE && cell.node == node {
                self.release(slot as u32);
            }
        }
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&mut self) -> Option<BitTime> {
        self.compact();
        self.heap.peek().map(|Reverse(((t, _), _))| *t)
    }

    /// Pops the earliest timer if it is due at or before `now`.
    pub fn pop_due(&mut self, now: BitTime) -> Option<FiredTimer> {
        self.compact();
        let &Reverse(((deadline, seq), slot)) = self.heap.peek()?;
        if deadline > now {
            return None;
        }
        self.heap.pop();
        let Slot { node, tag, .. } = self.slots[slot as usize];
        self.release(slot);
        Some(FiredTimer {
            deadline,
            id: TimerId { seq, slot },
            node,
            tag,
        })
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn is_pending(&self, id: TimerId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|cell| cell.seq == id.seq)
    }

    /// Returns a pending slot to the free list. Its carrier stays in
    /// the heap and is dropped when it surfaces.
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].seq = FREE;
        self.free.push(slot);
    }

    /// Brings a pending timer's own key to the top of the heap:
    /// entries that carry nothing any more (their slot was freed, or
    /// re-carried by an earlier restart or a new start) are dropped,
    /// and a carrier whose slot was restarted to a later deadline is
    /// re-pushed under the slot's current key. Keys only ever move
    /// later this way, so the pop order is `(deadline, seq)`.
    fn compact(&mut self) {
        while let Some(&Reverse((key, slot))) = self.heap.peek() {
            let cell = &mut self.slots[slot as usize];
            if cell.seq == key.1 {
                break;
            }
            self.heap.pop();
            if cell.seq != FREE && cell.carrier == key {
                cell.carrier = (cell.deadline, cell.seq);
                self.heap.push(Reverse((cell.carrier, slot)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        wheel.start(n(0), BitTime::new(200), 2);
        wheel.start(n(0), BitTime::new(100), 1);
        let first = wheel.pop_due(BitTime::new(1_000)).unwrap();
        assert_eq!(first.tag, 1);
        let second = wheel.pop_due(BitTime::new(1_000)).unwrap();
        assert_eq!(second.tag, 2);
        assert!(wheel.pop_due(BitTime::new(1_000)).is_none());
    }

    #[test]
    fn simultaneous_timers_fire_in_start_order() {
        let mut wheel = TimerWheel::new();
        wheel.start(n(1), BitTime::new(100), 10);
        wheel.start(n(2), BitTime::new(100), 20);
        assert_eq!(wheel.pop_due(BitTime::new(100)).unwrap().tag, 10);
        assert_eq!(wheel.pop_due(BitTime::new(100)).unwrap().tag, 20);
    }

    #[test]
    fn not_due_not_fired() {
        let mut wheel = TimerWheel::new();
        wheel.start(n(0), BitTime::new(100), 1);
        assert!(wheel.pop_due(BitTime::new(99)).is_none());
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut wheel = TimerWheel::new();
        let a = wheel.start(n(0), BitTime::new(100), 1);
        wheel.start(n(0), BitTime::new(150), 2);
        assert!(wheel.cancel(a));
        assert!(!wheel.cancel(a), "double cancel is a no-op");
        let fired = wheel.pop_due(BitTime::new(1_000)).unwrap();
        assert_eq!(fired.tag, 2);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancel_node_clears_only_that_node() {
        let mut wheel = TimerWheel::new();
        wheel.start(n(1), BitTime::new(100), 1);
        wheel.start(n(2), BitTime::new(100), 2);
        wheel.start(n(1), BitTime::new(200), 3);
        wheel.cancel_node(n(1));
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_due(BitTime::new(1_000)).unwrap().node, n(2));
    }

    #[test]
    fn next_deadline_skips_cancelled() {
        let mut wheel = TimerWheel::new();
        let a = wheel.start(n(0), BitTime::new(50), 1);
        wheel.start(n(0), BitTime::new(80), 2);
        wheel.cancel(a);
        assert_eq!(wheel.next_deadline(), Some(BitTime::new(80)));
    }

    /// The reference the slab wheel is checked against: every pending
    /// timer in a `Vec`, scanned for its `(deadline, seq)` minimum.
    #[derive(Default)]
    struct Model {
        pending: Vec<(BitTime, u64, NodeId, u64)>,
        next_seq: u64,
    }

    impl Model {
        fn start(&mut self, node: NodeId, deadline: BitTime, tag: u64) -> u64 {
            self.next_seq += 1;
            self.pending.push((deadline, self.next_seq, node, tag));
            self.next_seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            let before = self.pending.len();
            self.pending.retain(|t| t.1 != seq);
            self.pending.len() < before
        }

        fn next_deadline(&self) -> Option<BitTime> {
            self.pending.iter().map(|t| t.0).min()
        }

        fn pop_due(&mut self, now: BitTime) -> Option<(BitTime, u64, NodeId, u64)> {
            let first = *self.pending.iter().min_by_key(|t| (t.0, t.1))?;
            (first.0 <= now).then(|| {
                self.cancel(first.1);
                first
            })
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Start(u8, u64, u64),
        /// The handle is picked among *all* handles issued so far, so
        /// fired, cancelled and crash-cancelled ones are exercised too.
        Cancel(usize),
        Restart(usize, u8, u64, u64),
        CancelNode(u8),
        PopDue(u64),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Few nodes and few instants: shared deadlines, slot reuse and
        // restarts to earlier deadlines are the common case.
        (0u8..15, any::<usize>(), 0u8..3, 0u64..12, 0u64..4).prop_map(
            |(which, pick, node, at, tag)| match which {
                0..=2 => Op::Start(node, at, tag),
                3..=4 => Op::Cancel(pick),
                5..=10 => Op::Restart(pick, node, at, tag),
                11 => Op::CancelNode(node),
                _ => Op::PopDue(at),
            },
        )
    }

    proptest::proptest! {
        #[test]
        fn wheel_matches_the_scanned_vec_model(ops in proptest::collection::vec(op(), 1..200)) {
            use proptest::prelude::*;
            let mut wheel = TimerWheel::new();
            let mut model = Model::default();
            let mut issued: Vec<TimerId> = Vec::new();
            for op in ops {
                match op {
                    Op::Start(node, at, tag) => {
                        let id = wheel.start(n(node), BitTime::new(at), tag);
                        prop_assert_eq!(id.as_u64(), model.start(n(node), BitTime::new(at), tag));
                        issued.push(id);
                    }
                    Op::Cancel(pick) if !issued.is_empty() => {
                        let id = issued[pick % issued.len()];
                        prop_assert_eq!(wheel.cancel(id), model.cancel(id.as_u64()));
                    }
                    Op::Restart(pick, node, at, tag) if !issued.is_empty() => {
                        let old = issued[pick % issued.len()];
                        let id = wheel.restart(old, n(node), BitTime::new(at), tag);
                        model.cancel(old.as_u64());
                        prop_assert_eq!(id.as_u64(), model.start(n(node), BitTime::new(at), tag));
                        issued.push(id);
                    }
                    Op::Cancel(_) | Op::Restart(..) => {}
                    Op::CancelNode(node) => {
                        wheel.cancel_node(n(node));
                        model.pending.retain(|t| t.2 != n(node));
                    }
                    Op::PopDue(now) => {
                        let fired = wheel
                            .pop_due(BitTime::new(now))
                            .map(|f| (f.deadline, f.id.as_u64(), f.node, f.tag));
                        prop_assert_eq!(fired, model.pop_due(BitTime::new(now)));
                    }
                }
                prop_assert_eq!(wheel.len(), model.pending.len());
                prop_assert_eq!(wheel.is_empty(), model.pending.is_empty());
                prop_assert_eq!(wheel.next_deadline(), model.next_deadline());
            }
        }

        /// The surveillance pattern: `live` timers re-armed over and
        /// over, each time to a later deadline, while the clock
        /// advances and the step loop polls. One carrier per slot: the
        /// heap never outgrows the live set, however long the churn.
        #[test]
        fn restart_churn_keeps_one_heap_entry_per_live_timer(
            live in 1usize..12,
            steps in proptest::collection::vec((0usize..12, 0u64..40), 1..400),
        ) {
            use proptest::prelude::*;
            let mut wheel = TimerWheel::new();
            let mut now = 0;
            let duration = |i: usize| 50 + 7 * i as u64;
            let mut ids: Vec<TimerId> = (0..live)
                .map(|i| wheel.start(n(i as u8), BitTime::new(duration(i)), i as u64))
                .collect();
            for (pick, dt) in steps {
                now += dt;
                wheel.next_deadline();
                while wheel.pop_due(BitTime::new(now)).is_some() {}
                let i = pick % live;
                ids[i] = wheel.restart(ids[i], n(i as u8), BitTime::new(now + duration(i)), i as u64);
                prop_assert!(wheel.heap.len() <= live, "{} entries for {live} timers", wheel.heap.len());
            }
        }
    }
}
