//! The heap-of-carriers `TimerWheel` as it stood before the
//! hierarchical wheel replaced it (PR 25), kept verbatim as the oracle
//! of `wheel_reference.rs`. Its module documentation follows.
//!
//! Local timers ("Timers" box of the paper's Fig. 5).
//!
//! Every micro-protocol in the suite is timer-driven: surveillance
//! timers of the failure detection protocol (`Th`, `Th + Ttd`), the
//! RHA termination timer (`Trha`), the membership cycle timer (`Tm`)
//! and the join-wait timer. [`TimerWheel`] multiplexes all of them
//! onto the simulation clock with `start_alarm`/`cancel_alarm`
//! semantics matching the pseudo-code.

#![allow(dead_code, missing_docs)]

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
