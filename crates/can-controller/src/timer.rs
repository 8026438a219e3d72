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
use std::collections::{BinaryHeap, HashMap};

/// Handle of a started timer (the pseudo-code's `tid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw handle value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
struct TimerMeta {
    node: NodeId,
    tag: u64,
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
    heap: BinaryHeap<Reverse<(BitTime, TimerId)>>,
    live: HashMap<TimerId, TimerMeta>,
    next_id: u64,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Starts a timer expiring at the *absolute* instant `deadline`,
    /// owned by `node`, carrying `tag`.
    pub fn start(&mut self, node: NodeId, deadline: BitTime, tag: u64) -> TimerId {
        self.next_id += 1;
        let id = TimerId(self.next_id);
        self.live.insert(id, TimerMeta { node, tag });
        self.heap.push(Reverse((deadline, id)));
        id
    }

    /// Cancels a timer. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.live.remove(&id).is_some()
    }

    /// Cancels every pending timer owned by `node` (used when a node
    /// crashes).
    pub fn cancel_node(&mut self, node: NodeId) {
        self.live.retain(|_, meta| meta.node != node);
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&mut self) -> Option<BitTime> {
        self.compact();
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// Pops the earliest timer if it is due at or before `now`.
    pub fn pop_due(&mut self, now: BitTime) -> Option<FiredTimer> {
        self.compact();
        let &Reverse((deadline, id)) = self.heap.peek()?;
        if deadline > now {
            return None;
        }
        self.heap.pop();
        let meta = self
            .live
            .remove(&id)
            .expect("compact() leaves only live timers on top");
        Some(FiredTimer {
            deadline,
            id,
            node: meta.node,
            tag: meta.tag,
        })
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Discards cancelled entries from the top of the heap.
    fn compact(&mut self) {
        while let Some(&Reverse((_, id))) = self.heap.peek() {
            if self.live.contains_key(&id) {
                break;
            }
            self.heap.pop();
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
}
