//! Local timers ("Timers" box of the paper's Fig. 5).
//!
//! Every micro-protocol in the suite is timer-driven: surveillance
//! timers of the failure detection protocol (`Th`, `Th + Ttd`), the
//! RHA termination timer (`Trha`), the membership cycle timer (`Tm`)
//! and the join-wait timer. [`TimerWheel`] multiplexes all of them
//! onto the simulation clock with `start_alarm`/`cancel_alarm`
//! semantics matching the pseudo-code.
//!
//! The floor rule: a settle raises the floor to the least re-keyed live
//! deadline in the lowest occupied bucket if it lies inside the bucket,
//! else to the bucket's start, so one cascade reaches the earliest timer.

use can_types::{BitTime, NodeId};

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

/// The end of a bucket list or of the entry free list.
const NIL: u32 = u32::MAX;

/// Deadline bits one level of the wheel resolves (64 buckets a level).
const BITS: u32 = 6;

/// Levels: 11 × 6 bits cover every `u64` deadline.
const LEVELS: usize = 11;

/// One slab cell: a pending timer, or a free-list member.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The pending timer's handle counter, or [`FREE`].
    seq: u64,
    deadline: BitTime,
    node: NodeId,
    tag: u64,
    /// Key of the one wheel entry that stands for this slot. It never
    /// sorts after `(deadline, seq)`: a restart to a later deadline
    /// leaves it where it is, and the entry is re-keyed when its
    /// bucket comes up.
    carrier: Key,
}

/// One pooled wheel entry: the key it is filed under, the slot it
/// stands for, and the next entry of its bucket (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Key,
    slot: u32,
    next: u32,
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
/// Pending timers live in a slab, and one *carrier* entry per slot
/// lives in a hierarchical timing wheel (Varghese & Lauck): 11 levels
/// of 64 buckets, an entry filed at the level of the highest 6-bit
/// group in which its deadline differs from the wheel's `floor`, every
/// bucket an intrusive list in one pooled entry vector. Re-arming a
/// timer to a later deadline ([`TimerWheel::restart`], the
/// surveillance pattern) is a store into its slot; the carrier moves
/// to the new deadline's bucket when its own bucket comes up — one
/// list push, not a heap sift. The earliest pending timer is cached,
/// so [`TimerWheel::next_deadline`] is a load while it stays pending.
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
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    /// Every entry ever filed, each in one bucket list or in the free
    /// list headed by `spare`: a warm wheel never allocates.
    entries: Vec<Entry>,
    spare: u32,
    /// Bucket list heads, `heads[level][bucket]`.
    heads: [[u32; 64]; LEVELS],
    /// Non-empty buckets, a bit per bucket of each level.
    occupied: [u64; LEVELS],
    /// Levels with a non-empty bucket, a bit per level.
    busy: u16,
    /// No filed key's deadline is before it: a level-`L` entry agrees
    /// with it above group `L` and exceeds it in group `L`, so the
    /// lowest occupied bucket of the lowest busy level holds the
    /// earliest entries, and a level-0 bucket is one instant.
    floor: u64,
    /// The earliest pending timer and its slot, valid while the slot
    /// still holds that timer; every live key and every carrier sorts
    /// at or after it. `None` only while no entry is filed.
    next: Option<(Key, u32)>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            entries: Vec::new(),
            spare: NIL,
            heads: [[NIL; 64]; LEVELS],
            occupied: [0; LEVELS],
            busy: 0,
            floor: 0,
            next: None,
        }
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
        self.carry(cell.carrier, slot);
        TimerId { seq, slot }
    }

    /// Cancels `old` and starts its replacement in one step: the same
    /// handles, firing order and [`TimerWheel::len`] as
    /// [`TimerWheel::cancel`] followed by [`TimerWheel::start`], which
    /// is what it does when `old` is no longer pending. A pending
    /// timer's slot is rewritten in place, and the wheel is touched
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
            self.carry((deadline, seq), old.slot);
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
        self.earliest().map(|((deadline, _), _)| deadline)
    }

    /// Pops the earliest timer if it is due at or before `now`.
    pub fn pop_due(&mut self, now: BitTime) -> Option<FiredTimer> {
        let ((deadline, seq), slot) = self.earliest()?;
        if deadline > now {
            return None;
        }
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
    /// the wheel and is dropped when its bucket comes up.
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].seq = FREE;
        self.free.push(slot);
    }

    /// The cached earliest pending timer, found afresh if it is gone.
    fn earliest(&mut self) -> Option<(Key, u32)> {
        match self.next {
            Some(((_, seq), slot)) if self.slots[slot as usize].seq == seq => self.next,
            _ => self.settle(),
        }
    }

    /// Files a new carrier for `slot`; it is the earliest pending timer
    /// if it sorts before the cached one.
    fn carry(&mut self, key: Key, slot: u32) {
        let entry = Entry {
            key,
            slot,
            next: NIL,
        };
        let index = match self.spare {
            NIL => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 wheel entries")
            }
            index => {
                self.spare = std::mem::replace(&mut self.entries[index as usize], entry).next;
                index
            }
        };
        self.file(index);
        if self.next.is_none_or(|(earliest, _)| key < earliest) {
            self.next = Some((key, slot));
        }
    }

    /// Links an entry into the bucket of its deadline. A deadline
    /// before `floor` first lowers the floor to it.
    fn file(&mut self, index: u32) {
        let at = self.entries[index as usize].key.0.as_u64();
        if at < self.floor {
            self.lower_floor(at);
        }
        let level = (63 - ((at ^ self.floor) | 1).leading_zeros()) / BITS;
        let bucket = (at >> (BITS * level)) & 63;
        let (level, bucket) = (level as usize, bucket as usize);
        self.entries[index as usize].next = self.heads[level][bucket];
        self.heads[level][bucket] = index;
        self.occupied[level] |= 1 << bucket;
        self.busy |= 1 << level;
    }

    /// A start before `floor` — rare: the floor rises only when a
    /// settle cascades a bucket, and then no further than the earliest
    /// pending deadline — re-files every entry under a floor lowered to
    /// `at`.
    fn lower_floor(&mut self, at: u64) {
        self.floor = at;
        for level in 0..LEVELS {
            for bucket in 0..64 {
                let mut index = self.take(level, bucket);
                while index != NIL {
                    let next = self.entries[index as usize].next;
                    self.file(index);
                    index = next;
                }
            }
        }
    }

    /// Detaches a bucket's list.
    fn take(&mut self, level: usize, bucket: usize) -> u32 {
        self.occupied[level] &= !(1 << bucket);
        if self.occupied[level] == 0 {
            self.busy &= !(1 << level);
        }
        std::mem::replace(&mut self.heads[level][bucket], NIL)
    }

    /// Brings an entry up to date with its slot: `true` if it now
    /// stands for the slot's pending timer under its current key (a
    /// carrier of a timer restarted to a later deadline is re-keyed
    /// here), `false` if it carries nothing any more (the slot was
    /// freed, or re-carried by an earlier restart or a new start).
    fn rekey(&mut self, index: u32) -> bool {
        let entry = &mut self.entries[index as usize];
        let cell = &mut self.slots[entry.slot as usize];
        if cell.seq == entry.key.1 {
            return true;
        }
        if cell.seq == FREE || cell.carrier != entry.key {
            return false;
        }
        cell.carrier = (cell.deadline, cell.seq);
        entry.key = cell.carrier;
        true
    }

    /// Finds, caches and returns the earliest pending timer: re-keys
    /// the lowest occupied bucket's carriers and pools its dead ones,
    /// applies the floor rule (a re-keyed carrier may lie past other
    /// buckets' entries) and re-files the rest; the least-`seq` live
    /// entry due at the floor, if any, is the earliest timer.
    fn settle(&mut self) -> Option<(Key, u32)> {
        self.next = None;
        while self.next.is_none() && self.busy != 0 {
            let level = self.busy.trailing_zeros();
            let bucket = self.occupied[level as usize].trailing_zeros();
            let above = BITS * (level + 1);
            let start = self
                .floor
                .checked_shr(above)
                .map_or(0, |high| high << above)
                | u64::from(bucket) << (BITS * level);
            #[cfg(test)]
            tests::CASCADES.with(|n| n.set(n.get() + u64::from(level > 0)));
            let mut index = self.take(level as usize, bucket as usize);
            let (mut live, mut least) = (NIL, u64::MAX);
            while index != NIL {
                let next = self.entries[index as usize].next;
                if self.rekey(index) {
                    let entry = &mut self.entries[index as usize];
                    (entry.next, live, least) = (live, index, least.min(entry.key.0.as_u64()));
                } else {
                    self.entries[index as usize].next = self.spare;
                    self.spare = index;
                }
                index = next;
            }
            let inside = live != NIL && (least ^ start) >> (BITS * level) == 0;
            let due = if inside { least } else { start };
            if level > 0 {
                self.floor = due;
            }
            while live != NIL {
                let next = self.entries[live as usize].next;
                self.file(live);
                let Entry { key, slot, .. } = self.entries[live as usize];
                if key.0.as_u64() == due && self.next.is_none_or(|(earliest, _)| key < earliest) {
                    self.next = Some((key, slot));
                }
                live = next;
            }
        }
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    std::thread_local! {
        /// Buckets above level 0 this thread's wheels have settled.
        pub(super) static CASCADES: Cell<u64> = const { Cell::new(0) };
    }

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    impl TimerWheel {
        /// Entries filed in a bucket, live or not.
        fn pooled(&self) -> usize {
            let link = |index: u32| Some(index).filter(|&index| index != NIL);
            let next = |&index: &u32| link(self.entries[index as usize].next);
            self.entries.len() - std::iter::successors(link(self.spare), next).count()
        }
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

    #[test]
    fn a_start_below_the_floor_refiles_every_entry() {
        let mut wheel = TimerWheel::new();
        let first = wheel.start(n(0), BitTime::new(999_000), 0);
        wheel.start(n(0), BitTime::new(1_000_000), 1);
        wheel.start(n(0), BitTime::new(1_000_500), 2);
        // With the cached earliest timer gone, settling cascades the
        // next one down to level 0: the floor rises to its deadline.
        wheel.cancel(first);
        assert_eq!(wheel.next_deadline(), Some(BitTime::new(1_000_000)));
        assert_eq!(wheel.floor, 1_000_000);
        wheel.start(n(1), BitTime::new(5), 3);
        assert_eq!(wheel.floor, 5);
        let fired: Vec<_> = std::iter::from_fn(|| wheel.pop_due(BitTime::new(u64::MAX)))
            .map(|f| f.tag)
            .collect();
        assert_eq!(fired, [3, 1, 2]);
        assert_eq!(wheel.pooled(), 0);
    }

    #[test]
    fn a_lone_timer_two_levels_up_is_reached_in_one_cascade() {
        let mut wheel = TimerWheel::new();
        let lone = BitTime::new(5_000);
        wheel.start(n(0), lone, 1);
        // Filed two levels above the floor (group 2 of 5 000 is 1).
        assert_eq!(wheel.busy, 1 << 2);
        let first = wheel.start(n(0), BitTime::new(10), 0);
        wheel.cancel(first);
        assert_eq!(wheel.next_deadline(), Some(lone));
        assert_eq!(CASCADES.with(Cell::get), 1);
        assert_eq!((wheel.floor, wheel.busy), (5_000, 1));
        assert_eq!(wheel.pop_due(lone).map(|f| f.tag), Some(1));
        assert_eq!(CASCADES.with(Cell::get), 1);
    }

    #[test]
    fn a_bucket_rekeyed_past_its_end_leaves_the_floor_at_its_start() {
        let mut wheel = TimerWheel::new();
        // Both level 2 under floor 0: buckets 1 (4 096..8 192) and 2.
        let moved = wheel.start(n(0), BitTime::new(5_000), 1);
        wheel.start(n(1), BitTime::new(8_200), 2);
        // The carrier stays at 5 000 and is re-keyed past its bucket
        // when it comes up. Raising the floor to 500 000 would leave the
        // timer at 8 200 below it; the floor stops at 4 096 and the next
        // bucket's cascade raises it to 8 200.
        wheel.restart(moved, n(0), BitTime::new(500_000), 1);
        assert_eq!(wheel.next_deadline(), Some(BitTime::new(8_200)));
        assert_eq!(CASCADES.with(Cell::get), 2);
        assert_eq!(wheel.floor, 8_200);
        let fired: Vec<_> = std::iter::from_fn(|| wheel.pop_due(BitTime::new(u64::MAX)))
            .map(|f| (f.deadline.as_u64(), f.tag))
            .collect();
        assert_eq!(fired, [(8_200, 2), (500_000, 1)]);
        assert_eq!(wheel.pooled(), 0);
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
        // Few nodes: slot reuse, restarts to earlier deadlines and
        // crash-cancels between settles are the common case. Instants
        // come on three scales: a handful (shared deadlines, level 0),
        // a 300 ms run's worth (the protocol delays' cascades) and far
        // apart (the top levels); at random, a start lands below a
        // floor an earlier settle raised as often as not.
        let scales = (0usize..3, any::<u64>());
        let instant = scales.prop_map(|(scale, x)| [x % 12, x % 300_000, x >> 8][scale]);
        (0u8..16, any::<usize>(), 0u8..3, instant, 0u64..4).prop_map(
            |(which, pick, node, at, tag)| match which {
                0..=2 => Op::Start(node, at, tag),
                3..=4 => Op::Cancel(pick),
                5..=10 => Op::Restart(pick, node, at, tag),
                11..=12 => Op::CancelNode(node),
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
        /// advances and the step loop polls. A re-arm is a slot store
        /// and a settle re-keys a carrier by moving it, so the pool
        /// never holds more entries than there are live timers,
        /// however long the churn.
        #[test]
        fn restart_churn_pools_one_entry_per_live_timer(
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
                let pooled = wheel.pooled();
                prop_assert!(pooled <= live, "{pooled} entries for {live} timers");
            }
        }
    }
}
