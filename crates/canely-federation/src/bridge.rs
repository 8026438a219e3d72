//! Bridge delivery: which frames cross a bridge now, which wait, and
//! which are lost.
//!
//! [`Bridges`] is a pure machine that [`crate::FederationSim`]'s pump
//! drives: the pump drains the acting gateways' outboxes into
//! [`Attempt`]s, and the machine decides each one's [`Verdict`] from
//! the blocked windows and whether the far segment has an acting
//! gateway. An attempt that fails — blocked direction, or a
//! destination segment between representatives — backs off through a
//! bounded FIFO retry queue instead of being dropped: `QUANTUM ·
//! min(2^attempts, 16)` bit-times plus a seeded sub-quantum jitter, at
//! most six attempts and 64 waiting frames per direction.

use crate::gateway::BridgeFrame;
use can_types::{mix64, BitTime, Mid, NodeId, Payload, GOLDEN};
use std::ops::Range;

/// Lockstep quantum: how far segments run between bridge pumps, and
/// the unit of retry back-off. Bounds the extra cross-segment
/// propagation delay a bridge hop adds on top of arbitration.
pub const QUANTUM: BitTime = BitTime::new(1_000);
/// Retry attempts per frame before it is dropped for good.
const MAX_RETRY_ATTEMPTS: u32 = 6;
/// Bound on each direction's retry queue.
const MAX_RETRY_QUEUE: usize = 64;
/// Exponential backoff cap, in quanta.
const BACKOFF_CAP_QUANTA: u64 = 16;

/// One frame trying one bridge direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The frame; it crosses from `frame.from_seg`.
    pub frame: BridgeFrame,
    /// The far segment.
    pub to_seg: u8,
    /// Earlier failed attempts.
    pub attempts: u32,
}

/// What one delivery attempt came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inject the frame at this acting gateway of the far segment.
    Deliver(NodeId),
    /// Queued for a later pump.
    Deferred,
    /// Lost for good: out of attempts, or the direction's queue is full.
    Dropped,
}

/// One direction of a bridge, `(from_seg, to_seg)`.
type Direction = (u8, u8);

/// The delivery machine: bridge pairs, blocked windows, the retry
/// queue and which directions' last attempt failed.
#[derive(Debug, Clone, Default)]
pub struct Bridges {
    pairs: Vec<(u8, u8)>,
    /// Windows in which one direction, or every direction when
    /// `None`, carries nothing.
    blocks: Vec<(Option<Direction>, Range<BitTime>)>,
    /// Frames awaiting redelivery with their due instants, FIFO.
    retries: Vec<(BitTime, Attempt)>,
    /// The directions whose last attempt failed.
    failing: Vec<Direction>,
    /// Seed for the deterministic back-off jitter.
    seed: u64,
}

impl Bridges {
    /// The bridges `pairs` (each `(a, b)` with `a < b`), jittering
    /// back-off from `seed`.
    pub fn new(pairs: Vec<(u8, u8)>, seed: u64) -> Self {
        Bridges {
            pairs,
            seed,
            ..Bridges::default()
        }
    }

    /// The bridged segment pairs.
    pub fn pairs(&self) -> &[(u8, u8)] {
        &self.pairs
    }

    /// Blocks the `from_seg → to_seg` direction, or every direction
    /// when `dir` is `None`, during `window`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window, which `grammar::window` refuses on
    /// its line (campaign expansion draws only positive lengths).
    pub fn block(&mut self, dir: Option<Direction>, window: Range<BitTime>) {
        assert!(
            !window.is_empty(),
            "empty window: grammar::window refuses it"
        );
        self.blocks.push((dir, window));
    }

    /// The retries due at `now`, in queue order.
    pub fn due(&mut self, now: BitTime) -> Vec<Attempt> {
        let due = self.retries.extract_if(.., |(due, _)| *due <= now);
        due.map(|(_, attempt)| attempt).collect()
    }

    /// Appends one fresh attempt per frame of `from_seg`'s outbox per
    /// bridge of `from_seg`, bridge by bridge.
    pub fn fan_out(&self, from_seg: u8, frames: &[(Mid, Payload)], into: &mut Vec<Attempt>) {
        let ends = self
            .pairs
            .iter()
            .filter(|&&(a, b)| from_seg == a || from_seg == b);
        for to_seg in ends.map(|&(a, b)| a + b - from_seg) {
            for &(mid, payload) in frames {
                let frame = BridgeFrame {
                    mid,
                    payload,
                    from_seg,
                };
                into.push(Attempt {
                    frame,
                    to_seg,
                    attempts: 0,
                });
            }
        }
    }

    /// Decides one attempt at `now`: delivered when the direction is
    /// open and the far segment has an acting gateway `far`, otherwise
    /// deferred with back-off or dropped.
    pub fn attempt(&mut self, now: BitTime, mut attempt: Attempt, far: Option<NodeId>) -> Verdict {
        let (frame, to_seg, attempts) = (attempt.frame, attempt.to_seg, attempt.attempts);
        let dir = (frame.from_seg, to_seg);
        let blocked = self
            .blocks
            .iter()
            .any(|(only, window)| only.is_none_or(|only| only == dir) && window.contains(&now));
        self.failing.retain(|&failing| failing != dir);
        if let Some(at) = far.filter(|_| !blocked) {
            return Verdict::Deliver(at);
        }
        self.failing.push(dir);
        let queued = self
            .retries
            .iter()
            .filter(|(_, r)| (r.frame.from_seg, r.to_seg) == dir);
        if attempts >= MAX_RETRY_ATTEMPTS || queued.count() >= MAX_RETRY_QUEUE {
            return Verdict::Dropped;
        }
        // Deterministic exponential backoff in bit-times: quantum ·
        // 2^attempts, capped, plus a seeded sub-quantum jitter so
        // retry bursts from one outage de-correlate.
        let exp = (1u64 << attempts.min(63)).min(BACKOFF_CAP_QUANTA);
        let key = self.seed
            ^ (u64::from(frame.mid.to_can_id().raw()) << 24)
            ^ (u64::from(dir.0) << 16)
            ^ (u64::from(to_seg) << 8)
            ^ u64::from(attempts);
        let jitter = mix64(key.wrapping_add(GOLDEN)) % QUANTUM.as_u64();
        let due = now + BitTime::new(QUANTUM.as_u64() * exp + jitter);
        attempt.attempts += 1;
        self.retries.push((due, attempt));
        Verdict::Deferred
    }

    /// How many directions' last attempt delivered (every direction
    /// counts as healthy until it first fails).
    pub fn healthy(&self) -> usize {
        2 * self.pairs.len() - self.failing.len()
    }
}
