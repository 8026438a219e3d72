//! The bridge delivery machine ([`Bridges`]) without a simulator:
//! back-off schedule and jitter, the attempt and queue bounds, FIFO
//! replay, and which directions a blocked window closes. The pinned
//! instants are the ones the pump's retry path produced before the
//! machine owned it, on the same seed, frame and direction.

use can_types::{BitTime, Mid, MsgType, NodeId, Payload};
use canely_federation::{Attempt, BridgeFrame, Bridges, Verdict};

const GW: Option<NodeId> = Some(NodeId::new(0));

fn at(bits: u64) -> BitTime {
    BitTime::new(bits)
}

/// A fresh attempt of app frame `reference` across `from → to`.
fn fresh(reference: u16, from_seg: u8, to_seg: u8) -> Attempt {
    let mid = Mid::new(MsgType::AppData, reference, NodeId::new(3));
    let payload = Payload::from_slice(&[1, 2]).unwrap();
    let frame = BridgeFrame {
        mid,
        payload,
        from_seg,
    };
    Attempt {
        frame,
        to_seg,
        attempts: 0,
    }
}

/// One bridge `0 ↔ 1`, seeded 42, with both directions blocked.
fn blocked_bridge() -> Bridges {
    let mut bridges = Bridges::new(vec![(0, 1)], 42);
    bridges.block(None, at(0)..at(1_000_000));
    bridges
}

/// Asserts the queue holds exactly `want` (by frame reference) due
/// at `due` and nothing earlier; returns what fell due.
fn falls_due(bridges: &mut Bridges, due: u64, want: &[u16]) -> Vec<Attempt> {
    assert!(
        bridges.due(at(due - 1)).is_empty(),
        "nothing due before {due}"
    );
    let replayed = bridges.due(at(due));
    let refs: Vec<u16> = replayed.iter().map(|a| a.frame.mid.reference()).collect();
    assert_eq!(refs, want, "due at {due}");
    replayed
}

#[test]
fn backoff_doubles_to_the_cap_then_drops_at_six_attempts() {
    // One frame retried whenever it falls due: quantum · min(2^n, 16)
    // plus a seeded sub-quantum jitter, then dropped on the 7th try.
    let mut bridges = blocked_bridge();
    let (mut attempt, mut now) = (fresh(5, 0, 1), at(0));
    for due in [1682, 3787, 8410, 17255, 34177, 50191] {
        assert_eq!(bridges.attempt(now, attempt, GW), Verdict::Deferred);
        attempt = falls_due(&mut bridges, due, &[5])[0];
        now = at(due);
    }
    assert_eq!(attempt.attempts, 6);
    assert_eq!(bridges.attempt(now, attempt, GW), Verdict::Dropped);
    assert!(
        bridges.due(at(u64::MAX)).is_empty(),
        "a drop queues nothing"
    );
}

#[test]
fn retries_replay_in_queue_order_not_due_order() {
    let mut bridges = blocked_bridge();
    let late = Attempt {
        attempts: 2,
        ..fresh(1, 0, 1)
    };
    assert_eq!(bridges.attempt(at(0), late, GW), Verdict::Deferred);
    assert_eq!(
        bridges.attempt(at(0), fresh(2, 0, 1), GW),
        Verdict::Deferred
    );
    let mut probe = bridges.clone();
    falls_due(&mut probe, 1295, &[2]);
    falls_due(&mut probe, 4706, &[1]);
    // Replayed together, the earlier-queued frame goes first.
    let replayed = bridges.due(at(5_000));
    let refs: Vec<u16> = replayed.iter().map(|a| a.frame.mid.reference()).collect();
    assert_eq!(refs, [1, 2]);
}

#[test]
fn each_direction_queues_at_most_64_frames() {
    let mut bridges = blocked_bridge();
    for reference in 0..64 {
        let attempt = fresh(reference, 0, 1);
        assert_eq!(bridges.attempt(at(0), attempt, GW), Verdict::Deferred);
    }
    let overflow = fresh(64, 0, 1);
    assert_eq!(bridges.attempt(at(0), overflow, GW), Verdict::Dropped);
    // The cap is per direction: the reverse one still queues.
    let reverse = fresh(64, 1, 0);
    assert_eq!(bridges.attempt(at(0), reverse, GW), Verdict::Deferred);
}

#[test]
fn a_partition_blocks_both_directions_an_asymmetric_window_one() {
    let mut bridges = Bridges::new(vec![(0, 1)], 42);
    bridges.block(Some((0, 1)), at(100)..at(200));
    bridges.block(None, at(300)..at(400));
    let deliver = Verdict::Deliver(NodeId::new(0));
    let mut verdict = |t, from, to| bridges.attempt(at(t), fresh(1, from, to), GW);
    assert_eq!(verdict(150, 0, 1), Verdict::Deferred);
    assert_eq!(verdict(150, 1, 0), deliver);
    assert_eq!(verdict(200, 0, 1), deliver, "windows are half-open");
    assert_eq!(verdict(350, 0, 1), Verdict::Deferred);
    assert_eq!(verdict(350, 1, 0), Verdict::Deferred);
}

#[test]
fn health_counts_directions_whose_last_attempt_delivered() {
    let mut bridges = Bridges::new(vec![(0, 1)], 42);
    bridges.block(Some((0, 1)), at(100)..at(200));
    assert_eq!(bridges.healthy(), 2, "healthy until a first failure");
    bridges.attempt(at(150), fresh(1, 0, 1), GW);
    assert_eq!(bridges.healthy(), 1, "only 0 → 1 failed");
    bridges.attempt(at(150), fresh(1, 1, 0), None);
    assert_eq!(bridges.healthy(), 0, "a headless far segment fails too");
    bridges.attempt(at(200), fresh(1, 0, 1), GW);
    bridges.attempt(at(200), fresh(1, 1, 0), GW);
    assert_eq!(bridges.healthy(), 2, "healthy again after the heal");
}

#[test]
fn fan_out_copies_each_frame_onto_every_bridge_of_its_segment() {
    let bridges = Bridges::new(vec![(0, 1), (1, 2), (0, 2)], 42);
    let frames = [fresh(1, 0, 0), fresh(2, 0, 0)].map(|a| (a.frame.mid, a.frame.payload));
    let mut attempts = Vec::new();
    bridges.fan_out(0, &frames, &mut attempts);
    let sent: Vec<(u16, u8)> = attempts
        .iter()
        .map(|a| (a.frame.mid.reference(), a.to_seg))
        .collect();
    assert_eq!(sent, [(1, 1), (2, 1), (1, 2), (2, 2)]);
    assert!(attempts
        .iter()
        .all(|a| a.frame.from_seg == 0 && a.attempts == 0));
}
