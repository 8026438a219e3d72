//! Bus configuration.

use can_types::{mix64, BitTime, Frame};
use std::cell::Cell;

/// Static configuration of the simulated bus: 1 Mbps, every frame
/// charged the length of its real bit stream, the standard 3-bit
/// intermission and worst-case error signalling.
///
/// # Examples
///
/// ```
/// use can_bus::BusConfig;
/// use can_types::BitTime;
///
/// let cfg = BusConfig::default();
/// assert_eq!(cfg.intermission(), BitTime::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusConfig {
    _private: (),
}

impl BusConfig {
    /// Interframe space in bit-times.
    pub fn intermission(&self) -> BitTime {
        BitTime::new(can_types::frame::INTERMISSION_BITS)
    }

    /// Error signalling overhead charged per failed transmission
    /// (error flag + delimiter), in bit-times.
    pub fn error_signalling(&self) -> BitTime {
        BitTime::new(can_types::frame::ERROR_FRAME_MAX_BITS)
    }

    /// Wire duration of `frame`, genuinely inserted stuff bits included
    /// ([`Frame::duration_exact`]; intermission not included), computed
    /// once per distinct frame and thread (`MEMO`).
    pub fn frame_duration(&self, frame: &Frame) -> BitTime {
        let (set, key) = key(frame);
        MEMO.with(|memo| {
            let hit = |way: &[u64; 2]| way[0] == key[0] && way[1] >> 16 == key[1] >> 16;
            if let Some([_, packed]) = memo[set].iter().map(Cell::get).find(hit) {
                return BitTime::new(packed & 0xFFFF);
            }
            #[cfg(test)]
            tests::MISSES.with(|n| n.set(n.get() + 1));
            let length = frame.duration_exact();
            assert!(length.as_u64() >> 16 == 0, "a CAN frame is under 2^16 bits");
            let mut carry = [key[0], key[1] | length.as_u64()];
            memo[set].iter().for_each(|way| carry = way.replace(carry));
            length
        })
    }
}

const WAYS: usize = 4;
const SETS: usize = 1 << 10;

std::thread_local! {
    /// The frames a thread has sized: `SETS` × `WAYS` (a miss evicts the
    /// oldest way) × `key` with the length in its low 16 bits, 64 KiB,
    /// allocated on the thread's first lookup.
    static MEMO: Box<[[Cell<[u64; 2]>; WAYS]; SETS]> = vec![Default::default(); SETS]
        .into_boxed_slice()
        .try_into()
        .expect("SETS sets");
}

/// Everything [`Frame::duration_exact`] reads, packed — the payload,
/// then the id over a shape (format, kind and DLC under a set bit that
/// no zeroed way has) over 16 free bits — and the set it hashes to.
fn key(frame: &Frame) -> (usize, [u64; 2]) {
    let payload = frame.payload();
    let mut bytes = [0; 8];
    bytes[..payload.len()].copy_from_slice(payload.as_slice());
    let data = u64::from_le_bytes(bytes);
    let shape = 64 | (frame.format() as u64) << 5 | (frame.kind() as u64) << 4;
    let head = (u64::from(frame.id().raw()) << 8 | shape | payload.len() as u64) << 16;
    let set = mix64(data ^ mix64(head)) >> (64 - SETS.ilog2());
    (set as usize, [data, head])
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{CanId, FrameFormat, Payload};
    use proptest::prelude::*;

    std::thread_local! {
        /// Frames this thread's memo has sized afresh.
        pub(super) static MISSES: Cell<u64> = const { Cell::new(0) };
    }

    /// Candidate `k` of a draw: formats, kinds and DLCs take turns, the
    /// id is one of four and the payload bytes are hashed from the seed,
    /// so a crowd holds frames that differ in one field only.
    fn candidate(seed: u64, k: u64) -> Frame {
        let bits = can_types::mix64(seed ^ k.wrapping_mul(can_types::GOLDEN));
        let payload = &bits.to_le_bytes()[..(k / 4 % 9) as usize];
        let standard = k.is_multiple_of(2);
        let id = CanId::new(0x7FF >> (bits >> 62));
        let frame = match k / 2 % 2 {
            0 => Frame::data(id, Payload::from_slice(payload).unwrap()),
            _ => Frame::remote(id),
        };
        if standard {
            frame.with_format(FrameFormat::Standard)
        } else {
            frame
        }
    }

    #[test]
    fn a_repeated_frame_is_sized_once() {
        let cfg = BusConfig::default();
        let frame = candidate(7, 13);
        let other = candidate(7, 14);
        for _ in 0..3 {
            assert_eq!(cfg.frame_duration(&frame), frame.duration_exact());
        }
        assert_eq!(MISSES.with(Cell::get), 1);
        assert_eq!(cfg.frame_duration(&other), other.duration_exact());
        assert_eq!(cfg.frame_duration(&frame), frame.duration_exact());
        assert_eq!(MISSES.with(Cell::get), 2);
    }

    #[test]
    fn frames_one_field_apart_answer_apart_in_one_set() {
        fn data(id: u32, bytes: &[u8]) -> Frame {
            Frame::data(CanId::new(id), Payload::from_slice(bytes).unwrap())
        }
        // Each pair differs in one field: id, format, kind, DLC, payload.
        let pairs: [fn(u32) -> (Frame, Frame); 5] = [
            |n| (data(n, &[]), data(n + 1, &[])),
            |n| {
                (
                    data(n & 0x7FF, &[(n >> 11) as u8]),
                    data(n & 0x7FF, &[(n >> 11) as u8]).with_format(FrameFormat::Standard),
                )
            },
            |n| (Frame::remote(CanId::new(n)), data(n, &[])),
            |n| (data(n, &[0]), data(n, &[0, 0])),
            |n| (data(n, &[0]), data(n, &[1])),
        ];
        let cfg = BusConfig::default();
        for pair in pairs {
            let apart = |(a, b): &(Frame, Frame)| {
                key(a).0 == key(b).0 && a.duration_exact() != b.duration_exact()
            };
            let (a, b) = (0..1 << 19)
                .map(pair)
                .find(apart)
                .expect("two frames in one set");
            for frame in [a, b, a, b] {
                assert_eq!(
                    cfg.frame_duration(&frame),
                    frame.duration_exact(),
                    "{frame:?}"
                );
            }
        }
    }

    proptest! {
        /// More distinct frames than a set has ways, all in one set, over
        /// both formats, both kinds and every DLC, looked up in an
        /// interleaved order with repeats: every answer is exact.
        #[test]
        fn a_crowded_set_answers_exactly(
            seed in any::<u64>(),
            crowd in WAYS + 1..3 * WAYS,
            picks in proptest::collection::vec(any::<usize>(), 1..200),
        ) {
            let target = key(&candidate(seed, 0)).0;
            let mut frames: Vec<Frame> = Vec::new();
            for frame in (0..).map(|k| candidate(seed, k)) {
                if key(&frame).0 == target && !frames.contains(&frame) {
                    frames.push(frame);
                    if frames.len() == crowd {
                        break;
                    }
                }
            }
            let cfg = BusConfig::default();
            for pick in picks {
                let frame = frames[pick % frames.len()];
                prop_assert_eq!(cfg.frame_duration(&frame), frame.duration_exact());
            }
        }
    }

    #[test]
    fn default_is_exact_at_1mbps() {
        let cfg = BusConfig::default();
        let frame = Frame::remote(CanId::new(0));
        assert_eq!(cfg.frame_duration(&frame), frame.duration_exact());
        assert_eq!(cfg.intermission(), BitTime::new(3));
    }
}
