//! Property-based tests for the foundational types.

use can_types::wire::{count_stuff_bits, crc15, exact_frame_bits, stuffable_region};
use can_types::{
    BitRate, BitTime, CanId, Frame, FrameFormat, Mid, MsgType, NodeId, NodeSet, Payload,
};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u8..64).prop_map(NodeId::new)
}

fn arb_set() -> impl Strategy<Value = NodeSet> {
    any::<u64>().prop_map(NodeSet::from_bits)
}

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    prop::sample::select(MsgType::ALL.to_vec())
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop::collection::vec(any::<u8>(), 0..=8)
        .prop_map(|v| Payload::from_slice(&v).expect("bounded length"))
}

/// Any frame the wire can carry: either format, data (DLC 0..=8) or
/// remote, any identifier the format admits.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (any::<bool>(), 0u32..(1 << 29), arb_payload(), any::<bool>()).prop_map(
        |(standard, raw_id, payload, remote)| {
            let (format, raw_id) = if standard {
                (FrameFormat::Standard, raw_id & 0x7FF)
            } else {
                (FrameFormat::Extended, raw_id)
            };
            let frame = if remote {
                Frame::remote(CanId::new(raw_id))
            } else {
                Frame::data(CanId::new(raw_id), payload)
            };
            frame.with_format(format)
        },
    )
}

proptest! {
    #[test]
    fn node_set_union_is_commutative(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a | b, b | a);
    }

    #[test]
    fn node_set_difference_disjoint_from_subtrahend(a in arb_set(), b in arb_set()) {
        prop_assert!(((a - b) & b).is_empty());
    }

    #[test]
    fn node_set_de_morgan(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(!(a | b), !a & !b);
        prop_assert_eq!(!(a & b), !a | !b);
    }

    #[test]
    fn node_set_len_matches_iteration(a in arb_set()) {
        prop_assert_eq!(a.len(), a.iter().count());
    }

    #[test]
    fn node_set_wire_round_trip(a in arb_set()) {
        prop_assert_eq!(NodeSet::from_bytes(a.to_bytes()), a);
    }

    #[test]
    fn node_set_iteration_sorted_and_member(a in arb_set()) {
        let ids: Vec<u8> = a.iter().map(NodeId::as_u8).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&ids, &sorted);
        for id in ids {
            prop_assert!(a.contains(NodeId::new(id)));
        }
    }

    #[test]
    fn mid_round_trips_through_can_id(
        t in arb_msg_type(),
        reference in any::<u16>(),
        node in arb_node(),
    ) {
        let mid = Mid::new(t, reference, node);
        prop_assert_eq!(Mid::from_can_id(mid.to_can_id()), Some(mid));
    }

    #[test]
    fn mid_encoding_is_injective(
        t1 in arb_msg_type(), r1 in any::<u16>(), n1 in arb_node(),
        t2 in arb_msg_type(), r2 in any::<u16>(), n2 in arb_node(),
    ) {
        let a = Mid::new(t1, r1, n1);
        let b = Mid::new(t2, r2, n2);
        prop_assert_eq!(a == b, a.to_can_id() == b.to_can_id());
    }

    #[test]
    fn arbitration_is_total_and_antisymmetric(a in 0u32..(1 << 29), b in 0u32..(1 << 29)) {
        let ia = CanId::new(a);
        let ib = CanId::new(b);
        if a != b {
            prop_assert!(ia.beats(ib) ^ ib.beats(ia));
        } else {
            prop_assert!(!ia.beats(ib) && !ib.beats(ia));
        }
    }

    #[test]
    fn exact_duration_within_analytic_bounds(frame in arb_frame()) {
        let len = frame.payload().len();
        let exact = frame.duration_exact().as_u64();
        prop_assert!(exact >= frame.format().unstuffed_bits(len));
        prop_assert!(exact <= frame.format().worst_case_bits(len));
    }

    #[test]
    fn exact_bits_match_the_bit_serial_definition(frame in arb_frame()) {
        let region = stuffable_region(&frame);
        prop_assert_eq!(
            exact_frame_bits(&frame),
            region.len() as u64 + count_stuff_bits(&region) + 10
        );
    }

    #[test]
    fn stuff_count_bounded_by_quarter(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        let stuffed = count_stuff_bits(&bits);
        if bits.is_empty() {
            prop_assert_eq!(stuffed, 0);
        } else {
            prop_assert!(stuffed <= ((bits.len() as u64 - 1) / 4));
        }
    }

    #[test]
    fn crc_detects_any_single_bit_flip(
        bits in prop::collection::vec(any::<bool>(), 1..128),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut flipped = bits.clone();
        let idx = flip.index(bits.len());
        flipped[idx] = !flipped[idx];
        prop_assert_ne!(crc15(&bits), crc15(&flipped));
    }

    #[test]
    fn bit_time_ms_conversion_round_trips(ms in 0u64..1_000_000) {
        let t = BitTime::from_ms(ms, BitRate::MBPS_1);
        prop_assert_eq!(t.as_millis(BitRate::MBPS_1), ms);
    }

    #[test]
    fn exact_bits_deterministic(raw_id in 0u32..(1 << 29), payload in arb_payload()) {
        let f = Frame::data(CanId::new(raw_id), payload);
        prop_assert_eq!(exact_frame_bits(&f), exact_frame_bits(&f));
    }
}
