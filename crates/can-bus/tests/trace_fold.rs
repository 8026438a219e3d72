//! A summarizing trace folds each transaction as it arrives; a
//! recording trace folds its records when asked. Over any time-ordered
//! run of records and any window the two give the same [`BusStats`].

use can_bus::{BusStats, BusTrace, TxRecord};
use can_types::{BitTime, CanId, Frame, MsgType, NodeId, NodeSet, Payload};
use proptest::prelude::*;

/// One drawn transaction: the idle gap before it, its bus occupancy,
/// its id's type code and node byte (codes without a [`MsgType`] and
/// node bytes past the population carry no `Mid`), its kind and
/// whether it errored.
type Draw = (u64, u64, u8, u8, bool, bool);

fn records(draws: &[Draw]) -> Vec<TxRecord> {
    let mut t = 0;
    draws
        .iter()
        .map(|&(gap, length, code, node, remote, errored)| {
            let start = t + gap;
            t = start + length;
            let id = CanId::new(u32::from(code) << 24 | 0x1234 << 8 | u32::from(node));
            let frame = if remote {
                Frame::remote(id)
            } else {
                Frame::data(id, Payload::from_slice(&[code, node]).unwrap())
            };
            TxRecord {
                start: BitTime::new(start),
                bus_free: BitTime::new(t),
                deliver_at: BitTime::new(t),
                queued_at: BitTime::new(start),
                arb_losses: 0,
                frame,
                transmitters: NodeSet::singleton(NodeId::new(node % 64)),
                errored,
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn the_fold_equals_the_pass(
        draws in prop::collection::vec(
            (0u64..40, 1u64..160, 0u8..32, any::<u8>(), any::<bool>(), any::<bool>()),
            0..80,
        ),
        from in 0u64..4_000,
        length in 1u64..4_000,
    ) {
        let records = records(&draws);
        let (from, to) = (BitTime::new(from), BitTime::new(from + length));
        let mut recording = BusTrace::new();
        let mut summarizing = BusTrace::new();
        summarizing.summarize(from, to);
        for &record in &records {
            recording.push(record);
            summarizing.push(record);
        }
        let expected: BusStats = recording.stats(from, to);
        let folded = summarizing.stats(from, to);
        prop_assert_eq!(&folded, &expected);
        for code in 0..32 {
            if let Some(t) = MsgType::from_code(code) {
                prop_assert_eq!(folded.of_type(t), expected.of_type(t));
            }
        }
    }
}

/// The draw above reaches every case the fold distinguishes.
#[test]
fn the_draw_reaches_every_case() {
    let draws = [
        (0, 100, MsgType::Els.code(), 1, true, false),
        (10, 100, 0, 1, false, true),
        (10, 100, MsgType::Fda.code(), 200, false, false),
        (10, 100, MsgType::Rha.code(), 2, false, false),
    ];
    let records = records(&draws);
    assert_eq!(records[0].mid().map(|m| m.msg_type()), Some(MsgType::Els));
    assert_eq!(records[1].mid(), None, "code 0 names no type");
    assert_eq!(records[2].mid(), None, "node 200 is past the population");
    // A window from inside the first record to inside the last.
    let (from, to) = (BitTime::new(50), BitTime::new(350));
    let mut trace = BusTrace::new();
    trace.summarize(from, to);
    records.iter().for_each(|&r| trace.push(r));
    let stats = trace.stats(from, to);
    assert_eq!(stats.transactions, 4);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.busy, BitTime::new(50 + 100 + 100 + 20));
    assert_eq!(stats.of_type(MsgType::Els).busy, BitTime::new(50));
    assert_eq!(stats.of_type(MsgType::Rha).busy, BitTime::new(20));
}

#[test]
#[should_panic(expected = "summarizing bus trace keeps no records")]
fn a_summary_is_not_an_empty_trace() {
    let mut trace = BusTrace::new();
    trace.summarize(BitTime::ZERO, BitTime::new(1_000));
    let _ = trace.len();
}

#[test]
#[should_panic(expected = "summarizing bus trace holds only the stats of [0bt, 1000bt)")]
fn a_summary_answers_only_its_window() {
    let mut trace = BusTrace::new();
    trace.summarize(BitTime::ZERO, BitTime::new(1_000));
    trace.stats(BitTime::ZERO, BitTime::new(500));
}

#[test]
#[should_panic(expected = "before its first transaction")]
fn the_mode_is_chosen_before_the_first_transaction() {
    let mut trace = BusTrace::new();
    trace.push(records(&[(0, 100, 3, 1, true, false)])[0]);
    trace.summarize(BitTime::ZERO, BitTime::new(1_000));
}
