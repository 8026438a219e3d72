//! Bit-level wire encoding: frame bit streams, CRC-15 and bit stuffing.
//!
//! The simulator charges each transmission its *exact* wire duration:
//! the length of the genuine bit stream of the frame — arbitration and
//! control fields, data field and the ISO 11898 CRC — plus the stuff
//! bits the bit-stuffing rule actually adds to it (after five
//! consecutive equal bits a complementary stuff bit is inserted).
//!
//! [`stuffable_region`], [`crc15`] and [`count_stuff_bits`] are that
//! definition spelled out bit by bit. [`exact_frame_bits`] — which the
//! bus calls once per transaction — computes the same number without
//! materialising the stream: the region is packed into one `u128` and
//! both the CRC and the stuff count advance a byte per table lookup.
//! The tests hold it to the bit-serial definition.

use crate::frame::{Frame, FrameFormat, FrameKind};

/// The ISO 11898 CRC-15 generator polynomial
/// `x¹⁵ + x¹⁴ + x¹⁰ + x⁸ + x⁷ + x⁴ + x³ + 1`.
pub const CRC15_POLY: u16 = 0x4599;

/// Computes the CAN CRC-15 over a bit sequence (most significant bit
/// of the frame first), as specified by ISO 11898.
///
/// # Examples
///
/// ```
/// use can_types::wire::{crc15, CRC15_POLY};
///
/// // CRC of the empty sequence is zero.
/// assert_eq!(crc15(&[]), 0);
/// // A single recessive bit yields the polynomial itself (shifted in).
/// assert_eq!(crc15(&[true]), CRC15_POLY);
/// ```
pub fn crc15(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0;
    for &bit in bits {
        let crc_nxt = bit ^ ((crc >> 14) & 1 == 1);
        crc = (crc << 1) & 0x7FFF;
        if crc_nxt {
            crc ^= CRC15_POLY;
        }
    }
    crc
}

/// Appends the `width` low bits of `value` to `bits`, most significant
/// first.
fn push_bits(bits: &mut Vec<bool>, value: u32, width: u32) {
    for i in (0..width).rev() {
        bits.push((value >> i) & 1 == 1);
    }
}

/// Builds the stuffable region of a frame (SOF through the CRC
/// sequence) as a bit vector, CRC included.
pub fn stuffable_region(frame: &Frame) -> Vec<bool> {
    let mut bits = Vec::with_capacity(128);
    let id = frame.id().raw();
    let rtr = matches!(frame.kind(), FrameKind::Remote);
    let data = match frame.kind() {
        FrameKind::Data => frame.payload().as_slice(),
        FrameKind::Remote => &[],
    };
    let dlc = match frame.kind() {
        FrameKind::Data => frame.payload().len() as u32,
        // A remote frame's DLC encodes the *requested* length; CANELy
        // control messages request none.
        FrameKind::Remote => 0,
    };

    // SOF is dominant.
    bits.push(false);
    match frame.format() {
        FrameFormat::Standard => {
            push_bits(&mut bits, id, 11);
            bits.push(rtr); // RTR: recessive for remote frames
            bits.push(false); // IDE: dominant (standard format)
            bits.push(false); // r0
        }
        FrameFormat::Extended => {
            push_bits(&mut bits, id >> 18, 11); // base identifier
            bits.push(true); // SRR: recessive
            bits.push(true); // IDE: recessive (extended format)
            push_bits(&mut bits, id & 0x3_FFFF, 18); // identifier extension
            bits.push(rtr); // RTR
            bits.push(false); // r1
            bits.push(false); // r0
        }
    }
    push_bits(&mut bits, dlc, 4);
    for &byte in data {
        push_bits(&mut bits, byte as u32, 8);
    }
    let crc = crc15(&bits);
    push_bits(&mut bits, crc as u32, 15);
    bits
}

/// Counts the stuff bits the transmitter inserts into a bit sequence:
/// after five consecutive bits of equal polarity a complementary bit
/// is stuffed (and itself participates in subsequent runs).
///
/// # Examples
///
/// ```
/// use can_types::wire::count_stuff_bits;
///
/// // Five equal bits force one stuff bit.
/// assert_eq!(count_stuff_bits(&[false; 5]), 1);
/// // Alternating bits never need stuffing.
/// let alternating: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
/// assert_eq!(count_stuff_bits(&alternating), 0);
/// ```
pub fn count_stuff_bits(bits: &[bool]) -> u64 {
    let mut stuffed = 0u64;
    let mut run_value = match bits.first() {
        Some(&b) => b,
        None => return 0,
    };
    let mut run_len = 0u32;
    for &bit in bits {
        if bit == run_value {
            run_len += 1;
        } else {
            run_value = bit;
            run_len = 1;
        }
        if run_len == 5 {
            stuffed += 1;
            // The stuff bit is the complement and starts a new run.
            run_value = !run_value;
            run_len = 1;
        }
    }
    stuffed
}

/// `CRC15_TABLE[b]` is the CRC-15 register after the eight bits of `b`
/// (most significant first) are shifted into a zero register. The
/// incoming bit meets the register at its top, so this is also what a
/// register holding `b` in its top eight bits becomes after eight zero
/// bits — which makes the table a byte-at-a-time step.
const CRC15_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = (byte as u16) << 7;
        let mut bit = 0;
        while bit < 8 {
            let feedback = crc & 0x4000 != 0;
            crc = (crc << 1) & 0x7FFF;
            if feedback {
                crc ^= CRC15_POLY;
            }
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// The stuffing automaton's state before any bit: no run yet. The
/// other eight states are [`stuff_state`]'s.
const STUFF_START: u8 = 0;

/// The automaton state "the last bit was `value`, the `run`-th of its
/// polarity in a row" (`run` in `1..=4`; a fifth stuffs and restarts
/// the run, so no longer run is ever a resting state).
const fn stuff_state(value: bool, run: u8) -> u8 {
    1 + 4 * value as u8 + (run - 1)
}

/// [`count_stuff_bits`] a byte at a time: `STUFF_TABLE[state][byte]`
/// holds, for the eight bits of `byte` (most significant first) met in
/// `state`, the next state in its low nibble and the stuff bits
/// inserted on the way (0..=2) in its high nibble.
const STUFF_TABLE: [[u8; 256]; 9] = {
    let mut table = [[0u8; 256]; 9];
    let mut state = 0;
    while state < 9 {
        let mut byte = 0;
        while byte < 256 {
            let (mut value, mut run) = match state {
                0 => (false, 0),
                s => ((s - 1) / 4 == 1, (s - 1) % 4 + 1),
            };
            let mut stuffed = 0;
            let mut bit = 8;
            while bit > 0 {
                bit -= 1;
                let level = (byte >> bit) & 1 == 1;
                if run > 0 && level == value {
                    run += 1;
                } else {
                    value = level;
                    run = 1;
                }
                if run == 5 {
                    stuffed += 1;
                    value = !value;
                    run = 1;
                }
            }
            table[state][byte] = stuffed << 4 | stuff_state(value, run as u8);
            byte += 1;
        }
        state += 1;
    }
    table
};

/// Exact wire length of a frame in bits: stuffable region plus the
/// genuinely inserted stuff bits plus the fixed-form tail (CRC
/// delimiter, ACK slot, ACK delimiter, 7-bit EOF).
///
/// The value is `stuffable_region(frame).len()` plus
/// [`count_stuff_bits`] of that region plus 10, computed without
/// building the region (see the module docs).
pub fn exact_frame_bits(frame: &Frame) -> u64 {
    let id = u128::from(frame.id().raw());
    let (rtr, data) = match frame.kind() {
        FrameKind::Data => (0, frame.payload().as_slice()),
        // A remote frame's DLC encodes the *requested* length; CANELy
        // control messages request none.
        FrameKind::Remote => (1, &[][..]),
    };
    let dlc = data.len() as u128;

    // SOF through DLC, most significant bit first, as in
    // `stuffable_region`. SOF, IDE (standard), r1 and r0 are dominant
    // zeros; the header length counts the leading SOF although it adds
    // no set bit.
    let (mut region, header) = match frame.format() {
        FrameFormat::Standard => (id << 7 | rtr << 6 | dlc, 19u32),
        FrameFormat::Extended => (
            (id >> 18) << 27 | 0b11 << 25 | (id & 0x3_FFFF) << 7 | rtr << 6 | dlc,
            39u32,
        ),
    };
    for &byte in data {
        region = region << 8 | u128::from(byte);
    }
    let len = header + 8 * data.len() as u32;

    // One pass over the whole bytes of SOF..data advances the CRC
    // register and the stuffing automaton side by side. Each sees its
    // own front pad: zeros for the CRC (a zero register stays zero
    // under zero bits, and SOF is dominant), alternating levels ending
    // recessive for the automaton (they stuff nothing and leave it in
    // "one recessive bit", from where the dominant SOF moves it to "one
    // dominant bit" — exactly where SOF alone takes it from
    // `STUFF_START`).
    let bytes = len.div_ceil(8);
    let padded = (0x55 & ((1u128 << (8 * bytes - len)) - 1)) << len | region;
    let (mut crc, mut state, mut stuffed) = (0u16, STUFF_START, 0u64);
    let mut stuff = |byte: u8| {
        let entry = STUFF_TABLE[usize::from(state)][usize::from(byte)];
        state = entry & 0xF;
        stuffed += u64::from(entry >> 4);
    };
    for i in (0..bytes).rev() {
        let byte = (region >> (8 * i)) as u8;
        crc = (crc << 8) & 0x7FFF ^ CRC15_TABLE[usize::from((crc >> 7) as u8 ^ byte)];
        stuff((padded >> (8 * i)) as u8);
    }
    // The 15 CRC bits follow, closed to two bytes with the complement
    // of the last one: a bit that differs from its predecessor starts
    // a run of one and so stuffs nothing.
    let [high, low] = (crc << 1 | (!crc & 1)).to_be_bytes();
    stuff(high);
    stuff(low);
    frame.format().unstuffed_bits(data.len()) + stuffed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;
    use crate::id::{CanId, Mid, MsgType};
    use crate::node::NodeId;

    /// The eight bits of `byte`, most significant first.
    fn bits_of(byte: u8) -> Vec<bool> {
        (0..8).rev().map(|i| (byte >> i) & 1 == 1).collect()
    }

    /// The wire length by the bit-serial ISO 11898 definition: the
    /// oracle `exact_frame_bits` is held to.
    fn reference_frame_bits(frame: &Frame) -> u64 {
        let region = stuffable_region(frame);
        region.len() as u64 + count_stuff_bits(&region) + 10
    }

    #[test]
    fn crc_table_is_the_bit_serial_crc_of_each_byte() {
        for byte in 0..=255u8 {
            assert_eq!(
                CRC15_TABLE[usize::from(byte)],
                crc15(&bits_of(byte)),
                "byte {byte:#04x}"
            );
        }
    }

    #[test]
    fn stuff_table_is_the_bit_serial_count_from_every_state() {
        // A prefix that reaches each state without stuffing anything.
        let mut prefixes = vec![(STUFF_START, vec![])];
        for value in [false, true] {
            for run in 1..=4u8 {
                prefixes.push((stuff_state(value, run), vec![value; usize::from(run)]));
            }
        }
        assert_eq!(prefixes.len(), STUFF_TABLE.len());
        for (state, prefix) in &prefixes {
            assert_eq!(count_stuff_bits(prefix), 0);
            for first in 0..=255u8 {
                let mut bits = prefix.clone();
                bits.extend(bits_of(first));
                let entry = STUFF_TABLE[usize::from(*state)][usize::from(first)];
                assert_eq!(
                    u64::from(entry >> 4),
                    count_stuff_bits(&bits),
                    "state {state}, byte {first:#04x}"
                );
                // The next state is right if every following byte
                // counts right from it (states differ within 4 bits).
                for second in 0..=255u8 {
                    let next = STUFF_TABLE[usize::from(entry & 0xF)][usize::from(second)];
                    bits.extend(bits_of(second));
                    assert_eq!(
                        u64::from(entry >> 4) + u64::from(next >> 4),
                        count_stuff_bits(&bits),
                        "state {state}, bytes {first:#04x} {second:#04x}"
                    );
                    bits.truncate(prefix.len() + 8);
                }
            }
        }
    }

    #[test]
    fn exact_bits_match_definition_for_every_standard_id() {
        let bodies = [
            None,
            Some(&[][..]),
            Some(&[0x00][..]),
            Some(&[0xFF]),
            Some(&[0x55]),
        ];
        for raw in 0..(1u32 << 11) {
            for body in bodies {
                let frame = match body {
                    None => Frame::remote(CanId::new(raw)),
                    Some(data) => Frame::data(CanId::new(raw), Payload::from_slice(data).unwrap()),
                };
                for format in [FrameFormat::Standard, FrameFormat::Extended] {
                    let frame = frame.with_format(format);
                    assert_eq!(
                        exact_frame_bits(&frame),
                        reference_frame_bits(&frame),
                        "{frame} ({format:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_bits_match_definition_at_the_stuffing_extremes() {
        for format in [FrameFormat::Standard, FrameFormat::Extended] {
            let widest = match format {
                FrameFormat::Standard => 0x7FF,
                FrameFormat::Extended => 0x1FFF_FFFF,
            };
            for raw in [0, widest] {
                for fill in [0x00u8, 0xFF] {
                    for len in 0..=8usize {
                        let payload = Payload::from_slice(&vec![fill; len]).unwrap();
                        let frame = Frame::data(CanId::new(raw), payload).with_format(format);
                        assert_eq!(
                            exact_frame_bits(&frame),
                            reference_frame_bits(&frame),
                            "{frame} ({format:?}, fill {fill:#04x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crc_is_deterministic_and_sensitive() {
        let a = vec![true, false, true, true, false];
        let mut b = a.clone();
        b[2] = false;
        assert_eq!(crc15(&a), crc15(&a));
        assert_ne!(crc15(&a), crc15(&b));
        assert!(crc15(&a) < (1 << 15));
    }

    #[test]
    fn stuffing_of_long_runs() {
        // 10 equal bits: stuff after bit 5; the stuff bit breaks the
        // run, the remaining 5 equal bits force a second stuff bit.
        assert_eq!(count_stuff_bits(&[true; 10]), 2);
        // Worst case: every 4 bits after the first stuff.
        assert_eq!(count_stuff_bits(&[false; 4]), 0);
        assert_eq!(count_stuff_bits(&[false; 5]), 1);
    }

    #[test]
    fn stuff_bit_participates_in_next_run() {
        // 0000 0 1111 — five zeros stuff a one; together with the four
        // following ones that makes a run of five ones: second stuff.
        let bits = [false, false, false, false, false, true, true, true, true];
        assert_eq!(count_stuff_bits(&bits), 2);
    }

    #[test]
    fn empty_sequence_needs_no_stuffing() {
        assert_eq!(count_stuff_bits(&[]), 0);
    }

    #[test]
    fn region_length_matches_format_constant() {
        for len in 0..=8usize {
            let data: Vec<u8> = vec![0x55; len];
            let f = Frame::data(
                Mid::new(MsgType::AppData, 7, NodeId::new(1)),
                Payload::from_slice(&data).unwrap(),
            );
            assert_eq!(
                stuffable_region(&f).len() as u64,
                f.format().stuffable_bits(len)
            );
        }
    }

    #[test]
    fn exact_bits_bounded_by_formulas() {
        for len in 0..=8usize {
            for pattern in [0x00u8, 0xFF, 0x55, 0xA7] {
                let data = vec![pattern; len];
                let f = Frame::data(
                    Mid::new(MsgType::AppData, 0, NodeId::new(0)),
                    Payload::from_slice(&data).unwrap(),
                );
                let exact = exact_frame_bits(&f);
                assert!(exact >= f.format().unstuffed_bits(len));
                assert!(exact <= f.format().worst_case_bits(len));
            }
        }
    }

    #[test]
    fn remote_frame_has_no_data_bits() {
        let r = Frame::remote(CanId::new(0x123));
        let d = Frame::data(CanId::new(0x123), Payload::EMPTY);
        // Same stuffable length (no payload either way), but the RTR
        // bit differs so the CRC — and possibly stuffing — differ.
        assert_eq!(stuffable_region(&r).len(), stuffable_region(&d).len());
        let rr = stuffable_region(&r);
        let dd = stuffable_region(&d);
        assert_ne!(rr, dd);
    }

    #[test]
    fn all_dominant_payload_maximizes_stuffing() {
        let zeros = Frame::data(CanId::new(0), Payload::from_slice(&[0u8; 8]).unwrap());
        let mixed = Frame::data(
            CanId::new(0x0AAA_AAAA & 0x1FFF_FFFF),
            Payload::from_slice(&[0x55u8; 8]).unwrap(),
        );
        assert!(exact_frame_bits(&zeros) > exact_frame_bits(&mixed));
    }
}
