//! CAN frames and frame timing.
//!
//! A frame is "a piece of encapsulated information traveling on the
//! network" (Sec. 3). The simulator needs faithful frame *timing*: the
//! bandwidth results of Fig. 10 depend on how many bit-times a
//! life-sign remote frame or an RHV data frame occupies, including the
//! stuff bits inserted by the CAN bit-stuffing rule.
//!
//! Two timing modes are provided:
//!
//! * [`Frame::duration_exact`] — the length of the actual bit stream
//!   (CRC-15 and all) plus the genuinely inserted stuff bits;
//! * [`Frame::duration_worst_case`] — the closed-form worst case used
//!   by analytic models (a stuff bit every four bits of the stuffable
//!   region).

use crate::id::CanId;
use crate::time::BitTime;
use crate::wire;
use std::fmt;

/// Maximum CAN payload size in bytes.
pub const MAX_PAYLOAD: usize = 8;

/// Duration of the interframe space (intermission) in bit-times.
pub const INTERMISSION_BITS: u64 = 3;

/// Shortest error signalling sequence: 6-bit active error flag plus
/// 8-bit error delimiter. This is the lower bound of the
/// inaccessibility figures in Fig. 11 (14 bit-times).
pub const ERROR_FRAME_MIN_BITS: u64 = 14;

/// Longest error signalling sequence: superposed error flags (up to 12
/// bits) plus the 8-bit delimiter, plus the suspended intermission.
pub const ERROR_FRAME_MAX_BITS: u64 = 20;

/// A CAN frame payload: up to [`MAX_PAYLOAD`] bytes stored inline.
///
/// # Examples
///
/// ```
/// use can_types::Payload;
///
/// let p = Payload::from_slice(&[1, 2, 3]).unwrap();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.as_slice(), &[1, 2, 3]);
/// assert!(Payload::from_slice(&[0; 9]).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Payload {
    bytes: [u8; MAX_PAYLOAD],
    len: u8,
}

impl Payload {
    /// The empty payload.
    pub const EMPTY: Payload = Payload {
        bytes: [0; MAX_PAYLOAD],
        len: 0,
    };

    /// Creates a payload from a slice, `None` if longer than
    /// [`MAX_PAYLOAD`] bytes.
    pub fn from_slice(data: &[u8]) -> Option<Payload> {
        if data.len() > MAX_PAYLOAD {
            return None;
        }
        let mut bytes = [0u8; MAX_PAYLOAD];
        bytes[..data.len()].copy_from_slice(data);
        Some(Payload {
            bytes,
            len: data.len() as u8,
        })
    }

    /// Number of payload bytes (the DLC field).
    #[inline]
    pub const fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload(")?;
        for (i, b) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[u8]> for Payload {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl TryFrom<&[u8]> for Payload {
    type Error = PayloadTooLong;

    fn try_from(data: &[u8]) -> Result<Payload, PayloadTooLong> {
        Payload::from_slice(data).ok_or(PayloadTooLong { len: data.len() })
    }
}

/// A full-length payload: an array cannot be too long.
impl From<[u8; MAX_PAYLOAD]> for Payload {
    fn from(bytes: [u8; MAX_PAYLOAD]) -> Payload {
        Payload {
            bytes,
            len: MAX_PAYLOAD as u8,
        }
    }
}

/// Error returned when constructing a [`Payload`] from more than
/// [`MAX_PAYLOAD`] bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooLong {
    /// The offending length.
    pub len: usize,
}

impl fmt::Display for PayloadTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload of {} bytes exceeds the 8-byte CAN limit",
            self.len
        )
    }
}

impl std::error::Error for PayloadTooLong {}

/// Data frame or remote frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A data frame: carries a message (payload may still be empty).
    Data,
    /// A remote frame: control information only, no data field. The
    /// DLC of a remote frame still occupies the control field but no
    /// data bits follow.
    Remote,
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameKind::Data => f.write_str("data"),
            FrameKind::Remote => f.write_str("remote"),
        }
    }
}

/// Standard (11-bit id) or extended (29-bit id) frame format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrameFormat {
    /// ISO 11898 standard format: 11-bit identifier.
    Standard,
    /// ISO 11898 extended format: 29-bit identifier. CANELy mids are
    /// 29 bits wide, so this is the stack default.
    #[default]
    Extended,
}

impl FrameFormat {
    /// Frame length in bits *before* stuffing, for a data field of
    /// `payload_len` bytes.
    ///
    /// Standard: `44 + 8s` (SOF + 11-bit id + RTR + IDE + r0 + DLC +
    /// data + CRC15 + delimiters + ACK + EOF).
    /// Extended: `64 + 8s` (adds SRR, 18 more id bits, r1).
    pub const fn unstuffed_bits(self, payload_len: usize) -> u64 {
        match self {
            FrameFormat::Standard => 44 + 8 * payload_len as u64,
            FrameFormat::Extended => 64 + 8 * payload_len as u64,
        }
    }

    /// Length in bits of the stuffable region (SOF through CRC
    /// sequence; the CRC delimiter, ACK and EOF are fixed-form).
    pub const fn stuffable_bits(self, payload_len: usize) -> u64 {
        match self {
            FrameFormat::Standard => 34 + 8 * payload_len as u64,
            FrameFormat::Extended => 54 + 8 * payload_len as u64,
        }
    }

    /// Worst-case number of stuff bits: one every four bits of the
    /// stuffable region.
    pub const fn worst_case_stuff_bits(self, payload_len: usize) -> u64 {
        (self.stuffable_bits(payload_len) - 1) / 4
    }

    /// Worst-case total frame duration in bit-times (stuffing
    /// included, intermission *not* included).
    pub const fn worst_case_bits(self, payload_len: usize) -> u64 {
        self.unstuffed_bits(payload_len) + self.worst_case_stuff_bits(payload_len)
    }
}

/// A CAN frame: identifier, kind and (for data frames) payload.
///
/// # Examples
///
/// ```
/// use can_types::{Frame, Mid, MsgType, NodeId, Payload, NodeSet};
///
/// // An RHV signal: data frame whose payload is the history vector.
/// let vector = NodeSet::first_n(5);
/// let mid = Mid::new(MsgType::Rha, vector.len() as u16, NodeId::new(0));
/// let frame = Frame::data(mid, Payload::from_slice(&vector.to_bytes()).unwrap());
/// assert_eq!(frame.payload().len(), 8);
///
/// // Exact timing is never longer than the worst case.
/// assert!(frame.duration_exact() <= frame.duration_worst_case());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    id: CanId,
    kind: FrameKind,
    format: FrameFormat,
    payload: Payload,
}

impl Frame {
    /// Creates a data frame carrying `payload`, identified by `id`
    /// (anything convertible to a [`CanId`], e.g. a [`crate::Mid`]).
    pub fn data(id: impl Into<CanId>, payload: Payload) -> Frame {
        Frame {
            id: id.into(),
            kind: FrameKind::Data,
            format: FrameFormat::Extended,
            payload,
        }
    }

    /// Creates a remote frame (no data field).
    pub fn remote(id: impl Into<CanId>) -> Frame {
        Frame {
            id: id.into(),
            kind: FrameKind::Remote,
            format: FrameFormat::Extended,
            payload: Payload::EMPTY,
        }
    }

    /// Returns the same frame in the given format.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not fit the standard format.
    pub fn with_format(mut self, format: FrameFormat) -> Frame {
        if matches!(format, FrameFormat::Standard) {
            assert!(
                self.id.is_standard(),
                "identifier does not fit the 11-bit standard format"
            );
        }
        self.format = format;
        self
    }

    /// The frame identifier.
    #[inline]
    pub const fn id(&self) -> CanId {
        self.id
    }

    /// Data or remote.
    #[inline]
    pub const fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The frame format.
    #[inline]
    pub const fn format(&self) -> FrameFormat {
        self.format
    }

    /// The payload (always empty for remote frames).
    #[inline]
    pub const fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Whether this is a remote frame.
    #[inline]
    pub const fn is_remote(&self) -> bool {
        matches!(self.kind, FrameKind::Remote)
    }

    /// The number of data bits on the wire (zero for remote frames).
    const fn data_len(&self) -> usize {
        match self.kind {
            FrameKind::Data => self.payload.len(),
            FrameKind::Remote => 0,
        }
    }

    /// Exact wire duration of this frame in bit-times: the length of
    /// the real bit stream (arbitration and control fields, data,
    /// CRC-15) plus the stuff bits genuinely inserted into it.
    pub fn duration_exact(&self) -> BitTime {
        BitTime::new(wire::exact_frame_bits(self))
    }

    /// Worst-case wire duration in bit-times (a stuff bit every four
    /// stuffable bits). Used by the conservative analytic models.
    pub fn duration_worst_case(&self) -> BitTime {
        BitTime::new(self.format.worst_case_bits(self.data_len()))
    }

    /// Whether two frames are *wire-identical*: same identifier, kind,
    /// format and (for data frames) payload. Wire-identical frames
    /// transmitted simultaneously merge on the bus — the wired-AND
    /// clustering effect exploited by FDA and the EDCAN family.
    pub fn clusters_with(&self, other: &Frame) -> bool {
        self == other
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({} B)", self.kind, self.id, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{Mid, MsgType};
    use crate::node::NodeId;

    fn mid(t: MsgType, node: u8) -> Mid {
        Mid::new(t, 0, NodeId::new(node))
    }

    #[test]
    fn payload_limits() {
        assert!(Payload::from_slice(&[0; 8]).is_some());
        assert!(Payload::from_slice(&[0; 9]).is_none());
        let err = Payload::try_from(&[0u8; 9][..]).unwrap_err();
        assert_eq!(err.len, 9);
        assert_eq!(
            err.to_string(),
            "payload of 9 bytes exceeds the 8-byte CAN limit"
        );
    }

    #[test]
    fn payload_debug_shows_bytes() {
        let p = Payload::from_slice(&[0xAB, 0x01]).unwrap();
        assert_eq!(format!("{p:?}"), "Payload(ab 01)");
        assert_eq!(format!("{:?}", Payload::EMPTY), "Payload()");
    }

    #[test]
    fn unstuffed_lengths_match_iso() {
        // Standard data frame with s bytes: 44 + 8s bits.
        assert_eq!(FrameFormat::Standard.unstuffed_bits(0), 44);
        assert_eq!(FrameFormat::Standard.unstuffed_bits(8), 108);
        // Extended: 64 + 8s bits.
        assert_eq!(FrameFormat::Extended.unstuffed_bits(0), 64);
        assert_eq!(FrameFormat::Extended.unstuffed_bits(8), 128);
    }

    #[test]
    fn worst_case_stuffing_formula() {
        // Standard 8-byte frame: 108 + floor(97/4) = 108 + 24 = 132.
        assert_eq!(FrameFormat::Standard.worst_case_bits(8), 132);
        // Extended remote frame: 64 + floor(53/4) = 64 + 13 = 77.
        assert_eq!(FrameFormat::Extended.worst_case_bits(0), 77);
    }

    #[test]
    fn remote_frames_carry_no_data_bits() {
        let f = Frame::remote(mid(MsgType::Els, 1));
        assert!(f.is_remote());
        assert_eq!(f.payload().len(), 0);
        assert_eq!(
            f.duration_worst_case(),
            BitTime::new(FrameFormat::Extended.worst_case_bits(0))
        );
    }

    #[test]
    fn exact_never_exceeds_worst_case() {
        for len in 0..=8usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let f = Frame::data(
                mid(MsgType::AppData, 3),
                Payload::from_slice(&data).unwrap(),
            );
            assert!(
                f.duration_exact() <= f.duration_worst_case(),
                "len {len}: exact {} > worst {}",
                f.duration_exact(),
                f.duration_worst_case()
            );
            assert!(f.duration_exact() >= BitTime::new(f.format.unstuffed_bits(len)));
        }
    }

    #[test]
    fn standard_format_rejects_wide_ids() {
        let f = Frame::remote(CanId::new(0x100));
        let _ = f.with_format(FrameFormat::Standard); // fits
        let wide = Frame::remote(CanId::new(0x800));
        let result = std::panic::catch_unwind(|| wide.with_format(FrameFormat::Standard));
        assert!(result.is_err());
    }

    #[test]
    fn clustering_requires_wire_identity() {
        let a = Frame::remote(mid(MsgType::Fda, 9));
        let b = Frame::remote(mid(MsgType::Fda, 9));
        let c = Frame::remote(mid(MsgType::Fda, 8));
        assert!(a.clusters_with(&b));
        assert!(!a.clusters_with(&c));

        let d1 = Frame::data(mid(MsgType::Rha, 1), Payload::from_slice(&[1]).unwrap());
        let d2 = Frame::data(mid(MsgType::Rha, 1), Payload::from_slice(&[2]).unwrap());
        assert!(!d1.clusters_with(&d2));
    }

    #[test]
    fn error_frame_bounds_match_fig11_minimum() {
        // The 14-bit-time lower bound of the inaccessibility figures.
        assert_eq!(ERROR_FRAME_MIN_BITS, 14);
        assert_eq!(ERROR_FRAME_MAX_BITS, 20);
    }

    #[test]
    fn display_formats() {
        let f = Frame::remote(mid(MsgType::Els, 2));
        let s = f.to_string();
        assert!(s.contains("remote"), "{s}");
    }
}
