//! CAN frame identifiers and the CANELy *message control field*.
//!
//! Section 5 of the paper: *"The message control field or message
//! identifier (mid) consists of a type reference, an (optional)
//! reference number and a node identifier."*
//!
//! We encode the mid into a 29-bit extended-format CAN identifier:
//!
//! ```text
//!  28        24 23                8 7          0
//! ┌────────────┬───────────────────┬────────────┐
//! │ type (5 b) │ reference (16 b)  │ node (8 b) │
//! └────────────┴───────────────────┴────────────┘
//! ```
//!
//! Because CAN arbitration lets the lowest identifier through, the
//! numeric order of [`MsgType`] *is* the priority order: protocol
//! control messages (failure-signs, RHV signals, life-signs) win the
//! bus over application data.

use crate::node::NodeId;
use std::fmt;

/// Number of bits of a standard-format CAN identifier.
pub const STANDARD_ID_BITS: u32 = 11;
/// Number of bits of an extended-format CAN identifier.
pub const EXTENDED_ID_BITS: u32 = 29;

/// A raw CAN frame identifier (up to 29 bits, extended format).
///
/// Lower values win arbitration ([`CanId::beats`]). Uniqueness of
/// identifiers across concurrent senders is a CAN requirement for data
/// frames; *identical* remote frames, by contrast, may be transmitted
/// simultaneously by several nodes and merge on the wire (the
/// *wired-AND clustering* the FDA/RHA protocols exploit).
///
/// # Examples
///
/// ```
/// use can_types::CanId;
///
/// let hi = CanId::new(0x10);
/// let lo = CanId::new(0x20);
/// assert!(hi.beats(lo));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanId(u32);

impl CanId {
    /// Creates an identifier from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 29 bits.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        assert!(raw < (1 << EXTENDED_ID_BITS), "CAN id exceeds 29 bits");
        CanId(raw)
    }

    /// The raw identifier value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this identifier wins arbitration against `other`
    /// (strictly lower value ⇒ dominant bits earlier ⇒ wins).
    #[inline]
    pub const fn beats(self, other: CanId) -> bool {
        self.0 < other.0
    }

    /// Whether this identifier fits the 11-bit standard format.
    #[inline]
    pub const fn is_standard(self) -> bool {
        self.0 < (1 << STANDARD_ID_BITS)
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08X}", self.0)
    }
}

impl fmt::LowerHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// The *type reference* of a message control field.
///
/// The numeric discriminant doubles as the CAN arbitration priority:
/// lower discriminants occupy the high bits of the identifier, so they
/// win the bus. Failure-signs are the most urgent traffic in CANELy,
/// followed by RHV signals and life-signs; application data yields to
/// every protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// FDA failure-sign (Fig. 6). Remote frame; clusters on the wire.
    Fda = 1,
    /// RHA reception-history-vector signal (Fig. 7). Data frame.
    Rha = 2,
    /// Explicit life-sign (ELS) of the failure detection protocol
    /// (Fig. 8). Remote frame; clusters on the wire.
    Els = 3,
    /// Membership JOIN request (Fig. 9). Remote frame.
    Join = 4,
    /// Membership LEAVE request (Fig. 9). Remote frame.
    Leave = 5,
    /// Clock synchronization sync indication frame.
    ClockSync = 6,
    /// Clock synchronization follow-up frame carrying the timestamp.
    ClockFollowUp = 7,
    /// EDCAN eager-diffusion retransmission (reliable broadcast suite).
    Edcan = 8,
    /// RELCAN lazy-diffusion message.
    Relcan = 9,
    /// RELCAN confirmation round.
    RelcanConfirm = 10,
    /// TOTCAN totally-ordered message dissemination.
    Totcan = 11,
    /// TOTCAN accept signal.
    TotcanAccept = 12,
    /// CANopen NMT node-guarding poll / response.
    NodeGuard = 13,
    /// CANopen producer-consumer heartbeat.
    Heartbeat = 14,
    /// OSEK network management ring message.
    OsekRing = 15,
    /// OSEK network management alive message.
    OsekAlive = 16,
    /// TTP-style TDMA slot frame (baseline comparison only).
    TtpSlot = 17,
    /// Process-group management announcement (join/leave of a process
    /// group, disseminated reliably on top of the site membership).
    Group = 18,
    /// SWIM-style probe frame (direct ping, ping-req, indirect ack)
    /// used by alternative failure-detector backends. Remote frame;
    /// clusters on the wire like life-signs.
    Ping = 19,
    /// Segment-view digest exchanged between federation gateways
    /// (hierarchical membership). Data frame: the payload carries the
    /// claimed segment view and its epoch; the reference encodes the
    /// reporting and subject segments.
    Digest = 20,
    /// Application data (implicit heartbeat traffic).
    AppData = 24,
}

impl MsgType {
    /// All message types, in priority order.
    pub const ALL: [MsgType; 21] = [
        MsgType::Fda,
        MsgType::Rha,
        MsgType::Els,
        MsgType::Join,
        MsgType::Leave,
        MsgType::ClockSync,
        MsgType::ClockFollowUp,
        MsgType::Edcan,
        MsgType::Relcan,
        MsgType::RelcanConfirm,
        MsgType::Totcan,
        MsgType::TotcanAccept,
        MsgType::NodeGuard,
        MsgType::Heartbeat,
        MsgType::OsekRing,
        MsgType::OsekAlive,
        MsgType::TtpSlot,
        MsgType::Group,
        MsgType::Ping,
        MsgType::Digest,
        MsgType::AppData,
    ];

    /// The 5-bit wire code.
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a 5-bit wire code.
    pub const fn from_code(code: u8) -> Option<MsgType> {
        Some(match code {
            1 => MsgType::Fda,
            2 => MsgType::Rha,
            3 => MsgType::Els,
            4 => MsgType::Join,
            5 => MsgType::Leave,
            6 => MsgType::ClockSync,
            7 => MsgType::ClockFollowUp,
            8 => MsgType::Edcan,
            9 => MsgType::Relcan,
            10 => MsgType::RelcanConfirm,
            11 => MsgType::Totcan,
            12 => MsgType::TotcanAccept,
            13 => MsgType::NodeGuard,
            14 => MsgType::Heartbeat,
            15 => MsgType::OsekRing,
            16 => MsgType::OsekAlive,
            17 => MsgType::TtpSlot,
            18 => MsgType::Group,
            19 => MsgType::Ping,
            20 => MsgType::Digest,
            24 => MsgType::AppData,
            _ => return None,
        })
    }

    /// Whether messages of this type are encapsulated in remote frames
    /// (no data field) in the CANELy design.
    pub const fn is_remote_encapsulated(self) -> bool {
        matches!(
            self,
            MsgType::Fda | MsgType::Els | MsgType::Join | MsgType::Leave | MsgType::Ping
        )
    }

    /// The type's name, as a mid renders it (`FDA`, `RHA`, …).
    pub const fn name(self) -> &'static str {
        match self {
            MsgType::Fda => "FDA",
            MsgType::Rha => "RHA",
            MsgType::Els => "ELS",
            MsgType::Join => "JOIN",
            MsgType::Leave => "LEAVE",
            MsgType::ClockSync => "CLK-SYNC",
            MsgType::ClockFollowUp => "CLK-FUP",
            MsgType::Edcan => "EDCAN",
            MsgType::Relcan => "RELCAN",
            MsgType::RelcanConfirm => "RELCAN-CNF",
            MsgType::Totcan => "TOTCAN",
            MsgType::TotcanAccept => "TOTCAN-ACC",
            MsgType::NodeGuard => "NODEGUARD",
            MsgType::Heartbeat => "HEARTBEAT",
            MsgType::OsekRing => "OSEK-RING",
            MsgType::OsekAlive => "OSEK-ALIVE",
            MsgType::TtpSlot => "TTP-SLOT",
            MsgType::Group => "GROUP",
            MsgType::Ping => "PING",
            MsgType::Digest => "DIGEST",
            MsgType::AppData => "DATA",
        }
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The CANELy *message control field* (mid).
///
/// A mid is a `(type, reference, node)` triple. Its encoding into a
/// [`CanId`] guarantees that:
///
/// * two FDA failure-signs for the same failed node are *identical*
///   frames (they cluster on the wire);
/// * two RHV signals with the same `#V_RHV` from different nodes have
///   *different* identifiers (no data-frame collision);
/// * protocol traffic outranks application traffic in arbitration.
///
/// # Examples
///
/// ```
/// use can_types::{Mid, MsgType, NodeId};
///
/// let failed = NodeId::new(9);
/// let a = Mid::new(MsgType::Fda, 0, failed);
/// let b = Mid::new(MsgType::Fda, 0, failed);
/// // Same mid from any transmitter — the wired-AND clusters them.
/// assert_eq!(a.to_can_id(), b.to_can_id());
/// assert_eq!(Mid::from_can_id(a.to_can_id()), Some(a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mid {
    msg_type: MsgType,
    reference: u16,
    node: NodeId,
}

impl Mid {
    /// Creates a message control field.
    #[inline]
    pub const fn new(msg_type: MsgType, reference: u16, node: NodeId) -> Self {
        Mid {
            msg_type,
            reference,
            node,
        }
    }

    /// The type reference.
    #[inline]
    pub const fn msg_type(self) -> MsgType {
        self.msg_type
    }

    /// The optional reference number (0 when unused).
    ///
    /// RHA uses it for `#V_RHV`, the cardinality of the proposed
    /// reception history vector; application traffic may use it as a
    /// stream/sequence tag.
    #[inline]
    pub const fn reference(self) -> u16 {
        self.reference
    }

    /// The node identifier field. Its meaning depends on the type: the
    /// *failed* node for FDA, the *transmitting* node for RHA/ELS/data.
    #[inline]
    pub const fn node(self) -> NodeId {
        self.node
    }

    /// Encodes the mid as a 29-bit extended CAN identifier.
    #[inline]
    pub const fn to_can_id(self) -> CanId {
        CanId::new(
            ((self.msg_type.code() as u32) << 24)
                | ((self.reference as u32) << 8)
                | self.node.as_u8() as u32,
        )
    }

    /// Decodes a mid from a CAN identifier, if the type code is known.
    pub const fn from_can_id(id: CanId) -> Option<Mid> {
        let raw = id.raw();
        let code = (raw >> 24) as u8;
        let msg_type = match MsgType::from_code(code) {
            Some(t) => t,
            None => return None,
        };
        let node_bits = (raw & 0xFF) as u8;
        if node_bits as usize >= crate::node::MAX_NODES {
            return None;
        }
        Some(Mid {
            msg_type,
            reference: ((raw >> 8) & 0xFFFF) as u16,
            node: NodeId::new(node_bits),
        })
    }
}

impl fmt::Display for Mid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{},{}]", self.msg_type, self.reference, self.node)
    }
}

impl From<Mid> for CanId {
    #[inline]
    fn from(mid: Mid) -> CanId {
        mid.to_can_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitration_order() {
        assert!(CanId::new(1).beats(CanId::new(2)));
        assert!(!CanId::new(2).beats(CanId::new(2)));
    }

    #[test]
    fn standard_format_detection() {
        assert!(CanId::new(0x7FF).is_standard());
        assert!(!CanId::new(0x800).is_standard());
    }

    #[test]
    #[should_panic(expected = "CAN id exceeds 29 bits")]
    fn id_width_checked() {
        let _ = CanId::new(1 << 29);
    }

    #[test]
    fn mid_round_trip_all_types() {
        for msg_type in MsgType::ALL {
            let mid = Mid::new(msg_type, 0x1234, NodeId::new(42));
            assert_eq!(Mid::from_can_id(mid.to_can_id()), Some(mid));
        }
    }

    #[test]
    fn mid_decode_rejects_unknown_type() {
        // Type code 31 is unused.
        let id = CanId::new(31 << 24);
        assert_eq!(Mid::from_can_id(id), None);
    }

    #[test]
    fn mid_decode_rejects_out_of_range_node() {
        let id = CanId::new((MsgType::Fda.code() as u32) << 24 | 0x80);
        assert_eq!(Mid::from_can_id(id), None);
    }

    #[test]
    fn protocol_outranks_data() {
        let fda = Mid::new(MsgType::Fda, 0, NodeId::new(63)).to_can_id();
        let data = Mid::new(MsgType::AppData, 0, NodeId::new(0)).to_can_id();
        assert!(fda.beats(data));
    }

    #[test]
    fn fda_signs_for_same_node_are_identical() {
        // The frame identity is independent of who transmits it, which
        // is what lets retransmissions cluster on the wire.
        let r = NodeId::new(7);
        assert_eq!(
            Mid::new(MsgType::Fda, 0, r).to_can_id(),
            Mid::new(MsgType::Fda, 0, r).to_can_id()
        );
    }

    #[test]
    fn rha_signals_differ_by_sender() {
        let a = Mid::new(MsgType::Rha, 5, NodeId::new(1)).to_can_id();
        let b = Mid::new(MsgType::Rha, 5, NodeId::new(2)).to_can_id();
        assert_ne!(a, b);
    }

    #[test]
    fn type_codes_round_trip() {
        for t in MsgType::ALL {
            assert_eq!(MsgType::from_code(t.code()), Some(t));
        }
        assert_eq!(MsgType::from_code(0), None);
        assert_eq!(MsgType::from_code(31), None);
    }

    #[test]
    fn remote_encapsulation_per_paper() {
        // "these can be encapsulated in CAN remote frames, with no
        // data field" — life-signs, failure-signs, join/leave.
        assert!(MsgType::Fda.is_remote_encapsulated());
        assert!(MsgType::Els.is_remote_encapsulated());
        assert!(MsgType::Join.is_remote_encapsulated());
        assert!(MsgType::Leave.is_remote_encapsulated());
        // RHV signals carry a vector — data frames.
        assert!(!MsgType::Rha.is_remote_encapsulated());
        assert!(!MsgType::AppData.is_remote_encapsulated());
    }

    #[test]
    fn display_is_informative() {
        let mid = Mid::new(MsgType::Els, 0, NodeId::new(4));
        assert_eq!(mid.to_string(), "ELS[0,n4]");
        assert_eq!(CanId::new(0xAB).to_string(), "0x000000AB");
    }

    #[test]
    fn hex_binary_formatting() {
        let id = CanId::new(0x2A);
        assert_eq!(format!("{:x}", id), "2a");
        assert_eq!(format!("{:X}", id), "2A");
        assert_eq!(format!("{:b}", id), "101010");
    }
}
