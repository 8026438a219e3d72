//! The stack-wide tag registry: timer-tag encodings and protocol
//! message-identifier constructors.
//!
//! Every micro-protocol multiplexes its alarms onto the node's timer
//! wheel and its frames onto the shared mid space. Both namespaces
//! used to be scattered across the protocol modules (`fd.rs` grew the
//! life-sign mids, `detectors.rs` the probe mids and a private copy of
//! the skew rule); this module is now the single place where a tag
//! kind or a wire encoding is claimed, so new protocol layers — the
//! federation gateway being the first — register here and nowhere
//! else.
//!
//! # Timer tags
//!
//! Each 64-bit tag encodes the owning protocol in the top byte and a
//! protocol-specific payload (usually a node identifier) in the low
//! bits, so the stack can route expiries without extra bookkeeping.
//! Kinds 1–7 belong to [`TimerOwner`]; composed applications that wrap
//! a `CanelyStack` (e.g. the process-group layer) must draw their
//! private tags from [`TAG_EXTERNAL_SCRIPT`] upward, which
//! [`TimerOwner::decode`] is guaranteed never to claim.
//!
//! # Wire mids
//!
//! The mid constructors fix the `(type, reference, node)` encodings of
//! the control traffic: [`els_mid`] for explicit life-signs,
//! [`ping_mid`] for the SWIM-style probe family and [`digest_mid`] for
//! federation segment-view digests.

use can_types::{BitTime, Mid, MsgType, NodeId};

/// Owning protocol of a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOwner {
    /// Failure-detection surveillance timer for a node (payload: node id).
    Surveillance(NodeId),
    /// RHA maximum-termination alarm.
    RhaTermination,
    /// Membership cycle / join-wait alarm (the shared `tid` of Fig. 9).
    MembershipCycle,
    /// Application traffic generator tick.
    Traffic,
    /// Scheduled upper-layer action (join/leave scripting).
    Scripted(u32),
    /// Failure-detector protocol period tick (probe rounds of the
    /// SWIM-style backend). Untraced, like [`TimerOwner::Traffic`].
    DetectorPeriod,
    /// Federation digest broadcast tick at a gateway node. Untraced,
    /// like [`TimerOwner::DetectorPeriod`]: it is pacing, not protocol
    /// state.
    FederationDigest,
}

const KIND_SURVEILLANCE: u64 = 1;
const KIND_RHA: u64 = 2;
const KIND_MEMBERSHIP: u64 = 3;
const KIND_TRAFFIC: u64 = 4;
const KIND_SCRIPTED: u64 = 5;
const KIND_DETECTOR_PERIOD: u64 = 6;
const KIND_FEDERATION_DIGEST: u64 = 7;

/// First tag of the space reserved for applications composed *around*
/// the CANELy stack (group scripting, harness alarms). Tags at or
/// above this value are never produced nor decoded by [`TimerOwner`],
/// so a wrapper can route them before delegating to the stack.
///
/// (The process-group layer used to hardcode `6 << 56` here, which
/// collided with [`TimerOwner::DetectorPeriod`] — a group script slot 0
/// would have swallowed the SWIM backend's period tick.)
pub const TAG_EXTERNAL_SCRIPT: u64 = 8 << 56;

impl TimerOwner {
    /// Encodes the owner as a timer tag.
    pub fn encode(self) -> u64 {
        match self {
            TimerOwner::Surveillance(node) => (KIND_SURVEILLANCE << 56) | node.as_u8() as u64,
            TimerOwner::RhaTermination => KIND_RHA << 56,
            TimerOwner::MembershipCycle => KIND_MEMBERSHIP << 56,
            TimerOwner::Traffic => KIND_TRAFFIC << 56,
            TimerOwner::Scripted(action) => (KIND_SCRIPTED << 56) | action as u64,
            TimerOwner::DetectorPeriod => KIND_DETECTOR_PERIOD << 56,
            TimerOwner::FederationDigest => KIND_FEDERATION_DIGEST << 56,
        }
    }

    /// Decodes a timer tag, if it was produced by [`TimerOwner::encode`].
    pub fn decode(tag: u64) -> Option<TimerOwner> {
        let payload = tag & 0x00FF_FFFF_FFFF_FFFF;
        match tag >> 56 {
            KIND_SURVEILLANCE if payload < 64 => {
                Some(TimerOwner::Surveillance(NodeId::new(payload as u8)))
            }
            KIND_RHA => Some(TimerOwner::RhaTermination),
            KIND_MEMBERSHIP => Some(TimerOwner::MembershipCycle),
            KIND_TRAFFIC => Some(TimerOwner::Traffic),
            KIND_SCRIPTED => Some(TimerOwner::Scripted(payload as u32)),
            KIND_DETECTOR_PERIOD => Some(TimerOwner::DetectorPeriod),
            KIND_FEDERATION_DIGEST => Some(TimerOwner::FederationDigest),
            _ => None,
        }
    }
}

/// The mid of an explicit life-sign of node `r`.
pub fn els_mid(r: NodeId) -> Mid {
    Mid::new(MsgType::Els, 0, r)
}

/// Direct probe: "target, please emit a life-sign".
pub const PING_DIRECT: u16 = 0;
/// Indirect probe request: "helpers, please probe target for me".
pub const PING_REQ: u16 = 1;
/// Number of helper nodes enlisted by a ping-req.
pub const SWIM_HELPERS: usize = 3;

/// Wire encoding of a probe frame: the `reference` field carries the
/// probe subkind in its high byte and the prober in its low byte; the
/// `node` field carries the probe target.
pub fn ping_mid(subkind: u16, prober: NodeId, target: NodeId) -> Mid {
    Mid::new(
        MsgType::Ping,
        (subkind << 8) | u16::from(prober.as_u8()),
        target,
    )
}

/// Deterministic per-observer skew applied by round-based detector
/// backends: independent oscillators never expire in lock-step, and
/// 512 bit-times per rank exceeds a worst-case frame plus error
/// signalling.
pub fn detector_skew(me: NodeId) -> BitTime {
    BitTime::new(u64::from(me.as_u8()) * 512)
}

/// Maximum number of federated segments the digest wire encoding can
/// address (the reporter and subject segment each occupy a nibble of
/// the mid reference).
pub const MAX_SEGMENTS: usize = 16;

/// Wire encoding of a federation segment-view digest: the `reference`
/// field carries the reporting segment in its high nibble and the
/// subject segment in its low nibble; the `node` field carries the
/// *transmitting* node's local id — rewritten at every gateway hop so
/// the frame keeps doubling as an implicit heartbeat of whoever
/// actually put it on this bus.
pub fn digest_mid(reporter_seg: u8, subject_seg: u8, transmitter: NodeId) -> Mid {
    debug_assert!((reporter_seg as usize) < MAX_SEGMENTS);
    debug_assert!((subject_seg as usize) < MAX_SEGMENTS);
    Mid::new(
        MsgType::Digest,
        (u16::from(reporter_seg) << 4) | u16::from(subject_seg),
        transmitter,
    )
}

/// Decodes the `(reporter, subject)` segment pair of a digest mid;
/// `None` for non-digest mids.
pub fn digest_mid_segments(mid: Mid) -> Option<(u8, u8)> {
    if mid.msg_type() != MsgType::Digest {
        return None;
    }
    let reference = mid.reference();
    Some((((reference >> 4) & 0xF) as u8, (reference & 0xF) as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let owners = [
            TimerOwner::Surveillance(NodeId::new(0)),
            TimerOwner::Surveillance(NodeId::new(63)),
            TimerOwner::RhaTermination,
            TimerOwner::MembershipCycle,
            TimerOwner::Traffic,
            TimerOwner::Scripted(7),
            TimerOwner::DetectorPeriod,
            TimerOwner::FederationDigest,
        ];
        for owner in owners {
            assert_eq!(TimerOwner::decode(owner.encode()), Some(owner));
        }
    }

    #[test]
    fn distinct_owners_distinct_tags() {
        let a = TimerOwner::Surveillance(NodeId::new(1)).encode();
        let b = TimerOwner::Surveillance(NodeId::new(2)).encode();
        let c = TimerOwner::MembershipCycle.encode();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn garbage_tags_decode_to_none() {
        assert_eq!(TimerOwner::decode(0), None);
        assert_eq!(TimerOwner::decode(u64::MAX), None);
        // Surveillance payload out of node range.
        assert_eq!(TimerOwner::decode((1 << 56) | 64), None);
    }

    #[test]
    fn external_tag_space_is_disjoint_from_timer_owners() {
        // Wrappers own [TAG_EXTERNAL_SCRIPT, ∞): decode must never
        // claim a tag from that range, whatever the payload.
        for offset in [0, 1, 0xFFFF, 0x00FF_FFFF_FFFF_FFFF] {
            assert_eq!(TimerOwner::decode(TAG_EXTERNAL_SCRIPT + offset), None);
        }
        // And every TimerOwner encoding stays below it.
        for owner in [
            TimerOwner::Surveillance(NodeId::new(63)),
            TimerOwner::Scripted(u32::MAX),
            TimerOwner::DetectorPeriod,
            TimerOwner::FederationDigest,
        ] {
            assert!(owner.encode() < TAG_EXTERNAL_SCRIPT);
        }
    }

    #[test]
    fn digest_mid_round_trips_segments() {
        let mid = digest_mid(3, 11, NodeId::new(5));
        assert_eq!(digest_mid_segments(mid), Some((3, 11)));
        assert_eq!(mid.node(), NodeId::new(5));
        assert_eq!(digest_mid_segments(els_mid(NodeId::new(1))), None);
    }

    #[test]
    fn probe_mid_encodes_subkind_and_prober() {
        let mid = ping_mid(PING_REQ, NodeId::new(4), NodeId::new(9));
        assert_eq!(mid.reference() >> 8, PING_REQ);
        assert_eq!(mid.reference() & 0xFF, 4);
        assert_eq!(mid.node(), NodeId::new(9));
    }
}
