//! Foundational types for the CANELy simulation stack.
//!
//! This crate defines the vocabulary shared by every layer of the
//! reproduction of *"Node Failure Detection and Membership in CANELy"*
//! (Rufino, Veríssimo, Arroz — DSN 2003):
//!
//! * [`BitTime`] / [`BitRate`] — simulated time measured in CAN bit-times,
//!   with conversions to wall-clock units for a configured bit rate.
//! * [`NodeId`] / [`NodeSet`] — node identifiers and compact node sets
//!   (the paper's `V` sets: membership views, reception history vectors).
//! * [`Mid`] / [`MsgType`] — the *message control field* of Section 5:
//!   a message type, an optional reference number and a node identifier,
//!   encoded into a CAN frame identifier.
//! * [`Frame`] / [`FrameKind`] / [`FrameFormat`] — CAN data and remote
//!   frames, together with exact and worst-case frame timing
//!   (bit-stuffing included).
//! * [`mix64`] / [`GOLDEN`] — the integer mixer every seeded stream is
//!   keyed with.
//!
//! # Examples
//!
//! ```
//! use can_types::{BitRate, Frame, Mid, MsgType, NodeId};
//!
//! // An explicit life-sign (ELS) is a remote frame carrying only a mid.
//! let els = Frame::remote(Mid::new(MsgType::Els, 0, NodeId::new(3)));
//! let bits = els.duration_worst_case();
//! // A remote frame with no data occupies less than 100 bit-times even
//! // in the worst stuffing case (extended format).
//! assert!(bits.as_u64() < 100);
//!
//! // At 1 Mbps a bit-time is one microsecond.
//! assert_eq!(BitRate::MBPS_1.bit_time_ns(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod id;
pub mod mix;
pub mod node;
pub mod time;
pub mod wire;

pub use frame::{Frame, FrameFormat, FrameKind, Payload, MAX_PAYLOAD};
pub use id::{CanId, Mid, MsgType};
pub use mix::{mix64, GOLDEN};
pub use node::{NodeId, NodeSet, MAX_NODES};
pub use time::{BitRate, BitTime};
