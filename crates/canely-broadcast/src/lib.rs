//! Fault-tolerant broadcast protocols for CAN (Rufino et al. \[18\]).
//!
//! The membership paper builds on its companion protocol suite, which
//! "dismissed the misconception that CAN supports a totally ordered
//! atomic message broadcast service and designed a protocol suite
//! which handles the problem effectively". This crate reproduces that
//! suite on the simulated bus:
//!
//! * [`Edcan`] — **eager diffusion**: every recipient of the first
//!   copy of a message immediately retransmits an identical copy;
//!   wire-identical copies cluster into few physical frames, and any
//!   single accepter suffices to complete delivery when the sender
//!   crashes after an inconsistent omission. FDA (Fig. 6 of the
//!   membership paper) is "a simplified and optimized version" of this
//!   protocol.
//! * [`Relcan`] — **lazy diffusion**: the sender follows its message
//!   with a short CONFIRM; recipients deliver immediately and only
//!   diffuse eagerly if the CONFIRM fails to arrive in time. Cheaper
//!   than EDCAN in the (overwhelmingly common) failure-free case.
//! * [`Totcan`] — **totally ordered atomic broadcast**: messages are
//!   buffered on reception and delivered only on the sender's ACCEPT
//!   signal, which is itself eagerly diffused; a message whose ACCEPT
//!   never arrives is discarded by everyone. All correct nodes deliver
//!   the same messages in the same order.
//!
//! The [`common`] module holds the shared pieces (message keys,
//! deliveries, scheduled sends). The first-copy rule of EDCAN and of
//! TOTCAN's ACCEPT is `can_controller::FirstCopy`, shared with the
//! membership stack's FDA and the group manager. FDA —
//! the eager-diffusion specialization living in the `canely` crate —
//! is instrumented with structured `fda.*` trace events; see
//! `docs/TRACE_SCHEMA.md` at the repository root for how a diffusion
//! episode looks on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod edcan;
pub mod relcan;
pub mod totcan;

pub use common::{Delivery, MsgKey};
pub use edcan::Edcan;
pub use relcan::Relcan;
pub use totcan::Totcan;
