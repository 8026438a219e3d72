//! Deterministic discrete-event CAN bus simulator.
//!
//! This crate models the *medium*: the single-channel broadcast bus of
//! the paper's system model (Section 4), at transaction granularity
//! with bit-time–accurate durations. It provides:
//!
//! * [`Medium`] — arbitration among pending transmit offers (lowest
//!   identifier wins), **wired-AND clustering** of wire-identical
//!   frames (several nodes transmitting the same remote frame merge
//!   into one physical frame — the effect FDA and RHA exploit), and
//!   per-transaction fault outcomes;
//! * [`FaultPlan`] — scripted and stochastic fault injection honouring
//!   the paper's failure-mode assumptions: *bounded omission degree*
//!   (MCAN3), *bounded inconsistent omission degree* (LCAN4),
//!   *inaccessibility periods* (\[22\]) and *node crashes* (at most `f`
//!   per interval of reference), including the critical scenario of a
//!   sender crashing before retransmitting an inconsistently omitted
//!   frame;
//! * [`BusTrace`] — a complete record of every bus transaction, from
//!   which bandwidth utilization (Fig. 10) and latency distributions
//!   are computed.
//!
//! The medium is *passive*: a driving simulator (see the
//! `can-controller` crate) asks it to resolve one transaction at a
//! time. All randomness comes from a caller-seeded RNG, so every run
//! is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod medium;
pub mod trace;

pub use config::BusConfig;
pub use fault::{AccepterSpec, FaultEffect, FaultMatcher, FaultPlan, MediaFault, ScriptedFault};
pub use medium::{Medium, Transaction, TxOutcome};
pub use trace::{BusStats, BusTrace, TxRecord};
