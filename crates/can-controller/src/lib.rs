//! CAN controller model and the CANELy *exposed controller interface*.
//!
//! The paper's protocol suite is "a simple software layer built on top
//! of an exposed CAN controller interface" (Fig. 4/5). This crate
//! supplies that interface for the simulated bus of `can-bus`:
//!
//! * [`Controller`] — a CAN controller with a prioritized transmit
//!   queue, automatic retransmission, abort of pending requests, and
//!   the ISO 11898 fault-confinement state machine (TEC/REC counters,
//!   error-active → error-passive → bus-off), which is what enforces
//!   the *weak-fail-silent* assumption of Section 4;
//! * [`DriverEvent`] — the driver primitives of Fig. 4:
//!   `can-data.ind/.cnf`, `can-rtr.ind/.cnf`, and the CANELy
//!   extension `can-data.nty` (arrival notification without message
//!   data, own transmissions included) that makes implicit heartbeats
//!   possible;
//! * [`Application`] / [`Ctx`] — the protocol-entity abstraction: a
//!   state machine driven by driver events and timers, issuing
//!   `can-data.req`, `can-rtr.req` and `can-abort.req`;
//! * [`Rig`] — one node's controller, timers and clock, for
//!   driving an entity callback by callback without a simulator;
//! * [`Simulator`] — the deterministic event loop tying applications,
//!   controllers, timers, node crashes and the shared [`can_bus::Medium`]
//!   together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod controller;
pub mod driver;
pub mod guardian;
pub mod rig;
pub mod sim;
pub mod timer;

pub use app::{Application, Ctx};
pub use controller::{Controller, FaultConfinement, FaultState};
pub use driver::{DriverEvent, FirstCopy};
pub use guardian::{Guardian, GuardianPolicy};
pub use rig::Rig;
pub use sim::{Simulator, StepStats, SIM_PHASES};
pub use timer::{TimerId, TimerWheel};
