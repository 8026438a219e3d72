//! CANELy node failure detection and site membership.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*"Node Failure Detection and Membership in CANELy"*, Rufino,
//! Veríssimo, Arroz — DSN 2003): a protocol suite, layered on the
//! exposed CAN controller interface of `can-controller`, that gives a
//! plain CAN fieldbus *consistent* node failure detection and site
//! membership — services native CAN lacks because its fault
//! confinement is purely local and its omission failures may be
//! inconsistent.
//!
//! The suite mirrors Fig. 5 of the paper:
//!
//! ```text
//!            Upper Layer Interface (msh-can.req / msh-can.nty)
//!      ┌────────────────────────────────────────────────────┐
//!      │                    Membership                      │  Fig. 9
//!      ├──────────────────┬───────────────┬─────────────────┤
//!      │ Failure Detection│ FDA agreement │ RHA agreement   │  Figs. 8/6/7
//!      ├──────────────────┴───────────────┴─────────────────┤
//!      │     CAN standard layer (+ can-data.nty extension)  │  Fig. 4
//!      └────────────────────────────────────────────────────┘
//! ```
//!
//! * [`Fda`] — *Failure Detection Agreement* (Fig. 6): an optimized
//!   eager-diffusion broadcast of failure-sign remote frames, which
//!   cluster on the wire.
//! * [`Rha`] — *Reception History Agreement* (Fig. 7): agreement on a
//!   reception-history vector handling multiple join/leave requests in
//!   bounded time and bandwidth.
//! * [`FailureDetector`] — the node failure detection *seam*: a trait
//!   the stack routes all detection inputs through, with the paper's
//!   surveillance-timer protocol (Fig. 8) as the default backend
//!   ([`SurveillanceDetector`]: per-node surveillance timers, implicit
//!   heartbeats from normal traffic via `can-data.nty`, explicit
//!   life-signs (ELS) only when needed). The same type in its
//!   [`SurveillanceDetector::adaptive`] mode is an ADD-channel ◇P
//!   adaptive heartbeat backend, and the [`detectors`] module adds a
//!   SWIM-style probing backend, selected via [`DetectorKind`] — see
//!   `docs/DETECTORS.md` for the contract and a measured QoS shootout.
//! * [`Membership`] — the site membership protocol (Fig. 9):
//!   membership cycle, join/leave handling, view agreement.
//! * [`CanelyStack`] — the per-node composition of all four, ready to
//!   run on the simulator, plus an optional cyclic application-traffic
//!   generator (the implicit-heartbeat workload of Sec. 6.3).
//!
//! Two support modules complete the crate: [`obs`] — the structured
//! protocol-event log with causal (cause-ID) threading that powers
//! trace export and the campaign oracle — and [`tags`] — the timer-tag
//! encoding the micro-protocols multiplex onto the node timer wheel.
//!
//! # Quick start
//!
//! ```
//! use can_bus::{BusConfig, FaultPlan};
//! use can_controller::Simulator;
//! use can_types::{BitTime, NodeId};
//! use canely::{CanelyConfig, CanelyStack};
//!
//! let config = CanelyConfig::default();
//! let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
//! for id in 0..4 {
//!     sim.add_node(NodeId::new(id), CanelyStack::new(config.clone()));
//! }
//! // Run a few membership cycles: every node converges to the same view.
//! sim.run_until(BitTime::new(200_000));
//! let view = sim.app::<CanelyStack>(NodeId::new(0)).view();
//! assert_eq!(view.len(), 4);
//! for id in 1..4 {
//!     assert_eq!(sim.app::<CanelyStack>(NodeId::new(id)).view(), view);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detectors;
pub mod fd;
pub mod fda;
pub mod membership;
pub mod obs;
pub mod rha;
pub mod stack;
pub mod tags;
pub mod traffic;

pub use config::{CanelyConfig, RHA_TIMEOUT, TX_DELAY_BOUND};
pub use detectors::SwimDetector;
pub use fd::{
    DetectorKind, DetectorMetrics, DetectorTimer, FailureDetector, FdAction, SurveillanceDetector,
};
pub use fda::Fda;
pub use membership::{Membership, MembershipEvent};
pub use obs::{EventSink, ObsLog, ProtocolEvent, Snapshot, TimedEvent};
pub use rha::{Rha, RhaNotification};
pub use stack::{CanelyStack, UpperEvent};
pub use traffic::TrafficConfig;
