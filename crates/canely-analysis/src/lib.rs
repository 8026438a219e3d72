//! Analytical models of the CANELy evaluation.
//!
//! The paper's evaluation is analytic; this crate reproduces each
//! closed-form model and exposes it to the benchmark harness:
//!
//! * [`bandwidth`] — the conservative CAN-bandwidth-utilization model
//!   of Sec. 6.5 / Fig. 10 (life-signs, FDA invocations, join/leave
//!   settlement via RHA);
//! * [`inaccessibility`] — worst-case inaccessibility scenarios of
//!   \[22\], giving the 14–2880 (CAN) and 14–2160 (CANELy) bit-time
//!   bounds of Fig. 11;
//! * [`response_time`] — fixed-priority CAN response-time analysis
//!   (Tindell & Burns \[20\]), from which the `Tltm` component of the
//!   MCAN4 bound — and hence the surveillance-timer margin `Ttd` — is
//!   derived;
//! * [`bounds`] — protocol-level bounds: failure detection latency,
//!   FDA frame counts, RHA round counts, membership change latency;
//! * [`reliability`] — the inconsistency-rate estimate behind the
//!   paper's motivation ("the probability of its occurrence is high
//!   enough to be taken into account") and the derivation of the
//!   LCAN4 degree `j`.
//!
//! Each closed form has a measured counterpart: the observability
//! layer (`canely::obs`) derives failure-detection and view-change
//! latency histograms and bus-utilization figures from scenario
//! traces (`canelyctl metrics`), which the benchmark harness checks
//! against the [`bounds`] of this crate. `EXPERIMENTS.md` at the
//! repository root records the analytic-vs-measured comparison per
//! figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod bounds;
pub mod inaccessibility;
pub mod reliability;
pub mod response_time;

pub use bandwidth::{BandwidthModel, UtilizationBreakdown};
pub use bounds::ProtocolBounds;
pub use inaccessibility::{InaccessibilityModel, Scenario};
pub use reliability::ReliabilityModel;
pub use response_time::{MessageSpec, ResponseTimeAnalysis};
