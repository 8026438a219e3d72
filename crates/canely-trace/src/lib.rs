//! # canely-trace — causal trace analysis for the CANELy stack
//!
//! Turns the JSONL event stream of `canely::obs` (see
//! `docs/TRACE_SCHEMA.md`) into causal, queryable, profiled data:
//!
//! - [`model`] — lossless parse of a trace document into bus
//!   transactions and protocol events, with `cause` references
//!   (`bus:<deliver>` / `event:<seq>`) resolved.
//! - [`chain`] — causal-chain reconstruction: from a suspect's last
//!   life-sign through the surveillance expiry, failure-sign
//!   diffusion and reception-history agreement to the view install.
//! - [`phases`] — phase-level latency decomposition of every
//!   detection (surveillance, queuing, arbitration, diffusion,
//!   cycle-wait, agreement, install).
//! - [`chrome`] — Chrome/Perfetto trace-event export with per-node
//!   tracks and phase spans.
//! - [`query`] — the deterministic renderers behind `canely tq`.
//! - [`analytics`] — campaign-level roll-ups with latency histograms
//!   and measured-vs-bound headroom.
//!
//! The crate is dependency-free and purely analytical: it never runs
//! the simulator, it only reads what the simulator wrote. All
//! statistics stay in integer bit-times so every report is
//! byte-deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod chain;
pub mod chrome;
pub mod json;
pub mod model;
pub mod phases;
pub mod query;
pub mod stats;

pub use analytics::{CampaignAnalytics, RunAnalytics};
pub use chain::{chain_for, chain_for_in, suspicions, SuspicionChain};
pub use chrome::{chrome_trace, write_chrome_trace};
pub use model::{
    parse_id, parse_seg_node, seg_node, BusTx, CauseRef, Event, Kind, Lines, Parent, TraceModel,
};
pub use phases::{PhaseProfile, PHASE_NAMES};
pub use stats::{Histogram, Summary};
