//! # canely-campaign — deterministic parallel fault-injection campaigns
//!
//! The self-auditing correctness harness of the CANELy reproduction:
//! this crate turns the paper's agreement claims into machine-checked
//! properties exercised over *matrices* of adversarial simulations.
//!
//! The pipeline has four stages:
//!
//! 1. **Declare** — a [`CampaignSpec`] (`.campaign` document) lists
//!    dimensions: node counts, membership cycle periods `Tm`,
//!    stochastic omission rates bounded by MCAN3's `k` and LCAN4's
//!    `j`, crash budgets `f`, inaccessibility window lengths, and a
//!    seed range.
//! 2. **Expand** — [`CampaignSpec::expand`] takes the Cartesian
//!    product into concrete [`RunSpec`]s. Crash victims/instants and
//!    window placement derive purely from the seed and dimension
//!    values (splitmix64 key), never from expansion order or clock:
//!    same spec ⇒ byte-identical schedules, anywhere.
//! 3. **Execute & judge** — [`run_campaign`] fans the runs out across
//!    worker threads (each run is a self-contained single-threaded
//!    world) and judges every structured event trace with the
//!    invariant [`oracle`]: no false suspicion of a live node,
//!    detection and view-change latency within the closed-form bounds
//!    of `canely-analysis::bounds`, and post-quiescence view agreement
//!    and validity across all correct nodes. Results are re-ordered by
//!    matrix index before aggregation, so the summary JSON is
//!    **identical for any worker count**.
//! 4. **Shrink** — on a violation, [`shrink::minimize`] delta-debugs
//!    the fault schedule down to a locally minimal reproducer, emitted
//!    as a replayable `.canely` scenario plus its offending JSONL
//!    trace ([`Counterexample`]). The per-transmission independent RNG
//!    streams of `can_bus::fault` guarantee that removing one fault
//!    never reshuffles the rest of the run.
//!
//! The deliberately broken protocol mutant
//! (`CanelyConfig::weakened_fda`, which forgets the inaccessibility
//! term `Tina` in surveillance margins and disables FDA eager
//! diffusion) serves as the harness's own regression test: a campaign
//! over the mutant **must** produce a counterexample, and the correct
//! protocol **must** survive the same matrix clean.
//!
//! A matrix may also span failure-detector *backends* (`detector
//! surveillance swim add-phi` — see `docs/DETECTORS.md`): every
//! backend then faces byte-identical fault schedules, and the result
//! carries a per-backend [`ShootoutReport`] comparing detection
//! latency, false suspicions and detector bus bandwidth.
//!
//! ```
//! use canely_campaign::{run_campaign, CampaignSpec};
//!
//! let spec = CampaignSpec::parse("
//!     name doc
//!     nodes 4
//!     seeds 0..2
//!     crash-budget 1
//!     until 300ms
//!     settle 150ms
//! ").unwrap();
//! let result = run_campaign(&spec, 2);
//! assert!(result.report.clean());
//! ```

#![forbid(unsafe_code)]

pub mod grammar;
pub mod oracle;
pub mod run;
pub mod runner;
pub mod scenario;
pub mod shootout;
pub mod shrink;
pub mod spec;
pub mod telemetry;

pub use oracle::{
    check, check_global, GatewayFinal, GlobalOracleInput, InvariantKind, NodeFinal, OracleInput,
    Violation,
};
pub use run::{execute, RunOutcome};
pub use runner::{
    run_campaign, run_campaign_analytics, run_campaign_with, CampaignOptions, CampaignReport,
    CampaignResult, Counterexample, ProgressOptions, ProgressSink, RunLatency, MAX_WORKERS,
};
pub use scenario::Scenario;
pub use shootout::{BackendQoS, ShootoutReport};
pub use spec::{CampaignSpec, Fault, FederationSpec, RunSpec};
pub use telemetry::{RunTelemetry, SimTelemetry, RUN_PHASES};
