//! # canely-federation — bridged CAN segments and hierarchical membership
//!
//! A single CAN bus caps out at a few dozen stations and a few hundred
//! metres; larger CANELy deployments bridge several segments. This
//! crate federates complete, unmodified single-segment CANELy stacks:
//!
//! * **[`Gateway`]** — a [`canely::CanelyStack`] wrapper that is an
//!   ordinary member of its segment *and* the segment's representative
//!   in the federation. It relays a configurable, ID-filtered subset
//!   of application frames across bridges ([`RelayFilter`]) and
//!   gossips segment-view *digests* to the other representatives.
//! * **Hierarchical membership** — each representative summarises its
//!   segment's locally-agreed view as an epoch-stamped digest. The
//!   global view is composed with a Rapid-style stable-cut rule: a
//!   claim about segment *S* installs only once a majority
//!   ([`quorum`]) of representatives report an identical `(epoch,
//!   view)` for *S*. Representatives endorse fresher claims they
//!   adopt, so a single gossip round after convergence suffices.
//! * **[`FederationSim`]** — K per-segment simulators advanced in
//!   lockstep quanta with bridge pumps in between, plus bridge-level
//!   fault injection (gateway crashes, inter-segment partitions,
//!   asymmetric one-way windows) and a merged segment-qualified trace
//!   export. It is the one world every campaign run executes in: the
//!   paper's single bus is its K = 1 case.
//!
//! The federation is **self-healing**: the gateway is a role, not a
//! node. Every member of a federated segment runs the [`Gateway`]
//! wrapper in a [`GatewayRole`] — the acting representative `Active`,
//! the rest warm `Standby`s. When the segment's own membership expels
//! the active gateway, the deterministic [`election`] promotes the
//! lowest-ranked survivor, which bumps the segment epoch and
//! re-announces until the global view re-converges (the *rejoin*).
//!
//! Both federation decisions are pure machines the harness drives: the
//! role ([`GatewayRole::step`]) and bridge delivery ([`Bridges`]), whose
//! failed attempts (partition windows, a mid-failover headless segment)
//! back off through a bounded retry queue instead of being dropped.
//!
//! The single-segment case is exact: one segment has no bridge, so it
//! hosts bare stacks, advances in one stride and produces traces
//! byte-identical to a hand-built single-bus simulator (enforced by a
//! differential property test).

#![forbid(unsafe_code)]

pub mod bridge;
pub mod election;
pub mod gateway;
pub mod sim;

pub use bridge::{Attempt, Bridges, Verdict, QUANTUM};
pub use election::{successor, GatewayRole, RoleInput, RoleOutput};
pub use gateway::{quorum, BridgeFrame, Claim, Gateway, InstallRecord, RelayFilter, DIGEST_PERIOD};
pub use sim::{BridgeKind, FedMetrics, FederationConfig, FederationSim};
