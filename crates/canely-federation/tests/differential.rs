//! Differential property test: the 1-segment federation is *exact*.
//!
//! A federation of one segment with a pass-through gateway must be
//! observationally indistinguishable from the plain, non-federated
//! stack — byte-identical JSONL traces across randomized populations,
//! channel-fault schedules and crash schedules. This pins down the
//! degenerate case: the gateway wrapper adds no timer, no frame and no
//! event until a bridge is actually attached.
//!
//! With failover election in the stack, every federated node hosts the
//! gateway wrapper as a potential standby — so this property now also
//! pins the election machinery: an unbridged segment must never
//! promote a successor, even when the crash schedule kills the
//! configured gateway itself (node 0 is a legal victim below).

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId};
use canely::obs::ObsLog;
use canely::{CanelyConfig, CanelyStack, TrafficConfig};
use canely_federation::{FederationConfig, FederationSim, RelayFilter};
use proptest::prelude::*;

const UNTIL: u64 = 200_000;

#[derive(Debug, Clone)]
struct Schedule {
    nodes: u8,
    seed: u64,
    consistent_rate: f64,
    inconsistent_rate: f64,
    traffic: Option<u64>,
    /// `(victim, at)` crash instants, bounds-checked against `nodes`.
    crashes: Vec<(u8, u64)>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (
        3u8..=8,
        any::<u64>(),
        0u32..200, // consistent rate, in 1/10_000ths
        0u32..50,  // inconsistent rate, in 1/10_000ths
        (any::<bool>(), 2_000u64..20_000).prop_map(|(on, p)| on.then_some(p)),
        prop::collection::vec((0u8..8, 40_000u64..UNTIL - 20_000), 0..3),
    )
        .prop_map(
            |(nodes, seed, consistent_rate, inconsistent_rate, traffic, crashes)| Schedule {
                nodes,
                seed,
                consistent_rate: f64::from(consistent_rate) / 10_000.0,
                inconsistent_rate: f64::from(inconsistent_rate) / 10_000.0,
                traffic,
                crashes: crashes
                    .into_iter()
                    .filter(|&(victim, _)| victim < nodes)
                    .collect(),
            },
        )
}

fn plan(s: &Schedule) -> FaultPlan {
    FaultPlan::seeded(s.seed)
        .with_consistent_rate(s.consistent_rate)
        .with_inconsistent_rate(s.inconsistent_rate)
        .with_omission_bound(16, BitTime::new(100_000))
        .with_inconsistent_bound(2)
}

/// The non-federated reference world, built exactly as the federation
/// harness builds a segment (same traffic offsets, same plan).
fn plain_trace(s: &Schedule) -> String {
    let log = ObsLog::default();
    let mut sim = Simulator::new(BusConfig::default(), plan(s));
    for id in 0..s.nodes {
        let mut stack = CanelyStack::new(CanelyConfig::default()).with_obs(log.sink());
        if let Some(period) = s.traffic {
            stack = stack.with_traffic(
                TrafficConfig::periodic(BitTime::new(period), 8)
                    .with_offset(BitTime::new(u64::from(id) * 131 + 17)),
            );
        }
        sim.add_node(NodeId::new(id), stack);
    }
    for &(victim, at) in &s.crashes {
        sim.schedule_crash(NodeId::new(victim), BitTime::new(at));
    }
    sim.run_until(BitTime::new(UNTIL));
    log.export_jsonl(Some(sim.trace()))
}

fn federated_trace(s: &Schedule) -> String {
    let cfg =
        FederationConfig::new(CanelyConfig::default(), 1, s.nodes).with_filter(RelayFilter::All);
    let mut fed = FederationSim::new(
        &cfg,
        s.traffic.map(BitTime::new),
        |_| s.seed,
        |seed| plan(&Schedule { seed, ..s.clone() }),
    );
    for &(victim, at) in &s.crashes {
        fed.sim_mut(0)
            .schedule_crash(NodeId::new(victim), BitTime::new(at));
    }
    fed.run_until(BitTime::new(UNTIL));
    fed.export_jsonl()
}

proptest! {
    /// The degenerate federation and the plain stack produce
    /// byte-identical traces under arbitrary fault schedules.
    #[test]
    fn one_segment_federation_is_byte_identical(s in arb_schedule()) {
        let plain = plain_trace(&s);
        let fed = federated_trace(&s);
        prop_assert!(!plain.is_empty());
        prop_assert!(
            !fed.contains("fed.elect") && !fed.contains("fed.rejoin"),
            "an unbridged segment must never elect or rejoin"
        );
        if plain != fed {
            // Report the first diverging line, not two megabyte blobs.
            let diverge = plain
                .lines()
                .zip(fed.lines())
                .position(|(a, b)| a != b)
                .map(|i| {
                    format!(
                        "line {i}:\n  plain: {}\n  fed:   {}",
                        plain.lines().nth(i).unwrap(),
                        fed.lines().nth(i).unwrap()
                    )
                })
                .unwrap_or_else(|| {
                    format!(
                        "length mismatch: {} vs {} lines",
                        plain.lines().count(),
                        fed.lines().count()
                    )
                });
            prop_assert!(false, "traces diverge at {diverge}");
        }
    }
}
