//! Election-determinism property: federated campaigns whose gateways
//! crash (and optionally power back on) produce byte-identical
//! summaries for any worker count.
//!
//! The failover machinery — successor election, epoch bumps, retry
//! backoff — runs entirely inside the deterministic lockstep pump, so
//! sharding a campaign across workers must not perturb a single
//! latency sample, violation or counter. This pins that property over
//! randomized segment sizes, populations and crash schedules.

use can_types::BitTime;
use canely_campaign::{run_campaign, CampaignSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Matrix {
    nodes: u8,
    segments: u8,
    seed: u64,
    restart_delay: u64,
    crash_budget: u32,
}

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (
        3u8..=8,
        2u8..=4,
        0u64..1_000,
        (0usize..3).prop_map(|i| [0u64, 40_000, 80_000][i]),
        0u32..=1,
    )
        .prop_map(
            |(nodes, segments, seed, restart_delay, crash_budget)| Matrix {
                nodes,
                segments,
                seed,
                restart_delay,
                crash_budget,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn failover_summaries_are_worker_count_invariant(m in arb_matrix()) {
        let spec = CampaignSpec {
            name: "failover-prop".into(),
            nodes: vec![m.nodes],
            seeds: (m.seed, m.seed + 2),
            crash_budgets: vec![m.crash_budget],
            segments: vec![m.segments],
            gateway_crash_budgets: vec![1],
            gateway_restart_delays: vec![BitTime::new(m.restart_delay)],
            until: BitTime::new(500_000),
            settle: BitTime::new(200_000),
            ..CampaignSpec::default()
        };
        spec.validate().expect("spec is coherent");

        let one = run_campaign(&spec, 1);
        let eight = run_campaign(&spec, 8);
        prop_assert!(
            one.report.clean(),
            "correct protocol must survive failover: {}",
            one.report.render()
        );
        prop_assert_eq!(
            one.report.to_json(),
            eight.report.to_json(),
            "campaign summary diverged between 1 and 8 workers"
        );
    }
}
