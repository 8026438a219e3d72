//! Measured protocol costs vs the analytic bounds of
//! `canely-analysis::bounds` — "the number of rounds … is bounded and
//! can be known".

use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, MsgType};
use canely::{CanelyConfig, CanelyStack, UpperEvent, RHA_TIMEOUT};
use canely_analysis::ProtocolBounds;
use integration::n;

fn bounds_for(config: &CanelyConfig) -> ProtocolBounds {
    ProtocolBounds {
        heartbeat_period: config.heartbeat_period,
        tltm: BitTime::new(340),
        membership_cycle: config.membership_cycle,
        trha: RHA_TIMEOUT,
        inconsistent_degree: config.inconsistent_degree,
        max_crash_faults: 4,
    }
}

/// FDA: physical failure-sign frames per crash never exceed the frame
/// bound `2 + j`.
#[test]
fn fda_frames_within_bound() {
    let config = CanelyConfig::default();
    let bounds = bounds_for(&config);
    for nodes in [3u8, 8, 16] {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..nodes {
            sim.add_node(n(id), CanelyStack::new(config.clone()));
        }
        let crash_at = config.join_wait + config.membership_cycle * 3;
        sim.schedule_crash(n(nodes - 1), crash_at);
        sim.run_until(crash_at + config.membership_cycle * 3);
        let fda_frames = sim
            .trace()
            .iter()
            .filter(|r| r.mid().is_some_and(|m| m.msg_type() == MsgType::Fda))
            .filter(|r| !r.errored)
            .count();
        assert!(
            fda_frames as u32 <= bounds.fda_frame_bound(),
            "{nodes} nodes: {fda_frames} FDA frames > bound {}",
            bounds.fda_frame_bound()
        );
        assert!(fda_frames >= 1);
    }
}

/// RHA: RHV signals per settlement stay within the round bound.
#[test]
fn rha_signals_within_round_bound() {
    let config = CanelyConfig::default();
    let bounds = bounds_for(&config);
    for joiners in [1u8, 3] {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..8u8 {
            sim.add_node(n(id), CanelyStack::new(config.clone()));
        }
        let t0 = config.join_wait + config.membership_cycle * 3;
        for k in 0..joiners {
            sim.add_node_at(n(16 + k), CanelyStack::new(config.clone()), t0);
        }
        sim.run_until(t0 + config.membership_cycle * 3);
        let rhv_frames = sim
            .trace()
            .iter()
            .filter(|r| r.start >= t0)
            .filter(|r| r.mid().is_some_and(|m| m.msg_type() == MsgType::Rha))
            .filter(|r| !r.errored)
            .count();
        // One settlement (all joins land in one cycle): the number of
        // distinct RHV waves is bounded by the round bound.
        assert!(
            rhv_frames as u32 <= bounds.rha_round_bound(),
            "{joiners} joiners: {rhv_frames} RHV frames > bound {}",
            bounds.rha_round_bound()
        );
    }
}

/// The end-to-end membership change latency (join request to settled
/// view everywhere) respects the analytic `Tm + Trha` bound.
#[test]
fn membership_change_latency_within_bound() {
    let config = CanelyConfig::default();
    let bounds = bounds_for(&config);
    for phase in 0..4u64 {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..5u8 {
            sim.add_node(n(id), CanelyStack::new(config.clone()));
        }
        let t0 = config.join_wait + config.membership_cycle * 3 + BitTime::new(phase * 7_300);
        sim.add_node_at(n(9), CanelyStack::new(config.clone()), t0);
        sim.run_until(t0 + config.membership_cycle * 3);
        for id in 0..5u8 {
            let settled = sim
                .app::<CanelyStack>(n(id))
                .membership_history()
                .iter()
                .find(|e| e.view.contains(n(9)))
                .map(|e| e.time)
                .unwrap_or_else(|| panic!("phase {phase}: node {id} never settled"));
            let latency = settled - t0;
            let bound = bounds.membership_change_latency() + BitTime::new(2_000);
            assert!(
                latency <= bound,
                "phase {phase}, node {id}: {latency} > {bound}"
            );
        }
    }
}

/// Detection consistency: every observer receives the failure
/// notification at the same instant (one FDA delivery), so the
/// *spread* across observers is zero — stronger than the latency
/// bound.
#[test]
fn detection_spread_is_zero() {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..6u8 {
        sim.add_node(n(id), CanelyStack::new(config.clone()));
    }
    let crash_at = config.join_wait + config.membership_cycle * 3;
    sim.schedule_crash(n(5), crash_at);
    sim.run_until(crash_at + config.membership_cycle * 2);
    let times: Vec<BitTime> = (0..5u8)
        .map(|id| {
            sim.app::<CanelyStack>(n(id))
                .events()
                .iter()
                .find_map(|&(t, e)| match e {
                    UpperEvent::FailureNotified(r) if r == n(5) => Some(t),
                    _ => None,
                })
                .expect("notified")
        })
        .collect();
    assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
}
