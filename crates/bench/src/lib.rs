//! Benchmark harness: scenario builders and measurement helpers that
//! regenerate every table and figure of the paper's evaluation.
//!
//! | Target | Paper artifact | Binary |
//! |---|---|---|
//! | TTP vs CAN attribute table | Fig. 1 | `fig01_ttp_vs_can` |
//! | Bandwidth utilization vs `Tm` | Fig. 10 | `fig10_bandwidth` |
//! | TTP vs CAN vs CANELy table | Fig. 11 | `fig11_comparison` |
//! | Related-work latency comparison | Sec. 6.6 | `sec66_related_latency` |
//! | Design-choice ablations | Sec. 6 design notes | `ablations` |
//!
//! Performance is measured by the perf ledger (`benchmark/`), not
//! here; `tests/` keeps the two allocation-overhead gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use can_bus::{BusConfig, BusStats, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::{latency_samples, ObsLog};
use canely::{CanelyConfig, CanelyStack, ProtocolEvent, TrafficConfig};

/// The Fig. 10 operating conditions.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Setup {
    /// `n`: total nodes.
    pub nodes: u8,
    /// `b`: nodes relying on explicit life-signs (no traffic).
    pub els_nodes: u8,
    /// `Tm`: membership cycle period.
    pub tm: BitTime,
}

impl Fig10Setup {
    /// The paper's conditions: `n = 32`, `b = 8`.
    pub fn paper(tm: BitTime) -> Self {
        Fig10Setup {
            nodes: 32,
            els_nodes: 8,
            tm,
        }
    }

    /// The CANELy configuration used for bandwidth measurement: the
    /// heartbeat period equals the cycle period, so each of the `b`
    /// silent nodes issues (at most) one life-sign per cycle — the
    /// assumption of the analytic model.
    pub fn stack_config(&self) -> CanelyConfig {
        let mut config = CanelyConfig::default()
            .with_membership_cycle(self.tm)
            .with_heartbeat_period(self.tm);
        // Footnote 9: the join wait must exceed the cycle period.
        config.join_wait = self.tm * 2 + BitTime::new(10_000);
        config
    }

    /// Builds the steady-state cluster: `n` members, of which
    /// `n − b` emit cyclic traffic (implicit heartbeats) and `b` are
    /// silent (explicit life-signs).
    pub fn build(&self) -> Simulator {
        let config = self.stack_config();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..self.nodes {
            let mut stack = CanelyStack::new(config.clone());
            if id >= self.els_nodes {
                // Cyclic traffic well below the heartbeat period.
                let period = self.tm / 4;
                let offset = BitTime::new(u64::from(id) * 97 + 11);
                stack = stack.with_traffic(TrafficConfig::periodic(period, 8).with_offset(offset));
            }
            sim.add_node(NodeId::new(id), stack);
        }
        sim
    }

    /// Instant by which the cluster is guaranteed settled (view
    /// formed, surveillance running).
    pub fn settled_at(&self) -> BitTime {
        // Join wait plus a few cycles.
        self.stack_config().join_wait + self.tm * 4
    }
}

/// Measured bandwidth of the membership suite, expressed per cycle.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredUtilization {
    /// Steady-state (life-signs only) utilization.
    pub baseline: f64,
    /// Utilization including the episode's extra traffic, charged to a
    /// single cycle — the paper's "period of reference" convention.
    pub with_episode: f64,
}

/// Bit-times consumed by the membership suite inside `[from, to)`.
pub fn suite_busy(stats: &BusStats) -> f64 {
    stats.utilization_of(&BusStats::MEMBERSHIP_SUITE) * stats.window().as_u64() as f64
}

/// Measures the baseline (no membership changes) suite utilization
/// over `cycles` steady-state cycles.
pub fn measure_baseline(setup: &Fig10Setup, cycles: u64) -> f64 {
    let mut sim = setup.build();
    let from = setup.settled_at();
    let to = from + setup.tm * cycles;
    sim.run_until(to + BitTime::new(1_000));
    let stats = sim.trace().stats(from, to);
    stats.utilization_of(&BusStats::MEMBERSHIP_SUITE)
}

/// Measures an episode: `crashes` nodes crash and `joins`/`leaves`
/// requests arrive in the same period of reference. Returns the
/// per-cycle utilization with the episode charged to one cycle.
pub fn measure_episode(
    setup: &Fig10Setup,
    crashes: u8,
    joins: u8,
    leaves: u8,
) -> MeasuredUtilization {
    // Baseline rate first (per bit-time).
    let baseline = measure_baseline(setup, 8);

    let config = setup.stack_config();
    let t0 = setup.settled_at();
    // The cluster, with leave requests scheduled at the episode start
    // for the highest-identifier members.
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..setup.nodes {
        let mut stack = CanelyStack::new(config.clone());
        if id >= setup.els_nodes {
            let period = setup.tm / 4;
            let offset = BitTime::new(u64::from(id) * 97 + 11);
            stack = stack.with_traffic(TrafficConfig::periodic(period, 8).with_offset(offset));
        }
        if id >= setup.nodes - leaves {
            stack = stack.with_leave_at(t0);
        }
        sim.add_node(NodeId::new(id), stack);
    }
    // Joiners power on at the episode start. They carry cyclic
    // traffic so that, once integrated, they do not add life-sign
    // load (the episode cost must be the join settlement itself).
    for k in 0..joins {
        let id = setup.nodes + k;
        assert!((id as usize) < can_types::MAX_NODES, "too many joiners");
        let stack = CanelyStack::new(config.clone()).with_traffic(
            TrafficConfig::periodic(setup.tm / 4, 8)
                .with_offset(BitTime::new(u64::from(id) * 97 + 11)),
        );
        sim.add_node_at(NodeId::new(id), stack, t0);
    }
    for k in 0..crashes {
        // Crash cyclic-traffic members: their loss does not change
        // the life-sign baseline, so the measured extra is the FDA
        // dissemination itself.
        let victim = NodeId::new(setup.els_nodes + k);
        sim.schedule_crash(victim, t0 + BitTime::new(u64::from(k) * 200));
    }

    // Let the whole episode settle (join wait + several cycles).
    let horizon = t0 + config.join_wait + setup.tm * 6;
    sim.run_until(horizon + BitTime::new(1_000));

    // Episode extra = suite busy over the window minus baseline share.
    let stats = sim.trace().stats(t0, horizon);
    let total_busy = suite_busy(&stats);
    let baseline_busy = baseline * stats.window().as_u64() as f64;
    let extra = (total_busy - baseline_busy).max(0.0);
    MeasuredUtilization {
        baseline,
        with_episode: baseline + extra / setup.tm.as_u64() as f64,
    }
}

/// Measured failure detection latency of a CANELy cluster: time from
/// the crash instant to the `FailureNotified` event at each correct
/// node. Returns `(min, max)` across observers, in bit-times.
///
/// Measured through the observability layer: every stack shares an
/// [`ObsLog`], the crash marker is seeded into it, and the samples are
/// [`latency_samples`]'s — the one definition `canelyctl metrics` and
/// the campaigns report.
pub fn measure_detection_latency(
    nodes: u8,
    config: &CanelyConfig,
    crash_phase: u64,
) -> (BitTime, BitTime) {
    let log = ObsLog::new();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..nodes {
        sim.add_node(
            NodeId::new(id),
            CanelyStack::new(config.clone()).with_obs(log.sink()),
        );
    }
    let crash_at = config.join_wait + config.membership_cycle * 4 + BitTime::new(crash_phase);
    let victim = NodeId::new(nodes - 1);
    sim.schedule_crash(victim, crash_at);
    log.record(crash_at, victim, ProtocolEvent::NodeCrashed);
    sim.run_until(crash_at + config.membership_cycle * 4);
    let (detection, _) = latency_samples(&log.events());
    let (Some(&min), Some(&max)) = (detection.iter().min(), detection.iter().max()) else {
        panic!("crash of {victim} was never detected");
    };
    (BitTime::new(min), BitTime::new(max))
}

/// Convenience: the full member set of a settled CANELy simulation.
pub fn common_view(sim: &Simulator, nodes: u8) -> Option<NodeSet> {
    let mut view = None;
    for id in 0..nodes {
        let v = sim.app::<CanelyStack>(NodeId::new(id)).view();
        match view {
            None => view = Some(v),
            Some(prev) if prev == v => {}
            _ => return None,
        }
    }
    view
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Formats bit-times as milliseconds at 1 Mbps.
pub fn ms(t: BitTime) -> String {
    format!("{:6.2} ms", t.as_u64() as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_analytic_ballpark() {
        let setup = Fig10Setup {
            nodes: 8,
            els_nodes: 4,
            tm: BitTime::new(30_000),
        };
        let measured = measure_baseline(&setup, 4);
        // 4 ELS nodes → at most 4 remote frames (~80 bits each) per
        // 30 000-bit cycle ≈ 1.1 %, exact stuffing slightly below.
        assert!(measured > 0.002, "measured {measured}");
        assert!(measured < 0.02, "measured {measured}");
    }

    #[test]
    fn detection_latency_within_bound() {
        let config = CanelyConfig::default();
        let (min, max) = measure_detection_latency(5, &config, 0);
        assert!(min <= max);
        let bound = config.detection_latency_bound() + BitTime::new(1_000);
        assert!(max <= bound, "max {max} exceeds bound {bound}");
    }

    #[test]
    fn fig10_setup_settles_to_common_view() {
        let setup = Fig10Setup {
            nodes: 6,
            els_nodes: 2,
            tm: BitTime::new(30_000),
        };
        let mut sim = setup.build();
        sim.run_until(setup.settled_at());
        let view = common_view(&sim, setup.nodes).expect("views agree");
        assert_eq!(view.len(), 6);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), " 12.3%");
        assert_eq!(ms(BitTime::new(30_000)), " 30.00 ms");
    }
}
