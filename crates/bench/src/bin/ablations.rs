//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! 1. **Implicit heartbeats** (Sec. 6.1/6.3): normal traffic resets
//!    surveillance timers via `can-data.nty`. Ablated: every node must
//!    emit explicit life-signs — bandwidth grows with `n`, not `b`.
//! 2. **Remote-frame clustering for FDA** (Sec. 6.2): identical
//!    failure-signs merge on the wire. Quantified: physical frames per
//!    FDA execution vs cluster size.
//! 3. **Duplicate-suppression bound `j`** in RHA (Fig. 7, line r08):
//!    pending RHV signals are aborted once `j` copies circulate.
//!    Ablated over `j` values: RHV frames per settlement.
//! 4. **Skipping RHA on idle cycles** (Fig. 9, line s24): idle-cycle
//!    suite bandwidth with and without the skip.
//!
//! Run with `cargo run --release -p bench --bin ablations`.

use bench::{pct, Fig10Setup};
use can_bus::{BusConfig, BusStats, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, MsgType, NodeId};
use canely::{CanelyConfig, CanelyStack, TrafficConfig};

/// Ablation 1: implicit heartbeats on/off (idle-cluster bandwidth).
fn implicit_heartbeats() {
    println!("1. Implicit heartbeats (traffic doubles as activity signal)");
    println!(
        "   {:>8} {:>18} {:>18}",
        "n", "with (paper)", "without (ablated)"
    );
    for n in [8u8, 16, 32] {
        let run = |implicit: bool| {
            let tm = BitTime::new(30_000);
            let setup = Fig10Setup {
                nodes: n,
                els_nodes: 0, // every node has traffic
                tm,
            };
            let mut config = setup.stack_config();
            config.implicit_heartbeats = implicit;
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            for id in 0..n {
                let stack = CanelyStack::new(config.clone()).with_traffic(
                    TrafficConfig::periodic(tm / 4, 8)
                        .with_offset(BitTime::new(u64::from(id) * 97 + 11)),
                );
                sim.add_node(NodeId::new(id), stack);
            }
            let from = setup.settled_at();
            let to = from + tm * 8;
            sim.run_until(to + BitTime::new(1_000));
            sim.trace()
                .stats(from, to)
                .utilization_of(&BusStats::MEMBERSHIP_SUITE)
        };
        println!("   {:>8} {:>18} {:>18}", n, pct(run(true)), pct(run(false)));
    }
    println!("   -> with implicit heartbeats the suite cost is ~0 for busy nodes;");
    println!("      ablated, every node pays one ELS per heartbeat period.\n");
}

/// Ablation 2: FDA clustering — physical failure-sign frames vs
/// cluster size.
fn fda_clustering() {
    println!("2. FDA remote-frame clustering (wired-AND)");
    println!("   {:>8} {:>22}", "nodes", "failure-sign frames");
    for n in [4u8, 8, 16, 32] {
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..n {
            sim.add_node(NodeId::new(id), CanelyStack::new(config.clone()));
        }
        let crash_at = config.join_wait + config.membership_cycle * 4;
        sim.schedule_crash(NodeId::new(n - 1), crash_at);
        sim.run_until(crash_at + config.membership_cycle * 3);
        let fda_frames = sim
            .trace()
            .iter()
            .filter(|r| r.mid().is_some_and(|m| m.msg_type() == MsgType::Fda))
            .count();
        println!("   {:>8} {:>22}", n, fda_frames);
    }
    println!("   -> without clustering this would grow linearly with n;");
    println!("      the wired-AND keeps it at ~2 frames regardless of group size.\n");
}

/// Ablation 3: RHA duplicate-suppression bound `j`.
fn rha_duplicate_bound() {
    println!("3. RHA duplicate-suppression bound j (Fig. 7, line r08)");
    println!("   {:>8} {:>22}", "j", "RHV frames/settlement");
    for j in [1u32, 2, 4, 8, 32] {
        let mut config = CanelyConfig::default().with_inconsistent_degree(j);
        config.join_wait = BitTime::new(60_000);
        let n = 16u8;
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..n {
            sim.add_node(NodeId::new(id), CanelyStack::new(config.clone()));
        }
        // One late joiner forces one RHA settlement.
        let t0 = config.join_wait + config.membership_cycle * 4;
        sim.add_node_at(NodeId::new(n), CanelyStack::new(config.clone()), t0);
        sim.run_until(t0 + config.membership_cycle * 4);
        let rhv_frames = sim
            .trace()
            .iter()
            .filter(|r| r.start > t0)
            .filter(|r| r.mid().is_some_and(|m| m.msg_type() == MsgType::Rha))
            .count();
        println!("   {:>8} {:>22}", j, rhv_frames);
    }
    println!("   -> small j aborts redundant RHV signals early; very large j");
    println!("      degenerates toward every member transmitting its vector.\n");
}

/// Ablation 4: skipping RHA on idle cycles.
fn idle_cycle_skip() {
    println!("4. Idle-cycle RHA skip (Fig. 9, line s24)");
    // The paper's design: no join/leave pending -> no RHA. The
    // alternative (settle every cycle) is what a naive design would
    // do; we quantify what the skip saves by counting the RHV signals
    // an always-on RHA would cost.
    let tm = BitTime::new(30_000);
    let setup = Fig10Setup {
        nodes: 16,
        els_nodes: 4,
        tm,
    };
    let mut sim = setup.build();
    let from = setup.settled_at();
    let cycles = 8u64;
    let to = from + tm * cycles;
    sim.run_until(to + BitTime::new(1_000));
    let stats = sim.trace().stats(from, to);
    let rha = stats.of_type(MsgType::Rha);
    let suite = stats.utilization_of(&BusStats::MEMBERSHIP_SUITE);
    // An always-on design pays >= j RHV signals per cycle.
    let j = 2u64;
    let rhv_cost = can_types::FrameFormat::Extended.worst_case_bits(8) + 3;
    let hypothetical = suite + (j * rhv_cost * cycles) as f64 / (tm.as_u64() * cycles) as f64;
    println!(
        "   idle suite utilization with skip: {} (RHA frames: {})",
        pct(suite),
        rha.frames
    );
    println!(
        "   hypothetical without skip (>= j RHV signals per cycle): {}",
        pct(hypothetical)
    );
    println!("   -> the skip removes all RHA traffic from idle cycles.\n");
}

/// Ablation 5: bounded retransmission (inaccessibility control) —
/// bus occupation of an error burst with and without the retry limit.
fn retry_limit() {
    use can_bus::{FaultEffect, FaultMatcher, ScriptedFault};
    println!("5. Bounded retransmission (inaccessibility control, Fig. 11 row)");
    // A defective transmitter: every life-sign of node 0 errors (bad
    // transceiver). High-priority, so each retry immediately rewins
    // arbitration — the burst occupies the bus back to back.
    let run = |limit: Option<u32>| {
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Els),
                mid_node: Some(NodeId::new(0)),
                not_before: BitTime::new(70_000),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::ConsistentOmission,
            count: 16,
        });
        let mut sim = Simulator::new(BusConfig::default(), faults);
        let config = CanelyConfig::default();
        for id in 0..4u8 {
            sim.add_node(NodeId::new(id), CanelyStack::new(config.clone()));
            if limit.is_some() {
                sim.set_retry_limit(NodeId::new(id), limit);
            }
        }
        sim.run_until(BitTime::new(200_000));
        sim.trace()
            .worst_inaccessibility()
            .map_or(0, |t| t.as_u64())
    };
    let unlimited = run(None);
    let limited = run(Some(4));
    println!("   worst error-burst bus occupation:");
    println!(
        "   {:>28} {:>8} bit-times",
        "standard CAN (unbounded):", unlimited
    );
    println!(
        "   {:>28} {:>8} bit-times",
        "CANELy (retry limit 4):", limited
    );
    println!("   -> bounding retransmissions caps the inaccessibility an");
    println!("      error burst can inflict (the 2880 -> 2160 improvement).\n");
}

fn main() {
    println!("CANELy design-choice ablations\n");
    implicit_heartbeats();
    fda_clustering();
    rha_duplicate_bound();
    idle_cycle_skip();
    retry_limit();
}
