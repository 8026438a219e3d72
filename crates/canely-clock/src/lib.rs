//! Fault-tolerant clock synchronization for CANELy (Rodrigues,
//! Guimarães, Rufino \[15\]).
//!
//! Fig. 11 credits CANELy with clock synchronization precision in the
//! *tens of µs* (versus TTP's sub-µs hardware-supported sync). The
//! protocol exploits a property unique to broadcast buses: the *tight
//! simultaneity of frame reception* — all nodes observe the end of a
//! given frame within a skew of a few bit-times, so a designated
//! master's frame doubles as a common time reference:
//!
//! 1. every `sync_period`, the current master broadcasts a **SYNC**
//!    indication frame; every node (master included) timestamps the
//!    reception instant with its local *hardware clock*;
//! 2. the master then broadcasts a **FOLLOW-UP** frame carrying its
//!    own timestamp of that same instant;
//! 3. each node sets its *virtual clock* offset so that its view of
//!    the sync instant matches the master's.
//!
//! Between rounds the virtual clocks diverge at the relative drift
//! rate of the oscillators: with ±100 ppm crystals and a 100 ms round,
//! the worst-case precision is `2 × 100 ppm × 100 ms = 20 µs` — tens
//! of µs, as the paper states.
//!
//! **Fault tolerance**: masterhood is ranked by node identifier; a
//! node that sees no SYNC for its rank-dependent takeover timeout
//! promotes itself, so the service survives master crashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};

const TAG_SYNC_ROUND: u64 = 1;
const TAG_TAKEOVER: u64 = 2;

/// Configuration of the clock synchronization service.
#[derive(Debug, Clone, Copy)]
pub struct ClockConfig {
    /// Resynchronization period.
    pub sync_period: BitTime,
    /// Local oscillator drift in parts per million (signed).
    pub drift_ppm: i32,
    /// Initial hardware clock offset in bit-times (signed).
    pub initial_offset: i64,
    /// The set of nodes eligible for masterhood (rank = identifier
    /// order).
    pub members: NodeSet,
}

impl ClockConfig {
    /// A 100 ms round (at 1 Mbps) for the given member set.
    pub fn new(members: NodeSet) -> Self {
        ClockConfig {
            sync_period: BitTime::new(100_000),
            drift_ppm: 0,
            initial_offset: 0,
            members,
        }
    }

    /// Sets the oscillator drift.
    pub fn with_drift_ppm(mut self, ppm: i32) -> Self {
        self.drift_ppm = ppm;
        self
    }

    /// Sets the initial hardware clock offset.
    pub fn with_initial_offset(mut self, offset: i64) -> Self {
        self.initial_offset = offset;
        self
    }

    /// Sets the resynchronization period.
    pub fn with_sync_period(mut self, period: BitTime) -> Self {
        self.sync_period = period;
        self
    }
}

/// The clock synchronization entity of one node.
#[derive(Debug)]
pub struct ClockSync {
    config: ClockConfig,
    /// Virtual clock correction: `virtual = hardware + offset`.
    offset: i64,
    /// Hardware timestamp of the last SYNC reception (awaiting the
    /// follow-up).
    pending_sync: Option<(u16, i64)>,
    round: u16,
    takeover_timer: Option<TimerId>,
    sync_timer: Option<TimerId>,
    syncs_mastered: u64,
    resyncs: u64,
}

impl ClockSync {
    /// Creates the entity.
    pub fn new(config: ClockConfig) -> Self {
        ClockSync {
            config,
            offset: 0,
            pending_sync: None,
            round: 0,
            takeover_timer: None,
            sync_timer: None,
            syncs_mastered: 0,
            resyncs: 0,
        }
    }

    /// The simulated *hardware* clock: global time distorted by drift
    /// and initial offset. (The simulation's global time plays the
    /// role of ideal time; a real node can only observe this value.)
    pub fn hardware_clock(&self, global: BitTime) -> i64 {
        let t = global.as_u64() as i64;
        t + t * i64::from(self.config.drift_ppm) / 1_000_000 + self.config.initial_offset
    }

    /// The *virtual* (synchronized) clock at a global instant.
    pub fn virtual_clock(&self, global: BitTime) -> i64 {
        self.hardware_clock(global) + self.offset
    }

    /// Number of sync rounds this node mastered.
    pub fn syncs_mastered(&self) -> u64 {
        self.syncs_mastered
    }

    /// Number of resynchronizations applied.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Masterhood rank of `node` (0 = current master).
    fn rank(&self, node: NodeId) -> u64 {
        self.config
            .members
            .iter()
            .position(|m| m == node)
            .map(|p| p as u64)
            .unwrap_or(u64::MAX)
    }

    fn arm_takeover(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(old) = self.takeover_timer.take() {
            ctx.cancel_alarm(old);
        }
        // Rank-staggered timeout: the lowest surviving node takes over
        // first, avoiding duelling masters.
        let rank = self.rank(ctx.me());
        let timeout = self.config.sync_period * 2 + self.config.sync_period / 4 * rank;
        self.takeover_timer = Some(ctx.start_alarm(timeout, TAG_TAKEOVER));
    }

    fn send_sync(&mut self, ctx: &mut Ctx<'_>) {
        self.round = self.round.wrapping_add(1);
        ctx.can_data_req(
            Mid::new(MsgType::ClockSync, self.round, ctx.me()),
            Payload::EMPTY,
        );
        self.syncs_mastered += 1;
        self.sync_timer = Some(ctx.start_alarm(self.config.sync_period, TAG_SYNC_ROUND));
    }
}

impl Application for ClockSync {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.rank(ctx.me()) == 0 {
            self.sync_timer = Some(ctx.start_alarm(self.config.sync_period, TAG_SYNC_ROUND));
        }
        self.arm_takeover(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        match event {
            DriverEvent::DataInd { mid, .. } if mid.msg_type() == MsgType::ClockSync => {
                // Common reference instant: the end of the SYNC frame,
                // observed (quasi-)simultaneously by every node.
                let local_ts = self.hardware_clock(ctx.now());
                self.pending_sync = Some((mid.reference(), local_ts));
                self.round = mid.reference();
                self.arm_takeover(ctx);
                if mid.node() == ctx.me() {
                    // We are the master: publish our timestamp of the
                    // reference instant.
                    let ts = local_ts + self.offset;
                    ctx.can_data_req(
                        Mid::new(MsgType::ClockFollowUp, mid.reference(), ctx.me()),
                        Payload::from_slice(&ts.to_le_bytes()).expect("8 bytes"),
                    );
                }
            }
            DriverEvent::DataInd { mid, payload } if mid.msg_type() == MsgType::ClockFollowUp => {
                let Ok(bytes) = <[u8; 8]>::try_from(payload.as_slice()) else {
                    return;
                };
                let master_ts = i64::from_le_bytes(bytes);
                if let Some((round, local_ts)) = self.pending_sync {
                    if round == mid.reference() {
                        self.pending_sync = None;
                        // Adjust the virtual clock so our view of the
                        // sync instant equals the master's.
                        self.offset = master_ts - local_ts;
                        self.resyncs += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        match tag {
            TAG_SYNC_ROUND => self.send_sync(ctx),
            TAG_TAKEOVER => {
                // No SYNC for our staggered timeout: promote ourselves.
                if let Some(old) = self.sync_timer.take() {
                    ctx.cancel_alarm(old);
                }
                self.send_sync(ctx);
                self.arm_takeover(ctx);
            }
            _ => {}
        }
    }
}

/// The precision of an ensemble at a global instant: the maximum
/// pairwise difference of the virtual clocks.
pub fn ensemble_precision(clocks: &[&ClockSync], at: BitTime) -> u64 {
    let values: Vec<i64> = clocks.iter().map(|c| c.virtual_clock(at)).collect();
    match (values.iter().max(), values.iter().min()) {
        (Some(max), Some(min)) => (max - min).unsigned_abs(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_bus::{BusConfig, FaultPlan};
    use can_controller::Simulator;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    /// ±100 ppm crystals with wildly different initial offsets.
    fn ensemble(sim: &mut Simulator, count: u8) {
        let members = NodeSet::first_n(count as usize);
        for id in 0..count {
            let drift = [100, -80, 40, -100, 60, -20, 90, -50][id as usize % 8];
            let offset = i64::from(id) * 10_000 - 20_000;
            sim.add_node(
                n(id),
                ClockSync::new(
                    ClockConfig::new(members)
                        .with_drift_ppm(drift)
                        .with_initial_offset(offset),
                ),
            );
        }
    }

    fn precision_at(sim: &Simulator, count: u8, at: BitTime) -> u64 {
        let clocks: Vec<&ClockSync> = (0..count).map(|id| sim.app::<ClockSync>(n(id))).collect();
        ensemble_precision(&clocks, at)
    }

    #[test]
    fn unsynchronized_clocks_are_tens_of_ms_apart() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 4);
        // Before any round completes the initial offsets dominate.
        assert!(precision_at(&sim, 4, BitTime::ZERO) > 10_000);
    }

    #[test]
    fn synchronization_achieves_tens_of_us_precision() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 4);
        sim.run_until(BitTime::new(1_000_000)); // ten rounds
        let precision = precision_at(&sim, 4, sim.now());
        // Fig. 11: "tens of µs" at 1 Mbps (1 bit-time = 1 µs). With
        // ±100 ppm drift and a 100 ms round the bound is ~40 µs.
        assert!(
            precision <= 60,
            "precision {precision} µs exceeds tens-of-µs figure"
        );
        assert!(
            precision_at(&sim, 4, sim.now()) < 100,
            "sanity: synchronized ensemble"
        );
        for id in 0..4 {
            assert!(sim.app::<ClockSync>(n(id)).resyncs() > 5, "node {id}");
        }
    }

    #[test]
    fn precision_scales_with_sync_period() {
        let run = |period: BitTime| {
            let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
            let members = NodeSet::first_n(2);
            sim.add_node(
                n(0),
                ClockSync::new(
                    ClockConfig::new(members)
                        .with_sync_period(period)
                        .with_drift_ppm(100),
                ),
            );
            sim.add_node(
                n(1),
                ClockSync::new(
                    ClockConfig::new(members)
                        .with_sync_period(period)
                        .with_drift_ppm(-100),
                ),
            );
            sim.run_until(BitTime::new(2_000_000));
            // Sample just before the next resync: worst divergence.
            precision_at(&sim, 2, sim.now())
        };
        let fast = run(BitTime::new(50_000));
        let slow = run(BitTime::new(400_000));
        assert!(
            slow > fast,
            "longer rounds must hurt precision ({fast} vs {slow})"
        );
    }

    #[test]
    fn master_crash_is_tolerated() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 3);
        sim.run_until(BitTime::new(500_000));
        sim.schedule_crash(n(0), sim.now() + BitTime::new(1));
        sim.run_until(BitTime::new(2_000_000));
        // Node 1 (next rank) took over and the survivors stay synced.
        assert!(sim.app::<ClockSync>(n(1)).syncs_mastered() > 0);
        let clocks: Vec<&ClockSync> = (1..3).map(|id| sim.app::<ClockSync>(n(id))).collect();
        let precision = ensemble_precision(&clocks, sim.now());
        assert!(precision <= 60, "post-takeover precision {precision}");
    }

    #[test]
    fn only_one_master_at_a_time() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 4);
        sim.run_until(BitTime::new(1_000_000));
        // Ranks 1..3 never mastered while rank 0 is alive.
        for id in 1..4 {
            assert_eq!(sim.app::<ClockSync>(n(id)).syncs_mastered(), 0, "node {id}");
        }
    }

    #[test]
    fn cascading_master_crashes_are_tolerated() {
        // Rank 0 dies, rank 1 takes over, then rank 1 dies too: rank 2
        // must pick up masterhood and keep the survivors synced.
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 4);
        sim.run_until(BitTime::new(400_000));
        sim.schedule_crash(n(0), sim.now() + BitTime::new(1));
        sim.run_until(BitTime::new(1_200_000));
        sim.schedule_crash(n(1), sim.now() + BitTime::new(1));
        sim.run_until(BitTime::new(2_400_000));
        assert!(
            sim.app::<ClockSync>(n(2)).syncs_mastered() > 0,
            "rank 2 took over"
        );
        let clocks: Vec<&ClockSync> = (2..4).map(|id| sim.app::<ClockSync>(n(id))).collect();
        let precision = ensemble_precision(&clocks, sim.now());
        assert!(
            precision <= 60,
            "precision after two takeovers: {precision}"
        );
    }

    #[test]
    fn resync_counters_advance_steadily() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        ensemble(&mut sim, 3);
        sim.run_until(BitTime::new(1_050_000));
        // Ten 100 ms rounds: every node resynced about ten times.
        for id in 0..3 {
            let resyncs = sim.app::<ClockSync>(n(id)).resyncs();
            assert!((8..=12).contains(&resyncs), "node {id}: {resyncs}");
        }
    }

    #[test]
    fn extreme_initial_offsets_converge_in_one_round() {
        let members = NodeSet::first_n(2);
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        sim.add_node(n(0), ClockSync::new(ClockConfig::new(members)));
        sim.add_node(
            n(1),
            ClockSync::new(ClockConfig::new(members).with_initial_offset(5_000_000)),
        );
        // One full round plus slack.
        sim.run_until(BitTime::new(210_000));
        let clocks = [sim.app::<ClockSync>(n(0)), sim.app::<ClockSync>(n(1))];
        assert!(ensemble_precision(&clocks, sim.now()) < 10);
    }

    #[test]
    fn drift_free_identical_clocks_need_no_offset() {
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        let members = NodeSet::first_n(2);
        for id in 0..2 {
            sim.add_node(n(id), ClockSync::new(ClockConfig::new(members)));
        }
        sim.run_until(BitTime::new(500_000));
        assert_eq!(precision_at(&sim, 2, sim.now()), 0);
    }
}
