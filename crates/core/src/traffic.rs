//! Cyclic application traffic (the implicit-heartbeat workload).
//!
//! "In CANELy, to save network bandwidth … normal traffic is
//! implicitly used to signal node activity" (Sec. 6.1). CAN control
//! applications typically exhibit a cyclic traffic pattern \[20\]; this
//! module generates it: a periodic data message of configurable size,
//! period and phase, tagged with a monotonically increasing sequence
//! number in the mid reference field.

use crate::tags::TimerOwner;
use can_controller::Ctx;
use can_types::{BitTime, Mid, MsgType, Payload};

/// Configuration of a node's cyclic application traffic.
///
/// # Examples
///
/// ```
/// use canely::TrafficConfig;
/// use can_types::BitTime;
///
/// // A 4-byte sensor reading every 2 ms, phase-shifted by 100 µs.
/// let t = TrafficConfig::periodic(BitTime::new(2_000), 4).with_offset(BitTime::new(100));
/// assert_eq!(t.period, BitTime::new(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Message period.
    pub period: BitTime,
    /// Data field size in bytes (0–8).
    pub size: usize,
    /// Phase offset of the first message.
    pub offset: BitTime,
}

impl TrafficConfig {
    /// Periodic traffic with the given period and payload size.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `size > 8`.
    pub fn periodic(period: BitTime, size: usize) -> Self {
        assert!(!period.is_zero(), "traffic period must be positive");
        assert!(size <= 8, "CAN payload is at most 8 bytes");
        TrafficConfig {
            period,
            size,
            offset: BitTime::ZERO,
        }
    }

    /// The cyclic load every harness (campaigns, federation, CLI)
    /// puts on node `node`: an 8-byte frame per `period`, the first
    /// one phase-shifted by `131·node + 17` bit-times so a population
    /// does not start transmitting in lock-step.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn staggered(period: BitTime, node: u8) -> Self {
        TrafficConfig::periodic(period, 8).with_offset(BitTime::new(u64::from(node) * 131 + 17))
    }

    /// Sets the phase offset of the first message.
    pub fn with_offset(mut self, offset: BitTime) -> Self {
        self.offset = offset;
        self
    }
}

/// The per-node traffic generator driven by the stack.
#[derive(Debug)]
pub(crate) struct TrafficGenerator {
    config: TrafficConfig,
    seq: u16,
    sent: u64,
}

impl TrafficGenerator {
    pub(crate) fn new(config: TrafficConfig) -> Self {
        TrafficGenerator {
            config,
            seq: 0,
            sent: 0,
        }
    }

    /// Arms the first tick.
    pub(crate) fn start(&self, ctx: &mut Ctx<'_>) {
        let delay = if self.config.offset.is_zero() {
            self.config.period
        } else {
            self.config.offset
        };
        ctx.start_alarm(delay, TimerOwner::Traffic.encode());
    }

    /// Emits one message and re-arms the tick.
    pub(crate) fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let mid = Mid::new(MsgType::AppData, self.seq, ctx.me());
        self.seq = self.seq.wrapping_add(1);
        self.sent += 1;
        let bytes = &[0x5A; 8][..self.config.size];
        let payload = Payload::from_slice(bytes).expect("size validated at construction");
        ctx.can_data_req(mid, payload);
        ctx.start_alarm(self.config.period, TimerOwner::Traffic.encode());
    }

    /// Messages emitted so far.
    pub(crate) fn sent(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    #[test]
    fn config_validation() {
        let t = TrafficConfig::periodic(BitTime::new(1_000), 8);
        assert_eq!(t.size, 8);
        assert!(std::panic::catch_unwind(|| TrafficConfig::periodic(BitTime::ZERO, 1)).is_err());
        assert!(std::panic::catch_unwind(|| TrafficConfig::periodic(BitTime::new(1), 9)).is_err());
    }

    #[test]
    fn generator_emits_and_rearms() {
        let mut gen = TrafficGenerator::new(TrafficConfig::periodic(BitTime::new(2_000), 4));
        let mut rig = Rig::new(1);
        rig.now = BitTime::new(100);
        rig.ctx(|ctx| gen.on_tick(ctx));
        assert_eq!(gen.sent(), 1);
        assert_eq!(rig.ctl.queue_len(), 1);
        assert_eq!(rig.timers.next_deadline(), Some(BitTime::new(2_100)));
    }

    #[test]
    fn sequence_numbers_advance() {
        let mut gen = TrafficGenerator::new(TrafficConfig::periodic(BitTime::new(1_000), 0));
        let mut rig = Rig::new(1);
        for expected in 0..3u16 {
            rig.ctx(|ctx| gen.on_tick(ctx));
            let id = rig.ctl.head().unwrap().id();
            let mid = can_types::Mid::from_can_id(id).unwrap();
            assert_eq!(mid.reference(), expected);
            rig.ctl.abort(id);
        }
    }
}
