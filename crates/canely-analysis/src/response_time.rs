//! Fixed-priority CAN response-time analysis (Tindell & Burns \[20\]).
//!
//! MCAN4 bounds the transmission delay of any queued frame by
//! `Tltm + Tina`. `Tltm` "depends on message latency classes and
//! offered load bounds \[20, 23, 12\]" — this module computes it with
//! the classic busy-period recurrence:
//!
//! ```text
//! R_m = J_m + w_m + C_m
//! w_m = B_m + Σ_{j ∈ hp(m)} ⌈(w_m + J_j + τ_bit) / T_j⌉ · C_j
//! ```
//!
//! where `C` is the worst-case frame transmission time, `B` the
//! longest blocking by an already-started lower-priority frame and
//! `J` the queueing jitter. The recurrence is iterated to a fixed
//! point; divergence (utilization ≥ 1 within the busy period) is
//! reported as an error.

use can_types::{BitTime, CanId, FrameFormat};
use std::fmt;

/// A periodic message stream in the analysis.
#[derive(Debug, Clone)]
pub struct MessageSpec {
    /// Frame identifier (doubles as the priority: lower wins).
    pub id: CanId,
    /// Period (or minimum inter-arrival time) in bit-times.
    pub period: BitTime,
    /// Queueing jitter in bit-times.
    pub jitter: BitTime,
    /// Data-field size in bytes.
    pub payload: usize,
    /// Frame format.
    pub format: FrameFormat,
}

impl MessageSpec {
    /// A periodic extended-format message.
    ///
    /// # Panics
    ///
    /// Panics if `payload > 8` or the period is zero.
    pub fn periodic(id: CanId, period: BitTime, payload: usize) -> Self {
        assert!(payload <= 8, "CAN payload is at most 8 bytes");
        assert!(!period.is_zero(), "period must be positive");
        MessageSpec {
            id,
            period,
            jitter: BitTime::ZERO,
            payload,
            format: FrameFormat::Extended,
        }
    }

    /// Sets the queueing jitter.
    pub fn with_jitter(mut self, jitter: BitTime) -> Self {
        self.jitter = jitter;
        self
    }

    /// Worst-case transmission time `C_m` of one frame.
    pub fn c(&self) -> BitTime {
        BitTime::new(self.format.worst_case_bits(self.payload))
    }

    /// Bandwidth utilization of this stream.
    pub fn utilization(&self) -> f64 {
        self.c().as_u64() as f64 / self.period.as_u64() as f64
    }
}

/// Analysis failure: the busy-period recurrence diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unschedulable {
    /// The identifier of the message whose recurrence diverged.
    pub id: CanId,
}

impl fmt::Display for Unschedulable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "message {} is unschedulable (busy period diverges)",
            self.id
        )
    }
}

impl std::error::Error for Unschedulable {}

/// The response-time analysis over a message set.
#[derive(Debug, Clone, Default)]
pub struct ResponseTimeAnalysis {
    messages: Vec<MessageSpec>,
}

impl ResponseTimeAnalysis {
    /// An empty analysis.
    pub fn new() -> Self {
        ResponseTimeAnalysis::default()
    }

    /// Adds a message stream.
    pub fn push(&mut self, spec: MessageSpec) -> &mut Self {
        self.messages.push(spec);
        self
    }

    /// The registered message streams.
    pub fn messages(&self) -> &[MessageSpec] {
        &self.messages
    }

    /// Total bus utilization of the message set.
    pub fn utilization(&self) -> f64 {
        self.messages.iter().map(MessageSpec::utilization).sum()
    }

    /// Worst-case response time `R_m` of the message with identifier
    /// `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Unschedulable`] if the busy-period recurrence does
    /// not converge (the higher-priority load saturates the bus).
    ///
    /// # Panics
    ///
    /// Panics if no registered message has the given identifier.
    pub fn response_time(&self, id: CanId) -> Result<BitTime, Unschedulable> {
        let m = self
            .messages
            .iter()
            .find(|m| m.id == id)
            .expect("message id not registered");
        let hp: Vec<&MessageSpec> = self
            .messages
            .iter()
            .filter(|other| other.id.beats(m.id))
            .collect();
        // Blocking: the longest lower-priority frame that may have
        // started (including same-priority competitors is harmless and
        // conservative).
        let blocking = self
            .messages
            .iter()
            .filter(|other| !other.id.beats(m.id) && other.id != m.id)
            .map(|other| other.c())
            .max()
            .unwrap_or(BitTime::ZERO);

        let tau_bit = BitTime::new(1);
        let mut w = blocking;
        // Fixed-point iteration with a generous divergence horizon.
        let horizon = BitTime::new(10_000_000);
        loop {
            let mut next = blocking;
            for j in &hp {
                let numerator = w + j.jitter + tau_bit;
                let instances = numerator.as_u64().div_ceil(j.period.as_u64());
                next += j.c() * instances;
            }
            if next == w {
                return Ok(m.jitter + w + m.c());
            }
            if next > horizon {
                return Err(Unschedulable { id });
            }
            w = next;
        }
    }

    /// Worst-case response time over a whole priority class: the
    /// maximum `R` among the given identifiers. This is the `Tltm`
    /// bound fed into the surveillance-timer margin.
    ///
    /// # Errors
    ///
    /// Returns [`Unschedulable`] if any member of the class diverges.
    pub fn class_bound(&self, ids: &[CanId]) -> Result<BitTime, Unschedulable> {
        let mut worst = BitTime::ZERO;
        for &id in ids {
            worst = worst.max(self.response_time(id)?);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> CanId {
        CanId::new(raw)
    }

    #[test]
    fn lone_message_response_is_its_own_c() {
        let mut rta = ResponseTimeAnalysis::new();
        rta.push(MessageSpec::periodic(id(1), BitTime::new(10_000), 8));
        let r = rta.response_time(id(1)).unwrap();
        assert_eq!(r, BitTime::new(FrameFormat::Extended.worst_case_bits(8)));
    }

    #[test]
    fn lower_priority_blocks_once() {
        let mut rta = ResponseTimeAnalysis::new();
        rta.push(MessageSpec::periodic(id(1), BitTime::new(10_000), 0));
        rta.push(MessageSpec::periodic(id(2), BitTime::new(10_000), 8));
        let r = rta.response_time(id(1)).unwrap();
        let c_self = BitTime::new(FrameFormat::Extended.worst_case_bits(0));
        let c_block = BitTime::new(FrameFormat::Extended.worst_case_bits(8));
        assert_eq!(r, c_self + c_block);
    }

    #[test]
    fn higher_priority_preempts_queueing() {
        // Three streams: the lowest-priority one suffers interference
        // from both others, while the highest only suffers blocking.
        let mut rta = ResponseTimeAnalysis::new();
        rta.push(MessageSpec::periodic(id(0), BitTime::new(10_000), 8));
        rta.push(MessageSpec::periodic(id(1), BitTime::new(400), 0));
        rta.push(MessageSpec::periodic(id(2), BitTime::new(10_000), 0));
        let r_top = rta.response_time(id(0)).unwrap();
        let r_bottom = rta.response_time(id(2)).unwrap();
        assert!(
            r_bottom > r_top,
            "lowest priority ({r_bottom}) must exceed highest ({r_top})"
        );
    }

    #[test]
    fn response_grows_with_interference() {
        let build = |hp_streams: u32| {
            let mut rta = ResponseTimeAnalysis::new();
            for k in 0..hp_streams {
                rta.push(MessageSpec::periodic(id(1 + k), BitTime::new(1_000), 0));
            }
            rta.push(MessageSpec::periodic(id(100), BitTime::new(10_000), 0));
            rta.response_time(id(100)).unwrap()
        };
        assert!(build(3) > build(1));
    }

    #[test]
    fn saturation_is_reported() {
        let mut rta = ResponseTimeAnalysis::new();
        // A 157-bit frame every 100 bit-times: utilization > 1.
        rta.push(MessageSpec::periodic(id(1), BitTime::new(100), 8));
        rta.push(MessageSpec::periodic(id(9), BitTime::new(10_000), 0));
        assert!(rta.utilization() > 1.0);
        let err = rta.response_time(id(9)).unwrap_err();
        assert_eq!(err.id, id(9));
        assert!(err.to_string().contains("unschedulable"));
    }

    #[test]
    fn jitter_adds_to_response() {
        let base = {
            let mut rta = ResponseTimeAnalysis::new();
            rta.push(MessageSpec::periodic(id(5), BitTime::new(10_000), 4));
            rta.response_time(id(5)).unwrap()
        };
        let jittered = {
            let mut rta = ResponseTimeAnalysis::new();
            rta.push(
                MessageSpec::periodic(id(5), BitTime::new(10_000), 4)
                    .with_jitter(BitTime::new(500)),
            );
            rta.response_time(id(5)).unwrap()
        };
        assert_eq!(jittered, base + BitTime::new(500));
    }

    #[test]
    fn class_bound_is_the_worst_member() {
        let mut rta = ResponseTimeAnalysis::new();
        rta.push(MessageSpec::periodic(id(1), BitTime::new(2_000), 0));
        rta.push(MessageSpec::periodic(id(2), BitTime::new(2_000), 8));
        rta.push(MessageSpec::periodic(id(3), BitTime::new(2_000), 8));
        let bound = rta.class_bound(&[id(1), id(2), id(3)]).unwrap();
        let r3 = rta.response_time(id(3)).unwrap();
        assert_eq!(bound, r3);
    }

    #[test]
    fn canely_control_class_fits_default_ttd() {
        // The default stack uses Ttd = 2500 bit-times; check that a
        // realistic workload (32 nodes of 2 ms cyclic traffic plus the
        // protocol class) keeps protocol response times within it.
        let mut rta = ResponseTimeAnalysis::new();
        // Protocol messages: highest priority (ELS of node 0).
        let els = id(0x0300_0000);
        rta.push(MessageSpec::periodic(els, BitTime::new(5_000), 0));
        // 8 application streams, 2 ms period, 8 bytes (~63 % load).
        for node in 0..8u32 {
            rta.push(MessageSpec::periodic(
                id(0x1800_0000 | node),
                BitTime::new(2_000),
                8,
            ));
        }
        assert!(rta.utilization() < 1.0);
        let r = rta.response_time(els).unwrap();
        assert!(
            r < BitTime::new(2_500),
            "protocol response {r} exceeds default Ttd"
        );
    }
}
