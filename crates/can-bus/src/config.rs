//! Bus configuration.

use can_types::{BitRate, BitTime, Frame};

/// How frame durations are charged on the simulated wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingModel {
    /// Charge every frame the length of its real bit stream,
    /// genuinely inserted stuff bits included
    /// ([`Frame::duration_exact`]). The default: measured bandwidth
    /// reflects actual frame contents.
    #[default]
    Exact,
    /// Charge every frame its worst-case stuffed length
    /// ([`Frame::duration_worst_case`]). Matches the conservative
    /// analytic models of Fig. 10.
    WorstCase,
}

/// Static configuration of the simulated bus.
///
/// # Examples
///
/// ```
/// use can_bus::{BusConfig, TimingModel};
/// use can_types::BitRate;
///
/// let cfg = BusConfig::new(BitRate::MBPS_1).with_timing(TimingModel::WorstCase);
/// assert_eq!(cfg.bit_rate(), BitRate::MBPS_1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    bit_rate: BitRate,
    timing: TimingModel,
    intermission: BitTime,
    error_signalling: BitTime,
}

impl BusConfig {
    /// Creates a configuration for the given bit rate with default
    /// exact timing, the standard 3-bit intermission and worst-case
    /// error signalling overhead.
    pub fn new(bit_rate: BitRate) -> Self {
        BusConfig {
            bit_rate,
            timing: TimingModel::default(),
            intermission: BitTime::new(can_types::frame::INTERMISSION_BITS),
            error_signalling: BitTime::new(can_types::frame::ERROR_FRAME_MAX_BITS),
        }
    }

    /// Selects the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the error signalling overhead charged per omission
    /// (error flag + delimiter), in bit-times.
    pub fn with_error_signalling(mut self, bits: BitTime) -> Self {
        self.error_signalling = bits;
        self
    }

    /// The configured bit rate.
    pub fn bit_rate(&self) -> BitRate {
        self.bit_rate
    }

    /// The configured timing model.
    pub fn timing(&self) -> TimingModel {
        self.timing
    }

    /// Interframe space in bit-times.
    pub fn intermission(&self) -> BitTime {
        self.intermission
    }

    /// Error signalling overhead charged per failed transmission.
    pub fn error_signalling(&self) -> BitTime {
        self.error_signalling
    }

    /// Wire duration of `frame` under the configured timing model
    /// (intermission not included).
    pub fn frame_duration(&self, frame: &Frame) -> BitTime {
        match self.timing {
            TimingModel::Exact => frame.duration_exact(),
            TimingModel::WorstCase => frame.duration_worst_case(),
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::new(BitRate::MBPS_1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{CanId, Frame};

    #[test]
    fn default_is_exact_at_1mbps() {
        let cfg = BusConfig::default();
        assert_eq!(cfg.bit_rate(), BitRate::MBPS_1);
        assert_eq!(cfg.timing(), TimingModel::Exact);
        assert_eq!(cfg.intermission(), BitTime::new(3));
    }

    #[test]
    fn timing_model_selects_duration() {
        let frame = Frame::remote(CanId::new(0));
        let exact = BusConfig::default().frame_duration(&frame);
        let worst = BusConfig::default()
            .with_timing(TimingModel::WorstCase)
            .frame_duration(&frame);
        assert!(exact <= worst);
        assert_eq!(worst, frame.duration_worst_case());
    }

    #[test]
    fn error_signalling_override() {
        let cfg = BusConfig::default().with_error_signalling(BitTime::new(14));
        assert_eq!(cfg.error_signalling(), BitTime::new(14));
    }
}
