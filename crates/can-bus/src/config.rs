//! Bus configuration.

use can_types::{BitTime, Frame};

/// Static configuration of the simulated bus: 1 Mbps, every frame
/// charged the length of its real bit stream, the standard 3-bit
/// intermission and worst-case error signalling.
///
/// # Examples
///
/// ```
/// use can_bus::BusConfig;
/// use can_types::BitTime;
///
/// let cfg = BusConfig::default();
/// assert_eq!(cfg.intermission(), BitTime::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusConfig {
    _private: (),
}

impl BusConfig {
    /// Interframe space in bit-times.
    pub fn intermission(&self) -> BitTime {
        BitTime::new(can_types::frame::INTERMISSION_BITS)
    }

    /// Error signalling overhead charged per failed transmission
    /// (error flag + delimiter), in bit-times.
    pub fn error_signalling(&self) -> BitTime {
        BitTime::new(can_types::frame::ERROR_FRAME_MAX_BITS)
    }

    /// Wire duration of `frame`, genuinely inserted stuff bits included
    /// ([`Frame::duration_exact`]; intermission not included).
    pub fn frame_duration(&self, frame: &Frame) -> BitTime {
        frame.duration_exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::CanId;

    #[test]
    fn default_is_exact_at_1mbps() {
        let cfg = BusConfig::default();
        let frame = Frame::remote(CanId::new(0));
        assert_eq!(cfg.frame_duration(&frame), frame.duration_exact());
        assert_eq!(cfg.intermission(), BitTime::new(3));
    }
}
