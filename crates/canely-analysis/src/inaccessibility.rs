//! Worst-case inaccessibility analysis (Veríssimo/Rufino/Ming \[22\]).
//!
//! *Inaccessibility* is "a period where the network refrains from
//! providing service, although remaining operational" — error frames,
//! overload frames and the retransmissions they force. The MCAN4
//! transmission-delay bound includes the worst-case inaccessibility
//! `Tina`, and Fig. 11 quotes the resulting bounds:
//!
//! * standard CAN: **14 – 2880 bit-times**;
//! * CANELy:      **14 – 2160 bit-times**.
//!
//! The lower bound is the shortest error signalling sequence (6-bit
//! error flag + 8-bit delimiter). The upper bound is a *burst* of `k`
//! successive transmission errors each hitting a maximum-length frame:
//! every omission costs the corrupted frame (worst-case stuffed
//! 8-byte extended frame, 157 bits), the longest error sequence
//! (20 bits) and the intermission (3 bits) — 180 bit-times per
//! omission. Standard CAN must budget the full controller omission
//! degree (`k = 16`, the errors a controller may commit before fault
//! confinement silences it); CANELy's tighter weak-fail-silence
//! enforcement budgets `k = 12`.

use can_types::frame::{ERROR_FRAME_MAX_BITS, ERROR_FRAME_MIN_BITS, INTERMISSION_BITS};
use can_types::{BitTime, FrameFormat};

/// An inaccessibility-inducing scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A single bit/stuff/form error detected by every node: the
    /// shortest incident (error flag + delimiter only, no frame lost —
    /// e.g. an error in the interframe space).
    IsolatedError,
    /// One corrupted frame of `payload` bytes: the frame is lost and
    /// retransmitted after error signalling.
    CorruptedFrame {
        /// Data-field size of the victim frame.
        payload: usize,
    },
    /// A CRC error — detected only after the whole frame plus the CRC
    /// delimiter, the costliest single-frame incident.
    CrcError {
        /// Data-field size of the victim frame.
        payload: usize,
    },
    /// A reception overload: an overload frame defers the next
    /// transmission (same format as an error frame).
    Overload,
    /// A burst of `k` successive errored transmissions of
    /// maximum-length frames — the worst case of \[22\].
    Burst {
        /// Number of successive omissions.
        omissions: u32,
    },
}

/// Closed-form inaccessibility durations for a frame format.
#[derive(Debug, Clone, Copy)]
pub struct InaccessibilityModel {
    format: FrameFormat,
    omission_degree: u32,
}

impl InaccessibilityModel {
    /// Standard CAN: omission degree 16 (the TEC error-passive
    /// threshold 128 divided by the +8 per-error increment).
    pub fn standard_can() -> Self {
        InaccessibilityModel {
            format: FrameFormat::Extended,
            omission_degree: 16,
        }
    }

    /// CANELy: fault-confinement machinery enforces weak-fail-silence
    /// earlier, bounding bursts at 12 omissions (Fig. 11: 2160 = 12 ×
    /// 180 bit-times).
    pub fn canely() -> Self {
        InaccessibilityModel {
            format: FrameFormat::Extended,
            omission_degree: 12,
        }
    }

    /// A custom model.
    pub fn new(format: FrameFormat, omission_degree: u32) -> Self {
        InaccessibilityModel {
            format,
            omission_degree,
        }
    }

    /// The configured omission degree bound.
    pub fn omission_degree(&self) -> u32 {
        self.omission_degree
    }

    /// Cost of one errored maximum-length transmission: worst-case
    /// 8-byte frame + longest error sequence + intermission.
    pub fn per_omission_bits(&self) -> u64 {
        self.format.worst_case_bits(8) + ERROR_FRAME_MAX_BITS + INTERMISSION_BITS
    }

    /// Duration of a scenario in bit-times.
    pub fn duration(&self, scenario: Scenario) -> BitTime {
        let bits = match scenario {
            Scenario::IsolatedError => ERROR_FRAME_MIN_BITS,
            Scenario::Overload => ERROR_FRAME_MAX_BITS,
            Scenario::CorruptedFrame { payload } => {
                self.format.worst_case_bits(payload) + ERROR_FRAME_MAX_BITS + INTERMISSION_BITS
            }
            Scenario::CrcError { payload } => {
                // The CRC delimiter passes before the error flag rises:
                // one extra bit of exposure.
                self.format.worst_case_bits(payload) + 1 + ERROR_FRAME_MAX_BITS + INTERMISSION_BITS
            }
            Scenario::Burst { omissions } => {
                u64::from(omissions.min(self.omission_degree)) * self.per_omission_bits()
            }
        };
        BitTime::new(bits)
    }

    /// The shortest inaccessibility incident (lower bound of Fig. 11).
    pub fn lower_bound(&self) -> BitTime {
        self.duration(Scenario::IsolatedError)
    }

    /// The worst-case inaccessibility (upper bound of Fig. 11): a
    /// burst of the full omission degree.
    pub fn upper_bound(&self) -> BitTime {
        self.duration(Scenario::Burst {
            omissions: self.omission_degree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_can_bounds() {
        let m = InaccessibilityModel::standard_can();
        assert_eq!(m.lower_bound(), BitTime::new(14));
        assert_eq!(m.upper_bound(), BitTime::new(2_880));
    }

    #[test]
    fn fig11_canely_bounds() {
        let m = InaccessibilityModel::canely();
        assert_eq!(m.lower_bound(), BitTime::new(14));
        assert_eq!(m.upper_bound(), BitTime::new(2_160));
    }

    #[test]
    fn per_omission_is_180_bits() {
        // 157 (worst-case extended 8-byte frame) + 20 (error) + 3.
        assert_eq!(
            InaccessibilityModel::standard_can().per_omission_bits(),
            180
        );
    }

    #[test]
    fn canely_strictly_improves_the_upper_bound() {
        let can = InaccessibilityModel::standard_can();
        let canely = InaccessibilityModel::canely();
        assert!(canely.upper_bound() < can.upper_bound());
        assert_eq!(canely.lower_bound(), can.lower_bound());
    }

    #[test]
    fn scenario_ordering() {
        let m = InaccessibilityModel::standard_can();
        assert!(m.duration(Scenario::IsolatedError) <= m.duration(Scenario::Overload));
        assert!(
            m.duration(Scenario::Overload) < m.duration(Scenario::CorruptedFrame { payload: 0 })
        );
        assert!(
            m.duration(Scenario::CorruptedFrame { payload: 8 })
                < m.duration(Scenario::CrcError { payload: 8 })
        );
        assert!(
            m.duration(Scenario::CrcError { payload: 8 })
                < m.duration(Scenario::Burst { omissions: 2 })
        );
    }

    #[test]
    fn burst_clamped_to_omission_degree() {
        let m = InaccessibilityModel::canely();
        assert_eq!(
            m.duration(Scenario::Burst { omissions: 100 }),
            m.upper_bound()
        );
    }

    #[test]
    fn corrupted_frame_grows_with_payload() {
        let m = InaccessibilityModel::standard_can();
        let short = m.duration(Scenario::CorruptedFrame { payload: 0 });
        let long = m.duration(Scenario::CorruptedFrame { payload: 8 });
        assert!(long > short);
        // 8 bytes plus their worst-case stuffing.
        assert_eq!(long - short, BitTime::new(64 + 16));
    }
}
