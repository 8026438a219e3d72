//! Protocol parameters (the paper's timing and degree bounds).

use crate::fd::DetectorKind;
use can_types::BitTime;

/// `Ttd = Tltm + Tina`: the network message transmission delay bound
/// (MCAN4) added to remote surveillance timers, at 1 Mbps.
pub const TX_DELAY_BOUND: BitTime = BitTime::new(2_500);

/// `Trha`: the RHA maximum termination time, at 1 Mbps.
pub const RHA_TIMEOUT: BitTime = BitTime::new(5_000);

/// Configuration of a CANELy node stack.
///
/// Field names follow the paper's parameter glossary (`Ttd` and `Trha`
/// are the constants [`TX_DELAY_BOUND`] and [`RHA_TIMEOUT`]):
///
/// | Field | Paper | Meaning |
/// |---|---|---|
/// | `heartbeat_period` | `Th` | max interval between consecutive life-sign transmit requests |
/// | `membership_cycle` | `Tm` | membership cycle period |
/// | `join_wait` | `Tjoin-wait` | maximum join wait delay (footnote: much longer than `Tm`) |
/// | `inconsistent_degree` | `j` | bounded inconsistent omission degree (LCAN4) |
///
/// The remaining flags select design variants used by the ablation
/// benches (the paper's design corresponds to the defaults).
///
/// # Examples
///
/// ```
/// use canely::{CanelyConfig, TX_DELAY_BOUND};
/// use can_types::BitTime;
///
/// let cfg = CanelyConfig::default().with_membership_cycle(BitTime::new(50_000));
/// assert_eq!(cfg.membership_cycle, BitTime::new(50_000));
/// // Detection latency bound: Th + Ttd.
/// assert_eq!(cfg.detection_latency_bound(), cfg.heartbeat_period + TX_DELAY_BOUND);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanelyConfig {
    /// `Th`: the heartbeat (life-sign) period.
    pub heartbeat_period: BitTime,
    /// `Tm`: the membership cycle period.
    pub membership_cycle: BitTime,
    /// `Tjoin-wait`: maximum join wait delay at a non-integrated node.
    pub join_wait: BitTime,
    /// `j`: the inconsistent omission degree bound used by RHA's
    /// duplicate-suppression rule (Fig. 7, line r08).
    pub inconsistent_degree: u32,
    /// Whether normal data traffic signals node activity implicitly
    /// (the `can-data.nty` mechanism of Sec. 6.3). Disabling it forces
    /// explicit life-signs from every node — an ablation target.
    pub implicit_heartbeats: bool,
    /// The failure-detector backend (see `docs/DETECTORS.md`). The
    /// default is the paper's surveillance-timer protocol; the
    /// alternatives trade detection latency against bus bandwidth and
    /// false-suspicion robustness.
    pub detector: DetectorKind,
    /// **Fault-injection mutant — never enable in a correct stack.**
    /// Weakens the failure-detection path in two paper-violating ways:
    /// remote surveillance margins drop the inaccessibility term
    /// `Tina` from `Ttd` (an MCAN4 violation — margins then cover only
    /// `Tltm`-scale queuing, so any inaccessibility period of
    /// millisecond order produces a *false suspicion* of a live node),
    /// and FDA stops eagerly rebroadcasting failure signs on first
    /// reception (Fig. 5, line r04). The campaign oracle uses this
    /// mutant to prove it can catch and shrink real protocol bugs.
    /// Defaults to `false`; set by [`CanelyConfig::with_weakened_fda`].
    pub weakened_fda: bool,
}

impl CanelyConfig {
    /// Sets `Tm`, the membership cycle period.
    pub fn with_membership_cycle(mut self, tm: BitTime) -> Self {
        self.membership_cycle = tm;
        self
    }

    /// Sets `Th`, the heartbeat period.
    pub fn with_heartbeat_period(mut self, th: BitTime) -> Self {
        self.heartbeat_period = th;
        self
    }

    /// Sets `j`, the inconsistent omission degree bound.
    pub fn with_inconsistent_degree(mut self, j: u32) -> Self {
        self.inconsistent_degree = j;
        self
    }

    /// Enables the deliberately broken failure-detection mutant (see
    /// [`CanelyConfig::weakened_fda`]). For fault-injection campaigns
    /// only.
    pub fn with_weakened_fda(mut self) -> Self {
        self.weakened_fda = true;
        self
    }

    /// Selects the failure-detector backend.
    pub fn with_detector(mut self, detector: DetectorKind) -> Self {
        self.detector = detector;
        self
    }

    /// The remote surveillance margin actually granted beyond `Th`.
    /// The correct protocol grants the full `Ttd = Tltm + Tina`; the
    /// weakened mutant grants a quarter of it (`Tltm`-scale: enough
    /// for queuing/arbitration jitter, but the `Tina` allowance for
    /// bus inaccessibility is forgotten).
    pub fn surveillance_margin(&self) -> BitTime {
        if self.weakened_fda {
            BitTime::new(TX_DELAY_BOUND.as_u64() / 4)
        } else {
            TX_DELAY_BOUND
        }
    }

    /// The bound on node crash detection latency at a remote node.
    /// For the paper's surveillance detector a silent node is detected
    /// within `Th + Ttd` of its last scheduled life-sign (Sec. 6.1:
    /// "the upper bound specified for the delay in the detection of
    /// node crash failures is preserved"); the alternative backends
    /// add their own margin on top (see
    /// [`DetectorKind::extra_detection_margin`]).
    pub fn detection_latency_bound(&self) -> BitTime {
        self.heartbeat_period
            + TX_DELAY_BOUND
            + self
                .detector
                .extra_detection_margin(self.heartbeat_period, TX_DELAY_BOUND)
    }

    /// Validates parameter coherence.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// durations must be positive, `Tjoin-wait > Tm` (footnote 9) and
    /// `Trha < Tm` (an agreement must finish within its cycle).
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_period.is_zero() {
            return Err("heartbeat period (Th) must be positive".into());
        }
        if self.membership_cycle.is_zero() {
            return Err("membership cycle (Tm) must be positive".into());
        }
        if self.join_wait <= self.membership_cycle {
            return Err("join wait (Tjoin-wait) must exceed the membership cycle (Tm)".into());
        }
        if RHA_TIMEOUT >= self.membership_cycle {
            return Err("RHA timeout (Trha) must be below the membership cycle (Tm)".into());
        }
        Ok(())
    }
}

impl Default for CanelyConfig {
    /// The evaluation defaults at 1 Mbps: `Tm = 30 ms`, `Th = 5 ms`,
    /// detection latency bound well under "tens of ms".
    fn default() -> Self {
        CanelyConfig {
            heartbeat_period: BitTime::new(5_000),
            membership_cycle: BitTime::new(30_000),
            join_wait: BitTime::new(60_000),
            inconsistent_degree: 2,
            implicit_heartbeats: true,
            detector: DetectorKind::Surveillance,
            weakened_fda: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_scaled() {
        let cfg = CanelyConfig::default();
        cfg.validate().expect("defaults must validate");
        assert_eq!(cfg.membership_cycle, BitTime::new(30_000));
        // "Membership … tens of ms latency" (Fig. 11): the detection
        // bound must stay well below 100 ms at 1 Mbps.
        assert!(cfg.detection_latency_bound() < BitTime::new(100_000));
    }

    #[test]
    fn builders_compose() {
        let cfg = CanelyConfig::default()
            .with_membership_cycle(BitTime::new(90_000))
            .with_heartbeat_period(BitTime::new(9_000))
            .with_inconsistent_degree(3);
        assert_eq!(cfg.membership_cycle, BitTime::new(90_000));
        assert_eq!(cfg.heartbeat_period, BitTime::new(9_000));
        assert_eq!(cfg.inconsistent_degree, 3);
    }

    #[test]
    fn validation_catches_inverted_timeouts() {
        let cfg = CanelyConfig::default().with_membership_cycle(BitTime::new(1_000));
        assert!(cfg.validate().is_err());

        let cfg = CanelyConfig {
            join_wait: CanelyConfig::default().membership_cycle,
            ..CanelyConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("join wait"));

        let cfg = CanelyConfig {
            heartbeat_period: BitTime::ZERO,
            ..CanelyConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("Th"));
    }

    #[test]
    fn weakened_mutant_shrinks_surveillance_margin() {
        let correct = CanelyConfig::default();
        let broken = CanelyConfig::default().with_weakened_fda();
        assert_eq!(correct.surveillance_margin(), TX_DELAY_BOUND);
        // The mutant's margin covers Tltm-scale queuing but not the
        // CANELy inaccessibility bound Tina = 2160 bit-times.
        assert_eq!(
            broken.surveillance_margin(),
            BitTime::new(TX_DELAY_BOUND.as_u64() / 4)
        );
        assert!(broken.surveillance_margin() < BitTime::new(2_160));
        // Still a valid configuration: the mutant must run, not panic.
        broken.validate().expect("mutant config must validate");
    }

    #[test]
    fn detector_backends_widen_the_detection_bound() {
        let base = CanelyConfig::default();
        assert_eq!(base.detector, DetectorKind::Surveillance);
        for kind in [DetectorKind::Swim, DetectorKind::AddPhi] {
            let alt = CanelyConfig::default().with_detector(kind);
            assert!(alt.detection_latency_bound() > base.detection_latency_bound());
            alt.validate().expect("alternative backends must validate");
        }
    }
}
