//! Protocol-level bounds of the CANELy membership suite.
//!
//! These are the closed-form guarantees the paper claims:
//!
//! * node crash detection latency is bounded (`Th + Ttd`, where
//!   `Ttd = Tltm + Tina` per MCAN4);
//! * FDA terminates within a known number of frames;
//! * "the number of rounds of the RHA protocol that need to be
//!   executed to reach consensus on the value of `V_RHV` … is bounded
//!   and can be known \[16\]";
//! * membership changes are observed within "tens of ms" (Fig. 11).

use crate::inaccessibility::InaccessibilityModel;
use can_types::{BitTime, FrameFormat};

/// Derived bounds for a given protocol parameterization.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolBounds {
    /// `Th`: heartbeat period.
    pub heartbeat_period: BitTime,
    /// `Tltm`: worst-case queuing + transmission latency of protocol
    /// frames (from the response-time analysis).
    pub tltm: BitTime,
    /// `Tm`: membership cycle period.
    pub membership_cycle: BitTime,
    /// `Trha`: RHA termination timeout.
    pub trha: BitTime,
    /// `j`: inconsistent omission degree.
    pub inconsistent_degree: u32,
    /// `f`: maximum crash failures per interval of reference.
    pub max_crash_faults: u32,
}

impl ProtocolBounds {
    /// `Tina`: the worst-case inaccessibility of the CANELy profile.
    pub fn tina(&self) -> BitTime {
        InaccessibilityModel::canely().upper_bound()
    }

    /// `Ttd = Tltm + Tina`: the transmission delay bound of MCAN4.
    pub fn ttd(&self) -> BitTime {
        self.tltm + self.tina()
    }

    /// Upper bound on the crash detection latency observed at any
    /// correct node: the victim's last activity may have been a full
    /// heartbeat period before its crash, and the surveillance margin
    /// adds the transmission delay bound, plus the failure-sign
    /// dissemination itself.
    pub fn detection_latency(&self) -> BitTime {
        self.heartbeat_period + self.ttd() + self.fda_duration()
    }

    /// Worst-case number of *physical* failure-sign frames per FDA
    /// execution: the initial sign plus one clustered diffusion wave,
    /// plus one recovery wave per tolerated inconsistent omission.
    pub fn fda_frame_bound(&self) -> u32 {
        2 + self.inconsistent_degree
    }

    /// Worst-case duration of an FDA execution on the bus.
    pub fn fda_duration(&self) -> BitTime {
        let frame = BitTime::new(FrameFormat::Extended.worst_case_bits(0) + 3);
        frame * u64::from(self.fda_frame_bound())
    }

    /// Bound on RHA rounds: each round strictly shrinks some node's
    /// vector or ends the protocol; with at most `j` inconsistent
    /// omissions per agreement and `f` crashed participants, at most
    /// `j + f + 1` narrowing waves occur before all correct vectors
    /// are equal.
    pub fn rha_round_bound(&self) -> u32 {
        self.inconsistent_degree + self.max_crash_faults + 1
    }

    /// Worst-case bus time of one RHA execution: the narrowing waves,
    /// each a full RHV signal.
    pub fn rha_duration(&self) -> BitTime {
        let signal = BitTime::new(FrameFormat::Extended.worst_case_bits(8) + 3);
        signal * u64::from(self.rha_round_bound())
    }

    /// Upper bound on the latency of a membership change caused by a
    /// join/leave: the request waits for the next cycle boundary (up
    /// to `Tm`), then one RHA execution settles it (`Trha`).
    pub fn membership_change_latency(&self) -> BitTime {
        self.membership_cycle + self.trha
    }

    /// Dimensioning rule: the minimum heartbeat period `Th` that keeps
    /// the worst-case life-sign load of `n` nodes within `budget`
    /// (fraction of the bus). Every member must transmit at least once
    /// per `Th`, so `n` worst-case remote frames must fit in
    /// `budget × Th` — at the default budget a 64-node bus needs
    /// `Th ≥ 20.5 ms`, which is why `CanelyConfig::default()`'s 5 ms
    /// heartbeat only scales to ~15 nodes of silent population.
    pub fn min_heartbeat_period(nodes: u32, budget: f64) -> BitTime {
        assert!(budget > 0.0 && budget <= 1.0, "budget must be in (0, 1]");
        let frame = FrameFormat::Extended.worst_case_bits(0) + 3;
        let bits = (nodes as f64 * frame as f64 / budget).ceil() as u64;
        BitTime::new(bits)
    }

    /// The inverse rule: how many silent members a given heartbeat
    /// period supports within `budget`.
    pub fn max_population(th: BitTime, budget: f64) -> u32 {
        assert!(budget > 0.0 && budget <= 1.0, "budget must be in (0, 1]");
        let frame = FrameFormat::Extended.worst_case_bits(0) + 3;
        ((th.as_u64() as f64 * budget) / frame as f64).floor() as u32
    }

    /// Bounds for an explicit protocol parameterization — the
    /// constructor campaign oracles use, mapping a run's knobs
    /// (`Th`, `Tm`, `Trha`, `j`, `f`) onto the paper's closed forms
    /// with the default protocol-class `Tltm`.
    pub fn for_params(
        heartbeat_period: BitTime,
        membership_cycle: BitTime,
        trha: BitTime,
        inconsistent_degree: u32,
        max_crash_faults: u32,
    ) -> Self {
        ProtocolBounds {
            heartbeat_period,
            tltm: BitTime::new(340),
            membership_cycle,
            trha,
            inconsistent_degree,
            max_crash_faults,
        }
    }

    /// Upper bound on the latency of the *view change* that removes a
    /// crashed node: detection first
    /// ([`Self::detection_latency`]), then the failure record
    /// waits for the next cycle boundary and one RHA settles the
    /// agreed view ([`Self::membership_change_latency`]).
    pub fn view_change_latency(&self) -> BitTime {
        self.detection_latency() + self.membership_change_latency()
    }

    /// Default bounds matching `CanelyConfig::default()` at 1 Mbps
    /// with a moderate protocol-class `Tltm`.
    pub fn paper_defaults() -> Self {
        ProtocolBounds {
            heartbeat_period: BitTime::new(5_000),
            tltm: BitTime::new(340),
            membership_cycle: BitTime::new(30_000),
            trha: BitTime::new(5_000),
            inconsistent_degree: 2,
            max_crash_faults: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_latency_is_tens_of_ms() {
        // Fig. 11: "Membership — tens of ms latency". At 1 Mbps a
        // bit-time is 1 µs: the bound must land between 1 and 100 ms.
        let b = ProtocolBounds::paper_defaults();
        let latency = b.detection_latency();
        assert!(latency > BitTime::new(1_000));
        assert!(latency < BitTime::new(100_000), "latency {latency}");
    }

    #[test]
    fn ttd_combines_latency_and_inaccessibility() {
        let b = ProtocolBounds::paper_defaults();
        assert_eq!(b.ttd(), b.tltm + BitTime::new(2_160));
    }

    #[test]
    fn fda_frame_bound_small() {
        let b = ProtocolBounds::paper_defaults();
        assert_eq!(b.fda_frame_bound(), 4);
        assert!(b.fda_duration() < BitTime::new(400));
    }

    #[test]
    fn rha_rounds_bounded_and_known() {
        let b = ProtocolBounds::paper_defaults();
        assert_eq!(b.rha_round_bound(), 7);
        // The default Trha (5 ms) must comfortably cover the bound.
        assert!(b.rha_duration() < BitTime::new(5_000));
    }

    #[test]
    fn membership_change_latency_within_two_cycles() {
        let b = ProtocolBounds::paper_defaults();
        let l = b.membership_change_latency();
        assert!(l <= b.membership_cycle * 2);
        // Still "tens of ms".
        assert!(l < BitTime::new(100_000));
    }

    #[test]
    fn dimensioning_rules_are_consistent() {
        // 64 nodes at a 25 % life-sign budget need Th >= ~20.5 ms.
        let th = ProtocolBounds::min_heartbeat_period(64, 0.25);
        assert!(th > BitTime::new(20_000), "{th}");
        assert!(th < BitTime::new(21_000), "{th}");
        // The inverse rule agrees.
        assert!(ProtocolBounds::max_population(th, 0.25) >= 64);
        // The default 5 ms heartbeat saturates the whole bus at 64
        // silent nodes — the scale-test lesson.
        assert!(ProtocolBounds::max_population(BitTime::new(5_000), 1.0) < 64);
    }

    #[test]
    fn view_change_bound_is_detection_plus_membership_change() {
        let b = ProtocolBounds::paper_defaults();
        assert_eq!(
            b.view_change_latency(),
            b.detection_latency() + b.membership_change_latency()
        );
    }

    #[test]
    fn for_params_matches_paper_defaults() {
        let a = ProtocolBounds::paper_defaults();
        let b = ProtocolBounds::for_params(
            BitTime::new(5_000),
            BitTime::new(30_000),
            BitTime::new(5_000),
            2,
            4,
        );
        assert_eq!(a.detection_latency(), b.detection_latency());
        assert_eq!(a.view_change_latency(), b.view_change_latency());
    }

    #[test]
    fn bounds_scale_with_degree_parameters() {
        let mut b = ProtocolBounds::paper_defaults();
        let base_rounds = b.rha_round_bound();
        b.inconsistent_degree += 1;
        assert_eq!(b.rha_round_bound(), base_rounds + 1);
        b.max_crash_faults += 2;
        assert_eq!(b.rha_round_bound(), base_rounds + 3);
    }
}
