//! The CAN bandwidth utilization model of Sec. 6.5 (Fig. 10).
//!
//! "A very conservative approach is taken in the analysis of the CAN
//! bandwidth used by the site membership micro-protocols, in a period
//! of reference: multiple events occur in the same period of
//! reference; every micro-protocol consumes the maximum amount of
//! network bandwidth, meaning that both protocol and network-related
//! overheads are accounted for; extremely harsh operating conditions
//! are assumed."
//!
//! Cost terms, per membership cycle `Tm`:
//!
//! * **life-signs** — `b` nodes issue an explicit life-sign: `b`
//!   remote frames (worst-case stuffing, intermission included);
//! * **crash failures** — `f` nodes fail; each FDA execution costs two
//!   clustered remote-frame waves (the detector's failure-sign plus
//!   the single merged diffusion wave of all recipients) and one
//!   worst-case error-signalling overhead for the frame the crash
//!   interrupted;
//! * **join/leave** — `c` requests: one remote frame each, plus the
//!   RHA settlement. Requests received consistently settle in the
//!   same RHV wave, so the number of distinct waves grows sublinearly:
//!   the model charges the duplicate-suppression bound `j` waves plus
//!   one extra wave per `requests_per_extra_wave` requests
//!   (inconsistency pockets).
//!
//! The exact coefficients of the authors' model live in the
//! unavailable thesis \[16\]; the wave coefficients here are
//! calibrated so the four operating points of Fig. 10 are reproduced
//! (≈2 % / ≈4 % / ≈5 % / ≈13–14 % at `Tm = 30 ms`) and are
//! cross-validated against the simulator by the benchmark harness.

use can_types::{BitTime, FrameFormat};

/// Breakdown of the membership suite's bus utilization over one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationBreakdown {
    /// Share consumed by explicit life-signs.
    pub life_signs: f64,
    /// Share consumed by FDA failure handling.
    pub crashes: f64,
    /// Share consumed by join/leave requests and RHA settlement.
    pub join_leave: f64,
}

impl UtilizationBreakdown {
    /// Total membership-suite utilization.
    pub fn total(&self) -> f64 {
        self.life_signs + self.crashes + self.join_leave
    }
}

/// The conservative bandwidth model, parameterized as in Fig. 10.
///
/// # Examples
///
/// ```
/// use canely_analysis::BandwidthModel;
/// use can_types::BitTime;
///
/// let model = BandwidthModel::paper_defaults(); // n=32, b=8, f=4, j=2
/// let tm = BitTime::new(30_000); // 30 ms at 1 Mbps
/// // "no msh. changes": only life-signs — about 2 %.
/// let idle = model.no_changes(tm);
/// assert!(idle > 0.015 && idle < 0.03);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    /// `n`: number of nodes (bounds request counts).
    pub nodes: u32,
    /// `b`: nodes issuing explicit life-signs each cycle.
    pub els_nodes: u32,
    /// `f`: crash failures per cycle.
    pub crash_failures: u32,
    /// `j`: inconsistent omission degree (RHA duplicate bound).
    pub inconsistent_degree: u32,
    /// FDA remote-frame waves charged per crash.
    pub fda_waves: u32,
    /// Additional RHV wave charged per this many join/leave requests.
    pub requests_per_extra_wave: u32,
    /// Frame format used by the suite.
    pub format: FrameFormat,
    /// Interframe space in bit-times.
    pub intermission: u64,
    /// Worst-case error-signalling overhead per crash, bit-times.
    pub error_signalling: u64,
}

impl BandwidthModel {
    /// The operating conditions of Fig. 10: `n = 32`, `b = 8`,
    /// `f = 4`, `j = 2`.
    pub fn paper_defaults() -> Self {
        BandwidthModel {
            nodes: 32,
            els_nodes: 8,
            crash_failures: 4,
            inconsistent_degree: 2,
            fda_waves: 2,
            requests_per_extra_wave: 4,
            format: FrameFormat::Extended,
            intermission: can_types::frame::INTERMISSION_BITS,
            error_signalling: can_types::frame::ERROR_FRAME_MAX_BITS,
        }
    }

    /// Worst-case cost of one remote frame on the wire (life-sign,
    /// failure-sign, join/leave request), intermission included.
    pub fn remote_frame_cost(&self) -> u64 {
        self.format.worst_case_bits(0) + self.intermission
    }

    /// Worst-case cost of one RHV signal (8-byte data frame),
    /// intermission included.
    pub fn rhv_signal_cost(&self) -> u64 {
        self.format.worst_case_bits(8) + self.intermission
    }

    /// Bit-times consumed by `b` explicit life-signs.
    pub fn life_sign_bits(&self) -> u64 {
        self.els_nodes as u64 * self.remote_frame_cost()
    }

    /// Bit-times consumed by `f` FDA executions.
    pub fn crash_bits(&self) -> u64 {
        self.crash_failures as u64
            * (self.fda_waves as u64 * self.remote_frame_cost() + self.error_signalling)
    }

    /// Bit-times consumed by `c` join/leave requests and their RHA
    /// settlement.
    pub fn join_leave_bits(&self, requests: u32) -> u64 {
        if requests == 0 {
            return 0;
        }
        let request_bits = requests as u64 * self.remote_frame_cost();
        let waves = self.inconsistent_degree as u64
            + (requests as u64).div_ceil(self.requests_per_extra_wave as u64);
        request_bits + waves * self.rhv_signal_cost()
    }

    /// Fig. 10 curve "no msh. changes": life-signs only.
    pub fn no_changes(&self, tm: BitTime) -> f64 {
        self.life_sign_bits() as f64 / tm.as_u64() as f64
    }

    /// Fig. 10 curve "f crash failures": life-signs plus `f` FDA
    /// executions (events accumulate — the conservative reading).
    pub fn with_crashes(&self, tm: BitTime) -> f64 {
        (self.life_sign_bits() + self.crash_bits()) as f64 / tm.as_u64() as f64
    }

    /// Fig. 10 curves "join/leave event" (`c = 1`) and "multiple
    /// join/leave" (`c = 20`): everything accumulated.
    pub fn with_join_leave(&self, tm: BitTime, requests: u32) -> f64 {
        (self.life_sign_bits() + self.crash_bits() + self.join_leave_bits(requests)) as f64
            / tm.as_u64() as f64
    }

    /// Full breakdown at an operating point.
    pub fn breakdown(&self, tm: BitTime, requests: u32) -> UtilizationBreakdown {
        let denom = tm.as_u64() as f64;
        UtilizationBreakdown {
            life_signs: self.life_sign_bits() as f64 / denom,
            crashes: self.crash_bits() as f64 / denom,
            join_leave: self.join_leave_bits(requests) as f64 / denom,
        }
    }

    /// The marginal utilization increase per additional join/leave
    /// request — the footnote quantity ("each join/leave request
    /// contributes with an increase of ≈ 0.4 % assuming Tm = 30 ms").
    pub fn marginal_request_cost(&self, tm: BitTime) -> f64 {
        let at_20 = self.join_leave_bits(20) as f64;
        let at_1 = self.join_leave_bits(1) as f64;
        (at_20 - at_1) / 19.0 / tm.as_u64() as f64
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        BandwidthModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TM30: BitTime = BitTime::new(30_000);
    const TM90: BitTime = BitTime::new(90_000);

    #[test]
    fn fig10_operating_points_at_tm30() {
        let m = BandwidthModel::paper_defaults();
        // Paper figure at Tm = 30 ms (1 Mbps): roughly 2 %, 4 %, 5 %,
        // 13–14 %.
        let no_changes = m.no_changes(TM30);
        assert!(
            (0.015..=0.030).contains(&no_changes),
            "no-changes {no_changes}"
        );
        let crashes = m.with_crashes(TM30);
        assert!((0.035..=0.055).contains(&crashes), "crashes {crashes}");
        let single = m.with_join_leave(TM30, 1);
        assert!((0.045..=0.070).contains(&single), "single {single}");
        let multiple = m.with_join_leave(TM30, 20);
        assert!((0.12..=0.15).contains(&multiple), "multiple {multiple}");
    }

    #[test]
    fn utilization_decreases_with_cycle_period() {
        let m = BandwidthModel::paper_defaults();
        for curve in [BandwidthModel::no_changes, BandwidthModel::with_crashes] {
            assert!(curve(&m, TM30) > curve(&m, TM90));
        }
        assert!(m.with_join_leave(TM30, 20) > m.with_join_leave(TM90, 20));
        // Inverse proportionality: U(90) = U(30) / 3.
        assert!((m.no_changes(TM90) - m.no_changes(TM30) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn curves_are_ordered() {
        let m = BandwidthModel::paper_defaults();
        for tm_ms in [30u64, 50, 70, 90] {
            let tm = BitTime::new(tm_ms * 1_000);
            assert!(m.no_changes(tm) < m.with_crashes(tm));
            assert!(m.with_crashes(tm) < m.with_join_leave(tm, 1));
            assert!(m.with_join_leave(tm, 1) < m.with_join_leave(tm, 20));
        }
    }

    #[test]
    fn marginal_request_cost_matches_footnote() {
        // "≈ 0.4 % per request at Tm = 30 ms."
        let m = BandwidthModel::paper_defaults();
        let marginal = m.marginal_request_cost(TM30);
        assert!((0.003..=0.005).contains(&marginal), "marginal {marginal}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = BandwidthModel::paper_defaults();
        let b = m.breakdown(TM30, 20);
        assert!((b.total() - m.with_join_leave(TM30, 20)).abs() < 1e-12);
        assert!(b.life_signs > 0.0 && b.crashes > 0.0 && b.join_leave > 0.0);
    }

    #[test]
    fn zero_requests_cost_nothing() {
        let m = BandwidthModel::paper_defaults();
        assert_eq!(m.join_leave_bits(0), 0);
        assert_eq!(m.with_join_leave(TM30, 0), m.with_crashes(TM30));
    }

    #[test]
    fn frame_costs_match_iso_worst_case() {
        let m = BandwidthModel::paper_defaults();
        // Extended remote frame: 77 bits + 3 intermission.
        assert_eq!(m.remote_frame_cost(), 80);
        // Extended 8-byte data frame: 157 bits + 3 intermission.
        assert_eq!(m.rhv_signal_cost(), 160);
    }

    #[test]
    fn acceptably_low_for_moderate_load_paper_claim() {
        // "Should the number of requests to join/leave the site
        // membership view be moderate, the utilization of CAN
        // bandwidth … is acceptably low" — below 10 % for c ≤ 5 over
        // the whole Tm range of the figure.
        let m = BandwidthModel::paper_defaults();
        for tm_ms in 30..=90u64 {
            let u = m.with_join_leave(BitTime::new(tm_ms * 1_000), 5);
            assert!(u < 0.10, "Tm={tm_ms}ms: {u}");
        }
    }
}
