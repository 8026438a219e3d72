//! A switch-based phase profiler for hot loops.
//!
//! The profiled loop calls [`PhaseProfiler::enter`] at each phase
//! transition and [`PhaseProfiler::pause`] where it stops; everything
//! from the first `enter` to the `pause` is one *window*, and each
//! *span* runs from one transition to the next. The profiler counts
//! every transition, clocks every window exactly (one clock read at
//! each end) and splits the window's nanoseconds across the phases:
//!
//! * the first [`STRIDE`] spans of a window are each timed, so a
//!   window shorter than that — the campaign worker's set-up / emit /
//!   oracle windows — is attributed span by span, exactly;
//! * past them, one run of [`RUN`] adjacent spans in every
//!   `RUN × STRIDE` is timed, at an offset drawn from the profiler's
//!   own xorshift generator (never the simulation's RNG): about one
//!   span in `STRIDE`. A fixed stride would alias with a loop's 2- and
//!   3-transition patterns;
//! * at `pause` each phase is weighted by its exactly timed spans plus
//!   `STRIDE` × its sampled ones, and the window's exact total is split
//!   in proportion to the weights.
//!
//! So the phases of a window sum to its wall time exactly — which is
//! what lets the campaign-level report meet the "≥ 90 % of simulator
//! wall time attributed" bar — while the split between them is an
//! estimate once a window outgrows its exact prefix. A long window
//! costs `RUN + 1` clock reads per `RUN × STRIDE` transitions, not one
//! per transition.
//!
//! A disabled profiler (the default) holds no recording state: the
//! hot-path cost is one inlined branch, no clock read, no allocation.

use std::time::Instant;

/// About one span in `STRIDE` is timed once a window has outgrown its
/// exactly timed first `STRIDE` spans.
const STRIDE: u64 = 32;
/// Adjacent spans per sampled run: they share clock reads, `RUN + 1`
/// reads timing `RUN` spans.
const RUN: u64 = 4;
/// Spans per sampling block; one run is timed in each.
const BLOCK: u64 = RUN * STRIDE;
/// The longest phase table: the recording state is fixed-size, so the
/// enabled hot path never allocates.
const MAX_PHASES: usize = 8;

/// Attributes wall time to a fixed set of named phases.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    names: &'static [&'static str],
    /// The recording state; `None` while disabled.
    rec: Option<Box<Recorder>>,
}

impl PhaseProfiler {
    /// A profiler over `names` (at most eight), initially disabled.
    pub fn new(names: &'static [&'static str]) -> Self {
        assert!(names.len() <= MAX_PHASES, "at most {MAX_PHASES} phases");
        PhaseProfiler { names, rec: None }
    }

    /// Enables or disables profiling. Disabling drops the open window
    /// and any totals not yet taken.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.rec = None;
        } else if self.rec.is_none() {
            self.rec = Some(Box::new(Recorder::new()));
        }
    }

    /// Whether the profiler is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Marks a transition into `phase` (an index into `names`): the
    /// span being left ends, a span of `phase` begins. No-op when
    /// disabled.
    #[inline]
    pub fn enter(&mut self, phase: usize) {
        if let Some(rec) = &mut self.rec {
            rec.enter(phase);
        }
    }

    /// Closes the open window, attributing its time, without starting
    /// a new one. Call at loop exit so idle time between profiled
    /// sections is not attributed to the last phase.
    #[inline]
    pub fn pause(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.pause();
        }
    }

    /// Drains the accumulated totals into a [`PhaseReport`], resetting
    /// the profiler (the enabled flag is kept).
    pub fn take(&mut self) -> PhaseReport {
        let len = self.names.len();
        let (mut nanos, mut entries) = ([0; MAX_PHASES], [0; MAX_PHASES]);
        if let Some(rec) = &mut self.rec {
            rec.pause();
            nanos = std::mem::take(&mut rec.nanos);
            entries = std::mem::take(&mut rec.entries);
        }
        PhaseReport {
            names: self.names,
            nanos: nanos[..len].to_vec(),
            entries: entries[..len].to_vec(),
        }
    }
}

/// An enabled profiler's state, boxed so a disabled one is a pointer.
///
/// Spans are indexed from 0 within a window. Spans `0..STRIDE` are the
/// exact prefix; past it, block `k` is spans `STRIDE + k · BLOCK ..`,
/// and its run starts at a drawn offset into the block.
#[derive(Debug)]
struct Recorder {
    nanos: [u64; MAX_PHASES],
    entries: [u64; MAX_PHASES],
    /// The open span's phase.
    phase: usize,
    /// Switches until the next one that reads the clock (1: the next).
    due: u64,
    /// When the open window opened; `None` between windows.
    opened: Option<Instant>,
    /// When the open span began, if it is timed.
    mark: Option<Instant>,
    /// The index of the span the next clock-reading switch begins.
    at: u64,
    /// The first span of the current block.
    block: u64,
    /// The first span of the current block's run.
    run: u64,
    /// The open window's weights: timed prefix nanoseconds plus
    /// `STRIDE` × sampled nanoseconds, by phase.
    weights: [u64; MAX_PHASES],
    /// xorshift64 state, for the run offsets only.
    rng: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            nanos: [0; MAX_PHASES],
            entries: [0; MAX_PHASES],
            phase: 0,
            due: 1,
            opened: None,
            mark: None,
            at: 0,
            block: 0,
            run: 0,
            weights: [0; MAX_PHASES],
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Counts the switch; only every `due`-th one reads the clock.
    #[inline(never)]
    fn enter(&mut self, phase: usize) {
        self.entries[phase] += 1;
        self.due -= 1;
        if self.due == 0 {
            self.clocked_enter();
        }
        self.phase = phase;
    }

    /// A switch that reads the clock: it opens a window, or ends a
    /// timed span, or begins one — and schedules the next such switch.
    fn clocked_enter(&mut self) {
        let now = clock();
        if self.opened.is_none() {
            self.opened = Some(now);
            self.at = 0;
            self.block = STRIDE;
            self.run = self.block + self.draw();
        } else {
            self.close(now);
        }
        let index = self.at;
        if index >= self.run + RUN {
            self.block += BLOCK;
            self.run = self.block + self.draw();
        }
        let timed = index < STRIDE || index >= self.run;
        self.mark = timed.then_some(now);
        self.at = if timed { index + 1 } else { self.run };
        self.due = self.at - index;
    }

    #[inline(never)]
    fn pause(&mut self) {
        let Some(opened) = self.opened.take() else {
            return;
        };
        let now = clock();
        self.close(now);
        self.due = 1;
        let window = now.duration_since(opened).as_nanos() as u64;
        let total: u128 = self.weights.iter().map(|&w| u128::from(w)).sum();
        if total == 0 {
            // Nothing timed took a measurable instant.
            self.nanos[self.phase] += window;
            return;
        }
        // Cumulative rounding: the shares sum to `window` exactly, and
        // a window timed span by span (weights summing to `window`)
        // gets its spans back unchanged.
        let (mut cum, mut given) = (0u128, 0u64);
        for (nanos, weight) in self.nanos.iter_mut().zip(&mut self.weights) {
            cum += u128::from(std::mem::take(weight));
            let upto = (u128::from(window) * cum / total) as u64;
            *nanos += upto - given;
            given = upto;
        }
    }

    /// Ends the open span at `now`, weighting it if it was timed (the
    /// span `at - 1`: a timed span is always closed by the next switch).
    fn close(&mut self, now: Instant) {
        if let Some(since) = self.mark.take() {
            let nanos = now.duration_since(since).as_nanos() as u64;
            let weight = if self.at <= STRIDE { 1 } else { STRIDE };
            self.weights[self.phase] += nanos * weight;
        }
    }

    /// A run offset into a block, in `0..=BLOCK - RUN`.
    fn draw(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % (BLOCK - RUN + 1)
    }
}

/// The profiler's clock; the unit tests substitute a manual one.
#[cfg(not(test))]
#[inline]
fn clock() -> Instant {
    Instant::now()
}

#[cfg(test)]
use tests::clock;

/// Per-phase wall-time totals drained from a [`PhaseProfiler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    names: &'static [&'static str],
    nanos: Vec<u64>,
    entries: Vec<u64>,
}

impl PhaseReport {
    /// The phase names.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Nanoseconds attributed to each phase, index-aligned with
    /// [`PhaseReport::names`].
    pub fn nanos(&self) -> &[u64] {
        &self.nanos
    }

    /// Transition counts per phase, index-aligned with names.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Total attributed nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Merges another report (same phase table) into this one.
    pub fn merge(&mut self, other: &PhaseReport) {
        assert_eq!(self.names, other.names, "phase tables differ");
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a += b;
        }
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a += b;
        }
    }

    /// Renders the per-phase table, widest share first:
    ///
    /// ```text
    /// phase                 time        share   entries
    /// bus-arbitration       1.234 ms    45.6%   12345
    /// ```
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut rows: Vec<(usize, u64)> = self.nanos.iter().copied().enumerate().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::from("phase                 time          share   entries\n");
        for (idx, ns) in rows {
            let share = ns as f64 * 100.0 / total as f64;
            out.push_str(&format!(
                "{:<20}  {:>10}  {:>6.1}%  {:>8}\n",
                self.names[idx],
                fmt_nanos(ns),
                share,
                self.entries[idx],
            ));
        }
        out.push_str(&format!(
            "{:<20}  {:>10}  {:>6.1}%\n",
            "total",
            fmt_nanos(self.total_nanos()),
            100.0
        ));
        out
    }
}

fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    const PHASES: &[&str] = &["alpha", "beta"];
    const THREE: &[&str] = &["alpha", "beta", "gamma"];

    thread_local! {
        /// This thread's manual clock in nanoseconds; `None` reads the
        /// real one.
        static MANUAL: Cell<Option<u64>> = const { Cell::new(None) };
        /// Clock reads the profiler has made on this thread.
        static READS: Cell<u64> = const { Cell::new(0) };
        static EPOCH: Instant = Instant::now();
    }

    /// The profiler's clock under test: counts every read, and answers
    /// from the manual clock once the test has started it.
    pub(super) fn clock() -> Instant {
        READS.set(READS.get() + 1);
        match MANUAL.get() {
            Some(nanos) => EPOCH.with(|epoch| *epoch + Duration::from_nanos(nanos)),
            None => Instant::now(),
        }
    }

    /// Switches this thread to a manual clock at zero.
    fn manual_clock() {
        MANUAL.set(Some(0));
    }

    /// Spins the manual clock forward by `nanos`.
    fn spin(nanos: u64) {
        MANUAL.set(Some(MANUAL.get().expect("manual clock") + nanos));
    }

    /// Test-side span lengths: uniform in `[mean / 2, 3 · mean / 2)`,
    /// from a generator unrelated to the profiler's.
    struct Jitter(u64);

    impl Jitter {
        fn around(&mut self, mean: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            mean / 2 + (self.0 >> 33) % mean
        }
    }

    /// Runs one window of `transitions` over `cycle` (phase, mean span
    /// nanoseconds) on the manual clock; returns the report and the
    /// true nanoseconds per phase.
    fn window(
        names: &'static [&'static str],
        cycle: &[(usize, u64)],
        transitions: usize,
    ) -> (PhaseReport, Vec<u64>) {
        manual_clock();
        let mut p = PhaseProfiler::new(names);
        p.set_enabled(true);
        let mut jitter = Jitter(7);
        let mut truth = vec![0; names.len()];
        for &(phase, mean) in cycle.iter().cycle().take(transitions) {
            p.enter(phase);
            let nanos = jitter.around(mean);
            truth[phase] += nanos;
            spin(nanos);
        }
        p.pause();
        (p.take(), truth)
    }

    /// Asserts every phase's share of the window is within `band`
    /// percentage points of its true share.
    fn assert_shares(report: &PhaseReport, truth: &[u64], band: f64) {
        let total: u64 = truth.iter().sum();
        assert_eq!(report.total_nanos(), total);
        for (phase, (&got, &want)) in report.nanos().iter().zip(truth).enumerate() {
            let (got, want) = (pct(got, total), pct(want, total));
            assert!(
                (got - want).abs() <= band,
                "{}: {got:.2}% attributed, {want:.2}% spent",
                report.names()[phase]
            );
        }
    }

    fn pct(part: u64, total: u64) -> f64 {
        100.0 * part as f64 / total as f64
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        READS.set(0);
        let mut p = PhaseProfiler::new(PHASES);
        p.enter(0);
        p.enter(1);
        p.pause();
        let r = p.take();
        assert_eq!(r.total_nanos(), 0);
        assert_eq!(r.entries(), &[0, 0]);
        assert_eq!(READS.get(), 0, "a disabled profiler reads no clock");
    }

    #[test]
    fn alternating_phases_keep_their_share() {
        // A strict two-phase alternation, alpha spinning three times as
        // long as beta: every other span is alpha's, so a fixed even
        // stride would time only one of the two phases.
        let (report, truth) = window(PHASES, &[(0, 3_000), (1, 1_000)], 20_000);
        assert_eq!(report.entries(), &[10_000, 10_000]);
        assert_shares(&report, &truth, 3.0);
    }

    #[test]
    fn a_three_phase_cycle_keeps_its_shares() {
        let cycle = [(0, 1_000), (1, 2_000), (2, 3_000)];
        let (report, truth) = window(THREE, &cycle, 30_000);
        assert_eq!(report.entries(), &[10_000, 10_000, 10_000]);
        assert_shares(&report, &truth, 3.0);
    }

    #[test]
    fn phases_sum_to_the_clocked_windows() {
        manual_clock();
        let mut p = PhaseProfiler::new(THREE);
        p.set_enabled(true);
        let mut jitter = Jitter(11);
        let mut clocked = 0;
        for transitions in [1, 2, 31, 32, 33, 100, 129, 5_000] {
            for i in 0..transitions {
                p.enter(i % 3);
                let nanos = jitter.around(500 + 700 * (i % 3) as u64);
                clocked += nanos;
                spin(nanos);
            }
            p.pause();
            // Idle time between windows belongs to no phase.
            spin(1_000_000);
        }
        assert_eq!(p.take().total_nanos(), clocked);
    }

    #[test]
    fn a_window_shorter_than_the_stride_is_timed_span_by_span() {
        let cycle = [(0, 1_000), (2, 5_000), (1, 300), (2, 40)];
        let (report, truth) = window(THREE, &cycle, STRIDE as usize - 1);
        assert_eq!(report.nanos(), truth.as_slice());
    }

    #[test]
    fn a_long_window_reads_the_clock_once_per_sixteen_transitions_at_most() {
        READS.set(0);
        let (report, _) = window(PHASES, &[(0, 100), (1, 100)], 100_000);
        assert_eq!(report.entries().iter().sum::<u64>(), 100_000);
        let reads = READS.get();
        assert!(reads <= 100_000 / 16 + 2, "{reads} clock reads");
    }

    #[test]
    fn transitions_attribute_to_the_outgoing_phase() {
        let mut p = PhaseProfiler::new(PHASES);
        p.set_enabled(true);
        p.enter(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.enter(1);
        p.pause();
        let r = p.take();
        assert!(r.nanos()[0] >= 1_000_000, "alpha got {} ns", r.nanos()[0]);
        assert_eq!(r.entries(), &[1, 1]);
        assert_eq!(r.total_nanos(), r.nanos().iter().sum::<u64>());
    }

    #[test]
    fn take_resets_and_merge_accumulates() {
        let mut p = PhaseProfiler::new(PHASES);
        p.set_enabled(true);
        p.enter(0);
        p.pause();
        let mut first = p.take();
        let second = p.take();
        assert_eq!(second.entries(), &[0, 0]);
        first.merge(&second);
        assert_eq!(first.entries(), &[1, 0]);
        assert!(p.enabled());
    }

    #[test]
    fn render_mentions_every_phase_and_total() {
        let mut p = PhaseProfiler::new(PHASES);
        p.set_enabled(true);
        p.enter(1);
        p.pause();
        let text = p.take().render();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("total"));
    }
}
