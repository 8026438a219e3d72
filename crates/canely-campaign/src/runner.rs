//! The parallel campaign runner: expand, fan out across worker
//! threads, aggregate deterministically, and minimize the first
//! counterexample.
//!
//! Workers pull run indices one at a time from a shared atomic
//! counter, so load-balancing is dynamic — but every run is executed
//! from its self-contained [`RunSpec`] and results are re-ordered by
//! matrix index before aggregation, so the campaign summary is
//! **identical for any worker count** (the acceptance property
//! `canelyctl campaign run --workers N` relies on).

use crate::oracle::Violation;
use crate::run::{self, RunOutcome};
use crate::shootout::ShootoutReport;
use crate::shrink;
use crate::spec::{CampaignSpec, RunSpec};
use crate::telemetry::RunTelemetry;
use canely_metrics::Registry;
use canely_trace::{CampaignAnalytics, PhaseProfile, RunAnalytics, Summary, TraceModel};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-run latency summary carried in the campaign report, so clean
/// campaigns still report useful numbers.
#[derive(Debug, Clone)]
pub struct RunLatency {
    /// The run's matrix index.
    pub run: usize,
    /// Crash-to-notification latency summary (`None`: no crashes).
    pub detection: Option<Summary>,
    /// Crash-to-view-install latency summary.
    pub view_change: Option<Summary>,
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign name.
    pub name: String,
    /// Number of runs executed.
    pub runs: usize,
    /// Total protocol events emitted across all runs.
    pub events: u64,
    /// Violating runs, by matrix index: `(run id, violations)`.
    pub violating: Vec<(usize, Vec<Violation>)>,
    /// Violation counts per invariant label.
    pub per_invariant: BTreeMap<&'static str, usize>,
    /// Per-run measured latency summaries, by matrix index.
    pub latency: Vec<RunLatency>,
}

impl CampaignReport {
    /// Whether every run satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violating.is_empty()
    }

    /// Renders the summary as one deterministic JSON object.
    /// Deliberately excludes anything scheduling-dependent (worker
    /// count, wall time), so two invocations of the same spec compare
    /// byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"campaign\":\"");
        canely_trace::json::escape_into(&self.name, &mut out);
        let _ = write!(
            out,
            "\",\"runs\":{},\"events\":{},\"violating_runs\":[",
            self.runs, self.events
        );
        for (i, (id, violations)) in self.violating.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"run\":{id},\"invariants\":[");
            for (j, v) in violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", v.invariant.label());
            }
            out.push_str("]}");
        }
        out.push_str("],\"violations\":{");
        for (i, (label, count)) in self.per_invariant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{label}\":{count}");
        }
        out.push_str("},\"latency\":[");
        for (i, lat) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let json =
                |s: &Option<Summary>| s.as_ref().map_or("null".to_string(), Summary::to_json);
            let _ = write!(
                out,
                "{{\"run\":{},\"detection\":{},\"view_change\":{}}}",
                lat.run,
                json(&lat.detection),
                json(&lat.view_change)
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign {}: {} runs, {} events, {} violating run(s)",
            self.name,
            self.runs,
            self.events,
            self.violating.len()
        );
        for (label, count) in &self.per_invariant {
            let _ = writeln!(out, "  {label}: {count}");
        }
        let measured = self.latency.iter().filter(|l| l.detection.is_some());
        for lat in measured {
            let fmt = |s: &Option<Summary>| {
                s.as_ref().map_or_else(
                    || "no samples".to_string(),
                    |s| format!("min/p50/p99/max {}/{}/{}/{}", s.min, s.p50, s.p99, s.max),
                )
            };
            let _ = writeln!(
                out,
                "  run {:>3}: detection {}, view-change {} (bit-times)",
                lat.run,
                fmt(&lat.detection),
                fmt(&lat.view_change)
            );
        }
        for (id, violations) in self.violating.iter().take(5) {
            let _ = writeln!(out, "  run {id}:");
            for v in violations {
                let _ = writeln!(out, "    {v}");
            }
        }
        if self.violating.len() > 5 {
            let _ = writeln!(out, "  … and {} more", self.violating.len() - 5);
        }
        out
    }
}

/// A minimized, replayable reproducer of the first violating run.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Matrix index of the originating run.
    pub run_id: usize,
    /// The original violating run.
    pub original: RunSpec,
    /// The minimized run (see [`shrink::minimize`]).
    pub minimal: RunSpec,
    /// The minimal run's violations.
    pub violations: Vec<Violation>,
    /// The minimal run as a replayable `.canely` document.
    pub scenario: String,
    /// The minimal run's merged JSONL trace.
    pub trace_jsonl: String,
}

/// A completed campaign: the aggregate report plus, when any run
/// violated, the minimized counterexample.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The aggregate report.
    pub report: CampaignReport,
    /// Per-backend QoS comparison, when the matrix spans more than
    /// one failure-detector backend (see [`ShootoutReport`]).
    pub shootout: Option<ShootoutReport>,
    /// Minimized reproducer of the first violating run, if any.
    pub counterexample: Option<Counterexample>,
}

/// Where streamed progress lines go.
#[derive(Debug, Clone)]
pub enum ProgressSink {
    /// Write each line to the process's standard error (the CLI
    /// default: the summary on stdout stays clean for redirection).
    Stderr,
    /// Append each line to a shared vector (tests and embedders).
    Collect(Arc<Mutex<Vec<String>>>),
}

impl ProgressSink {
    /// Writes one line; `false` when the destination is gone (a closed
    /// stderr pipe), which ends the streaming but not the campaign.
    fn emit(&self, line: &str) -> bool {
        match self {
            ProgressSink::Stderr => writeln!(std::io::stderr().lock(), "{line}").is_ok(),
            ProgressSink::Collect(lines) => {
                lines
                    .lock()
                    .expect("progress sink poisoned")
                    .push(line.to_string());
                true
            }
        }
    }
}

/// Streaming-progress configuration for [`run_campaign_with`].
#[derive(Debug, Clone)]
pub struct ProgressOptions {
    /// How often the ticker reports. A final line is always emitted
    /// when the last run lands, so even sub-interval campaigns report
    /// at least once.
    pub interval: Duration,
    /// Also emit a one-line JSON registry snapshot (volatile metrics
    /// included) after each progress line.
    pub metrics_json: bool,
    /// Destination for the lines.
    pub sink: ProgressSink,
}

impl Default for ProgressOptions {
    fn default() -> Self {
        ProgressOptions {
            interval: Duration::from_millis(500),
            metrics_json: false,
            sink: ProgressSink::Stderr,
        }
    }
}

/// The most worker threads a campaign runs on: a larger count is
/// clamped to it, and `--workers` refuses one.
pub const MAX_WORKERS: usize = 64;

/// Knobs for [`run_campaign_with`] beyond the spec itself. None of
/// them can change the campaign summary: telemetry counters mirror
/// quantities the summary already derives deterministically, and
/// progress reporting only observes shared atomics from a side
/// thread.
#[derive(Clone, Default)]
pub struct CampaignOptions {
    /// Worker thread count (clamped as in [`run_campaign`]).
    pub workers: usize,
    /// Metric registry the workers stream telemetry into. The default
    /// disabled registry makes every bump a no-op branch.
    pub registry: Registry,
    /// When set, a ticker thread streams throughput/ETA/violation
    /// lines while the campaign runs.
    pub progress: Option<ProgressOptions>,
}

impl CampaignOptions {
    /// Plain options: `workers` threads, no telemetry, no progress.
    pub fn new(workers: usize) -> Self {
        CampaignOptions {
            workers,
            ..CampaignOptions::default()
        }
    }
}

/// Expands and executes a whole campaign on `workers` threads.
///
/// The summary is deterministic for any `workers >= 1`; violating
/// runs additionally get their first (lowest matrix index) member
/// shrunk to a minimal reproducer.
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> CampaignResult {
    run_campaign_with(spec, &CampaignOptions::new(workers))
}

/// [`run_campaign`] with live telemetry and streaming progress (see
/// [`CampaignOptions`]). The returned summary is byte-identical to
/// the plain runner's for any worker count, registry state or
/// progress configuration.
pub fn run_campaign_with(spec: &CampaignSpec, options: &CampaignOptions) -> CampaignResult {
    let runs = spec.expand();
    let outcomes = execute_all_with(&runs, options, false);

    let mut events: u64 = 0;
    let mut violating = Vec::new();
    let mut per_invariant: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut latency = Vec::new();
    for outcome in &outcomes {
        events += outcome.events as u64;
        if !outcome.violations.is_empty() {
            for v in &outcome.violations {
                *per_invariant.entry(v.invariant.label()).or_insert(0) += 1;
            }
            violating.push((outcome.id, outcome.violations.clone()));
        }
        latency.push(RunLatency {
            run: outcome.id,
            detection: Summary::of(&outcome.detection),
            view_change: Summary::of(&outcome.view_change),
        });
    }
    let report = CampaignReport {
        name: spec.name.clone(),
        runs: outcomes.len(),
        events,
        violating,
        per_invariant,
        latency,
    };
    let shootout = ShootoutReport::of(&runs, &outcomes);

    let counterexample = report.violating.first().map(|&(id, _)| {
        let original = runs[id].clone();
        let minimal = shrink::minimize(&original);
        let judged = run::execute(&minimal, true);
        Counterexample {
            run_id: id,
            scenario: minimal.to_scenario(),
            trace_jsonl: judged.trace_jsonl.unwrap_or_default(),
            violations: judged.violations,
            original,
            minimal,
        }
    });

    CampaignResult {
        report,
        shootout,
        counterexample,
    }
}

/// Expands and executes a whole campaign with full trace capture and
/// rolls every run's phase profile into a [`CampaignAnalytics`]: phase
/// latency histograms plus measured-vs-bound headroom per run.
pub fn run_campaign_analytics(spec: &CampaignSpec, workers: usize) -> CampaignAnalytics {
    let runs = spec.expand();
    let outcomes = execute_all_with(&runs, &CampaignOptions::new(workers), true);
    let mut analytics = CampaignAnalytics::default();
    for outcome in &outcomes {
        let run = &runs[outcome.id];
        let Ok(model) = TraceModel::parse(outcome.trace_jsonl.as_deref().unwrap_or("")) else {
            continue; // our own export always parses
        };
        let profile = PhaseProfile::of(&model);
        analytics.runs.push(RunAnalytics::from_profile(
            format!("run {} (seed {})", run.id, run.seed),
            &profile,
            run.detection_bound().as_u64(),
            run.view_change_bound().as_u64(),
        ));
    }
    analytics
}

/// Shared observation point for the progress ticker: workers bump it
/// after every completed run, the ticker only reads. Deliberately
/// outside the summary data path — dropping every update would change
/// no output byte.
struct ProgressState {
    completed: AtomicUsize,
    violations: AtomicU64,
    /// Per-worker wall nanos spent executing runs.
    busy: Vec<AtomicU64>,
}

impl ProgressState {
    fn new(workers: usize) -> Self {
        ProgressState {
            completed: AtomicUsize::new(0),
            violations: AtomicU64::new(0),
            busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// One progress line: counts, throughput, ETA, violations and
    /// worker occupancy since `t0`.
    fn line(&self, total: usize, t0: Instant) -> String {
        let completed = self.completed.load(Ordering::Relaxed);
        let violations = self.violations.load(Ordering::Relaxed);
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        let rate = completed as f64 / elapsed;
        let eta = if completed == 0 {
            "?".to_string()
        } else {
            format!("{:.1}s", (total - completed) as f64 / rate)
        };
        let workers = self.busy.len();
        let occupancy: Vec<f64> = self
            .busy
            .iter()
            // Busy time is sampled at run granularity, so it can
            // overshoot elapsed by a hair on the final tick; clamp.
            .map(|b| (100.0 * b.load(Ordering::Relaxed) as f64 / (elapsed * 1e9)).min(100.0))
            .collect();
        let mean = occupancy.iter().sum::<f64>() / workers as f64;
        let lo = occupancy.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = occupancy.iter().copied().fold(0.0, f64::max);
        format!(
            "progress: {completed}/{total} runs ({:.1}%), {rate:.1} runs/s, eta {eta}, \
             violations {violations}, occupancy {mean:.0}% (min {lo:.0}% max {hi:.0}%, \
             {workers} workers)",
            100.0 * completed as f64 / total.max(1) as f64,
        )
    }
}

/// Executes every run, fanning out over `options.workers` threads,
/// and returns the outcomes in matrix order.
///
/// `workers` is clamped to [`MAX_WORKERS`] and to the run count
/// (spawning idle threads for a tiny matrix only buys startup latency). Every worker runs the same
/// claim loop — take the next index from a shared counter, execute
/// that run, keep the `(index, outcome)` pair — with its
/// [`RunTelemetry`] handles registered once as the only state it keeps
/// between runs; the calling thread is one of the workers, so a
/// one-worker campaign spawns nothing. The pairs come back through the
/// joins and are ordered by index, so the result — and therefore the
/// campaign summary — is byte-identical for any worker count. A
/// worker's panic resumes on the caller once the others have finished.
fn execute_all_with(
    runs: &[RunSpec],
    options: &CampaignOptions,
    capture_trace: bool,
) -> Vec<RunOutcome> {
    let workers = options.workers.clamp(1, MAX_WORKERS).min(runs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let state = ProgressState::new(workers);
    let timing = options.progress.is_some();
    let work = |w: usize| {
        let mut telemetry = RunTelemetry::new(&options.registry);
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = runs.get(i) else {
                return claimed;
            };
            let started = timing.then(Instant::now);
            let outcome = run::execute_on(&mut telemetry, spec, capture_trace);
            if let Some(started) = started {
                let nanos = started.elapsed().as_nanos() as u64;
                state.busy[w].fetch_add(nanos, Ordering::Relaxed);
            }
            state
                .violations
                .fetch_add(outcome.violations.len() as u64, Ordering::Relaxed);
            state.completed.fetch_add(1, Ordering::Relaxed);
            claimed.push((i, outcome));
        }
    };
    let mut outcomes = std::thread::scope(|scope| {
        // The ticker reports until this sender goes away — dropped when
        // the closure returns *or unwinds*, so a panicking worker cannot
        // leave the scope waiting on a ticker nobody will stop.
        let (_done, done) = mpsc::channel::<()>();
        if let Some(progress) = &options.progress {
            let state = &state;
            let registry = &options.registry;
            scope.spawn(move || {
                let t0 = Instant::now();
                loop {
                    let finished = done.recv_timeout(progress.interval)
                        != Err(mpsc::RecvTimeoutError::Timeout);
                    let mut line = state.line(runs.len(), t0);
                    if finished && state.completed.load(Ordering::Relaxed) == runs.len() {
                        line.push_str(" [done]");
                    }
                    let streaming = progress.sink.emit(&line)
                        && (!progress.metrics_json || progress.sink.emit(&registry.to_json(true)));
                    if finished || !streaming {
                        return;
                    }
                }
            });
        }
        let work = &work;
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut outcomes = work(0);
        for worker in spawned {
            outcomes.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        outcomes
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            seeds: (0, 4),
            crash_budgets: vec![0, 1],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn summary_json_independent_of_worker_count() {
        let spec = tiny_spec();
        let one = run_campaign(&spec, 1);
        let four = run_campaign(&spec, 4);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert!(one.report.clean(), "{}", one.report.render());
        // Clean campaigns still report measured latency: the crashing
        // half of the matrix has detection/view-change summaries.
        assert!(
            one.report
                .latency
                .iter()
                .any(|l| l.detection.is_some() && l.view_change.is_some()),
            "{}",
            one.report.render()
        );
        assert!(one.report.to_json().contains("\"latency\":["));
        assert!(one.report.render().contains("detection min/p50/p99/max"));
    }

    /// The large-matrix scaling workload of the `sim` bench: 64 runs
    /// spanning crash budgets and omission rates.
    fn large_spec() -> CampaignSpec {
        CampaignSpec {
            name: "large".into(),
            seeds: (0, 16),
            crash_budgets: vec![0, 1],
            consistent_rates: vec![0.0, 0.01],
            until: can_types::BitTime::new(200_000),
            settle: can_types::BitTime::new(100_000),
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn large_matrix_summary_identical_for_any_worker_count() {
        let spec = large_spec();
        assert!(spec.expand().len() >= 64, "matrix must be large");
        let one = run_campaign(&spec, 1).report.to_json();
        for workers in [3, 8] {
            assert_eq!(
                run_campaign(&spec, workers).report.to_json(),
                one,
                "summary diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn workers_beyond_run_count_are_harmless() {
        // 2-run matrix, 64 requested workers: the runner clamps to the
        // run count, and the summary still matches the 1-worker run.
        let spec = CampaignSpec {
            name: "tiny-wide".into(),
            seeds: (0, 2),
            crash_budgets: vec![1],
            ..CampaignSpec::default()
        };
        assert_eq!(
            run_campaign(&spec, 64).report.to_json(),
            run_campaign(&spec, 1).report.to_json()
        );
    }

    #[test]
    fn analytics_cover_every_run_with_bounds() {
        let spec = tiny_spec();
        let analytics = run_campaign_analytics(&spec, 2);
        let runs = spec.expand();
        assert_eq!(analytics.runs.len(), runs.len());
        for (run, spec_run) in analytics.runs.iter().zip(&runs) {
            assert_eq!(run.detection_bound, spec_run.detection_bound().as_u64());
            assert!(run.view_change_bound > 0);
        }
        // Crashing runs have positive headroom (the campaign is clean).
        let with_crash = analytics
            .runs
            .iter()
            .filter_map(canely_trace::RunAnalytics::detection_headroom)
            .collect::<Vec<_>>();
        assert!(!with_crash.is_empty());
        assert!(with_crash.iter().all(|&h| h > 0), "{with_crash:?}");
        let view_change = analytics
            .runs
            .iter()
            .filter_map(canely_trace::RunAnalytics::view_change_headroom)
            .collect::<Vec<_>>();
        assert!(!view_change.is_empty(), "view installs must be profiled");
        assert!(view_change.iter().all(|&h| h > 0), "{view_change:?}");
        // Deterministic regardless of worker count.
        assert_eq!(
            run_campaign_analytics(&spec, 1).to_json(),
            analytics.to_json()
        );
        let md = analytics.to_markdown();
        assert!(md.contains("Phase latency across the campaign"), "{md}");
    }

    #[test]
    fn weakened_campaign_produces_a_counterexample() {
        let spec = CampaignSpec {
            name: "mutant".into(),
            seeds: (0, 2),
            inaccessibility_lens: vec![can_types::BitTime::new(4_000)],
            weaken_fda: true,
            ..CampaignSpec::default()
        };
        let result = run_campaign(&spec, 2);
        assert!(!result.report.clean());
        let cx = result.counterexample.expect("must minimize a reproducer");
        assert!(!cx.violations.is_empty());
        assert!(cx.scenario.contains("weaken-fda"));
        assert!(!cx.trace_jsonl.is_empty());
        // The reproducer is replayable: parsing it back and executing
        // reproduces a violation.
        let replayed = crate::spec::RunSpec::from_scenario(&cx.scenario).unwrap();
        assert!(!run::execute(&replayed, false).violations.is_empty());
    }

    #[test]
    fn a_panicking_run_unwinds_the_campaign_even_under_progress() {
        // `Th = 0` fails `RunSpec::config`'s validation: a run no
        // reader lets through, standing in for any bug inside a run.
        let bad = RunSpec {
            th: can_types::BitTime::ZERO,
            ..RunSpec::default()
        };
        let runs = [RunSpec::default(), bad];
        let lines = Arc::new(Mutex::new(Vec::new()));
        let options = CampaignOptions {
            workers: 2,
            progress: Some(ProgressOptions {
                interval: Duration::from_secs(3_600),
                metrics_json: false,
                sink: ProgressSink::Collect(lines.clone()),
            }),
            ..CampaignOptions::default()
        };
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(|| execute_all_with(&runs, &options, false));
        assert!(result.is_err(), "the run's panic must reach the caller");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(!lines[0].contains("[done]"), "{lines:?}");
    }
}
