//! Per-worker run telemetry: the registry handles a campaign worker
//! bumps while executing runs, plus the worker-side phase profiler
//! covering the time [`SIM_PHASES`] does
//! not (world construction, log folding, oracle judging).
//!
//! All handles come from one shared [`Registry`]; `Stable` metrics are
//! commutative sums of simulation-deterministic quantities, so their
//! totals — and therefore the stable export — are byte-identical for
//! any worker count. Wall-clock attribution (`*_phase_nanos_total`) is
//! registered `Volatile` and never appears in deterministic exports.

use crate::run::RunOutcome;
use can_controller::{StepStats, SIM_PHASES};
use canely::DetectorMetrics;
use canely_federation::FedMetrics;
use canely_metrics::{Counter, Hist, PhaseProfiler, PhaseReport, Registry, Stability};

/// The campaign-worker phases surrounding the simulator's own
/// [`SIM_PHASES`]: world construction and teardown,
/// observation-log folding (markers, finals, trace export, latency
/// extraction) and invariant judging. Together the two phase sets
/// account for a run's wall time end to end.
pub const RUN_PHASES: &[&str] = &["world-setup", "obs-emit", "oracle"];

/// [`RUN_PHASES`] index: building the world, and dropping it.
pub(crate) const RP_SETUP: usize = 0;
/// [`RUN_PHASES`] index: folding markers/finals/trace out of the log.
pub(crate) const RP_OBS: usize = 1;
/// [`RUN_PHASES`] index: running the invariant oracle.
pub(crate) const RP_ORACLE: usize = 2;

/// Fixed bucket bounds (bit-times) for the latency histograms. The
/// paper's closed-form bounds land in the 10⁴–10⁵ range for default
/// configurations, so the grid brackets them a decade on either side.
const LATENCY_BUCKETS: &[u64] = &[
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
];

/// Registers one counter per phase of a `{phase=…}` family.
fn phase_family(
    registry: &Registry,
    base: &str,
    help: &'static str,
    phases: &[&str],
) -> Vec<Counter> {
    phases
        .iter()
        .map(|phase| {
            let name = format!("{base}{{phase=\"{phase}\"}}");
            registry.counter(&name, help, Stability::Volatile)
        })
        .collect()
}

/// The series one simulated world exports: step-loop totals and wall
/// time, failure-detector counters and the two latency histograms.
/// `canelyctl metrics --live` exports exactly these; a campaign
/// worker's [`RunTelemetry`] registers them through this one type too.
pub struct SimTelemetry {
    steps: Counter,
    timer_expiries: Counter,
    bus_transactions: Counter,
    lifecycle_events: Counter,
    /// Wall nanos per simulator phase, indexed like [`SIM_PHASES`].
    phase_nanos: Vec<Counter>,
    detection_latency: Hist,
    view_change_latency: Hist,
    /// Failure-detector counters, to install into every stack
    /// (clones share the registry cells).
    pub detector: DetectorMetrics,
}

impl SimTelemetry {
    /// Registers the world's series in `registry`. With a disabled
    /// registry all handles are inert.
    pub fn new(registry: &Registry) -> Self {
        let c = |name: &str, help: &'static str| registry.counter(name, help, Stability::Stable);
        let hist = |name: &str, help: &'static str| {
            registry.histogram(name, help, Stability::Stable, LATENCY_BUCKETS)
        };
        SimTelemetry {
            steps: c("canely_sim_steps_total", "Simulator scheduler steps"),
            timer_expiries: c(
                "canely_sim_timer_expiries_total",
                "Timer-wheel expiries delivered",
            ),
            bus_transactions: c(
                "canely_sim_bus_transactions_total",
                "Bus arbitration rounds resolved",
            ),
            lifecycle_events: c(
                "canely_sim_lifecycle_events_total",
                "Node lifecycle events (power-on, crash, restart, guardian)",
            ),
            phase_nanos: phase_family(
                registry,
                "canely_sim_phase_nanos_total",
                "Wall time in the simulator step loop, by phase",
                SIM_PHASES,
            ),
            detection_latency: hist(
                "canely_detection_latency_bittimes",
                "Crash-to-notification latency (bit-times)",
            ),
            view_change_latency: hist(
                "canely_view_change_latency_bittimes",
                "Crash-to-view-install latency (bit-times)",
            ),
            detector: DetectorMetrics {
                suspicions: c(
                    "canely_fd_suspicions_total",
                    "Suspicions raised by the failure detector",
                ),
                lifesigns: c(
                    "canely_fd_lifesigns_total",
                    "Explicit life-signs / heartbeats sent",
                ),
                probes: c("canely_fd_probes_total", "SWIM probes sent"),
            },
        }
    }

    /// Folds one simulator's drained step counters and wall-time
    /// profile into the registry.
    pub fn flush_sim(&self, stats: StepStats, profile: &PhaseReport) {
        self.steps.add(stats.steps);
        self.timer_expiries.add(stats.timer_expiries);
        self.bus_transactions.add(stats.bus_transactions);
        self.lifecycle_events.add(stats.lifecycle_events);
        for (counter, &nanos) in self.phase_nanos.iter().zip(profile.nanos()) {
            counter.add(nanos);
        }
    }

    /// Records measured latency samples (bit-times, as
    /// [`canely::obs::latency_samples`] returns them).
    pub fn record_latency(&self, detection: &[u64], view_change: &[u64]) {
        for &sample in detection {
            self.detection_latency.record(sample);
        }
        for &sample in view_change {
            self.view_change_latency.record(sample);
        }
    }
}

/// Every registry handle a campaign worker touches, pre-registered
/// once per worker so the run hot path never takes the registry lock:
/// the world's [`SimTelemetry`] plus the campaign and federation
/// counters.
///
/// [`RunTelemetry::disabled`] is the fully disabled telemetry: every
/// handle is inert and the profiler reads no clock, so un-instrumented
/// campaigns pay one branch per would-be bump.
pub struct RunTelemetry {
    /// The world's own series.
    pub(crate) sim: SimTelemetry,
    /// Runs executed.
    runs: Counter,
    /// Protocol events emitted across runs.
    events: Counter,
    /// Oracle violations across runs.
    violations: Counter,
    /// False suspicions (live node suspected) across runs.
    false_suspicions: Counter,
    /// Physical detector frames (ELS + ping) on the wire.
    detector_frames: Counter,
    /// Wall nanos per worker phase, indexed like [`RUN_PHASES`].
    run_phase_nanos: Vec<Counter>,
    /// Federation bridge-pump counters.
    pub(crate) fed: FedMetrics,
    /// The worker-side profiler over [`RUN_PHASES`].
    pub(crate) profiler: PhaseProfiler,
}

impl RunTelemetry {
    /// Fully disabled telemetry (every handle inert).
    pub fn disabled() -> Self {
        RunTelemetry::new(&Registry::disabled())
    }

    /// Registers every campaign metric in `registry` and returns the
    /// handle bundle. With a disabled registry all handles are inert.
    pub fn new(registry: &Registry) -> Self {
        let c = |name: &str, help: &'static str| registry.counter(name, help, Stability::Stable);
        let mut profiler = PhaseProfiler::new(RUN_PHASES);
        profiler.set_enabled(registry.enabled());
        RunTelemetry {
            sim: SimTelemetry::new(registry),
            runs: c("canely_campaign_runs_total", "Runs executed"),
            events: c(
                "canely_campaign_events_total",
                "Protocol events recorded across runs",
            ),
            violations: c(
                "canely_campaign_violations_total",
                "Invariant violations across runs",
            ),
            false_suspicions: c(
                "canely_campaign_false_suspicions_total",
                "Suspicions raised against live nodes",
            ),
            detector_frames: c(
                "canely_campaign_detector_frames_total",
                "Physical detector frames (ELS + ping) on the wire",
            ),
            run_phase_nanos: phase_family(
                registry,
                "canely_run_phase_nanos_total",
                "Wall time in the campaign worker outside the step loop, by phase",
                RUN_PHASES,
            ),
            fed: FedMetrics {
                quanta: c("canely_fed_pump_quanta_total", "Federation lockstep quanta"),
                relayed: c(
                    "canely_fed_relayed_frames_total",
                    "Bridge frames delivered across segments",
                ),
                blocked: c(
                    "canely_fed_blocked_frames_total",
                    "Bridge delivery attempts that failed (partition, block, dead relay)",
                ),
                elections: c(
                    "canely_fed_elections_total",
                    "Gateway promotions (standby to active)",
                ),
                rejoins: c(
                    "canely_fed_rejoins_total",
                    "Segment rejoins reaching the global stable cut",
                ),
                retry_queued: c(
                    "canely_fed_retry_queued_total",
                    "Bridge frames deferred into the retry queue",
                ),
                retry_delivered: c(
                    "canely_fed_retry_delivered_total",
                    "Retried bridge frames that eventually crossed",
                ),
                retry_dropped: c(
                    "canely_fed_retry_dropped_total",
                    "Bridge frames dropped from the retry path (budget or queue bound)",
                ),
                bridge_health: registry.gauge(
                    "canely_fed_bridge_health",
                    "Currently healthy bridge directions (last delivery succeeded)",
                    Stability::Volatile,
                ),
            },
            profiler,
        }
    }

    /// Whether any handle records (i.e. the registry was enabled).
    pub fn enabled(&self) -> bool {
        self.runs.enabled()
    }

    /// Drains the worker-side profiler into the registry and returns
    /// the report (callers may merge reports across workers).
    pub(crate) fn flush_run_phases(&mut self) -> PhaseReport {
        let report = self.profiler.take();
        for (counter, &nanos) in self.run_phase_nanos.iter().zip(report.nanos()) {
            counter.add(nanos);
        }
        report
    }

    /// Folds one judged run into the campaign totals.
    pub(crate) fn flush_outcome(&self, outcome: &RunOutcome) {
        self.runs.inc();
        self.events.add(outcome.events as u64);
        self.violations.add(outcome.violations.len() as u64);
        self.false_suspicions.add(outcome.false_suspicions);
        self.detector_frames.add(outcome.detector_frames);
        self.sim
            .record_latency(&outcome.detection, &outcome.view_change);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let tel = RunTelemetry::disabled();
        assert!(!tel.enabled());
        assert!(!tel.profiler.enabled());
        tel.runs.inc();
        assert_eq!(tel.runs.get(), 0);
    }

    #[test]
    fn enabled_telemetry_registers_the_full_metric_set() {
        let registry = Registry::new();
        let tel = RunTelemetry::new(&registry);
        assert!(tel.enabled());
        assert!(tel.profiler.enabled());
        let stable = registry.to_prometheus(false);
        for name in [
            "canely_campaign_runs_total",
            "canely_sim_steps_total",
            "canely_detection_latency_bittimes",
            "canely_fd_suspicions_total",
            "canely_fed_pump_quanta_total",
            "canely_fed_elections_total",
            "canely_fed_rejoins_total",
            "canely_fed_retry_queued_total",
            "canely_fed_retry_delivered_total",
            "canely_fed_retry_dropped_total",
        ] {
            assert!(stable.contains(name), "{name} missing from\n{stable}");
        }
        // Phase families are volatile: absent from the stable export,
        // present (one series per phase) in the full one.
        assert!(!stable.contains("canely_sim_phase_nanos_total"));
        assert!(!stable.contains("canely_fed_bridge_health"));
        let full = registry.to_prometheus(true);
        for phase in SIM_PHASES {
            assert!(full.contains(&format!("phase=\"{phase}\"")), "{full}");
        }
        for phase in RUN_PHASES {
            assert!(full.contains(&format!("phase=\"{phase}\"")), "{full}");
        }
    }

    #[test]
    fn handles_share_registry_cells() {
        let registry = Registry::new();
        let tel = RunTelemetry::new(&registry);
        tel.sim.detector.clone().suspicions.inc();
        tel.fed.clone().relayed.add(2);
        assert_eq!(tel.sim.detector.suspicions.get(), 1);
        assert_eq!(tel.fed.relayed.get(), 2);
    }
}
