//! Every metric and workload the ledger knows, by name. Output is
//! emitted by walking these tables, and a unit test holds them equal to
//! `BENCHMARK.json`, so a name cannot exist in one place only.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a number comes from (the `src` column of the README table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Timed loop of whole `canelyctl` invocations, tracing off.
    Timed,
    /// Stable registry counter from the traced run: repeats exactly.
    Stable,
    /// Volatile phase nanoseconds from the traced run's snapshot.
    Volatile,
    /// Benchmark-side span around public calls, in the probe pass.
    Probe,
    /// Simulated quantity read from the probe pass's captured trace
    /// (`tq summary` counts) or the run's own outputs: repeats exactly.
    Simulated,
    /// Derived from other rows (a ratio or a difference of timings).
    Derived,
    /// About the measurement itself.
    Harness,
}

impl Src {
    /// Same inputs, same commit ⇒ same value, bit for bit.
    pub fn exact(self) -> bool {
        matches!(self, Src::Stable | Src::Simulated)
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it is a regression (end-to-end metrics only).
    pub bound: f64,
    pub src: Src,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        src: Src::Timed,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, src: Src) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        src,
    }
}

use Better::{Higher, Lower};
use Src::{Derived, Harness, Probe, Simulated, Stable, Volatile};

/// Bound of every host-time metric: the largest the contract allows.
/// On the container the baseline was taken on, the machine itself
/// speeds up and slows down in spells that outlast a 20 s run: medians
/// of identical runs differ by up to 20 % (IQR ÷ median over ten runs:
/// 1.4–8.7 %), so a tighter bound would call noise a regression. The
/// exact work counters are what catch small changes; see README.md.
const TIMING_BOUND: f64 = 0.25;

/// End-to-end metrics defined, and never zero, on every workload: the
/// `end_to_end` list of `BENCHMARK.json`, printed by `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, TIMING_BOUND),
    e2e("wall_s", "s", Lower, TIMING_BOUND),
    e2e("wall_s_hi", "s", Lower, TIMING_BOUND),
    e2e("cpu_s", "s", Lower, TIMING_BOUND),
    e2e("runs_per_s", "runs/s", Higher, TIMING_BOUND),
    e2e("events_per_s", "events/s", Higher, TIMING_BOUND),
    e2e("sim_bt_per_s", "bt/s", Higher, TIMING_BOUND),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// End-to-end rows the full ledger prints in addition: one is defined
/// on a single workload, one is zero when all is well, two must repeat
/// exactly — none of which a bounded, never-zero, every-workload list
/// can hold. The exact pair is also in [`PER_LAYER`] under `canely.`.
pub const LEDGER_ONLY: &[Metric] = &[
    e2e("trace_mib_per_s", "MiB/s", Higher, TIMING_BOUND),
    e2e("failed_ops", "count", Lower, 0.0),
    Metric {
        src: Simulated,
        ..e2e("detection_bt_max", "bt", Lower, 0.0)
    },
    Metric {
        src: Simulated,
        ..e2e("view_change_bt_max", "bt", Lower, 0.0)
    },
];

/// Per-layer metrics, layer = crate name: the `per_layer` list of
/// `BENCHMARK.json`, printed by `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    layer("can-bus.transactions", "count", Lower, Stable),
    layer("can-bus.arbitration_ns", "ns", Lower, Volatile),
    layer("can-bus.ns_per_tx", "ns", Lower, Derived),
    layer("can-bus.resolve_ns.n4", "ns", Lower, Probe),
    layer("can-bus.resolve_ns.n32", "ns", Lower, Probe),
    layer("can-bus.resolve_faulty_ns.n4", "ns", Lower, Probe),
    layer("can-bus.busy_ppm", "ppm", Lower, Simulated),
    layer("can-bus.arb_losses", "count", Lower, Simulated),
    layer("can-controller.steps", "count", Lower, Stable),
    layer("can-controller.timer_expiries", "count", Lower, Stable),
    layer("can-controller.lifecycle_events", "count", Lower, Stable),
    layer("can-controller.sched_ns", "ns", Lower, Volatile),
    layer("can-controller.timer_ns", "ns", Lower, Volatile),
    layer("can-controller.lifecycle_ns", "ns", Lower, Volatile),
    layer("can-controller.ns_per_step", "ns", Lower, Derived),
    layer("can-controller.timers_armed", "count", Lower, Simulated),
    layer(
        "can-controller.timer_useful_ratio",
        "ratio",
        Higher,
        Simulated,
    ),
    layer("can-controller.timer_churn_ns", "ns", Lower, Probe),
    layer("canely.dispatch_ns", "ns", Lower, Volatile),
    layer("canely.dispatch_ns_per_tx", "ns", Lower, Derived),
    layer("canely.run_ns_per_tx.n8", "ns", Lower, Probe),
    layer("canely.run_ns_per_tx.n32", "ns", Lower, Probe),
    layer("canely.events", "count", Lower, Stable),
    layer("canely.events_per_tx", "ratio", Lower, Stable),
    layer("canely.timer_armed_share", "%", Lower, Simulated),
    layer("canely.obs_on_overhead_pct", "%", Lower, Probe),
    layer("canely.obs_export_mib_per_s", "MiB/s", Higher, Probe),
    layer("canely.fd_lifesigns", "count", Lower, Stable),
    layer("canely.fd_suspicions", "count", Lower, Stable),
    layer("canely.fd_probes", "count", Lower, Stable),
    layer("canely.detector_us.surveillance", "us", Lower, Probe),
    layer("canely.detector_us.swim", "us", Lower, Probe),
    layer("canely.detector_us.add-phi", "us", Lower, Probe),
    layer("canely.detection_bt_max", "bt", Lower, Simulated),
    layer("canely.view_change_bt_max", "bt", Lower, Simulated),
    layer("canely-federation.pump_quanta", "count", Lower, Stable),
    layer("canely-federation.relayed_frames", "count", Lower, Stable),
    layer("canely-federation.blocked_frames", "count", Lower, Stable),
    layer("canely-federation.retry_queued", "count", Lower, Stable),
    layer("canely-federation.retry_delivered", "count", Higher, Stable),
    layer("canely-federation.retry_dropped", "count", Lower, Stable),
    layer("canely-federation.elections", "count", Lower, Stable),
    layer("canely-federation.rejoins", "count", Lower, Stable),
    layer(
        "canely-federation.relay_success_ratio",
        "ratio",
        Higher,
        Stable,
    ),
    layer("canely-federation.run_ms.k1", "ms", Lower, Probe),
    layer("canely-federation.run_ms.k2", "ms", Lower, Probe),
    layer("canely-federation.run_ms.k4", "ms", Lower, Probe),
    layer("canely-federation.segment_overhead", "x", Lower, Derived),
    layer("canely-federation.unattributed_ns", "ns", Lower, Derived),
    layer("canely-campaign.runs", "count", Higher, Stable),
    layer("canely-campaign.violations", "count", Lower, Stable),
    layer("canely-campaign.setup_ns", "ns", Lower, Volatile),
    layer("canely-campaign.obs_emit_ns", "ns", Lower, Volatile),
    layer("canely-campaign.oracle_ns", "ns", Lower, Volatile),
    layer("canely-campaign.oracle_ns_per_event", "ns", Lower, Derived),
    layer("canely-campaign.parse_us", "us", Lower, Probe),
    layer("canely-campaign.expand_us_per_run", "us", Lower, Probe),
    layer("canely-campaign.execute_us", "us", Lower, Probe),
    layer("canely-campaign.capture_overhead_pct", "%", Lower, Probe),
    layer("canely-campaign.runner_speedup_2w", "x", Higher, Probe),
    layer("canely-trace.bytes", "B", Lower, Simulated),
    layer("canely-trace.lines", "count", Lower, Simulated),
    layer("canely-trace.parse_mib_per_s", "MiB/s", Higher, Probe),
    layer("canely-trace.chain_us", "us", Lower, Probe),
    layer("canely-trace.phases_us", "us", Lower, Probe),
    layer("canely-trace.summary_ms", "ms", Lower, Probe),
    layer("canely-trace.chrome_ms", "ms", Lower, Probe),
    layer("canely-trace.reexport_ms", "ms", Lower, Probe),
    layer("canely-metrics.overhead_pct", "%", Lower, Derived),
    layer("canely-metrics.exposition_us", "us", Lower, Probe),
    layer("canely-metrics.bump_ns", "ns", Lower, Probe),
    layer("cli.spawn_ms", "ms", Lower, Probe),
    layer("cli.overhead_ms", "ms", Lower, Derived),
    layer("cli.summary_bytes", "B", Lower, Simulated),
    layer("harness.samples", "count", Higher, Harness),
    layer("harness.hi_pct", "%", Higher, Harness),
    layer("harness.spread_pct", "%", Lower, Harness),
    layer("harness.unattributed_pct", "%", Lower, Harness),
    layer("harness.nproc", "count", Higher, Harness),
    layer("harness.loadavg", "ratio", Lower, Harness),
];

/// Looks up any metric the ledger prints.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(LEDGER_ONLY)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(LEDGER_ONLY).chain(PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}: {}", m.name, m.unit);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in workloads::ALL {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = find("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` and these tables name the same things, with
    /// the same unit, direction and bound — in both directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let check = |key: &str, table: &[Metric], bounded: bool| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    bounded.then_some(m.bound),
                    "{}",
                    m.name
                );
                assert_eq!(entry.as_obj().unwrap().len(), if bounded { 4 } else { 3 });
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);

        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), workloads::ALL.len());
        for (entry, w) in listed.iter().zip(workloads::ALL) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
        }
    }
}
