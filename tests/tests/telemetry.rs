//! The live telemetry plane, end to end: stable exports are
//! byte-identical for any worker count, progress streaming changes no
//! summary byte, and the self-profiler accounts for (nearly) all of a
//! campaign's wall time.

use can_controller::SIM_PHASES;
use can_types::BitTime;
use canely_campaign::{
    run_campaign, run_campaign_with, CampaignOptions, CampaignSpec, ProgressOptions, ProgressSink,
    RUN_PHASES,
};
use canely_metrics::{Registry, Stability};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The 64-run scaling matrix of the `sim` bench: crash budgets ×
/// omission rates × 16 seeds.
fn large_spec() -> CampaignSpec {
    CampaignSpec {
        name: "telemetry".into(),
        seeds: (0, 16),
        crash_budgets: vec![0, 1],
        consistent_rates: vec![0.0, 0.01],
        until: BitTime::new(200_000),
        settle: BitTime::new(100_000),
        ..CampaignSpec::default()
    }
}

fn options(workers: usize, registry: &Registry) -> CampaignOptions {
    CampaignOptions {
        workers,
        registry: registry.clone(),
        progress: None,
    }
}

#[test]
fn stable_exports_are_byte_identical_across_worker_counts() {
    let spec = large_spec();
    assert!(spec.expand().len() >= 64, "matrix must be large");
    let mut exports = Vec::new();
    for workers in [1usize, 8] {
        let registry = Registry::new();
        let result = run_campaign_with(&spec, &options(workers, &registry));
        assert!(result.report.clean(), "{}", result.report.render());
        exports.push((
            workers,
            result.report.to_json(),
            registry.to_prometheus(false),
            registry.to_json(false),
        ));
    }
    let (_, ref json1, ref prom1, ref reg_json1) = exports[0];
    for (workers, json, prom, reg_json) in &exports[1..] {
        assert_eq!(json, json1, "summary diverged at {workers} workers");
        assert_eq!(
            prom, prom1,
            "stable Prometheus export diverged at {workers} workers"
        );
        assert_eq!(
            reg_json, reg_json1,
            "stable JSON export diverged at {workers} workers"
        );
    }
    // The stable export carries real totals and no wall-clock series.
    assert!(prom1.contains("canely_campaign_runs_total 64"), "{prom1}");
    assert!(prom1.contains("canely_sim_steps_total"), "{prom1}");
    assert!(
        prom1.contains("canely_detection_latency_bittimes_bucket"),
        "{prom1}"
    );
    assert!(!prom1.contains("phase_nanos"), "{prom1}");
}

#[test]
fn progress_streaming_changes_no_summary_byte() {
    let spec = large_spec();
    let baseline = run_campaign(&spec, 1).report.to_json();
    for workers in [1usize, 8] {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let options = CampaignOptions {
            workers,
            registry: Registry::new(),
            progress: Some(ProgressOptions {
                interval: Duration::from_millis(50),
                metrics_json: true,
                sink: ProgressSink::Collect(Arc::clone(&lines)),
            }),
        };
        let result = run_campaign_with(&spec, &options);
        assert_eq!(
            result.report.to_json(),
            baseline,
            "progress at {workers} workers perturbed the summary"
        );
        let lines = lines.lock().unwrap();
        let progress: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("progress:"))
            .collect();
        assert!(
            !progress.is_empty(),
            "no progress lines at {workers} workers"
        );
        let last = progress.last().unwrap();
        assert!(last.contains("[done]"), "{last}");
        assert!(last.contains("64/64 runs"), "{last}");
        assert!(last.contains("violations 0"), "{last}");
        assert!(last.contains(&format!("{workers} workers")), "{last}");
        // --metrics-json interleaves registry snapshots.
        assert!(
            lines.iter().any(|l| l.starts_with("{\"metrics\":[")),
            "no registry snapshots were streamed"
        );
    }
}

#[test]
fn profiler_accounts_for_the_campaign_wall_time() {
    let spec = large_spec();
    let registry = Registry::new();
    let started = Instant::now();
    let result = run_campaign_with(&spec, &options(1, &registry));
    let wall = started.elapsed().as_nanos() as u64;
    assert!(result.report.clean());

    // Re-attaching by name reads the phase counters back.
    let phase_nanos: u64 = SIM_PHASES
        .iter()
        .map(|p| ("canely_sim_phase_nanos_total", *p))
        .chain(
            RUN_PHASES
                .iter()
                .map(|p| ("canely_run_phase_nanos_total", *p)),
        )
        .map(|(base, phase)| {
            registry
                .counter(
                    &format!("{base}{{phase=\"{phase}\"}}"),
                    "",
                    Stability::Volatile,
                )
                .get()
        })
        .sum();
    assert!(phase_nanos > 0);
    assert!(
        phase_nanos <= wall,
        "profiled {phase_nanos} ns of {wall} ns"
    );
    assert!(
        phase_nanos as f64 >= 0.9 * wall as f64,
        "named phases cover {phase_nanos} ns of {wall} ns wall \
         ({:.1}% < 90%)",
        100.0 * phase_nanos as f64 / wall as f64
    );
}

#[test]
fn federated_runs_feed_the_federation_counters() {
    let spec = CampaignSpec::parse(
        "name fed\nnodes 4\ntm 30ms\nseeds 0..1\ncrash-budget 1\nsegments 2\n\
         until 400ms\nsettle 180ms\n",
    )
    .unwrap();
    let registry = Registry::new();
    let result = run_campaign_with(&spec, &options(1, &registry));
    assert!(result.report.clean(), "{}", result.report.render());
    let quanta = registry
        .counter("canely_fed_pump_quanta_total", "", Stability::Stable)
        .get();
    let relayed = registry
        .counter("canely_fed_relayed_frames_total", "", Stability::Stable)
        .get();
    assert!(quanta > 0, "the bridge pump must advance quanta");
    assert!(relayed > 0, "digest gossip must cross the bridge");
}

#[test]
fn plain_runs_leave_every_federation_counter_at_zero() {
    // A plain run is a one-segment world: no bridge, so no quantum is
    // pumped, nothing relayed, nobody elected.
    let registry = Registry::new();
    let result = run_campaign_with(&large_spec(), &options(2, &registry));
    assert!(result.report.clean(), "{}", result.report.render());
    let export = registry.to_prometheus(true);
    let fed: Vec<&str> = export
        .lines()
        .filter(|line| line.starts_with("canely_fed_"))
        .collect();
    assert!(fed.len() >= 9, "federation series missing from\n{export}");
    for line in fed {
        assert!(line.ends_with(" 0"), "{line}");
    }
}
