//! Layer probes: in-process calls into each crate's public functions,
//! every call wrapped in a benchmark-side span. Inputs are built from
//! `.campaign` text and CLI flags; only entry points the CLI or the
//! existing Criterion benches already call are used, so the probes
//! survive the refactors the roadmap plans (nothing here names the
//! world arena or a histogram type).
//!
//! Probes do not depend on the workload: they price the layers, the
//! traced run says how much each workload uses them.

use crate::child;
use crate::names;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{capture_flags, federation_spec, matrix_spec};
use can_bus::{BusConfig, FaultPlan, Medium};
use can_controller::{Simulator, TimerWheel};
use can_types::{BitTime, Frame, Mid, MsgType, NodeId, NodeSet, Payload};
use canely::obs::ObsLog;
use canely::{CanelyConfig, CanelyStack, TrafficConfig};
use canely_campaign::{execute, run_campaign, run_campaign_with, CampaignOptions, CampaignSpec};
use canely_metrics::{Registry, Stability};
use canely_trace::{chain_for, chrome_trace, PhaseProfile, TraceModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest repetitions of a probe; its value is the median of them.
const MIN_REPS: usize = 3;
/// Most repetitions: bounds the span list for nanosecond-scale probes.
const MAX_REPS: usize = 400;

const MIB: f64 = 1024.0 * 1024.0;

/// Probe values by metric name, plus how many probe calls ran.
pub struct Probed {
    pub values: BTreeMap<&'static str, f64>,
    pub calls: u64,
}

struct Bench<'a> {
    rec: &'a mut Recorder,
    /// Time each probe may repeat for, beyond [`MIN_REPS`].
    slice: Duration,
    calls: u64,
}

impl Bench<'_> {
    /// Repeats `set_up` (off the clock) then `run` (inside a span
    /// named `name`) and returns the median span duration in
    /// nanoseconds.
    fn measure_with<T, R>(
        &mut self,
        name: &str,
        mut set_up: impl FnMut() -> T,
        mut run: impl FnMut(T) -> R,
    ) -> f64 {
        let started = Instant::now();
        let mut nanos = Vec::new();
        while nanos.len() < MIN_REPS || (started.elapsed() < self.slice && nanos.len() < MAX_REPS) {
            let input = set_up();
            let (result, ns) = self.rec.time(name, || run(input));
            black_box(result);
            nanos.push(ns as f64);
            self.calls += 1;
        }
        median(&nanos)
    }

    fn measure<R>(&mut self, name: &str, mut run: impl FnMut() -> R) -> f64 {
        self.measure_with(name, || (), |()| run())
    }

    /// Alternates two variants so that drift hits both alike. Returns
    /// the first variant's median nanoseconds and the median of the
    /// per-pair differences (second − first), which a slow spell
    /// spanning a few pairs does not move.
    fn measure_pair<R>(
        &mut self,
        name: &str,
        labels: [&str; 2],
        mut run: impl FnMut(usize) -> R,
    ) -> (f64, f64) {
        let started = Instant::now();
        let mut base = Vec::new();
        let mut extra = Vec::new();
        while base.len() < MIN_REPS || (started.elapsed() < 2 * self.slice && base.len() < MAX_REPS)
        {
            let mut pair = [0.0; 2];
            for (which, label) in labels.iter().enumerate() {
                let (result, ns) = self.rec.time(&format!("{name}:{label}"), || run(which));
                black_box(result);
                pair[which] = ns as f64;
                self.calls += 1;
            }
            base.push(pair[0]);
            extra.push(pair[1] - pair[0]);
        }
        (median(&base), median(&extra))
    }
}

/// `n` nodes offer a frame each, the bus resolves until drained, 100
/// rounds. Returns the transactions resolved.
fn resolve_rounds(n: u8, faults: &mut FaultPlan) -> u64 {
    let mut medium = Medium::new(BusConfig::default());
    let alive = NodeSet::first_n(usize::from(n));
    let mut now = BitTime::ZERO;
    let mut transactions = 0;
    for round in 0..100u16 {
        for node in 0..n {
            let mid = Mid::new(MsgType::AppData, round, NodeId::new(node));
            medium.offer(now, NodeId::new(node), Frame::data(mid, Payload::EMPTY));
        }
        while let Some(tx) = medium.resolve(now, alive, faults) {
            now = tx.bus_free;
            transactions += 1;
        }
    }
    transactions
}

/// The crash-episode world of the `trace-query` capture, built the way
/// `canelyctl trace` and the Criterion `sim` bench build it: `n`
/// traffic-loaded CANELy stacks, one crash, optionally observed.
fn world(n: u8, traffic: BitTime, log: Option<&ObsLog>) -> Simulator {
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..n {
        let mut stack = CanelyStack::new(config.clone()).with_traffic(
            TrafficConfig::periodic(traffic, 8).with_offset(BitTime::new(u64::from(id) * 131 + 17)),
        );
        if let Some(log) = log {
            stack = stack.with_obs(log.sink());
        }
        sim.add_node(NodeId::new(id), stack);
    }
    sim.schedule_crash(
        NodeId::new(n - 1),
        config.join_wait + config.membership_cycle * 2,
    );
    sim
}

const WORLD_HORIZON: BitTime = BitTime::new(400_000);

fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(text).map_err(|e| format!("probe spec does not parse: {e}"))
}

/// Runs every probe. `dir` receives the probe pass's generated files;
/// `budget` is shared evenly between the probes.
pub fn run_all(
    rec: &mut Recorder,
    canelyctl: &Path,
    dir: &Path,
    seed: u64,
    budget: Duration,
) -> Result<Probed, String> {
    let probes = names::PER_LAYER
        .iter()
        .filter(|m| m.src == names::Src::Probe)
        .count();
    let mut b = Bench {
        rec,
        slice: budget / probes as u32,
        calls: 0,
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;

    // ---- can-bus -------------------------------------------------
    for (name, n, faulty) in [
        ("can-bus.resolve_ns.n4", 4u8, false),
        ("can-bus.resolve_ns.n32", 32, false),
        ("can-bus.resolve_faulty_ns.n4", 4, true),
    ] {
        let plan = || {
            if faulty {
                // The matrix workloads' non-zero rates.
                FaultPlan::seeded(1000 * seed)
                    .with_consistent_rate(0.01)
                    .with_inconsistent_rate(0.005)
            } else {
                FaultPlan::none()
            }
        };
        let transactions = resolve_rounds(n, &mut plan());
        let ns = b.measure_with(name, plan, |mut faults| resolve_rounds(n, &mut faults));
        v.insert(name, ns / transactions as f64);
    }

    // ---- can-controller -------------------------------------------
    const LIVE: u64 = 1024;
    const PAIRS: u64 = 4096;
    let ns = b.measure_with(
        "can-controller.timer_churn_ns",
        || {
            let mut wheel = TimerWheel::new();
            for i in 0..LIVE {
                wheel.start(NodeId::new((i % 32) as u8), BitTime::new(1_000_000 + i), i);
            }
            wheel
        },
        |mut wheel| {
            // Re-arm churn: the cancelled entries sort before the live
            // ones, so the closing `next_deadline` pays for discarding
            // them, as the simulator's step loop does.
            for i in 0..PAIRS {
                let id = wheel.start(NodeId::new((i % 32) as u8), BitTime::new(1_000 + i), i);
                wheel.cancel(id);
            }
            wheel.next_deadline()
        },
    );
    v.insert("can-controller.timer_churn_ns", ns / PAIRS as f64);

    // ---- canely (protocol stack on the simulator) -------------------
    for (name, n, traffic) in [
        ("canely.run_ns_per_tx.n8", 8u8, 2_000u64),
        // 32 nodes saturate the bus at 2 ms; 12 ms is fed-4x32's load.
        ("canely.run_ns_per_tx.n32", 32, 12_000),
    ] {
        let mut transactions = 0;
        let ns = b.measure_with(
            name,
            || world(n, BitTime::new(traffic), None),
            |mut sim| {
                sim.run_until(WORLD_HORIZON);
                transactions = sim.trace().len();
            },
        );
        v.insert(name, ns / transactions as f64);
    }
    let mut episode = None;
    let (off, extra) = b.measure_pair("canely.obs_on_overhead_pct", ["off", "on"], |which| {
        let log = ObsLog::new();
        let mut sim = world(8, BitTime::new(2_000), (which == 1).then_some(&log));
        sim.run_until(WORLD_HORIZON);
        if which == 1 {
            episode = Some((log, sim));
        }
    });
    v.insert("canely.obs_on_overhead_pct", 100.0 * extra / off);
    let (log, sim) = episode.expect("the observed variant ran");
    let exported = log.export_jsonl(Some(sim.trace())).len();
    let ns = b.measure("canely.obs_export_mib_per_s", || {
        log.export_jsonl(Some(sim.trace())).len()
    });
    v.insert(
        "canely.obs_export_mib_per_s",
        exported as f64 / MIB / (ns / 1e9),
    );

    for (name, backend) in [
        ("canely.detector_us.surveillance", "surveillance"),
        ("canely.detector_us.swim", "swim"),
        ("canely.detector_us.add-phi", "add-phi"),
    ] {
        // The detector never enters the schedule key: all three
        // backends face the identical fault schedule.
        let text = format!(
            "name probe-detector\nnodes 16\ntm 30ms\nth 5ms\nseeds {s}..{e}\ncrash-budget 1\n\
             detector {backend}\nuntil 300ms\nsettle 150ms\n",
            s = 1000 * seed,
            e = 1000 * seed + 1
        );
        let run = parse_spec(&text)?.expand().remove(0);
        let ns = b.measure(name, || execute(&run, false).events);
        v.insert(name, ns / 1e3);
    }

    // ---- canely-federation -------------------------------------------
    let mut fed_ms = [0.0; 3];
    for (slot, (name, k)) in [
        ("canely-federation.run_ms.k1", 1u8),
        ("canely-federation.run_ms.k2", 2),
        ("canely-federation.run_ms.k4", 4),
    ]
    .into_iter()
    .enumerate()
    {
        // The last run of the expansion carries every federation fault
        // the segment count admits (none at k = 1).
        let run = parse_spec(&federation_spec("probe-fed", seed, k))?
            .expand()
            .pop()
            .ok_or("federation probe spec expands to nothing")?;
        let ns = b.measure(name, || execute(&run, false).events);
        fed_ms[slot] = ns / 1e6;
        v.insert(name, fed_ms[slot]);
    }
    v.insert(
        "canely-federation.segment_overhead",
        fed_ms[2] / (4.0 * fed_ms[0]),
    );

    // ---- canely-campaign ---------------------------------------------
    let matrix_text = matrix_spec("probe-matrix", seed, 32);
    let ns = b.measure("canely-campaign.parse_us", || {
        CampaignSpec::parse(&matrix_text).map(|s| s.nodes.len())
    });
    v.insert("canely-campaign.parse_us", ns / 1e3);
    let matrix = parse_spec(&matrix_text)?;
    let runs = matrix.run_count();
    let ns = b.measure("canely-campaign.expand_us_per_run", || {
        matrix.expand().len()
    });
    v.insert("canely-campaign.expand_us_per_run", ns / 1e3 / runs as f64);
    // The last combination has every fault dimension switched on.
    let run = matrix
        .expand()
        .pop()
        .ok_or("matrix probe spec expands to nothing")?;
    let (plain, extra) = b.measure_pair(
        "canely-campaign.capture_overhead_pct",
        ["plain", "capture"],
        |which| execute(&run, which == 1).events,
    );
    v.insert(
        "canely-campaign.capture_overhead_pct",
        100.0 * extra / plain,
    );
    let ns = b.measure("canely-campaign.execute_us", || execute(&run, false).events);
    v.insert("canely-campaign.execute_us", ns / 1e3);
    let smoke_text = matrix_spec("probe-smoke", seed, 4);
    let smoke = parse_spec(&smoke_text)?;
    let workers = [1, crate::nproc().min(2)];
    let (one, extra) = b.measure_pair("canely-campaign.runner_speedup_2w", ["w1", "w2"], |which| {
        run_campaign(&smoke, workers[which]).report.runs
    });
    v.insert("canely-campaign.runner_speedup_2w", one / (one + extra));

    // ---- canely-trace ---------------------------------------------------
    // The document is the `trace-query` capture for this seed, made by
    // the program itself.
    let capture = dir.join("capture.jsonl");
    let mut args = vec!["trace".to_string()];
    args.extend(capture_flags(seed));
    args.push("--jsonl".into());
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (cost, _) = b.rec.time("cli:trace --jsonl", || {
        child::run(canelyctl, &args, &capture, &dir.join("capture.stderr"))
    });
    b.calls += 1;
    if !cost?.ok {
        return Err("probe capture: canelyctl trace exited non-zero".into());
    }
    let doc = std::fs::read_to_string(&capture)
        .map_err(|e| format!("cannot read `{}`: {e}", capture.display()))?;
    v.insert("canely-trace.bytes", doc.len() as f64);
    v.insert("canely-trace.lines", doc.lines().count() as f64);
    let ns = b.measure("canely-trace.parse_mib_per_s", || {
        TraceModel::parse(&doc).map(|m| m.lines.len())
    });
    v.insert(
        "canely-trace.parse_mib_per_s",
        doc.len() as f64 / MIB / (ns / 1e9),
    );
    let model =
        TraceModel::parse(&doc).map_err(|e| format!("probe capture does not parse: {e}"))?;
    let ns = b.measure("canely-trace.chain_us", || {
        chain_for(&model, 7, None).map(|c| c.steps.len())
    });
    v.insert("canely-trace.chain_us", ns / 1e3);
    let ns = b.measure("canely-trace.phases_us", || {
        PhaseProfile::of(&model).detections.len()
    });
    v.insert("canely-trace.phases_us", ns / 1e3);
    let ns = b.measure("canely-trace.summary_ms", || {
        canely_trace::query::summary(&model).len()
    });
    v.insert("canely-trace.summary_ms", ns / 1e6);
    let ns = b.measure("canely-trace.chrome_ms", || chrome_trace(&model).len());
    v.insert("canely-trace.chrome_ms", ns / 1e6);
    let ns = b.measure("canely-trace.reexport_ms", || model.to_jsonl().len());
    v.insert("canely-trace.reexport_ms", ns / 1e6);
    capture_counts(&canely_trace::query::summary(&model), &mut v)?;

    // ---- canely-metrics --------------------------------------------------
    let options = CampaignOptions {
        workers: 1,
        registry: Registry::new(),
        progress: None,
    };
    black_box(run_campaign_with(&smoke, &options).report.runs);
    let ns = b.measure("canely-metrics.exposition_us", || {
        options.registry.to_json(true).len()
    });
    v.insert("canely-metrics.exposition_us", ns / 1e3);
    const BUMPS: u64 = 1 << 16;
    let counter = options
        .registry
        .counter("ledger_probe_total", "probe", Stability::Stable);
    let ns = b.measure("canely-metrics.bump_ns", || {
        for i in 0..BUMPS {
            counter.add(black_box(i & 1));
        }
        counter.get()
    });
    v.insert("canely-metrics.bump_ns", ns / BUMPS as f64);

    // ---- cli ---------------------------------------------------------------
    let sink = dir.join("cli.out");
    let err = dir.join("cli.stderr");
    let ns = b.measure("cli.spawn_ms", || {
        child::run(canelyctl, &["help"], &sink, &err).map(|c| c.ok)
    });
    v.insert("cli.spawn_ms", ns / 1e6);
    // Small, so that the process's own cost is not lost in the noise
    // of the work both sides share.
    let tiny_text = matrix_spec("probe-tiny", seed, 1);
    let spec_path = dir.join("tiny.campaign");
    std::fs::write(&spec_path, &tiny_text)
        .map_err(|e| format!("cannot write `{}`: {e}", spec_path.display()))?;
    let spec_arg = spec_path.to_string_lossy().into_owned();
    let cli_args = [
        "campaign",
        "run",
        "--spec",
        &spec_arg,
        "--workers",
        "1",
        "--json",
    ];
    let (_, extra) = b.measure_pair("cli.overhead_ms", ["in-process", "process"], |which| {
        if which == 1 {
            child::run(canelyctl, &cli_args, &sink, &err).map_or(0, |c| usize::from(c.ok))
        } else {
            // What the CLI does between argv and stdout, minus the process.
            let text = std::fs::read_to_string(&spec_path).unwrap_or_default();
            CampaignSpec::parse_named(&spec_arg, &text)
                .map_or(0, |spec| run_campaign(&spec, 1).report.to_json().len())
        }
    });
    v.insert("cli.overhead_ms", extra / 1e6);

    Ok(Probed {
        values: v,
        calls: b.calls,
    })
}

/// Simulated counts of the capture, read from `tq summary`'s text:
/// event kinds, bus occupancy and arbitration losses. They repeat
/// exactly; a change in any of them is a behaviour change.
fn capture_counts(summary: &str, v: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let words = |prefix: &str| -> Result<Vec<f64>, String> {
        let line = summary
            .lines()
            .map(str::trim_start)
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("`tq summary` has no `{prefix}` line"))?;
        Ok(line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect())
    };
    let first = |prefix: &str| -> Result<f64, String> {
        words(prefix)?
            .first()
            .copied()
            .ok_or_else(|| format!("`tq summary` line `{prefix}` has no number"))
    };
    let events = first("protocol events:")?;
    let armed = first("timer.armed")?;
    let expired = first("timer.expired")?;
    let busy = words("bus busy:")?;
    let queueing = words("queueing:")?;
    let (Some(&busy_bt), Some(&window_bt), Some(&losses)) =
        (busy.first(), busy.get(1), queueing.get(1))
    else {
        return Err("`tq summary` bus lines have an unexpected shape".into());
    };
    v.insert("can-bus.busy_ppm", (1e6 * busy_bt / window_bt).round());
    v.insert("can-bus.arb_losses", losses);
    v.insert("can-controller.timers_armed", armed);
    v.insert("can-controller.timer_useful_ratio", expired / armed);
    v.insert("canely.timer_armed_share", 100.0 * armed / events);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_counts_read_the_summary_text() {
        let summary = "trace summary\n  protocol events: 36836\n    fd.suspect       1\n    \
            timer.armed      35953\n    timer.expired    348\n  bus: 5368 transactions, 5342 delivered, 26 errored\n  \
            bus busy: 718962 of 1498954 bit-times (47%)\n  queueing: 72522 bit-times total delay, 146 arbitration losses\n";
        let mut v = BTreeMap::new();
        capture_counts(summary, &mut v).unwrap();
        assert_eq!(v["can-bus.busy_ppm"], 479_642.0);
        assert_eq!(v["can-bus.arb_losses"], 146.0);
        assert_eq!(v["can-controller.timers_armed"], 35_953.0);
        assert!((v["can-controller.timer_useful_ratio"] - 348.0 / 35_953.0).abs() < 1e-12);
        assert!((v["canely.timer_armed_share"] - 97.603).abs() < 1e-3);
        assert!(capture_counts("trace summary\n", &mut v).is_err());
    }

    #[test]
    fn resolve_rounds_drains_every_offer_without_faults() {
        assert_eq!(resolve_rounds(4, &mut FaultPlan::none()), 400);
        assert_eq!(resolve_rounds(32, &mut FaultPlan::none()), 3200);
    }
}
