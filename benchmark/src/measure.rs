//! The two procedures a workload goes through: the *timed* loop of
//! whole `canelyctl` invocations with tracing off (end-to-end rows),
//! and the *traced* run plus probe pass (per-layer rows).
//!
//! Both are closed loops with one client: the next invocation starts
//! when the previous one has exited, one child process at a time, one
//! worker thread in the child.

use crate::child::{self, Cost};
use crate::names;
use crate::probes;
use crate::snapshot::{self, Snapshot};
use crate::spans::Recorder;
use crate::stats::{self, median};
use crate::workloads::{parse_pinned, render_pinned, Ctx, Facts, Variant, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run stops taking samples here whatever `--seconds` says, so that
/// it always ends well inside the caller's 180 s limit.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Share of `--seconds` the traced run spends on paired invocations;
/// the probe pass gets [`PROBE_SHARE`].
const PAIR_SHARE: f64 = 0.35;
const PROBE_SHARE: f64 = 0.55;
/// Fewest untraced/traced pairs a traced run takes.
const MIN_PAIRS: usize = 3;

const SIM_PHASES: [&str; 5] = [
    "sched",
    "lifecycle",
    "timer-expiry",
    "bus-arbitration",
    "protocol-dispatch",
];
const RUN_PHASES: [&str; 3] = ["world-setup", "obs-emit", "oracle"];
const SIM_FAMILY: &str = "canely_sim_phase_nanos_total";
const RUN_FAMILY: &str = "canely_run_phase_nanos_total";

/// What every procedure needs to know.
pub struct Config {
    pub canelyctl: PathBuf,
    /// `benchmark/out`: everything the benchmark writes goes below it.
    pub out: PathBuf,
    /// `benchmark/expected/digests.txt`.
    pub pinned: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Rewrite the pinned digests from this run instead of checking.
    pub pin: bool,
}

impl Config {
    fn ctx(&self, workload: &Workload) -> Ctx<'_> {
        Ctx {
            canelyctl: &self.canelyctl,
            dir: self.out.join(workload.name),
            seed: self.seed,
        }
    }
}

/// Outcome counters shared by both procedures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Why, one line each.
    pub notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Samples of the timed loop.
pub struct Timed {
    pub tally: Tally,
    pub setups: Vec<f64>,
    /// One per timed operation.
    pub costs: Vec<Cost>,
    pub facts: Facts,
}

/// Generates the inputs, runs one untimed operation and verifies it.
fn set_up(
    workload: &Workload,
    ctx: &Ctx<'_>,
    variant: Variant,
    rec: Option<&mut Recorder>,
) -> Result<Facts, String> {
    workload.generate(ctx)?;
    let pass = workload.run(ctx, variant, rec)?;
    workload.verify(ctx, &pass)
}

/// Holds the default seed's outputs to the checked-in digests (or
/// rewrites those with `--pin`). Other seeds have no pinned outputs;
/// they are checked for self-consistency only.
fn check_pinned(
    cfg: &Config,
    workload: &Workload,
    facts: &Facts,
    tally: &mut Tally,
) -> Result<(), String> {
    if cfg.seed != 0 {
        return Ok(());
    }
    let text = std::fs::read_to_string(&cfg.pinned).unwrap_or_default();
    if cfg.pin {
        let mut kept: String = text
            .lines()
            .filter(|l| l.split_whitespace().next() != Some(workload.name))
            .map(|l| format!("{l}\n"))
            .collect();
        kept.push_str(&render_pinned(workload.name, &facts.artifacts));
        return std::fs::write(&cfg.pinned, kept)
            .map_err(|e| format!("cannot write `{}`: {e}", cfg.pinned.display()));
    }
    let pinned = parse_pinned(&text, workload.name);
    let actual: Vec<(String, u64, u64)> = facts
        .artifacts
        .iter()
        .map(|a| (a.name.to_string(), a.digest, a.bytes))
        .collect();
    tally.check(pinned == actual, || {
        format!(
            "{}: outputs at seed 0 differ from `{}`",
            workload.name,
            cfg.pinned.display()
        )
    });
    Ok(())
}

/// The timed loop: [`SETUPS`] set-ups (each generates the inputs and
/// runs one verified, untimed operation), then operations back to back
/// for `--seconds` and at least [`stats::MIN_SAMPLES`] of them, each
/// held to the first one's outputs; campaigns are finally re-run at
/// two workers, which must not change a byte.
pub fn timed(cfg: &Config, workload: &Workload) -> Result<Timed, String> {
    let ctx = cfg.ctx(workload);
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut facts: Option<Facts> = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let fresh = set_up(workload, &ctx, Variant::Timed, None)?;
        setups.push(started.elapsed().as_secs_f64());
        match &facts {
            None => {
                tally.attempted += 1;
                facts = Some(fresh);
            }
            Some(first) => tally.check(first.artifacts == fresh.artifacts, || {
                format!(
                    "{}: a set-up run's outputs differ from the first",
                    workload.name
                )
            }),
        }
    }
    let facts = facts.expect("SETUPS > 0");
    check_pinned(cfg, workload, &facts, &mut tally)?;

    let mut costs = Vec::new();
    let started = Instant::now();
    while (costs.len() < stats::MIN_SAMPLES || started.elapsed().as_secs_f64() < cfg.seconds)
        && started.elapsed() < HARD_CAP
    {
        let pass = workload.run(&ctx, Variant::Timed, None)?;
        costs.push(pass.cost);
        let n = costs.len();
        // A child's `ru_maxrss` is never below the harness's own peak
        // (see `child::Cost`); if it does not clear it, the reading
        // says nothing about the child.
        let own = child::own_peak_rss_kib()?;
        if pass.cost.maxrss_kib <= own {
            return Err(format!(
                "{}: the child's peak RSS ({} KiB) is masked by the harness's own ({own} KiB)",
                workload.name, pass.cost.maxrss_kib
            ));
        }
        tally.check(Workload::reproduces(&pass, &facts), || {
            format!(
                "{}: timed operation {n} failed or changed its output",
                workload.name
            )
        });
    }
    if workload.is_campaign() {
        let pass = workload.run(&ctx, Variant::TwoWorkers, None)?;
        tally.check(Workload::reproduces(&pass, &facts), || {
            format!("{}: the summary differs at two workers", workload.name)
        });
    }
    Ok(Timed {
        tally,
        setups,
        costs,
        facts,
    })
}

impl Timed {
    fn per_op(&self, of: impl Fn(&Cost) -> f64) -> Vec<f64> {
        self.costs.iter().map(of).collect()
    }

    fn walls(&self) -> Vec<f64> {
        self.per_op(|c| c.wall_s)
    }

    /// Work one operation does, for the metrics that are a rate.
    fn work(&self, workload: &Workload, name: &str) -> Option<f64> {
        match name {
            "runs_per_s" => Some(workload.sim_runs() as f64),
            "events_per_s" => Some(self.facts.events as f64),
            "sim_bt_per_s" => Some(workload.sim_bit_times() as f64),
            "trace_mib_per_s" if self.facts.trace_bytes > 0 => {
                Some(self.facts.trace_bytes as f64 / (1024.0 * 1024.0))
            }
            _ => None,
        }
    }

    /// Per-operation samples of a metric, where it has them.
    pub fn samples(&self, workload: &Workload, name: &str) -> Option<Vec<f64>> {
        match name {
            "setup_s" => Some(self.setups.clone()),
            "wall_s" => Some(self.walls()),
            "cpu_s" => Some(self.per_op(|c| c.cpu_s)),
            "peak_rss_mib" => Some(self.per_op(|c| c.maxrss_kib as f64 / 1024.0)),
            _ => {
                let work = self.work(workload, name)?;
                Some(self.per_op(|c| work / c.wall_s))
            }
        }
    }

    /// The value reported for an end-to-end metric; `None` is `n/a`.
    pub fn value(&self, workload: &Workload, name: &str) -> Option<f64> {
        match name {
            "wall_s_hi" => Some(stats::hi_value(&self.walls())),
            "peak_rss_mib" => self.samples(workload, name)?.into_iter().reduce(f64::max),
            "failed_ops" => Some(self.tally.failed as f64),
            "detection_bt_max" => Some(self.facts.detection_bt_max as f64),
            "view_change_bt_max" => Some(self.facts.view_change_bt_max as f64),
            "setup_s" | "wall_s" | "cpu_s" => self.samples(workload, name).map(|s| median(&s)),
            // A rate is work over the median wall.
            _ => self
                .work(workload, name)
                .map(|work| work / median(&self.walls())),
        }
    }
}

/// Per-layer values of one traced run plus probe pass.
pub struct Traced {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn read_snapshot(workload: &Workload, ctx: &Ctx<'_>) -> Result<Snapshot, String> {
    let text = if workload.is_campaign() {
        workload.stderr_of(ctx, "summary.json")?
    } else {
        workload.stdout_of(ctx, "registry.json")?
    };
    let line = snapshot::last_line(&text).ok_or_else(|| {
        format!(
            "{}: the traced run printed no registry snapshot",
            workload.name
        )
    })?;
    snapshot::parse(line)
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The traced procedure. One verified set-up; then untraced and traced
/// invocations alternate (their difference is the tracing overhead;
/// stable counters must repeat exactly, volatile phase totals are
/// reported as medians); then the probe pass. Every call into the
/// program or a crate is a span on `rec`.
pub fn traced(
    cfg: &Config,
    workload: &'static Workload,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    rec.set_workload(workload.name);
    let ctx = cfg.ctx(workload);
    let mut tally = Tally::default();
    let load_before = loadavg();

    let span = rec.enter("setup");
    let facts = set_up(workload, &ctx, Variant::Untraced, Some(rec))?;
    rec.exit(span);
    tally.attempted += 1;

    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut unattributed_ns = Vec::new();
    let mut unattributed_share = Vec::new();
    let mut volatile: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut stable: Option<Snapshot> = None;
    let started = Instant::now();
    while (traced_walls.len() < MIN_PAIRS
        || started.elapsed().as_secs_f64() < PAIR_SHARE * cfg.seconds)
        && started.elapsed() < HARD_CAP
    {
        let span = rec.enter("untraced");
        let pass = workload.run(&ctx, Variant::Untraced, Some(rec))?;
        rec.exit(span);
        untraced_walls.push(pass.cost.wall_s);
        tally.check(Workload::reproduces(&pass, &facts), || {
            format!(
                "{}: an untraced operation failed or changed its output",
                workload.name
            )
        });

        let span = rec.enter("traced");
        let pass = workload.run(&ctx, Variant::Traced, Some(rec))?;
        rec.exit(span);
        traced_walls.push(pass.cost.wall_s);
        tally.check(Workload::reproduces(&pass, &facts), || {
            format!(
                "{}: a traced operation failed or changed the summary",
                workload.name
            )
        });

        let mut snap = read_snapshot(workload, &ctx)?;
        let mut totals = Vec::new();
        for (family, phases) in [(SIM_FAMILY, &SIM_PHASES[..]), (RUN_FAMILY, &RUN_PHASES[..])] {
            for &phase in phases {
                let nanos = snapshot::phase(&snap, family, phase);
                volatile
                    .entry((family, phase))
                    .or_default()
                    .push(nanos as f64);
                totals.push((format!("phase:{phase}"), nanos));
            }
        }
        let cli = pass.span.expect("recording was on");
        rec.attribute(cli, &totals);
        unattributed_ns.push(rec.self_ns(cli) as f64);
        unattributed_share.push(ratio(rec.self_ns(cli) as f64, rec.duration_ns(cli) as f64));

        // What is left must repeat exactly, run after run.
        snap.retain(|name, _| !name.contains("phase_nanos") && !name.contains("bridge_health"));
        match &stable {
            None => stable = Some(snap),
            Some(first) => tally.check(*first == snap, || {
                format!(
                    "{}: stable registry counters changed between runs",
                    workload.name
                )
            }),
        }
    }
    let stable = stable.expect("MIN_PAIRS > 0");
    let s = |name: &str| stable.get(name).copied().unwrap_or(0) as f64;
    let v = |family: &'static str, phase: &'static str| median(&volatile[&(family, phase)]);

    let probe_dir = cfg.out.join("probe");
    let probed = probes::run_all(
        rec,
        &cfg.canelyctl,
        &probe_dir,
        cfg.seed,
        Duration::from_secs_f64(PROBE_SHARE * cfg.seconds),
    )?;
    tally.attempted += probed.calls;

    let mut values = probed.values;
    let tx = s("canely_sim_bus_transactions_total");
    let steps = s("canely_sim_steps_total");
    let events = if workload.is_campaign() {
        s("canely_campaign_events_total")
    } else {
        facts.events as f64
    };
    let arbitration = v(SIM_FAMILY, "bus-arbitration");
    let dispatch = v(SIM_FAMILY, "protocol-dispatch");
    let (sched, timer, lifecycle) = (
        v(SIM_FAMILY, "sched"),
        v(SIM_FAMILY, "timer-expiry"),
        v(SIM_FAMILY, "lifecycle"),
    );
    let oracle = v(RUN_FAMILY, "oracle");
    let (relayed, blocked) = (
        s("canely_fed_relayed_frames_total"),
        s("canely_fed_blocked_frames_total"),
    );
    let pairs = traced_walls.len();
    values.extend([
        ("can-bus.transactions", tx),
        ("can-bus.arbitration_ns", arbitration),
        ("can-bus.ns_per_tx", ratio(arbitration, tx)),
        ("can-controller.steps", steps),
        (
            "can-controller.timer_expiries",
            s("canely_sim_timer_expiries_total"),
        ),
        (
            "can-controller.lifecycle_events",
            s("canely_sim_lifecycle_events_total"),
        ),
        ("can-controller.sched_ns", sched),
        ("can-controller.timer_ns", timer),
        ("can-controller.lifecycle_ns", lifecycle),
        (
            "can-controller.ns_per_step",
            ratio(sched + timer + lifecycle, steps),
        ),
        ("canely.dispatch_ns", dispatch),
        ("canely.dispatch_ns_per_tx", ratio(dispatch, tx)),
        ("canely.events", events),
        ("canely.events_per_tx", ratio(events, tx)),
        ("canely.fd_lifesigns", s("canely_fd_lifesigns_total")),
        ("canely.fd_suspicions", s("canely_fd_suspicions_total")),
        ("canely.fd_probes", s("canely_fd_probes_total")),
        ("canely.detection_bt_max", facts.detection_bt_max as f64),
        ("canely.view_change_bt_max", facts.view_change_bt_max as f64),
        (
            "canely-federation.pump_quanta",
            s("canely_fed_pump_quanta_total"),
        ),
        ("canely-federation.relayed_frames", relayed),
        ("canely-federation.blocked_frames", blocked),
        (
            "canely-federation.retry_queued",
            s("canely_fed_retry_queued_total"),
        ),
        (
            "canely-federation.retry_delivered",
            s("canely_fed_retry_delivered_total"),
        ),
        (
            "canely-federation.retry_dropped",
            s("canely_fed_retry_dropped_total"),
        ),
        (
            "canely-federation.elections",
            s("canely_fed_elections_total"),
        ),
        ("canely-federation.rejoins", s("canely_fed_rejoins_total")),
        (
            "canely-federation.relay_success_ratio",
            ratio(relayed, relayed + blocked),
        ),
        // Wall the eight phases do not cover: process start and exit,
        // spec parsing, and on federated runs the bridge pump and
        // gateways, which no phase claims.
        (
            "canely-federation.unattributed_ns",
            median(&unattributed_ns),
        ),
        ("canely-campaign.runs", s("canely_campaign_runs_total")),
        (
            "canely-campaign.violations",
            s("canely_campaign_violations_total"),
        ),
        ("canely-campaign.setup_ns", v(RUN_FAMILY, "world-setup")),
        ("canely-campaign.obs_emit_ns", v(RUN_FAMILY, "obs-emit")),
        ("canely-campaign.oracle_ns", oracle),
        ("canely-campaign.oracle_ns_per_event", ratio(oracle, events)),
        // Off this workload's path when it runs no campaign.
        (
            "canely-metrics.overhead_pct",
            if workload.is_campaign() {
                // Median of the per-pair overheads: a slow spell that
                // spans a pair slows both halves alike.
                let per_pair: Vec<f64> = untraced_walls
                    .iter()
                    .zip(&traced_walls)
                    .map(|(u, t)| ratio(t - u, *u))
                    .collect();
                100.0 * median(&per_pair)
            } else {
                0.0
            },
        ),
        ("cli.summary_bytes", facts.out_bytes as f64),
        ("harness.samples", pairs as f64),
        ("harness.hi_pct", f64::from(stats::hi_percentile(pairs))),
        ("harness.spread_pct", 100.0 * stats::spread(&untraced_walls)),
        (
            "harness.unattributed_pct",
            100.0 * median(&unattributed_share),
        ),
        ("harness.nproc", crate::nproc() as f64),
        ("harness.loadavg", load_before),
    ]);

    for m in names::PER_LAYER {
        let value = values
            .get(m.name)
            .ok_or_else(|| format!("per-layer metric `{}` was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("per-layer metric `{}` is not a number", m.name));
        }
        // Every probe metric must be backed by a span of its name.
        if m.src == names::Src::Probe && !rec.spans().iter().any(|s| s.name.starts_with(m.name)) {
            return Err(format!("probe metric `{}` recorded no span", m.name));
        }
    }
    Ok(Traced { tally, values })
}

/// Writes the recorder's spans to `out/spans.json`.
pub fn write_spans(out: &Path, rec: &Recorder) -> Result<(), String> {
    let path = out.join("spans.json");
    let mut text = rec.to_json().render();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}
