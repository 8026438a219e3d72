//! The CLI commands: scenario construction and execution.

use crate::args::{parse_duration, ArgError, Args};
use crate::render;
use crate::scenario::{build, report, run_with_obs, Scenario};
use crate::{Failure, Sink};
use can_bus::{BusConfig, FaultPlan};
use can_controller::Simulator;
use can_types::{BitTime, NodeId, NodeSet};
use canely::obs::{ObsLog, Snapshot};
use canely_analysis::{BandwidthModel, InaccessibilityModel, ProtocolBounds, ReliabilityModel};
use canely_baselines::{CanopenMaster, CanopenSlave, HeartbeatNode, OsekNode, TtpNode};
use canely_campaign::{grammar, scenario::Defect, Fault, RunSpec, SimTelemetry};
use canely_groups::{GroupId, GroupStack};
use canely_metrics::Registry;
use std::fmt::Write as _;

/// What a command ends in: its output written to the sink, or why not.
type CmdResult = Result<(), Failure>;

fn fail(e: ArgError) -> String {
    e.to_string()
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("error: cannot read `{path}`: {e}"))
}

/// A reader diagnostic (`file:line: …`), as the CLI prints it.
fn diagnostic(e: String) -> String {
    format!("error: {e}")
}

/// The `--until` horizon: a duration, and not zero — a run must cover
/// some bus time for its report to summarise, and a `tq filter` window
/// that ends at zero keeps nothing.
fn until_opt(args: &mut Args, default: BitTime) -> Result<BitTime, ArgError> {
    args.positive_opt("until", default, "a duration like 30ms", parse_duration)
}

/// The single-bus scenario the membership-family options describe —
/// the same model a `.canely` file parses to.
fn scenario_from_args(args: &mut Args) -> Result<Scenario, ArgError> {
    // The options default to what an empty `.canely` file describes.
    let base = RunSpec::default();
    let nodes = args.nodes_opt(base.nodes)?;
    let crash = |(node, at)| Fault::Crash { seg: 0, node, at };
    let run = RunSpec {
        nodes,
        tm: args.duration_opt("tm", base.tm)?,
        th: args.duration_opt("th", base.th)?,
        until: until_opt(args, base.until)?,
        faults: args.events("crash")?.into_iter().map(crash).collect(),
        consistent_rate: args.opt("error-rate", 0.0, "a probability", grammar::probability)?,
        seed: args.opt("seed", base.seed, "an integer", grammar::number)?,
        ..base
    };
    run.checked_config()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    let joins = args.events("join")?;
    // `--traffic` drives every node the scenario creates, joiners too.
    let period = args.opt("traffic", BitTime::ZERO, "a duration like 30ms", |w| {
        let none = parse_duration(w)?.is_zero();
        none.then_some(BitTime::ZERO)
            .map_or_else(|| grammar::traffic_period(w), Ok)
    })?;
    let late = joins.iter().map(|&(id, _)| id).filter(|&id| id >= nodes);
    let traffic = (0..nodes)
        .chain(late)
        .filter(|_| !period.is_zero())
        .map(|id| (id, period))
        .collect();
    let scenario = Scenario {
        run,
        traffic,
        joins,
        leaves: args.events("leave")?,
        restarts: args.events("restart")?,
        expect_view: None,
    };
    // A scripted fault can only hit a node the scenario creates, and a
    // node joins and leaves once.
    if let Some((option, _, node, defect)) = scenario.lifecycle_defect() {
        return Err(ArgError(match defect {
            Defect::Stray => {
                format!("--{option} names node n{node}, neither in 0..{nodes} nor a --join")
            }
            Defect::Repeated => format!("--{option} names node n{node} twice"),
        }));
    }
    Ok(scenario)
}

/// Refuses the first `--option` event of a node outside `0..nodes`, for
/// the commands whose population is fixed (no joiners).
fn within(option: &str, events: &[(u8, BitTime)], nodes: u8) -> Result<(), String> {
    match events.iter().find(|&&(node, _)| node >= nodes) {
        Some(&(node, _)) => Err(format!(
            "error: --{option} names node n{node}, outside 0..{nodes}"
        )),
        None => Ok(()),
    }
}

/// `canely membership …`
pub fn membership(args: &mut Args, sink: Sink) -> CmdResult {
    let scenario = scenario_from_args(args).map_err(fail)?;
    let run = &scenario.run;
    let mut sim = build(&scenario, None, None);
    sim.run_until(run.until);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "CANELy membership: {} nodes, Tm {}, Th {}, horizon {}",
        run.nodes,
        render::ms(run.tm),
        render::ms(run.th),
        render::ms(run.until),
    );
    for id in 0..run.nodes {
        if sim.alive().contains(NodeId::new(id)) {
            if scenario.restarts.iter().any(|&(n, _)| n == id) {
                let _ = writeln!(out, "node n{id}: (power-cycled)");
            }
            render::stack_history(&mut out, &sim, NodeId::new(id));
        } else {
            let _ = writeln!(out, "node n{id}: crashed");
        }
    }
    render::bus_summary(&mut out, &sim, BitTime::ZERO, run.until);
    sink.text(args, &out)
}

/// `canely groups …`
pub fn groups(args: &mut Args, sink: Sink) -> CmdResult {
    let group_joins = args.events("group-join").map_err(fail)?;
    let scenario = scenario_from_args(args).map_err(fail)?;
    // The group world boots every node at power-on and drives only
    // crashes: refuse the membership options it would silently drop.
    let dropped = [
        ("join", !scenario.joins.is_empty()),
        ("leave", !scenario.leaves.is_empty()),
        ("restart", !scenario.restarts.is_empty()),
        ("traffic", !scenario.traffic.is_empty()),
    ];
    if let Some((option, _)) = dropped.iter().find(|&&(_, given)| given) {
        return Err(format!("error: groups does not model --{option}").into());
    }
    let run = &scenario.run;
    within("group-join", &group_joins, run.nodes)?;
    let mut sim = Simulator::new(BusConfig::default(), run.fault_plan(run.seed));
    for id in 0..run.nodes {
        let mut stack = GroupStack::new(run.config());
        for &(_, at) in group_joins.iter().filter(|&&(node, _)| node == id) {
            stack = stack.with_group_join_at(GroupId::new(1), at);
        }
        sim.add_node(NodeId::new(id), stack);
    }
    for fault in &run.faults {
        if let Fault::Crash { node, at, .. } = *fault {
            sim.schedule_crash(NodeId::new(node), at);
        }
    }
    sim.run_until(run.until);

    let mut out = String::new();
    let _ = writeln!(out, "CANELy process groups: {} nodes", run.nodes);
    for id in 0..run.nodes {
        let node = NodeId::new(id);
        if !sim.alive().contains(node) {
            let _ = writeln!(out, "node {node}: crashed");
            continue;
        }
        let stack = sim.app::<GroupStack>(node);
        let _ = writeln!(
            out,
            "node {node}: site view {} | group g1 view {}",
            stack.site_view(),
            stack.group_view(GroupId::new(1)),
        );
    }
    sink.text(args, &out)
}

/// `canely baseline <osek|guarding|heartbeat|ttp> …`
pub fn baseline(args: &mut Args, sink: Sink) -> CmdResult {
    let which = args
        .subcommand()
        .ok_or("error: baseline requires a protocol (osek|guarding|heartbeat|ttp)")?
        .to_string();
    let nodes = args.nodes_opt(8).map_err(fail)?;
    let until = until_opt(args, BitTime::new(3_000_000)).map_err(fail)?;
    let crashes = args.events("crash").map_err(fail)?;
    within("crash", &crashes, nodes)?;

    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    let population = NodeSet::first_n(nodes.into());
    // Each protocol adds its nodes and names its report.
    let report: fn(&Simulator, &mut String) = match which.as_str() {
        "osek" => {
            for id in 0..nodes {
                sim.add_node(
                    NodeId::new(id),
                    OsekNode::new(BitTime::new(50_000), BitTime::new(260_000), population),
                );
            }
            |sim, out| {
                for node in sim.alive().iter() {
                    let app = sim.app::<OsekNode>(node);
                    let _ = writeln!(
                        out,
                        "node {node}: config {} ({} ring messages, {} detections)",
                        app.config(),
                        app.ring_messages_sent(),
                        app.detected().len()
                    );
                }
            }
        }
        "guarding" => {
            sim.add_node(
                NodeId::new(0),
                CanopenMaster::new(
                    BitTime::new(100_000),
                    3,
                    population - NodeSet::singleton(NodeId::new(0)),
                ),
            );
            for id in 1..nodes {
                sim.add_node(NodeId::new(id), CanopenSlave::new());
            }
            |sim, out| {
                let master = sim.app::<CanopenMaster>(NodeId::new(0));
                let _ = writeln!(out, "master polls: {}", master.polls());
                for &(t, who) in master.detected() {
                    let _ = writeln!(out, "detected failure of {who} at {}", render::ms(t));
                }
            }
        }
        "heartbeat" => {
            for id in 0..nodes {
                let watched = population - NodeSet::singleton(NodeId::new(id));
                sim.add_node(
                    NodeId::new(id),
                    HeartbeatNode::new(Some(BitTime::new(100_000)), BitTime::new(150_000), watched),
                );
            }
            |sim, out| {
                for node in sim.alive().iter() {
                    for &(t, who) in sim.app::<HeartbeatNode>(node).detected() {
                        let _ = writeln!(out, "node {node}: detected {who} at {}", render::ms(t));
                    }
                }
            }
        }
        "ttp" => {
            for id in 0..nodes {
                sim.add_node(NodeId::new(id), TtpNode::new(BitTime::new(500), population));
            }
            |sim, out| {
                for node in sim.alive().iter() {
                    let _ = writeln!(out, "node {node}: view {}", sim.app::<TtpNode>(node).view());
                }
            }
        }
        other => return Err(format!("error: unknown baseline `{other}`").into()),
    };
    for &(node, at) in &crashes {
        sim.schedule_crash(NodeId::new(node), at);
    }
    sim.run_until(until);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline `{which}`: {nodes} nodes, horizon {}",
        render::ms(until)
    );
    report(&sim, &mut out);
    render::bus_summary(&mut out, &sim, BitTime::ZERO, until);
    sink.text(args, &out)
}

/// `canely analyze <inaccessibility|bandwidth|reliability|bounds> …`
pub fn analyze(args: &mut Args, sink: Sink) -> CmdResult {
    let which = args
        .subcommand()
        .ok_or("error: analyze requires a model (inaccessibility|bandwidth|reliability|bounds)")?
        .to_string();
    let mut out = String::new();
    match which.as_str() {
        "inaccessibility" => {
            let can = InaccessibilityModel::standard_can();
            let canely = InaccessibilityModel::canely();
            let _ = writeln!(out, "inaccessibility bounds (bit-times):");
            let _ = writeln!(
                out,
                "  standard CAN : {} - {}",
                can.lower_bound().as_u64(),
                can.upper_bound().as_u64()
            );
            let _ = writeln!(
                out,
                "  CANELy       : {} - {}",
                canely.lower_bound().as_u64(),
                canely.upper_bound().as_u64()
            );
        }
        "bandwidth" => {
            let tm = args
                .positive_opt(
                    "tm",
                    BitTime::new(30_000),
                    "a duration like 30ms",
                    parse_duration,
                )
                .map_err(fail)?;
            let requests = args
                .opt("requests", 20, "a 32-bit count", grammar::number)
                .map_err(fail)?;
            let model = BandwidthModel::paper_defaults();
            let _ = writeln!(
                out,
                "membership-suite bandwidth at Tm = {}:",
                render::ms(tm)
            );
            let _ = writeln!(
                out,
                "  no changes      : {}",
                render::pct(model.no_changes(tm))
            );
            let _ = writeln!(
                out,
                "  f crash failures: {}",
                render::pct(model.with_crashes(tm))
            );
            let _ = writeln!(
                out,
                "  + {requests} join/leave : {}",
                render::pct(model.with_join_leave(tm, requests))
            );
        }
        "reliability" => {
            let ber = args
                .opt("ber", 1e-9, "a probability", grammar::probability)
                .map_err(fail)?;
            let model = ReliabilityModel::paper_operating_point(ber);
            let _ = writeln!(out, "inconsistency-rate estimate at BER {ber}:");
            let _ = writeln!(
                out,
                "  P(inconsistent omission per frame): {:.3e}",
                model.p_inconsistent_per_frame()
            );
            let _ = writeln!(
                out,
                "  expected inconsistent omissions/hour: {:.3e}",
                model.inconsistent_per_hour()
            );
            let _ = writeln!(
                out,
                "  suggested LCAN4 degree j (10 s window): {}",
                model.suggested_j(10_000_000)
            );
        }
        "bounds" => {
            let bounds = ProtocolBounds::paper_defaults();
            let _ = writeln!(out, "protocol bounds (paper defaults):");
            let _ = writeln!(
                out,
                "  Ttd (Tltm + Tina)       : {}",
                render::ms(bounds.ttd())
            );
            let _ = writeln!(
                out,
                "  detection latency bound : {}",
                render::ms(bounds.detection_latency())
            );
            let _ = writeln!(
                out,
                "  FDA frame bound         : {}",
                bounds.fda_frame_bound()
            );
            let _ = writeln!(
                out,
                "  RHA round bound         : {}",
                bounds.rha_round_bound()
            );
            let _ = writeln!(
                out,
                "  membership change bound : {}",
                render::ms(bounds.membership_change_latency())
            );
        }
        other => return Err(format!("error: unknown analysis `{other}`").into()),
    }
    sink.text(args, &out)
}

/// `canely trace …`
pub fn trace(args: &mut Args, sink: Sink) -> CmdResult {
    let csv = args.flag("csv");
    let jsonl = args.flag("jsonl");
    let chrome = args.flag("chrome");
    if usize::from(csv) + usize::from(jsonl) + usize::from(chrome) > 1 {
        return Err("error: --csv, --jsonl and --chrome are mutually exclusive".into());
    }
    let scenario = scenario_from_args(args).map_err(fail)?;
    let until = scenario.run.until;
    if jsonl {
        // Merged protocol + bus trace, one JSON object per line (see
        // docs/TRACE_SCHEMA.md), written record by record.
        let (sim, log) = run_with_obs(&scenario);
        log.write_jsonl(Some(sim.trace()), sink.open(args)?)?;
        return Ok(());
    }
    if chrome {
        // Chrome/Perfetto trace-event JSON: per-node instant tracks,
        // bus frame spans and derived phase spans. The world and its
        // log are dropped once exported: the Chrome export reads the
        // document back.
        let doc = {
            let (sim, log) = run_with_obs(&scenario);
            log.export_jsonl(Some(sim.trace()))
        };
        let model = canely_trace::TraceModel::parse(&doc).map_err(|e| format!("error: {e}"))?;
        canely_trace::write_chrome_trace(&model, sink.open(args)?)?;
        return Ok(());
    }
    let mut sim = build(&scenario, None, None);
    sim.run_until(until);
    if csv {
        return sink.text(args, &render::trace_csv(&sim));
    }
    let mut out = String::new();
    for rec in sim.trace().iter() {
        let mid = rec.mid().map_or_else(|| "-".to_string(), |m| m.to_string());
        let _ = writeln!(
            out,
            "[{:>10}] {:<18} by {:<10} {}",
            render::ms(rec.start),
            mid,
            rec.transmitters.to_string(),
            if rec.errored { "ERROR" } else { "ok" },
        );
    }
    render::bus_summary(&mut out, &sim, BitTime::ZERO, until);
    sink.text(args, &out)
}

/// `canely metrics …` — runs a membership scenario with the
/// observability layer on and reports the derived metrics: per-node
/// event counters plus the failure-detection-latency, view-change-
/// latency and RHA-broadcast histograms.
///
/// `--live` switches the output to the registry exposition formats
/// (Prometheus text, or one JSON object with `--json`): the scrape
/// surface for an external collector. `--profile` attributes the
/// simulator's wall time to its step-loop phases.
pub fn metrics(args: &mut Args, sink: Sink) -> CmdResult {
    let live = args.flag("live");
    let json = args.flag("json");
    if json && !live {
        return Err("error: --json needs --live".into());
    }
    let profile = args.flag("profile");
    let scenario = scenario_from_args(args).map_err(fail)?;
    let run = &scenario.run;
    let log = ObsLog::new();
    let registry = if live {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let tel = SimTelemetry::new(&registry);
    let mut sim = build(&scenario, Some(&log), live.then_some(&tel.detector));
    sim.set_profiling(live || profile);

    sim.run_until(run.until);
    let snapshot =
        log.with_events(|events| Snapshot::compute(events, Some((sim.trace(), run.until))));

    if live {
        tel.flush_sim(sim.take_step_stats(), &sim.take_profile());
        tel.record_latency(
            snapshot.detection_latency.samples(),
            snapshot.view_change_latency.samples(),
        );
        // The scrape surface is the *stable* export: byte-identical
        // for a given scenario and seed. `--profile` adds the
        // wall-clock phase series.
        let out = if json {
            let mut out = registry.to_json(profile);
            out.push('\n');
            out
        } else {
            registry.to_prometheus(profile)
        };
        return sink.text(args, &out);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "CANELy metrics: {} nodes, Tm {}, Th {}, horizon {} ({} protocol events)",
        run.nodes,
        render::ms(run.tm),
        render::ms(run.th),
        render::ms(run.until),
        log.len(),
    );
    render::metrics_report(&mut out, &snapshot);
    if profile {
        let _ = writeln!(out, "simulator wall-time profile:");
        out.push_str(&sim.take_profile().render());
    }
    sink.text(args, &out)
}

/// Sources the JSONL document behind a `tq` query: a pre-recorded
/// `--trace file.jsonl`, or `--scenario file.canely` run
/// deterministically on the spot. The caller keeps the returned text
/// alive and parses the (borrowing, index-only)
/// [`canely_trace::TraceModel`] over it.
fn tq_source(args: &mut Args) -> Result<String, String> {
    if let Some(path) = args.str_opt("trace") {
        read_file(&path)
    } else if let Some(path) = args.str_opt("scenario") {
        let text = read_file(&path)?;
        let (scenario, _) =
            Scenario::read(&grammar::Doc::named(&path, &text)).map_err(diagnostic)?;
        if scenario.run.federation.is_some() {
            return Err(format!(
                "error: `{path}` bridges segments; `tq --scenario` traces a single bus"
            ));
        }
        let (sim, log) = run_with_obs(&scenario);
        Ok(log.export_jsonl(Some(sim.trace())))
    } else {
        Err("error: tq requires --scenario <file.canely> or --trace <file.jsonl>".into())
    }
}

/// Parses an optional id option of one part, `--node 3` / `--node n3`
/// (`prefix` `n`) or `--seg 1` / `--seg s1` (`prefix` `s`).
fn id_opt(args: &mut Args, name: &str, prefix: char, what: &str) -> Result<Option<u8>, String> {
    match args.str_opt(name) {
        None => Ok(None),
        Some(s) => canely_trace::parse_id(&s, prefix)
            .map(Some)
            .ok_or_else(|| format!("error: --{name} expects a {what} id, got `{s}`")),
    }
}

/// Parses an optional, possibly segment-qualified node-id option:
/// `--name 3`, `--name n3` or (in federated traces) `--name s1:n3`.
fn seg_node_opt(args: &mut Args, name: &str) -> Result<Option<(Option<u8>, u8)>, String> {
    match args.str_opt(name) {
        None => Ok(None),
        Some(s) => canely_trace::parse_seg_node(&s)
            .map(Some)
            .ok_or_else(|| format!("error: --{name} expects a node id (n3 or s1:n3), got `{s}`")),
    }
}

/// `canelyctl tq <chain|phases|filter|summary|reexport>` — query a
/// causal trace: explain a suspicion's full causal chain, profile
/// phase-level latency against the analytic bounds, filter records, or
/// round-trip the document.
pub fn tq(args: &mut Args, sink: Sink) -> CmdResult {
    let sub = args
        .subcommand()
        .ok_or("error: tq requires a subcommand: chain | phases | filter | summary | reexport")?
        .to_string();
    let jsonl = tq_source(args)?;
    let model = canely_trace::TraceModel::parse(&jsonl).map_err(|e| format!("error: {e}"))?;
    match sub.as_str() {
        "chain" => {
            let (seg, suspect) =
                seg_node_opt(args, "suspect")?.ok_or("error: --suspect <node> is required")?;
            let observer = match seg_node_opt(args, "observer")? {
                Some((oseg, node)) => {
                    if oseg.is_some() && oseg != seg {
                        return Err(
                            "error: --suspect and --observer name different segments".into()
                        );
                    }
                    Some(node)
                }
                None => None,
            };
            let chain = canely_trace::query::render_chain(&model, seg, suspect, observer)
                .map_err(|e| format!("error: {e}"))?;
            sink.text(args, &chain)
        }
        "phases" => {
            // Default bounds come from the paper's operating point;
            // override them to match a non-default scenario.
            let bounds = ProtocolBounds::paper_defaults();
            let detection = args
                .duration_opt("detection-bound", bounds.detection_latency())
                .map_err(fail)?;
            let view_change = args
                .duration_opt(
                    "view-change-bound",
                    bounds.detection_latency() + bounds.membership_change_latency(),
                )
                .map_err(fail)?;
            let phases = canely_trace::query::render_phases(
                &model,
                detection.as_u64(),
                view_change.as_u64(),
            );
            sink.text(args, &phases)
        }
        "filter" => {
            // A window keeps `since <= t < until`: an explicit `--until
            // 0ms`, or an `--until` not after `--since`, keeps nothing.
            let since = args.duration_opt("since", BitTime::ZERO).map_err(fail)?;
            let until = until_opt(args, BitTime::ZERO).map_err(fail)?;
            if !until.is_zero() && until <= since {
                return Err(format!(
                    "error: --until {until} is not after --since {since}: the window is empty"
                )
                .into());
            }
            let window = |t: BitTime| (!t.is_zero()).then(|| t.as_u64());
            let filter = canely_trace::query::Filter {
                seg: id_opt(args, "seg", 's', "segment")?,
                node: id_opt(args, "node", 'n', "node")?,
                kind: args.str_opt("kind"),
                view: args.str_opt("view"),
                since: window(since),
                until: window(until),
            };
            Ok(canely_trace::query::filter(
                &model,
                &filter,
                sink.open(args)?,
            )?)
        }
        "summary" => sink.text(args, &canely_trace::query::summary(&model)),
        "reexport" => Ok(model.write_jsonl(sink.open(args)?)?),
        other => Err(format!(
            "error: unknown tq subcommand `{other}` (chain | phases | filter | summary | reexport)"
        )
        .into()),
    }
}

/// `canelyctl campaign <run|report|replay>` — deterministic parallel
/// fault-injection campaigns driven by `.campaign` specs (see the
/// `canely-campaign` crate).
pub fn campaign(args: &mut Args, sink: Sink) -> CmdResult {
    match args.subcommand() {
        Some("run") => campaign_run(args, sink),
        Some("report") => campaign_report(args, sink),
        Some("replay") => campaign_replay(args, sink),
        _ => Err("error: campaign requires a subcommand: run | report | replay".into()),
    }
}

fn campaign_spec(args: &mut Args) -> Result<canely_campaign::CampaignSpec, String> {
    let path = args
        .str_opt("spec")
        .ok_or("error: --spec <file.campaign> is required")?;
    canely_campaign::CampaignSpec::parse_named(&path, &read_file(&path)?).map_err(diagnostic)
}

fn campaign_run(args: &mut Args, sink: Sink) -> CmdResult {
    let spec = campaign_spec(args)?;
    let workers = args.workers_opt().map_err(fail)?;
    let json = args.flag("json");
    let emit = args.str_opt("emit-counterexample");
    let progress = args.flag("progress");
    let metrics_json = args.flag("metrics-json");
    let interval = args
        .positive_opt("progress-interval-ms", 500, "an integer", grammar::number)
        .map_err(fail)?;
    // Progress and telemetry stream to stderr from a side thread; the
    // summary on stdout is byte-identical with or without them.
    let result = if progress || metrics_json {
        let options = canely_campaign::CampaignOptions {
            workers,
            registry: Registry::new(),
            progress: Some(canely_campaign::ProgressOptions {
                interval: std::time::Duration::from_millis(interval),
                metrics_json,
                sink: canely_campaign::ProgressSink::Stderr,
            }),
        };
        canely_campaign::run_campaign_with(&spec, &options)
    } else {
        canely_campaign::run_campaign(&spec, workers)
    };

    let mut out = if json {
        let mut s = result.report.to_json();
        s.push('\n');
        s
    } else {
        result.report.render()
    };
    // Multi-backend matrices additionally get the per-backend QoS
    // shootout (same schedules per backend — see docs/DETECTORS.md).
    if let Some(shootout) = &result.shootout {
        if json {
            out.push_str(&shootout.to_json());
            out.push('\n');
        } else {
            out.push_str("detector shootout (latencies in bit-times):\n");
            out.push_str(&shootout.to_markdown());
        }
    }
    if let Some(cx) = &result.counterexample {
        if let Some(dir) = emit {
            let base = std::path::Path::new(&dir);
            std::fs::create_dir_all(base)
                .map_err(|e| format!("error: cannot create `{dir}`: {e}"))?;
            let scenario_path = base.join("counterexample.canely");
            std::fs::write(&scenario_path, &cx.scenario)
                .map_err(|e| format!("error: cannot write counterexample: {e}"))?;
            std::fs::write(base.join("counterexample.trace.jsonl"), &cx.trace_jsonl)
                .map_err(|e| format!("error: cannot write trace: {e}"))?;
            if !json {
                let _ = writeln!(
                    out,
                    "counterexample: run {} minimized → {}",
                    cx.run_id,
                    scenario_path.display()
                );
            }
        } else if !json {
            let _ = writeln!(
                out,
                "counterexample (run {} minimized; replay with \
                 `canelyctl campaign replay --scenario <file>`):",
                cx.run_id
            );
            out.push_str(&cx.scenario);
        }
    }
    // Mirror `run`'s expect-view contract: a violating campaign exits
    // nonzero so the command can gate CI directly.
    if result.report.clean() {
        sink.text(args, &out)
    } else {
        Err(out.trim_end().into())
    }
}

fn campaign_report(args: &mut Args, sink: Sink) -> CmdResult {
    let spec = campaign_spec(args)?;
    if args.flag("analytics") {
        // Execute the matrix with full trace capture and report
        // phase-latency histograms plus measured-vs-bound headroom.
        let workers = args.workers_opt().map_err(fail)?;
        let analytics = canely_campaign::run_campaign_analytics(&spec, workers);
        let out = if args.flag("json") {
            let mut out = analytics.to_json();
            out.push('\n');
            out
        } else {
            analytics.to_markdown()
        };
        return sink.text(args, &out);
    }
    let runs = spec.expand();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign {}: {} runs (nodes ×{}, tm ×{}, error-rate ×{}, \
         inconsistent-rate ×{}, crash-budget ×{}, inaccessibility ×{}, seeds ×{}, \
         detectors ×{})",
        spec.name,
        runs.len(),
        spec.nodes.len(),
        spec.tm.len(),
        spec.consistent_rates.len(),
        spec.inconsistent_rates.len(),
        spec.crash_budgets.len(),
        spec.inaccessibility_lens.len(),
        spec.seeds.1 - spec.seeds.0,
        spec.detectors.len(),
    );
    for run in &runs {
        let _ = write!(
            out,
            "  run {:>3}: {} nodes, tm {}, seed {}, detector {}",
            run.id,
            run.nodes,
            render::ms(run.tm),
            run.seed,
            run.detector
        );
        let t = render::ms;
        let window = |from, until| format!("{}–{}", t(from), t(until));
        for &fault in &run.faults {
            let _ = match fault {
                Fault::Crash { seg: 0, node, at } => write!(out, ", crash n{node}@{}", t(at)),
                Fault::Crash { seg, node, at } => write!(out, ", crash s{seg}:n{node}@{}", t(at)),
                Fault::Blackout { from, until } => {
                    write!(out, ", blackout {}", window(from, until))
                }
                Fault::GatewayCrash { seg, at } => write!(out, ", gateway-crash s{seg}@{}", t(at)),
                Fault::GatewayRestart { seg, at } => {
                    write!(out, ", gateway-restart s{seg}@{}", t(at))
                }
                Fault::Partition { from, until } => {
                    write!(out, ", partition {}", window(from, until))
                }
                Fault::Asymmetric {
                    from_seg,
                    to_seg,
                    from,
                    until,
                } => write!(
                    out,
                    ", asymmetric s{from_seg}→s{to_seg} {}",
                    window(from, until)
                ),
            };
        }
        let _ = writeln!(
            out,
            ", bounds: detect ≤ {}, view-change ≤ {}",
            render::ms(run.detection_bound()),
            render::ms(run.view_change_bound()),
        );
    }
    sink.text(args, &out)
}

/// `canelyctl run FILE` — executes a scenario file. A single bus runs
/// in the CLI's own world and reports each node's view; `segments`
/// above 1 needs bridged buses, which the campaign engine's executor
/// owns, so those files are judged by the invariant oracle —
/// including global-view agreement across the gateways.
pub fn run_file(args: &mut Args, sink: Sink) -> CmdResult {
    let path = args
        .subcommand()
        .ok_or("error: run requires a scenario file path")?
        .to_string();
    let text = read_file(&path)?;
    let doc = grammar::Doc::named(&path, &text);
    let (scenario, seen) = Scenario::read(&doc).map_err(diagnostic)?;
    let Some(fed) = scenario.run.federation else {
        return sink.text(args, &report(&scenario).map_err(fail)?);
    };
    let run = scenario.judged(&seen, &doc).map_err(diagnostic)?;
    let header = format!(
        "federated scenario: {} segments × {} nodes, bridge {}, gateway n{}, tm {}, seed {}\n",
        fed.segments,
        run.nodes,
        fed.topology,
        fed.gateway,
        render::ms(run.tm),
        run.seed,
    );
    let out = verdict(header, &run, " (including global-view agreement)")?;
    sink.text(args, &out)
}

/// Judges `run` under the invariant oracle and appends the verdict to
/// its report `out`; a violating run makes the command fail.
fn verdict(mut out: String, run: &RunSpec, scope: &str) -> Result<String, String> {
    let outcome = canely_campaign::execute(run, false);
    if outcome.violations.is_empty() {
        let _ = writeln!(out, "verdict: clean — every invariant held{scope}");
        Ok(out)
    } else {
        let _ = writeln!(out, "verdict: {} violation(s)", outcome.violations.len());
        for v in &outcome.violations {
            let _ = writeln!(out, "  {v}");
        }
        Err(out.trim_end().to_string())
    }
}

fn campaign_replay(args: &mut Args, sink: Sink) -> CmdResult {
    let path = args
        .str_opt("scenario")
        .ok_or("error: --scenario <file.canely> is required")?;
    let run = RunSpec::from_scenario_named(&path, &read_file(&path)?).map_err(diagnostic)?;
    let header = format!(
        "replay: {} nodes, tm {}, seed {}, horizon {}, detector {}{}\n",
        run.nodes,
        render::ms(run.tm),
        run.seed,
        render::ms(run.until),
        run.detector,
        if run.weaken_fda {
            " (weakened-FDA mutant)"
        } else {
            ""
        },
    );
    let out = verdict(header, &run, "")?;
    sink.text(args, &out)
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn membership_scenario_end_to_end() {
        let out = run(&argv(&[
            "membership",
            "--nodes",
            "4",
            "--crash",
            "2@250ms",
            "--until",
            "500ms",
        ]))
        .unwrap();
        assert!(out.contains("node n2: crashed"), "{out}");
        assert!(out.contains("failure of n2 agreed"), "{out}");
        assert!(out.contains("final view {0,1,3}"), "{out}");
    }

    #[test]
    fn membership_with_traffic_and_noise() {
        let out = run(&argv(&[
            "membership",
            "--nodes",
            "3",
            "--traffic",
            "2ms",
            "--error-rate",
            "0.05",
            "--seed",
            "7",
            "--until",
            "300ms",
        ]))
        .unwrap();
        assert!(out.contains("final view {0,1,2}"), "{out}");
    }

    #[test]
    fn restart_via_cli() {
        let out = run(&argv(&[
            "membership",
            "--nodes",
            "3",
            "--crash",
            "2@250ms",
            "--restart",
            "2@500ms",
            "--until",
            "900ms",
        ]))
        .unwrap();
        assert!(out.contains("node n2: (power-cycled)"), "{out}");
        assert!(out.contains("final view {0,1,2}"), "{out}");
    }

    #[test]
    fn late_join_via_cli() {
        let out = run(&argv(&[
            "membership",
            "--nodes",
            "4",
            "--join",
            "3@300ms",
            "--until",
            "700ms",
        ]))
        .unwrap();
        assert!(out.contains("node n3: final view {0,1,2,3}"), "{out}");
    }

    #[test]
    fn groups_scenario() {
        let out = run(&argv(&[
            "groups",
            "--nodes",
            "3",
            "--group-join",
            "0@200ms",
            "--group-join",
            "1@200ms",
            "--until",
            "400ms",
        ]))
        .unwrap();
        assert!(out.contains("group g1 view {0,1}"), "{out}");
    }

    #[test]
    fn baselines_run() {
        for which in ["osek", "guarding", "heartbeat", "ttp"] {
            let out = run(&argv(&[
                "baseline", which, "--nodes", "4", "--crash", "3@500ms", "--until", "2000ms",
            ]))
            .unwrap_or_else(|e| panic!("{which}: {e}"));
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn analyses_run() {
        let out = run(&argv(&["analyze", "inaccessibility"])).unwrap();
        assert!(out.contains("14 - 2880"));
        assert!(out.contains("14 - 2160"));
        let out = run(&argv(&["analyze", "reliability", "--ber", "1e-6"])).unwrap();
        assert!(out.contains("per frame"));
        let out = run(&argv(&["analyze", "bounds"])).unwrap();
        assert!(out.contains("detection latency bound"));
        let out = run(&argv(&["analyze", "bandwidth", "--tm", "30ms"])).unwrap();
        assert!(out.contains("no changes"));
    }

    #[test]
    fn trace_csv_has_header_and_rows() {
        let out = run(&argv(&[
            "trace", "--nodes", "2", "--until", "100ms", "--csv",
        ]))
        .unwrap();
        let mut lines = out.lines();
        assert_eq!(
            lines.next().unwrap(),
            "start_bt,bus_free_bt,kind,mid,transmitters,delivered,errored"
        );
        assert!(lines.count() > 3, "some transactions expected");
    }

    #[test]
    fn trace_jsonl_merges_bus_and_protocol() {
        let out = run(&argv(&[
            "trace", "--nodes", "4", "--crash", "2@250ms", "--until", "500ms", "--jsonl",
        ]))
        .unwrap();
        assert!(
            out.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "{out}"
        );
        assert!(out.contains("\"kind\":\"bus.tx\""), "{out}");
        assert!(out.contains("\"kind\":\"fd.notified\""), "{out}");
        assert!(out.contains("\"kind\":\"node.crashed\""), "{out}");
        assert!(out.contains("\"kind\":\"view.changed\""), "{out}");
        // Time-ordered across both sources.
        let mut last = 0u64;
        for line in out.lines() {
            let t: u64 = line
                .split("\"t\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no t in {line}"));
            assert!(t >= last, "trace not time-ordered: {line}");
            last = t;
        }
    }

    #[test]
    fn trace_csv_and_jsonl_conflict() {
        let err = run(&argv(&["trace", "--csv", "--jsonl"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn metrics_end_to_end() {
        let out = run(&argv(&[
            "metrics", "--nodes", "4", "--crash", "2@250ms", "--until", "500ms",
        ]))
        .unwrap();
        assert!(out.contains("CANELy metrics: 4 nodes"), "{out}");
        assert!(out.contains("event totals:"), "{out}");
        assert!(out.contains("failure-detection latency: "), "{out}");
        assert!(
            !out.contains("failure-detection latency: no samples"),
            "{out}"
        );
        assert!(out.contains("view-change latency: "), "{out}");
        assert!(out.contains("markers: 1 crashes"), "{out}");
        assert!(out.contains("bus: "), "{out}");
    }

    #[test]
    fn text_report_and_live_export_count_the_same_latency_samples() {
        // A restarts its victim after the view change, F before it: the
        // restart closes the victim's window, so F has no view change.
        for (probe, detection, view_change) in [
            (
                "--nodes 5 --crash 2@300ms --join 9@500ms --leave 4@700ms \
                 --restart 2@800ms --until 1200ms --traffic 2ms",
                4,
                5,
            ),
            (
                "--nodes 4 --crash 2@250ms --restart 2@260ms --until 900ms",
                3,
                0,
            ),
        ] {
            let mut words = vec!["metrics"];
            words.extend(probe.split_whitespace());
            let text = run(&argv(&words)).unwrap();
            words.push("--live");
            let live = run(&argv(&words)).unwrap();
            for (title, series, expected) in [
                (
                    "failure-detection latency: ",
                    "canely_detection_latency_bittimes",
                    detection,
                ),
                (
                    "view-change latency: ",
                    "canely_view_change_latency_bittimes",
                    view_change,
                ),
            ] {
                let printed = text
                    .lines()
                    .find_map(|l| l.strip_prefix(title))
                    .and_then(|rest| rest.split(' ').next())
                    .map(|n| n.parse().unwrap_or(0));
                let count = format!("{series}_count ");
                let exported = live
                    .lines()
                    .find_map(|l| l.strip_prefix(count.as_str()))
                    .map(|n| n.parse().unwrap());
                assert_eq!(printed, Some(expected), "{probe}: {title}\n{text}");
                assert_eq!(exported, Some(expected), "{probe}: {series}\n{live}");
            }
        }
    }

    #[test]
    fn unknown_command_and_typos_error() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["membership", "--nodez", "4"])).is_err());
        assert!(run(&argv(&["membership", "--crash", "99@10ms"])).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn campaign_run_is_worker_count_independent_and_clean() {
        let dir = std::env::temp_dir().join("canelyctl-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("unit.campaign");
        std::fs::write(
            &spec,
            "name unit\nnodes 3\nseeds 0..2\ncrash-budget 1\nuntil 300ms\nsettle 150ms\n",
        )
        .unwrap();
        let path = spec.to_string_lossy().to_string();
        let one = run(&argv(&[
            "campaign",
            "run",
            "--spec",
            &path,
            "--workers",
            "1",
            "--json",
        ]))
        .unwrap();
        let three = run(&argv(&[
            "campaign",
            "run",
            "--spec",
            &path,
            "--workers",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(one, three);
        assert!(one.contains("\"violating_runs\":[]"), "{one}");
    }

    #[test]
    fn campaign_report_lists_the_matrix_without_running() {
        let dir = std::env::temp_dir().join("canelyctl-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("report.campaign");
        std::fs::write(
            &spec,
            "name matrix\nnodes 3 4\nseeds 0..2\ncrash-budget 1\nuntil 300ms\nsettle 150ms\n",
        )
        .unwrap();
        let path = spec.to_string_lossy().to_string();
        let out = run(&argv(&["campaign", "report", "--spec", &path])).unwrap();
        assert!(out.contains("campaign matrix: 4 runs"), "{out}");
        assert!(out.contains("bounds: detect ≤"), "{out}");

        // A federated row lists every fault of the run, bridge faults
        // included, in the order the run schedules them.
        std::fs::write(
            &spec,
            "name fed\nnodes 4\nseeds 0..1\ncrash-budget 2\nsegments 3\ngateway-crash 1\n\
             gateway-restart 40ms\nsegment-partition 20ms\nasymmetric-inaccessibility 10ms\n\
             inaccessibility 2ms\nuntil 500ms\nsettle 200ms\n",
        )
        .unwrap();
        let out = run(&argv(&["campaign", "report", "--spec", &path])).unwrap();
        assert_eq!(
            out.lines().nth(1),
            Some(
                "  run   0: 4 nodes, tm 30.00ms, seed 0, detector surveillance, \
                 crash n2@215.44ms, blackout 224.49ms–226.49ms, crash s2:n2@233.29ms, \
                 gateway-crash s2@170.49ms, gateway-restart s2@210.49ms, \
                 partition 247.87ms–267.87ms, asymmetric s1→s0 237.41ms–247.41ms, \
                 bounds: detect ≤ 13.82ms, view-change ≤ 52.82ms"
            ),
            "{out}"
        );
    }

    #[test]
    fn campaign_replay_judges_a_scenario() {
        let dir = std::env::temp_dir().join("canelyctl-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("replay.canely");
        std::fs::write(
            &file,
            "nodes 3\ntm 30ms\nth 5ms\nseed 0\ntraffic 0 2ms\ntraffic 1 2ms\n\
             traffic 2 2ms\ncrash 2 100ms\nuntil 300ms\nsettle 150ms\n",
        )
        .unwrap();
        let path = file.to_string_lossy().to_string();
        let out = run(&argv(&["campaign", "replay", "--scenario", &path])).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
    }

    #[test]
    fn violating_campaign_and_replay_exit_nonzero() {
        let dir = std::env::temp_dir().join("canelyctl-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("mutant.campaign");
        std::fs::write(
            &spec,
            "name mutant\nnodes 4\nseeds 1..2\nerror-rate 0.01\ncrash-budget 1\n\
             inaccessibility 4ms\nuntil 300ms\nsettle 150ms\nweaken-fda\n",
        )
        .unwrap();
        let path = spec.to_string_lossy().to_string();
        let dest = dir.join("cx");
        let err = run(&argv(&[
            "campaign",
            "run",
            "--spec",
            &path,
            "--workers",
            "2",
            "--emit-counterexample",
            &dest.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(err.contains("violating run(s)"), "{err}");
        let cx = dest
            .join("counterexample.canely")
            .to_string_lossy()
            .to_string();
        let verdict = run(&argv(&["campaign", "replay", "--scenario", &cx])).unwrap_err();
        assert!(verdict.contains("verdict:"), "{verdict}");
        assert!(verdict.contains("violation(s)"), "{verdict}");
    }

    /// The federated scenario shared by the multi-segment CLI tests:
    /// two bridged 3-node segments, a non-gateway crash on segment 1.
    const FED_SCENARIO: &str = "\
nodes 3\ntm 30ms\nseed 0\nsegments 2\ngateway 0\nbridge line\nrelay none\n\
seg-crash 1 2 100ms\nuntil 500ms\nsettle 200ms\n";

    #[test]
    fn federated_scenario_runs_through_the_campaign_engine() {
        let dir = std::env::temp_dir().join("canelyctl-fed-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("fed.canely");
        std::fs::write(&file, FED_SCENARIO).unwrap();
        let out = run(&argv(&["run", &file.to_string_lossy()])).unwrap();
        assert!(
            out.contains("federated scenario: 2 segments × 3 nodes"),
            "{out}"
        );
        assert!(out.contains("bridge line"), "{out}");
        assert!(out.contains("verdict: clean"), "{out}");
    }

    #[test]
    fn tq_seg_qualified_queries_cover_federated_traces() {
        // Produce a federated trace via the campaign engine, then
        // query it with segment-qualified ids.
        let spec = canely_campaign::RunSpec::from_scenario(FED_SCENARIO).unwrap();
        let outcome = canely_campaign::execute(&spec, true);
        let dir = std::env::temp_dir().join("canelyctl-fed-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("fed.trace.jsonl");
        std::fs::write(&file, outcome.trace_jsonl.as_deref().unwrap()).unwrap();
        let path = file.to_string_lossy().to_string();

        let chain = run(&argv(&[
            "tq",
            "chain",
            "--trace",
            &path,
            "--suspect",
            "s1:n2",
        ]))
        .unwrap();
        assert!(chain.contains("suspicion of s1:n2"), "{chain}");
        assert!(
            chain.contains("chain complete: view installed without s1:n2"),
            "{chain}"
        );

        let filtered = run(&argv(&[
            "tq", "filter", "--trace", &path, "--seg", "1", "--kind", "view",
        ]))
        .unwrap();
        assert!(!filtered.is_empty());
        assert!(
            filtered.lines().all(|l| l.contains("\"seg\":1")),
            "{filtered}"
        );

        let summary = run(&argv(&["tq", "summary", "--trace", &path])).unwrap();
        assert!(summary.contains("segments: 2"), "{summary}");

        // A cross-segment suspect/observer mismatch is rejected.
        let err = run(&argv(&[
            "tq",
            "chain",
            "--trace",
            &path,
            "--suspect",
            "s1:n2",
            "--observer",
            "s0:n1",
        ]))
        .unwrap_err();
        assert!(err.contains("different segments"), "{err}");
    }

    #[test]
    fn campaign_requires_a_subcommand() {
        let err = run(&argv(&["campaign"])).unwrap_err();
        assert!(err.contains("run | report | replay"), "{err}");
    }

    /// Repo-root scenario file, resolved independently of the test cwd.
    fn scenario_path(name: &str) -> String {
        format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn tq_chain_explains_the_partition_heal_suspicion() {
        let out = run(&argv(&[
            "tq",
            "chain",
            "--scenario",
            &scenario_path("partition_heal.canely"),
            "--suspect",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("causal chain: suspicion of n3"), "{out}");
        // Life-sign silence → surveillance expiry → suspicion →
        // failure-sign diffusion → agreement → view install.
        for label in [
            "last activity of n3",
            "timer.expired",
            "fd.suspect",
            "fda.sign.tx",
            "failure-sign diffusion",
            "fda.delivered",
            "fd.notified",
            "view.installed",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
        assert!(
            out.contains("chain complete: view installed without n3"),
            "{out}"
        );
    }

    #[test]
    fn tq_phases_reports_headroom_against_bounds() {
        let out = run(&argv(&[
            "tq",
            "phases",
            "--scenario",
            &scenario_path("partition_heal.canely"),
        ]))
        .unwrap();
        assert!(out.contains("phase latencies (bit-times)"), "{out}");
        assert!(out.contains("surveillance"), "{out}");
        assert!(out.contains("diffusion"), "{out}");
        assert!(out.contains("cycle-wait"), "{out}");
        assert!(out.contains("detection: count="), "{out}");
        assert!(out.contains("view-change: count="), "{out}");
        assert!(out.contains("bound="), "{out}");
        assert!(out.contains("headroom="), "{out}");
    }

    #[test]
    fn tq_outputs_are_byte_deterministic_and_reexport_is_lossless() {
        let scenario = scenario_path("partition_heal.canely");
        let summary = |_: ()| run(&argv(&["tq", "summary", "--scenario", &scenario])).unwrap();
        assert_eq!(summary(()), summary(()));

        // A recorded trace parses and re-renders byte-identically.
        let jsonl = run(&argv(&[
            "trace", "--nodes", "3", "--crash", "2@250ms", "--until", "400ms", "--jsonl",
        ]))
        .unwrap();
        let dir = std::env::temp_dir().join("canelyctl-tq-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("roundtrip.trace.jsonl");
        std::fs::write(&file, &jsonl).unwrap();
        let reexported = run(&argv(&[
            "tq",
            "reexport",
            "--trace",
            &file.to_string_lossy(),
        ]))
        .unwrap();
        assert_eq!(jsonl, reexported, "tq reexport must be byte-lossless");
    }

    #[test]
    fn tq_filter_narrows_by_kind_and_node() {
        let scenario = scenario_path("partition_heal.canely");
        let out = run(&argv(&[
            "tq",
            "filter",
            "--scenario",
            &scenario,
            "--kind",
            "fd.suspect",
        ]))
        .unwrap();
        assert!(!out.is_empty());
        assert!(
            out.lines().all(|l| l.contains("\"kind\":\"fd.suspect\"")),
            "{out}"
        );
        let windowed = run(&argv(&[
            "tq",
            "filter",
            "--scenario",
            &scenario,
            "--node",
            "3",
            "--until",
            "50ms",
        ]))
        .unwrap();
        assert!(!windowed.is_empty());
    }

    #[test]
    fn tq_requires_a_source_and_a_subcommand() {
        let err = run(&argv(&["tq"])).unwrap_err();
        assert!(err.contains("chain | phases"), "{err}");
        let err = run(&argv(&["tq", "summary"])).unwrap_err();
        assert!(err.contains("--scenario"), "{err}");
    }

    #[test]
    fn trace_chrome_exports_trace_event_json() {
        let out = run(&argv(&[
            "trace", "--nodes", "3", "--crash", "2@250ms", "--until", "400ms", "--chrome",
        ]))
        .unwrap();
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        assert!(out.contains("\"ph\":\"M\""), "process metadata: {out}");
        assert!(out.contains("\"ph\":\"X\""), "frame/phase spans expected");
        assert!(out.contains("\"ph\":\"i\""), "protocol instants expected");
        assert!(
            out.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"),
            "{out}"
        );
        let err = run(&argv(&["trace", "--chrome", "--jsonl"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn campaign_report_analytics_profiles_the_matrix() {
        let dir = std::env::temp_dir().join("canelyctl-campaign-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("analytics.campaign");
        std::fs::write(
            &spec,
            "name analytics\nnodes 3\nseeds 0..2\ncrash-budget 1\nuntil 300ms\nsettle 150ms\n",
        )
        .unwrap();
        let path = spec.to_string_lossy().to_string();
        let md = run(&argv(&[
            "campaign",
            "report",
            "--spec",
            &path,
            "--analytics",
        ]))
        .unwrap();
        assert!(md.contains("Phase latency across the campaign"), "{md}");
        assert!(md.contains("headroom"), "{md}");
        let one = run(&argv(&[
            "campaign",
            "report",
            "--spec",
            &path,
            "--analytics",
            "--json",
            "--workers",
            "1",
        ]))
        .unwrap();
        let three = run(&argv(&[
            "campaign",
            "report",
            "--spec",
            &path,
            "--analytics",
            "--json",
            "--workers",
            "3",
        ]))
        .unwrap();
        assert_eq!(one, three, "analytics JSON is worker-count independent");
    }
}
