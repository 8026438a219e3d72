//! Library backing the `canely` command-line scenario runner.
//!
//! The CLI exposes the simulation stack without writing Rust:
//!
//! ```text
//! canelyctl membership --nodes 8 --crash 3@250ms --tm 30ms
//! canelyctl baseline osek --nodes 16 --crash 15@2000ms
//! canelyctl analyze inaccessibility
//! canelyctl analyze reliability --ber 1e-9
//! canelyctl trace --nodes 4 --until 100ms --csv
//! canelyctl trace --nodes 4 --crash 2@250ms --until 500ms --jsonl
//! canelyctl metrics --nodes 4 --crash 2@250ms --until 500ms
//! ```
//!
//! Argument parsing is hand-rolled (no external dependencies): every
//! option is `--name value` (or a flag), durations accept `ms`/`us`
//! suffixes, and events use the `node@time` form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod output;
pub mod render;
pub mod scenario;

pub use args::{ArgError, Args};
pub use output::{Failure, Sink};

use std::io::Write;

/// Entry point of the binary: parses `argv` (without the program name)
/// and runs the selected command, which writes its output to `out`.
///
/// # Errors
///
/// A usage or diagnostic message on malformed arguments, before any
/// byte is written; or the write `out` refused.
pub fn run_into(argv: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut args = Args::parse(argv).map_err(|e| format!("{e}\n\n{}", usage()))?;
    let command = args.command().to_string();
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(out.write_all(usage().as_bytes())?);
    }
    let sink = Sink::new(out);
    match command.as_str() {
        "membership" => commands::membership(&mut args, sink),
        "groups" => commands::groups(&mut args, sink),
        "baseline" => commands::baseline(&mut args, sink),
        "analyze" => commands::analyze(&mut args, sink),
        "trace" => commands::trace(&mut args, sink),
        "tq" => commands::tq(&mut args, sink),
        "metrics" => commands::metrics(&mut args, sink),
        "campaign" => commands::campaign(&mut args, sink),
        "run" => commands::run_file(&mut args, sink),
        other => Err(format!("unknown command `{other}`\n\n{}", usage()).into()),
    }
}

/// [`run_into`] a buffer: the output as text, as the tests read it.
///
/// # Errors
///
/// The usage or diagnostic message.
pub fn run(argv: &[String]) -> Result<String, String> {
    let mut out = Vec::new();
    match run_into(argv, &mut out) {
        Ok(()) => Ok(String::from_utf8(out).expect("every command writes text")),
        Err(Failure::Message(message)) => Err(message),
        Err(Failure::Write(error)) => Err(format!("error: writing output: {error}")),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
canelyctl — CANELy scenario runner (simulated 1 Mbps CAN bus; 1 bit-time = 1 µs)

USAGE:
  canelyctl <command> [options]

COMMANDS:
  membership     run a CANELy membership scenario
      --nodes N           cluster size                     [default 4]
      --tm DUR            membership cycle period          [default 30ms]
      --th DUR            heartbeat period                 [default 5ms]
      --until DUR         simulation horizon               [default 600ms]
      --crash NODE@TIME   schedule a crash (repeatable)
      --join NODE@TIME    power on a late joiner (repeatable)
      --leave NODE@TIME   schedule a leave (repeatable)
      --restart NODE@TIME power-cycle a node (repeatable)
      --error-rate P      stochastic consistent-omission probability
      --seed N            fault-injection seed             [default 0]
      --traffic DUR       cyclic traffic period for all nodes (implicit
                          heartbeats); omit for explicit life-signs
      (each node's protocol events, crash and restart markers:
      canelyctl trace --jsonl … > t.jsonl, then
      canelyctl tq filter --trace t.jsonl --node N [--kind fd])

  groups         membership plus a process group
      (membership options but --join, --leave, --restart and
      --traffic, plus)
      --group-join NODE@TIME   process joins group 1 (repeatable)

  baseline <osek|guarding|heartbeat|ttp>   run a related-work protocol
      --nodes N           population                       [default 8]
      --crash NODE@TIME   schedule a crash (repeatable)
      --until DUR         simulation horizon               [default 3000ms]

  analyze <inaccessibility|bandwidth|reliability|bounds>
      --ber X             bit error rate (reliability)     [default 1e-9]
      --tm DUR            cycle period (bandwidth)         [default 30ms]
      --requests N        join/leave requests (bandwidth)  [default 20]

  trace          dump the bus transaction trace of a scenario
      (membership options, plus)
      --csv               machine-readable CSV output (bus only)
      --jsonl             merged protocol + bus trace, one JSON object
                          per line (schema: docs/TRACE_SCHEMA.md)
      --chrome            Chrome/Perfetto trace-event JSON: per-node
                          instant tracks, bus frame spans and derived
                          phase spans (open in ui.perfetto.dev)

  tq <chain|phases|filter|summary|reexport>   query a causal trace
      --scenario FILE     run a .canely scenario and query its trace, or
      --trace FILE        query a pre-recorded JSONL trace document
    tq chain --suspect N [--observer N]   full causal chain behind the
                          first suspicion of node N: last life-sign,
                          timer expiry, failure-sign diffusion, RHA
                          rounds, view install; federated traces take
                          segment-qualified ids (s1:n3) and walk
                          gateway bridge hops
    tq phases             phase-level latency table (surveillance,
                          queuing, arbitration, diffusion, cycle-wait,
                          agreement, install) plus detection and
                          view-change totals with headroom vs the
                          analytic bounds
      --detection-bound DUR    override the paper-default bound
      --view-change-bound DUR  override the paper-default bound
    tq filter [--seg N] [--node N] [--kind PREFIX] [--view SET]
              [--since DUR] [--until DUR]   re-render matching records
    tq summary            event-kind counts and bus occupancy
    tq reexport           parse + re-render the full document (the
                          round-trip is byte-lossless)

  metrics        run a scenario with structured tracing on and report
                 derived metrics: per-node event counters plus
                 failure-detection-latency, view-change-latency and
                 RHA-broadcast histograms (see docs/METRICS.md)
      (membership options, plus)
      --live              emit the live-telemetry registry instead:
                          Prometheus text exposition of detector
                          counters, step-loop totals and latency
                          histograms (deterministic for a given
                          scenario and seed)
      --json              with --live: one JSON object instead of
                          Prometheus text
      --profile           attribute simulator wall time to step-loop
                          phases (appends a phase table; with --live,
                          adds the volatile phase-nanos series)

  run FILE       execute a scenario file (line-based DSL: nodes, tm,
                 th, traffic, crash, join, leave, restart, until,
                 seed, error-rate, inconsistent-rate, omission-degree,
                 inconsistent-degree, inaccessible, weaken-fda,
                 expect-view — the full table is in
                 docs/CAMPAIGN_SPEC.md); `expect-view` turns the file
                 into an executable regression test; a file with
                 `segments` above 1 (plus bridge, gateway-crash,
                 segment-partition, …) runs on K bridged buses in the
                 campaign engine and is judged by its invariant oracle

  campaign <run|report|replay>   deterministic parallel fault-injection
                 campaigns with an invariant oracle (canely-campaign)
    campaign run --spec FILE     expand + execute a .campaign matrix
      --workers N         worker threads (summary is identical
                          for any N)                        [default 4]
      --json              machine-readable deterministic summary
      --emit-counterexample DIR  write the minimized reproducer
                          (.canely + offending .trace.jsonl) to DIR
      --progress          stream throughput / ETA / violation-count /
                          worker-occupancy lines to stderr while the
                          matrix runs (summary bytes are unchanged)
      --metrics-json      also stream one-line JSON registry snapshots
                          (implies live telemetry)
      --progress-interval-ms N   reporting period        [default 500]
    campaign report --spec FILE  print the expanded run matrix and
                          per-run latency bounds without executing
      --analytics         execute with trace capture and report
                          campaign-wide phase-latency histograms and
                          measured-vs-bound headroom per run (Markdown;
                          --json for the deterministic JSON form)
    campaign replay --scenario FILE  re-execute a (counterexample)
                          scenario under the invariant oracle and
                          report the verdict
    (run and replay exit nonzero when any invariant is violated)

  help           this text
"
    .to_string()
}
