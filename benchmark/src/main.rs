//! `ledger` — the perf ledger of this repository: end-to-end numbers
//! from whole `canelyctl` processes, per-layer numbers from one traced
//! run per workload plus in-process layer probes. `benchmark/run.sh`
//! builds both binaries and runs this one; see `benchmark/README.md`.
//!
//! ```text
//! ledger --canelyctl BIN --root DIR --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is one JSON object
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! ledger --canelyctl BIN --root DIR [--workload W]… [--seed N] [--seconds S] [--pin]
//!     the full ledger: every (selected) workload timed, traced and
//!     probed; prints `name value unit` rows, writes out/ledger.json
//! ledger compare A.json B.json
//! ledger manifest          prints BENCHMARK.json from the metric tables
//! ```

mod child;
mod json;
mod ledger;
mod measure;
mod names;
mod probes;
mod snapshot;
mod spans;
mod stats;
mod workloads;

use json::Json;
use measure::{Config, Tally};
use names::Metric;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 20;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[derive(Default)]
struct Options {
    canelyctl: Option<PathBuf>,
    root: Option<PathBuf>,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    pin: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--canelyctl" => o.canelyctl = Some(PathBuf::from(value()?)),
            "--root" => o.root = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                let w = Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                o.workloads.push(w);
            }
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "`--seconds` takes a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("`--seconds` must be in (0, 3600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                });
            }
            "--pin" => o.pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn result_line(tally: &Tally, metrics: Vec<(&Metric, f64)>) -> String {
    Json::obj([
        ("correct", Json::Bool(tally.correct())),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(m, v)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::Str(m.unit.into()))]),
                )
            })),
        ),
    ])
    .render()
}

/// `name value unit` with the value's digits kept.
fn row(metric: &Metric, value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{} {} {}", metric.name, Json::Num(v).render(), metric.unit),
        None => format!("{} n/a {}", metric.name, metric.unit),
    }
}

fn report_failures(tally: &Tally) {
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
}

/// One run of one workload, for a caller that drives the runs itself.
fn single(cfg: &Config, workload: &'static Workload, trace: bool) -> Result<(), String> {
    if trace {
        let mut rec = Recorder::new(workload.name);
        let traced = measure::traced(cfg, workload, &mut rec)?;
        measure::write_spans(&cfg.out, &rec)?;
        report_failures(&traced.tally);
        let metrics: Vec<(&Metric, f64)> = names::PER_LAYER
            .iter()
            .map(|m| (m, traced.values[m.name]))
            .collect();
        for (m, v) in &metrics {
            println!("{}", row(m, Some(*v)));
        }
        println!("{}", result_line(&traced.tally, metrics));
    } else {
        let timed = measure::timed(cfg, workload)?;
        report_failures(&timed.tally);
        let mut metrics = Vec::new();
        for m in names::END_TO_END {
            let v = timed
                .value(workload, m.name)
                .filter(|v| v.is_finite() && *v != 0.0)
                .ok_or_else(|| format!("end-to-end metric `{}` has no value", m.name))?;
            println!("{}", row(m, Some(v)));
            metrics.push((m, v));
        }
        println!(
            "samples {} hi_pct p{} harness_peak_rss_kib {}",
            timed.costs.len(),
            stats::hi_percentile(timed.costs.len()),
            child::own_peak_rss_kib()?
        );
        println!("{}", result_line(&timed.tally, metrics));
    }
    Ok(())
}

/// The full ledger: every selected workload timed, then every one
/// traced and probed — in that order, because the in-process probes
/// grow the harness, and a harness larger than a child masks the
/// child's peak RSS. Returns whether every operation checked out.
fn full(cfg: &Config, selected: &[&'static Workload]) -> Result<bool, String> {
    let mut timed = Vec::new();
    for &workload in selected {
        eprintln!("ledger: {} — timed loop…", workload.name);
        timed.push(measure::timed(cfg, workload)?);
    }
    let mut rec = Recorder::new("");
    let mut sections = Vec::new();
    let mut clean = true;
    for (&workload, timed) in selected.iter().zip(&timed) {
        eprintln!("ledger: {} — traced run and probes…", workload.name);
        let traced = measure::traced(cfg, workload, &mut rec)?;
        report_failures(&timed.tally);
        report_failures(&traced.tally);
        clean &= timed.tally.correct() && traced.tally.correct();

        println!("== {} — {}", workload.name, workload.why);
        println!(
            "-- end to end ({} timed operations, hi = p{}, {} of {} checked operations failed)",
            timed.costs.len(),
            stats::hi_percentile(timed.costs.len()),
            timed.tally.failed,
            timed.tally.attempted
        );
        for m in names::END_TO_END.iter().chain(names::LEDGER_ONLY) {
            println!("{}", row(m, timed.value(workload, m.name)));
        }
        println!("-- per layer (traced run + probe pass)");
        for m in names::PER_LAYER {
            println!("{}", row(m, Some(traced.values[m.name])));
        }
        sections.push(ledger::workload_json(workload, timed, &traced));
    }
    measure::write_spans(&cfg.out, &rec)?;
    let path = cfg.out.join("ledger.json");
    let mut text = ledger::document(cfg.seed, cfg.seconds, sections).render();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(clean)
}

/// `BENCHMARK.json`, generated from the tables so it cannot drift.
fn manifest() -> String {
    let metric = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields).render()
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
            .render()
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(names::END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(names::PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

fn read_ledger(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Json::parse(&text).map_err(|e| format!("`{path}` is not a ledger: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: ledger compare A.json B.json".into());
            };
            let (report, pass) = ledger::compare(&read_ledger(a)?, &read_ledger(b)?)?;
            print!("{report}");
            return Ok(pass);
        }
        Some("manifest") => {
            print!("{}", manifest());
            return Ok(true);
        }
        _ => {}
    }
    let o = parse_options(args)?;
    let root = o.root.ok_or("`--root <repository root>` is required")?;
    let bench = root.join("benchmark");
    let cfg = Config {
        canelyctl: o.canelyctl.ok_or("`--canelyctl <binary>` is required")?,
        out: bench.join("out"),
        pinned: bench.join("expected").join("digests.txt"),
        seed: o.seed,
        seconds: o.seconds.unwrap_or(f64::from(RUN_SECONDS)),
        pin: o.pin,
    };
    if o.pin && o.seed != 0 {
        return Err("`--pin` rewrites the default seed's digests; drop `--seed`".into());
    }
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("cannot create `{}`: {e}", cfg.out.display()))?;
    match o.trace {
        Some(trace) => {
            let [workload] = o.workloads[..] else {
                return Err("`--trace` runs exactly one `--workload`".into());
            };
            // A failed check is reported in the result line, not by
            // the exit code: the run itself completed.
            single(&cfg, workload, trace).map(|()| true)
        }
        None => {
            let all: Vec<&'static Workload> = workloads::ALL.iter().collect();
            full(
                &cfg,
                if o.workloads.is_empty() {
                    &all
                } else {
                    &o.workloads
                },
            )
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_valid_json_and_is_what_is_checked_in() {
        let text = manifest();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(f64::from(RUN_SECONDS))
        );
        assert!(text.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            text,
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn options_reject_what_they_do_not_know() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload fed-4x32 --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (o.workloads[0].name, o.seed, o.seconds, o.trace),
            ("fed-4x32", 3, Some(5.0), Some(true))
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Every name printed by a single run is in `BENCHMARK.json` and
    /// the other way round: the result line is built by walking the
    /// same tables the manifest is generated from.
    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
            notes: vec![],
        };
        let metrics: Vec<(&Metric, f64)> = names::END_TO_END.iter().map(|m| (m, 1.5)).collect();
        let line = Json::parse(&result_line(&tally, metrics)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let listed: Vec<&str> = names::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(printed, listed);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}
