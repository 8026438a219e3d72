//! Inputs that used to panic, hang or be silently re-interpreted: each
//! must yield a report or a named diagnostic, never exit 101, a spin,
//! or a trace of a node that does not exist.

use canely_cli::run;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Writes `text` to a scratch file named `name` and returns its path.
fn file(name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join("canelyctl-hostile-inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

const RUN: &[&str] = &["run"];
const REPLAY: &[&str] = &["campaign", "replay", "--scenario"];
const CAMPAIGN: &[&str] = &["campaign", "run", "--spec"];
const TQ: &[&str] = &["tq", "summary", "--scenario"];

/// A document refused on a line: `(file name, text, commands, line,
/// needle)`.
type Refusal<'a> = (&'a str, &'a str, &'a [&'a [&'a str]], usize, &'a str);

/// `command… <file>` must fail with `error: <file>:<line>: …<needle>…`
/// for each command of each row.
fn assert_refused(rows: &[Refusal]) {
    for &(name, text, commands, line, needle) in rows {
        let path = file(name, text);
        for command in commands {
            let mut args = argv(command);
            args.push(path.clone());
            let err = run(&args).expect_err(text);
            let anchor = format!("error: {path}:{line}: ");
            assert!(err.starts_with(&anchor), "{command:?} {text:?}: {err}");
            assert!(err.contains(needle), "{command:?} {text:?}: {err}");
        }
    }
}

#[test]
fn refused_documents_name_their_line() {
    const SETTLE: &str = "horizon (until) must exceed the settle margin";
    const ZERO: &str = "traffic period must be positive";
    const DRAIN: &str = "traffic period `1us` is shorter than its frame (157us)";
    const ONE_PERIOD: &str = "one period on every node or none";
    const AT_ZERO: &str = "at 0ms has no campaign-oracle model";
    let rows: &[Refusal] = &[
        // A fault on a node the scenario never creates.
        ("stray.canely", "nodes 4\ncrash 9 10ms\n", &[REPLAY], 2, "node 9 is neither"),
        // Traffic for such a node used to be silently dropped.
        ("stray.canely", "nodes 4\ntraffic 9 2ms\nuntil 300ms\n", &[RUN, REPLAY, TQ], 2, "node 9 is neither in 0..4 nor a `join`"),
        // 18446744073709552 ms × 1000 wraps u64 to a 0.38 ms horizon.
        ("wrap.canely", "nodes 4\nuntil 18446744073709552ms\n", &[RUN, REPLAY], 2, "duration overflows"),
        ("wrap.campaign", "nodes 4\nuntil 18446744073709552ms\n", &[CAMPAIGN], 2, "duration overflows"),
        // 18446744073709551 ms fits u64 and used to simulate until killed.
        ("spin.canely", "until 18446744073709551ms\n", &[RUN, REPLAY], 1, "exceeds one simulated hour"),
        ("spin.campaign", "until 18446744073709551ms\n", &[CAMPAIGN], 1, "exceeds one simulated hour"),
        // `replay` used to judge a run that never left its settle margin.
        ("short.canely", "nodes 4\nuntil 0ms\n", &[REPLAY], 2, SETTLE),
        ("short.canely", "nodes 4\nuntil 100ms\n", &[REPLAY], 2, SETTLE),
        ("short-fed.canely", "nodes 4\nsegments 2\nuntil 150ms\nsettle 150ms\n", &[RUN], 3, SETTLE),
        // A zero traffic period used to reach `TrafficConfig::periodic`
        // and panic (`traffic period must be positive`, exit 101).
        ("traffic.campaign", "nodes 4\ntraffic 0ms\n", &[CAMPAIGN], 2, ZERO),
        ("traffic.canely", "nodes 4\ntraffic 0 0ms\nuntil 300ms\nsettle 150ms\n", &[RUN, REPLAY], 2, ZERO),
        // A period shorter than its frame's wire time queued one frame
        // per bit-time into the sorted controller queue: `run` was still
        // going when killed at 6–8 s.
        ("drain.canely", "nodes 3\ntraffic 0 1us\nuntil 300ms\n", &[RUN, REPLAY, TQ], 2, DRAIN),
        ("drain.campaign", "nodes 3\ntraffic 1us\nuntil 300ms\n", &[CAMPAIGN], 2, DRAIN),
        // Outside the judged subset (`run` takes these, see
        // `replay_refuses_what_it_would_have_re_interpreted`).
        ("subset.canely", "nodes 4\ntraffic 0 2ms\n", &[REPLAY], 2, ONE_PERIOD),
        ("subset.canely", "nodes 2\ntraffic 0 2ms\ntraffic 1 4ms\n", &[REPLAY], 3, ONE_PERIOD),
        ("subset.canely", "tm 30ms\nnodes 1\n", &[REPLAY], 2, "needs at least 2 nodes"),
        ("subset.canely", "nodes 4\n\nleave 1 10ms\njoin 9 5ms\n", &[REPLAY], 3, "`leave` schedules have no campaign-oracle"),
        // A crash at 0ms: the oracle assumes every crash victim booted
        // first, so a correct run read as 3 `detection-latency`
        // violations.
        ("zero.canely", "nodes 4\ncrash 1 0ms\nuntil 300ms\n", &[REPLAY], 2, AT_ZERO),
        ("zero-fed.canely", "nodes 4\nsegments 2\nuntil 300ms\nseg-crash 1 1 0ms\n", &[RUN, REPLAY], 4, AT_ZERO),
        ("zero-fed.canely", "nodes 4\nsegments 2\nuntil 300ms\ngateway-crash 0 0ms\n", &[RUN, REPLAY], 4, AT_ZERO),
        ("zero-fed.canely", "nodes 4\nsegments 2\nuntil 300ms\ngateway-crash 1 0ms\n", &[RUN, REPLAY], 4, AT_ZERO),
        // The first zero instant in document order is the one named.
        ("zero-order.canely", "nodes 4\nsegments 2\nuntil 300ms\ngateway-crash 1 10ms\ncrash 1 0ms\ngateway-crash 0 0ms\n", &[REPLAY], 5, "`crash` at 0ms"),
        // A node joins, leaves and runs traffic once: a second `join`
        // used to panic every single-bus reader (`node n9 already
        // exists`, exit 101), and a second `leave` or `traffic` line
        // was silently dropped.
        ("twice.canely", "nodes 4\njoin 9 100ms\njoin 9 200ms\nuntil 300ms\n", &[RUN, TQ], 3, "node 9 already has a `join` line"),
        ("twice.canely", "nodes 4\nleave 2 100ms\nleave 2 200ms\nuntil 300ms\n", &[RUN, TQ], 3, "node 2 already has a `leave` line"),
        ("twice.canely", "nodes 4\ntraffic 1 2ms\ntraffic 1 5ms\nuntil 300ms\n", &[RUN, TQ], 3, "node 1 already has a `traffic` line"),
        ("twice.canely", "nodes 2\ntraffic 1 2ms\n\ntraffic 1 2ms\n", &[REPLAY, RUN], 4, "node 1 already has a `traffic` line"),
    ];
    assert_refused(rows);
}

#[test]
fn a_matrix_too_large_to_hold_is_refused_at_parse_time() {
    // Used to panic with `capacity overflow` in `expand()`. Without a
    // `seeds` line the last directive takes the blame.
    let wide = format!("nodes{}\ntm{}\n", " 4".repeat(1100), " 30ms".repeat(1100));
    assert_refused(&[
        (
            "seeds.campaign",
            "nodes 4\nseeds 0..18446744073709551615\n",
            &[CAMPAIGN],
            2,
            "more than 1048576 runs",
        ),
        (
            "wide.campaign",
            &wide,
            &[CAMPAIGN],
            2,
            "more than 1048576 runs",
        ),
    ]);
}

#[test]
fn a_cycle_too_short_for_the_stack_is_a_diagnostic_under_every_reader() {
    // `tm 1us` used to panic (`run config must validate`) under
    // `replay` and under a federated `run`.
    assert_refused(&[
        (
            "tm.canely",
            "nodes 4\ntm 1us\nuntil 300ms\nsettle 150ms\n",
            &[RUN, REPLAY],
            2,
            "RHA timeout",
        ),
        (
            "tmfed.canely",
            "nodes 4\nsegments 2\ntm 1us\nuntil 300ms\nsettle 150ms\n",
            &[RUN],
            3,
            "RHA timeout",
        ),
    ]);
}

#[test]
fn range_errors_under_replay_name_the_offending_line() {
    // `run` anchored these to a line; `replay` reported them line-less.
    let head = "nodes 4\nsegments 3\nbridge line\n";
    for (tail, needle) in [
        ("crash 9 10ms\n", "node 9 is neither"),
        ("seg-crash 3 1 10ms\n", "seg-crash segment 3 outside 0..3"),
        (
            "seg-crash 0 1 10ms\n",
            "seg-crash segment 0: its crashes use plain `crash` lines",
        ),
        ("seg-crash 1 0 10ms\n", "seg-crash victim 0 is the gateway"),
        (
            "gateway-restart 1 10ms\n",
            "gateway-restart of segment 1 has no earlier gateway-crash",
        ),
        ("crash 0 10ms\n", "crash victim is the gateway"),
        (
            "gateway-crash 3 10ms\n",
            "gateway-crash segment 3 outside 0..3",
        ),
        ("asymmetric 0 2 10ms 20ms\n", "unbridged segments 0 2"),
    ] {
        let text = format!("{head}{tail}");
        assert_refused(&[("range.canely", &text, &[REPLAY, RUN], 4, needle)]);
    }
}

#[test]
fn single_segment_scenario_file_reports_instead_of_panicking() {
    // `segments 1` is the plain single bus: a no-op line, so `run`
    // prints the single-bus report — even next to a `join`, which the
    // judged path would refuse.
    let path = file(
        "seg1.canely",
        "nodes 4\nsegments 1\njoin 9 100ms\nuntil 300ms\nsettle 150ms\n",
    );
    let out = run(&argv(&["run", &path])).unwrap();
    assert!(
        out.starts_with("scenario: 4 nodes, horizon 300.00ms\n"),
        "{out}"
    );
    assert!(out.contains("node n9: view {0,1,2,3,9}"), "{out}");
}

#[test]
fn faults_on_nodes_that_never_exist_are_rejected() {
    for command in ["membership", "trace", "metrics"] {
        for option in ["--crash", "--leave", "--restart"] {
            let err = run(&argv(&[command, "--nodes", "4", option, "9@1ms"])).unwrap_err();
            assert!(
                err.starts_with("error: ") && err.contains("node n9"),
                "{command} {option}: {err}"
            );
        }
    }
    // `baseline` has no joiners: its population is `0..nodes`.
    for which in ["osek", "guarding", "heartbeat", "ttp"] {
        let err = run(&argv(&[
            "baseline", which, "--nodes", "4", "--crash", "9@10ms",
        ]))
        .unwrap_err();
        assert_eq!(err, "error: --crash names node n9, outside 0..4", "{which}");
    }
    // Nor has `groups`: `--group-join 9@10ms` used to be dropped.
    let err = run(&argv(&[
        "groups",
        "--nodes",
        "4",
        "--group-join",
        "9@10ms",
        "--until",
        "300ms",
    ]))
    .unwrap_err();
    assert_eq!(err, "error: --group-join names node n9, outside 0..4");
    // A late joiner is a node of the scenario like any other.
    let out = run(&argv(&[
        "membership",
        "--nodes",
        "4",
        "--join",
        "9@100ms",
        "--crash",
        "9@300ms",
        "--until",
        "400ms",
    ]))
    .unwrap();
    assert!(out.contains("CANELy membership"), "{out}");
}

#[test]
fn a_wrapping_horizon_is_an_overflow_not_a_short_run() {
    // 18446744073709552 ms × 1000 wraps u64 to a 0.38 ms horizon.
    let err = run(&argv(&["membership", "--until", "18446744073709552ms"])).unwrap_err();
    assert!(
        err.starts_with("error: --until") && err.contains("duration overflows"),
        "{err}"
    );
}

#[test]
fn a_horizon_past_one_simulated_hour_is_refused_not_spun_on() {
    // 18446744073709551 ms fits u64 and used to simulate until killed.
    let err = run(&argv(&["trace", "--until", "3600001ms"])).unwrap_err();
    assert!(
        err.starts_with("error: --until") && err.contains("one simulated hour"),
        "{err}"
    );
}

#[test]
fn a_horizon_inside_the_settle_margin_is_refused() {
    // `--until 0ms` used to panic summarising an empty bus window
    // (exit 101).
    for command in [
        &["membership"][..],
        &["groups"],
        &["trace"],
        &["metrics"],
        &["baseline", "ttp"],
    ] {
        let mut args = argv(command);
        args.extend(argv(&["--until", "0ms"]));
        let err = run(&args).unwrap_err();
        assert!(
            err.starts_with("error: --until expects ") && err.contains("positive"),
            "{command:?}: {err}"
        );
    }
}

#[test]
fn a_filter_window_that_keeps_nothing_is_refused_on_its_flag() {
    // `tq filter --until 0ms` read as "no bound", and a window whose
    // end is not after its start printed nothing and exited 0.
    let trace = recorded_trace("empty-window.trace.jsonl");
    for (window, message) in [
        (
            &["--until", "0ms"][..],
            "error: --until expects a duration like 30ms (until must be positive)",
        ),
        (
            &["--since", "10ms", "--until", "5ms"],
            "error: --until 5000bt is not after --since 10000bt: the window is empty",
        ),
        (
            &["--since", "10ms", "--until", "10ms"],
            "error: --until 10000bt is not after --since 10000bt: the window is empty",
        ),
    ] {
        let mut args = argv(&["tq", "filter", "--trace", &trace]);
        args.extend(argv(window));
        assert_eq!(run(&args).unwrap_err(), message, "{window:?}");
    }
    // The crash at 250 ms opens a window that is not empty.
    let kept = run(&argv(&[
        "tq", "filter", "--trace", &trace, "--since", "250ms", "--until", "260ms",
    ]))
    .unwrap();
    assert!(
        kept.starts_with("{\"t\":250000,\"seq\":0,\"node\":2,\"kind\":\"node.crashed\"}\n"),
        "{kept}"
    );
}

#[test]
fn groups_refuses_the_membership_options_it_does_not_model() {
    // `groups` read these and dropped them: n2 stayed in every view
    // after `--leave`, a `--restart` left it crashed and a `--join`
    // printed a report without the joiner.
    for option in [
        &["--join", "9@10ms"][..],
        &["--leave", "2@100ms"],
        &["--restart", "2@100ms", "--crash", "2@50ms"],
        &["--traffic", "2ms"],
    ] {
        let mut args = argv(&["groups", "--nodes", "4", "--until", "300ms"]);
        args.extend(argv(option));
        let err = run(&args).unwrap_err();
        assert_eq!(err, format!("error: groups does not model {}", option[0]));
    }
    // The text journal is gone from every command.
    let err = run(&argv(&[
        "groups",
        "--nodes",
        "4",
        "--until",
        "300ms",
        "--journal",
    ]))
    .unwrap_err();
    assert_eq!(err, "error: unknown flag --journal");
}

#[test]
fn metrics_json_without_live_is_refused() {
    // `--json` used to be dropped without `--live`: the plain report
    // printed and the run exited 0.
    let err = run(&argv(&[
        "metrics", "--nodes", "3", "--until", "100ms", "--json",
    ]))
    .unwrap_err();
    assert_eq!(err, "error: --json needs --live");
}

#[test]
fn a_zero_traffic_period_is_refused_on_its_line() {
    // On the command line a zero period is how one says "none" (a
    // file's zero period is a row of `refused_documents_name_their_line`).
    let out = run(&argv(&[
        "membership",
        "--nodes",
        "3",
        "--traffic",
        "0ms",
        "--until",
        "100ms",
    ]));
    assert!(out.unwrap().contains("CANELy membership"));
}

#[test]
fn replay_refuses_what_it_would_have_re_interpreted() {
    // `traffic 0 2ms` alone drives node 0 under `run`; `replay` used to
    // silently drive every node with it. The judged subset is one
    // period on each of `0..nodes`, in any order, or no traffic:
    // `replay` refuses these (rows of `refused_documents_name_their_line`),
    // `run` executes them.
    for text in [
        "nodes 4\ntraffic 0 2ms\n",
        "nodes 2\ntraffic 0 2ms\ntraffic 1 4ms\n",
        "tm 30ms\nnodes 1\n",
        "nodes 4\n\nleave 1 10ms\njoin 9 5ms\n",
    ] {
        let out = run(&argv(&["run", &file("subset-run.canely", text)])).unwrap();
        assert!(out.starts_with("scenario: "), "`run` takes {text:?}: {out}");
    }
    let uniform = file(
        "uniform.canely",
        "nodes 2\ntraffic 1 2ms\ntraffic 0 2ms\nsettle 150ms\n",
    );
    let out = run(&argv(&["campaign", "replay", "--scenario", &uniform])).unwrap();
    // One reader, one set of defaults: `until` is `run`'s 600 ms.
    assert!(out.contains("horizon 600.00ms"), "{out}");
    assert!(out.contains("verdict: clean"), "{out}");
}

#[test]
fn a_crash_at_zero_is_refused_where_the_oracle_judges() {
    // The judged readers refuse a crash at 0ms (rows of
    // `refused_documents_name_their_line`); single-bus `run`, which
    // has no oracle, still executes it.
    let single = "nodes 4\ncrash 1 0ms\nuntil 300ms\n";
    let out = run(&argv(&["run", &file("zero-run.canely", single)])).unwrap();
    assert!(out.starts_with("scenario: "), "{out}");
    let later = file("later.canely", "nodes 4\ncrash 1 1ms\nuntil 300ms\n");
    let out = run(&argv(&["campaign", "replay", "--scenario", &later])).unwrap();
    assert!(out.contains("verdict: clean"), "{out}");
}

#[test]
fn a_node_joins_and_leaves_once_under_the_flags() {
    // A second `--join` of n9 used to panic (`node n9 already exists`,
    // exit 101); a second `--leave` was silently dropped. The files'
    // form is a row of `refused_documents_name_their_line`.
    for (command, option, event) in [
        ("membership", "--join", "9@"),
        ("trace", "--join", "9@"),
        ("metrics", "--join", "9@"),
        ("membership", "--leave", "2@"),
    ] {
        let mut args = argv(&[command, "--nodes", "4", "--until", "300ms"]);
        for at in ["100ms", "200ms"] {
            args.extend([option.to_string(), format!("{event}{at}")]);
        }
        if command == "trace" {
            args.push("--jsonl".into());
        }
        let err = run(&args).unwrap_err();
        let node = &event[..1];
        assert_eq!(
            err,
            format!("error: {option} names node n{node} twice"),
            "{command}"
        );
    }
}

/// The binary, run with `args` and stdout going to `stdout`.
fn canelyctl(args: &[&str], stdout: impl Into<std::process::Stdio>) -> std::process::Child {
    use std::process::{Command, Stdio};
    Command::new(env!("CARGO_BIN_EXE_canelyctl"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// A JSONL trace document written by the library to a scratch file
/// named `name`, for `tq --trace`.
fn recorded_trace(name: &str) -> String {
    let jsonl = run(&argv(&[
        "trace", "--nodes", "4", "--crash", "2@250ms", "--until", "400ms", "--jsonl",
    ]))
    .unwrap();
    file(name, &jsonl)
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_run_quietly() {
    // `canelyctl trace … --jsonl | head -n 1` used to panic (`failed
    // printing to stdout: Broken pipe`, exit 101). Each output is many
    // pipe buffers long and streams as it renders, so `head` is gone
    // while the command is still rendering.
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let trace = recorded_trace("closed-pipe.trace.jsonl");
    for (args, head) in [
        (
            &["trace", "--nodes", "4", "--until", "400ms", "--jsonl"][..],
            "{\"t\":0,",
        ),
        (
            &["trace", "--nodes", "4", "--until", "400ms", "--chrome"],
            "{\"traceEvents\":[",
        ),
        (&["tq", "reexport", "--trace", &trace], "{\"t\":0,"),
    ] {
        let mut child = canelyctl(args, Stdio::piped());
        let mut stdout = BufReader::with_capacity(256, child.stdout.take().unwrap());
        let mut first = String::new();
        stdout.read_line(&mut first).unwrap();
        assert!(first.starts_with(head), "{args:?}: {first}");
        drop(stdout);
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(
            stderr, "",
            "{args:?}: a closed pipe is not an error to report"
        );
        assert!(output.status.success(), "{args:?}: {:?}", output.status);
    }
}

#[test]
fn every_argument_check_runs_before_the_first_byte_is_written() {
    // The output streams as it renders, so an argument no command read
    // must be refused before the render starts, not after it.
    use std::process::Stdio;
    let trace = recorded_trace("unused-argument.trace.jsonl");
    for (args, message) in [
        (
            &[
                "trace", "--nodes", "3", "--until", "50ms", "--jsonl", "--bogus", "1",
            ][..],
            "error: unknown option --bogus\n",
        ),
        (
            &["trace", "--chrome", "--csv"],
            "error: --csv, --jsonl and --chrome are mutually exclusive\n",
        ),
        (
            &["tq", "reexport", "--trace", &trace, "--bogus"],
            "error: unknown flag --bogus\n",
        ),
    ] {
        let output = canelyctl(args, Stdio::piped()).wait_with_output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&output.stderr), message, "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} wrote before refusing");
    }
}

#[test]
fn a_full_disk_is_an_error_naming_stdout() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no `/dev/full` on this platform
    };
    let args = ["trace", "--nodes", "4", "--until", "400ms", "--jsonl"];
    let output = canelyctl(&args, full).wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: writing to stdout: No space left on device"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one diagnostic: {stderr}");
}

#[test]
fn numeric_flags_are_read_by_the_grammar_scalars() {
    // `--nodes 65` used to panic in `NodeSet::first_n` (exit 101),
    // `--nodes 300` to run 44 nodes and `--requests 5000000000` to
    // report 705032704 requests (`as u8`, `as u32`); `--tm 0ms` printed
    // `inf%`, `--ber -1` negative probabilities; `--traffic 1us` queued
    // frames faster than the bus drains them and ran until killed;
    // `--workers 0` silently ran one worker and `--workers 100` 64.
    let spec = file("workers.campaign", "nodes 4\nuntil 300ms\nsettle 150ms\n");
    for (command, flag) in [
        (&["baseline", "ttp", "--nodes", "65"][..], "--nodes"),
        (&["baseline", "heartbeat", "--nodes", "70"], "--nodes"),
        (&["baseline", "osek", "--nodes", "300"], "--nodes"),
        (&["baseline", "guarding", "--nodes", "0"], "--nodes"),
        (
            &["analyze", "bandwidth", "--requests", "5000000000"],
            "--requests",
        ),
        (&["analyze", "bandwidth", "--tm", "0ms"], "--tm"),
        (&["analyze", "reliability", "--ber", "-1"], "--ber"),
        (&["analyze", "reliability", "--ber", "1.5"], "--ber"),
        (&["membership", "--traffic", "1us"], "--traffic"),
        (
            &["campaign", "run", "--spec", &spec, "--workers", "0"],
            "--workers",
        ),
        (
            &["campaign", "run", "--spec", &spec, "--workers", "100"],
            "--workers",
        ),
        (
            &[
                "campaign",
                "report",
                "--analytics",
                "--spec",
                &spec,
                "--workers",
                "0",
            ],
            "--workers",
        ),
    ] {
        let err = run(&argv(command)).unwrap_err();
        assert!(
            err.starts_with(&format!("error: {flag} expects ")),
            "{command:?}: {err}"
        );
    }
    let out = run(&argv(&["analyze", "bandwidth", "--requests", "4294967295"])).unwrap();
    assert!(out.contains("+ 4294967295 join/leave"), "{out}");
    // The ceiling is named; it is refused before any worker starts.
    let err = run(&argv(&[
        "campaign",
        "run",
        "--spec",
        &spec,
        "--workers",
        "65",
    ]))
    .unwrap_err();
    assert_eq!(
        err,
        "error: --workers expects a worker count in 1..=64 (at most 64 workers)"
    );
}

#[test]
fn a_trace_no_export_writes_is_refused_on_its_line() {
    // A cause must precede its event and a transmitter set must read
    // whole. Two events caused by each other printed each other
    // alternately for 18 lines of `tq chain`, a self-cause printed the
    // suspicion twice, a cause at a later instant was printed as the
    // cause, and `{2,300}` read as `{2}`, `{{2}}` as `{2}`.
    const SUSPECT: &str = "\"node\":0,\"kind\":\"fd.suspect\",\"suspect\":1";
    let rows: &[(&str, String, usize, &str)] = &[
        (
            "cycle.jsonl",
            format!(
                "{{\"t\":5,\"seq\":1,{SUSPECT},\"cause\":\"event:2\"}}\n\
                 {{\"t\":5,\"seq\":2,\"node\":0,\"kind\":\"timer.expired\",\"cause\":\"event:1\"}}\n"
            ),
            1,
            "cause event:2 does not precede the event's seq 1",
        ),
        (
            "self.jsonl",
            format!("{{\"t\":5,\"seq\":3,{SUSPECT},\"cause\":\"event:3\"}}\n"),
            1,
            "cause event:3 does not precede the event's seq 3",
        ),
        (
            "later.jsonl",
            format!(
                "{{\"t\":9,\"seq\":1,\"node\":0,\"kind\":\"timer.expired\"}}\n\
                 {{\"t\":5,\"seq\":0,{SUSPECT},\"cause\":\"event:1\"}}\n"
            ),
            2,
            "cause event:1 does not precede the event's seq 0",
        ),
        (
            "later-bus.jsonl",
            format!("\n{{\"t\":5,\"seq\":0,{SUSPECT},\"cause\":\"bus:9\"}}\n"),
            2,
            "cause bus:9 is after the event's instant 5",
        ),
        (
            "members.jsonl",
            "{\"t\":0,\"kind\":\"bus.tx\",\"transmitters\":\"{2,300}\"}\n".to_string(),
            1,
            "transmitters `{2,300}`: member `300` is not a node id 0–255",
        ),
        (
            "braces.jsonl",
            "{\"t\":0,\"kind\":\"bus.tx\",\"transmitters\":\"{{2}}\"}\n".to_string(),
            1,
            "transmitters `{{2}}`: member `{2}` is not a node id 0–255",
        ),
    ];
    for (name, text, line, needle) in rows {
        let path = file(name, text);
        for sub in [&["chain", "--suspect", "1"][..], &["summary"]] {
            let mut args = argv(&["tq", "--trace", &path]);
            args.splice(1..1, argv(sub));
            let err = run(&args).expect_err(text);
            assert!(
                err.starts_with(&format!("error: line {line}: {needle} (at byte ")),
                "{args:?}: {err}"
            );
        }
    }
}

#[test]
fn a_zero_progress_interval_is_refused_not_spun_on() {
    // `--progress-interval-ms 0` used to busy-spin the progress ticker.
    let spec = file("progress.campaign", "nodes 4\nuntil 300ms\nsettle 150ms\n");
    let err = run(&argv(&[
        "campaign",
        "run",
        "--spec",
        &spec,
        "--progress",
        "--progress-interval-ms",
        "0",
    ]))
    .unwrap_err();
    assert!(
        err.starts_with("error: --progress-interval-ms expects ") && err.contains("positive"),
        "{err}"
    );
}

#[test]
fn node_and_segment_ids_take_one_prefix() {
    // A node or segment prefix was trimmed as often as it repeated, so
    // `nnn7` read as n7 and `ss0` as s0.
    let trace = recorded_trace("ids.trace.jsonl");
    let tq = |sub| vec!["tq", sub, "--trace", trace.as_str()];
    let mut observer = tq("chain");
    observer.extend(["--suspect", "2"]);
    for (mut command, option, value) in [
        (tq("chain"), "--suspect", "nnn7"),
        (tq("chain"), "--suspect", "ss1:n7"),
        (tq("chain"), "--suspect", "s1:nn7"),
        (observer, "--observer", "+1"),
        (tq("filter"), "--node", "nnn7"),
        (tq("filter"), "--node", "s1:n7"),
        (tq("filter"), "--seg", "ss0"),
        (tq("filter"), "--seg", "s0:n1"),
    ] {
        command.extend([option, value]);
        let err = run(&argv(&command)).unwrap_err();
        assert!(
            err.starts_with(&format!("error: {option} expects ")),
            "{command:?}: {err}"
        );
    }
    // One prefix, or none, is still an id.
    let node = |id| run(&argv(&["tq", "filter", "--trace", &trace, "--node", id])).unwrap();
    assert_eq!(node("n2"), node("2"));
    assert!(node("2").contains("\"kind\":\"node.crashed\""));
}
