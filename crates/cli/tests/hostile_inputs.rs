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

/// `command… <file>` must fail with `error: <file>:<line>: …<needle>…`.
fn assert_refused(command: &[&str], name: &str, text: &str, line: usize, needle: &str) {
    let path = file(name, text);
    let mut args = argv(command);
    args.push(path.clone());
    let err = run(&args).expect_err(text);
    let anchor = format!("error: {path}:{line}: ");
    assert!(err.starts_with(&anchor), "{command:?} {text:?}: {err}");
    assert!(err.contains(needle), "{command:?} {text:?}: {err}");
}

const RUN: &[&str] = &["run"];
const REPLAY: &[&str] = &["campaign", "replay", "--scenario"];
const CAMPAIGN: &[&str] = &["campaign", "run", "--spec"];

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
    let text = "nodes 4\ncrash 9 10ms\n";
    assert_refused(REPLAY, "stray.canely", text, 2, "node 9 is neither");
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
fn a_matrix_too_large_to_hold_is_refused_at_parse_time() {
    // Used to panic with `capacity overflow` in `expand()`.
    let text = "nodes 4\nseeds 0..18446744073709551615\n";
    assert_refused(
        CAMPAIGN,
        "seeds.campaign",
        text,
        2,
        "more than 1048576 runs",
    );
    // Without a `seeds` line the last directive takes the blame.
    let wide = format!("nodes{}\ntm{}\n", " 4".repeat(1100), " 30ms".repeat(1100));
    assert_refused(
        CAMPAIGN,
        "wide.campaign",
        &wide,
        2,
        "more than 1048576 runs",
    );
}

#[test]
fn a_wrapping_horizon_is_an_overflow_not_a_short_run() {
    // 18446744073709552 ms × 1000 wraps u64 to a 0.38 ms horizon.
    let text = "nodes 4\nuntil 18446744073709552ms\n";
    assert_refused(RUN, "wrap.canely", text, 2, "duration overflows");
    assert_refused(REPLAY, "wrap.canely", text, 2, "duration overflows");
    assert_refused(CAMPAIGN, "wrap.campaign", text, 2, "duration overflows");
    let err = run(&argv(&["membership", "--until", "18446744073709552ms"])).unwrap_err();
    assert!(
        err.starts_with("error: --until") && err.contains("duration overflows"),
        "{err}"
    );
}

#[test]
fn a_horizon_past_one_simulated_hour_is_refused_not_spun_on() {
    // 18446744073709551 ms fits u64 and used to simulate until killed.
    let text = "until 18446744073709551ms\n";
    assert_refused(RUN, "spin.canely", text, 1, "exceeds one simulated hour");
    assert_refused(REPLAY, "spin.canely", text, 1, "exceeds one simulated hour");
    assert_refused(
        CAMPAIGN,
        "spin.campaign",
        text,
        1,
        "exceeds one simulated hour",
    );
    let err = run(&argv(&["trace", "--until", "3600001ms"])).unwrap_err();
    assert!(
        err.starts_with("error: --until") && err.contains("one simulated hour"),
        "{err}"
    );
}

#[test]
fn a_horizon_inside_the_settle_margin_is_refused() {
    // `--until 0ms` used to panic summarising an empty bus window
    // (exit 101), and `replay` to judge a run that never left its
    // settle margin (`verdict: clean` at `until 100ms`).
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
    const SETTLE: &str = "horizon (until) must exceed the settle margin";
    for text in ["nodes 4\nuntil 0ms\n", "nodes 4\nuntil 100ms\n"] {
        assert_refused(REPLAY, "short.canely", text, 2, SETTLE);
    }
    let federated = "nodes 4\nsegments 2\nuntil 150ms\nsettle 150ms\n";
    assert_refused(RUN, "short-fed.canely", federated, 3, SETTLE);
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
        &["--journal"],
    ] {
        let mut args = argv(&["groups", "--nodes", "4", "--until", "300ms"]);
        args.extend(argv(option));
        let err = run(&args).unwrap_err();
        assert_eq!(err, format!("error: groups does not model {}", option[0]));
    }
}

#[test]
fn a_cycle_too_short_for_the_stack_is_a_diagnostic_under_every_reader() {
    // `tm 1us` used to panic (`run config must validate`) under
    // `replay` and under a federated `run`.
    let plain = "nodes 4\ntm 1us\nuntil 300ms\nsettle 150ms\n";
    assert_refused(RUN, "tm.canely", plain, 2, "RHA timeout");
    assert_refused(REPLAY, "tm.canely", plain, 2, "RHA timeout");
    let federated = "nodes 4\nsegments 2\ntm 1us\nuntil 300ms\nsettle 150ms\n";
    assert_refused(RUN, "tmfed.canely", federated, 3, "RHA timeout");
}

#[test]
fn a_zero_traffic_period_is_refused_on_its_line() {
    // Used to reach `TrafficConfig::periodic` and panic (`traffic
    // period must be positive`, exit 101).
    const ZERO: &str = "traffic period must be positive";
    assert_refused(
        CAMPAIGN,
        "traffic.campaign",
        "nodes 4\ntraffic 0ms\n",
        2,
        ZERO,
    );
    let text = "nodes 4\ntraffic 0 0ms\nuntil 300ms\nsettle 150ms\n";
    assert_refused(RUN, "traffic.canely", text, 2, ZERO);
    assert_refused(REPLAY, "traffic.canely", text, 2, ZERO);
    // On the command line a zero period is how one says "none".
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
        assert_refused(REPLAY, "range.canely", &text, 4, needle);
        assert_refused(RUN, "range.canely", &text, 4, needle);
    }
}

#[test]
fn replay_refuses_what_it_would_have_re_interpreted() {
    // `traffic 0 2ms` alone drives node 0 under `run`; `replay` used to
    // silently drive every node with it. The judged subset is one
    // period on each of `0..nodes`, in any order, or no traffic.
    const ONE_PERIOD: &str = "one period on every node or none";
    for (text, line, needle) in [
        ("nodes 4\ntraffic 0 2ms\n", 2, ONE_PERIOD),
        ("nodes 2\ntraffic 0 2ms\ntraffic 1 4ms\n", 3, ONE_PERIOD),
        ("nodes 2\ntraffic 1 2ms\n\ntraffic 1 2ms\n", 4, ONE_PERIOD),
        ("tm 30ms\nnodes 1\n", 2, "needs at least 2 nodes"),
        (
            "nodes 4\n\nleave 1 10ms\njoin 9 5ms\n",
            3,
            "`leave` schedules have no campaign-oracle",
        ),
    ] {
        assert_refused(REPLAY, "subset.canely", text, line, needle);
        let out = run(&argv(&["run", &file("subset.canely", text)])).unwrap();
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
    // The oracle assumes every crash victim booted first; a node
    // crashed at 0ms never does, so a correct run read as 3
    // `detection-latency` violations. The judged readers refuse the
    // line; single-bus `run`, which has no oracle, still executes it.
    const NEEDLE: &str = "at 0ms has no campaign-oracle model";
    let single = "nodes 4\ncrash 1 0ms\nuntil 300ms\n";
    assert_refused(REPLAY, "zero.canely", single, 2, NEEDLE);
    let out = run(&argv(&["run", &file("zero.canely", single)])).unwrap();
    assert!(out.starts_with("scenario: "), "{out}");
    let head = "nodes 4\nsegments 2\nuntil 300ms\n";
    for tail in [
        "seg-crash 1 1 0ms\n",
        "gateway-crash 0 0ms\n",
        "gateway-crash 1 0ms\n",
    ] {
        let text = format!("{head}{tail}");
        assert_refused(RUN, "zero-fed.canely", &text, 4, NEEDLE);
        assert_refused(REPLAY, "zero-fed.canely", &text, 4, NEEDLE);
    }
    // The first zero instant in document order is the one named.
    let text = format!("{head}gateway-crash 1 10ms\ncrash 1 0ms\ngateway-crash 0 0ms\n");
    assert_refused(REPLAY, "zero-order.canely", &text, 5, "`crash` at 0ms");
    let later = file("later.canely", "nodes 4\ncrash 1 1ms\nuntil 300ms\n");
    let out = run(&argv(&["campaign", "replay", "--scenario", &later])).unwrap();
    assert!(out.contains("verdict: clean"), "{out}");
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_run_quietly() {
    // `canelyctl trace … --jsonl | head -n 1` used to panic (`failed
    // printing to stdout: Broken pipe`, exit 101): the document is a
    // few pipe buffers long and `head` is gone after the first.
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_canelyctl"))
        .args(["trace", "--nodes", "4", "--until", "400ms", "--jsonl"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::with_capacity(256, child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("{\"t\":0,"), "{first}");
    drop(stdout);
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "", "a closed pipe is not an error to report");
    assert!(output.status.success(), "{:?}", output.status);
}

#[test]
fn numeric_flags_are_read_by_the_grammar_scalars() {
    // `--nodes 65` used to panic in `NodeSet::first_n` (exit 101),
    // `--nodes 300` to run 44 nodes and `--requests 5000000000` to
    // report 705032704 requests (`as u8`, `as u32`); `--tm 0ms` printed
    // `inf%`, `--ber -1` negative probabilities.
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
    ] {
        let err = run(&argv(command)).unwrap_err();
        assert!(
            err.starts_with(&format!("error: {flag} expects ")),
            "{command:?}: {err}"
        );
    }
    let out = run(&argv(&["analyze", "bandwidth", "--requests", "4294967295"])).unwrap();
    assert!(out.contains("+ 4294967295 join/leave"), "{out}");
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
