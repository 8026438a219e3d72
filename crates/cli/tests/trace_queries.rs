//! End-to-end properties of the causal trace pipeline, driven through
//! the CLI and the checked-in scenario files:
//!
//! * every protocol event that is not a boot action or a harness
//!   marker carries a `cause` reference, and every reference resolves
//!   to a real parent record (bus delivery or earlier event);
//! * the Chrome trace-event export is byte-deterministic and matches a
//!   checked-in golden on a fixed configuration;
//! * `tq` renders are byte-deterministic across invocations.

use canely_cli::run;
use canely_cli::scenario::{run_with_obs, Scenario};
use canely_trace::{CauseRef, TraceModel};
use proptest::prelude::*;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn scenario_path(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs a checked-in scenario file and returns its JSONL trace.
fn scenario_trace(name: &str) -> String {
    let text = std::fs::read_to_string(scenario_path(name)).unwrap();
    let (sim, log) = run_with_obs(&Scenario::parse(&text).unwrap());
    log.export_jsonl(Some(sim.trace()))
}

/// The causal-completeness property: in `doc`, every non-boot,
/// non-marker event has a cause, and every cause resolves. A node
/// "boots" at t=0, at its join time (its first event in the trace) or
/// at a power-cycle (`node.restarted` marker at the same instant).
fn assert_causally_complete(doc: &str) {
    let model = TraceModel::parse(doc).unwrap();
    let mut first_seen: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
    let mut restarts: std::collections::HashSet<(u8, u64)> = std::collections::HashSet::new();
    for event in &model.events {
        first_seen.entry(event.node).or_insert(event.t);
        if model.kind_of(event) == "node.restarted" {
            restarts.insert((event.node, event.t));
        }
    }
    let mut bus_refs = 0usize;
    let mut event_refs = 0usize;
    for event in &model.events {
        match event.cause() {
            Some(cause) => {
                let parent = model.parent(event);
                assert!(
                    parent.is_some(),
                    "unresolvable cause {:?} on {} at t={}",
                    cause,
                    model.kind_of(event),
                    event.t
                );
                match cause {
                    CauseRef::Bus(_) => bus_refs += 1,
                    CauseRef::Event(_) => event_refs += 1,
                }
            }
            None => {
                let boot = event.t == 0
                    || first_seen.get(&event.node) == Some(&event.t)
                    || restarts.contains(&(event.node, event.t));
                // Crash/restart markers and scheduled leaves are
                // external stimuli: nothing on the bus causes them.
                let external = matches!(
                    model.kind_of(event),
                    "node.crashed" | "node.restarted" | "msh.leave.tx"
                );
                assert!(
                    boot || external,
                    "non-boot event without a cause: {} of n{} at t={}",
                    model.kind_of(event),
                    event.node,
                    event.t
                );
            }
        }
    }
    assert!(bus_refs > 0, "no bus-delivery causes in the trace");
    assert!(event_refs > 0, "no event causes in the trace");
}

#[test]
fn checked_in_scenarios_are_causally_complete() {
    for name in [
        "partition_heal.canely",
        "lifecycle.canely",
        "noisy_storm.canely",
    ] {
        assert_causally_complete(&scenario_trace(name));
    }
}

/// The zero-copy parser's lossless guarantee over full production
/// documents: every checked-in scenario's exported trace re-renders
/// byte-identically through parse → `to_jsonl`, and a second cycle is
/// a fixed point.
#[test]
fn checked_in_scenario_traces_round_trip_losslessly() {
    for name in [
        "partition_heal.canely",
        "lifecycle.canely",
        "noisy_storm.canely",
    ] {
        let doc = scenario_trace(name);
        let model = canely_trace::TraceModel::parse(&doc).unwrap();
        let rendered = model.to_jsonl();
        assert_eq!(rendered, doc, "{name}: parse→render must be lossless");
        let again = canely_trace::TraceModel::parse(&rendered).unwrap();
        assert_eq!(
            again.to_jsonl(),
            rendered,
            "{name}: render is a fixed point"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any crash scenario the CLI can produce stays causally complete:
    /// the suspicion, diffusion and view-change records all chain back
    /// to a resolvable parent.
    #[test]
    fn random_crash_scenarios_are_causally_complete(
        nodes in 2u8..6,
        victim_offset in 0u8..6,
        crash_ms in 90u64..300,
        seed in 0u64..1000,
        noise in 0u32..3,
    ) {
        let victim = victim_offset % nodes;
        let doc = run(&argv(&[
            "trace",
            "--nodes", &nodes.to_string(),
            "--crash", &format!("{victim}@{crash_ms}ms"),
            "--error-rate", &format!("{}", f64::from(noise) * 0.005),
            "--seed", &seed.to_string(),
            "--until", "450ms",
            "--jsonl",
        ])).unwrap();
        assert_causally_complete(&doc);
    }
}

#[test]
fn chrome_export_matches_the_checked_in_golden() {
    let out = run(&argv(&[
        "trace", "--nodes", "2", "--until", "80ms", "--chrome",
    ]))
    .unwrap();
    let golden = include_str!("golden/chrome_2node_80ms.json");
    assert_eq!(
        out, golden,
        "regenerate with `canelyctl trace --nodes 2 --until 80ms --chrome \
         > crates/cli/tests/golden/chrome_2node_80ms.json` if the schema \
         changed intentionally"
    );
}

#[test]
fn chrome_export_of_a_crash_episode_is_structurally_valid() {
    let argv_chrome = argv(&[
        "trace", "--nodes", "3", "--crash", "2@250ms", "--until", "300ms", "--chrome",
    ]);
    let out = run(&argv_chrome).unwrap();
    assert_eq!(out, run(&argv_chrome).unwrap(), "export is deterministic");

    let mut lines = out.lines();
    assert_eq!(lines.next(), Some("{\"traceEvents\":["));
    let mut saw = (false, false, false); // (metadata, span, instant)
    let mut phase_span = false;
    for line in lines {
        if line.starts_with("],") {
            assert_eq!(line, "],\"displayTimeUnit\":\"ms\"}");
            break;
        }
        let body = line.strip_suffix(',').unwrap_or(line);
        assert!(
            body.starts_with('{') && body.ends_with('}'),
            "not an object: {line}"
        );
        assert_eq!(
            body.matches('{').count(),
            body.matches('}').count(),
            "unbalanced braces: {line}"
        );
        assert!(body.contains("\"pid\":"), "no pid: {line}");
        if body.contains("\"ph\":\"M\"") {
            saw.0 = true;
        } else if body.contains("\"ph\":\"X\"") {
            saw.1 = true;
            assert!(body.contains("\"dur\":"), "span without dur: {line}");
            phase_span |= body.contains("\"cat\":\"phase\"");
        } else if body.contains("\"ph\":\"i\"") {
            saw.2 = true;
            assert!(body.contains("\"ts\":"), "instant without ts: {line}");
        } else {
            panic!("unexpected event phase: {line}");
        }
    }
    assert!(saw.0 && saw.1 && saw.2, "missing event classes: {saw:?}");
    assert!(phase_span, "crash episode must export phase spans");
}

/// Every `tq` render over `partition_heal` is byte-deterministic and
/// says what it is for: the causal chain behind the crash of n3
/// resolves end to end, the phase table reports headroom against the
/// bounds, and the summary counts events.
#[test]
fn tq_renders_are_byte_deterministic() {
    let scenario = scenario_path("partition_heal.canely");
    for (query, needle) in [
        (&["summary"][..], "protocol events:"),
        (&["phases"], "headroom="),
        (&["reexport"], ""),
        (
            &["chain", "--suspect", "3"],
            "chain complete: view installed without n3",
        ),
    ] {
        let mut args = argv(&["tq", query[0], "--scenario", &scenario]);
        args.extend(argv(&query[1..]));
        let out = run(&args).unwrap();
        assert_eq!(
            out,
            run(&args).unwrap(),
            "tq {query:?} differs across invocations"
        );
        assert!(
            out.contains(needle),
            "tq {query:?} lacks {needle:?}:\n{out}"
        );
    }
}

/// The single-bus exporters' bytes on one small crash episode, against
/// goldens written by the build before the trace path was rewritten.
#[test]
fn small_trace_exports_match_the_goldens() {
    let flags = [
        "trace", "--nodes", "4", "--crash", "2@250ms", "--until", "400ms",
    ];
    for (format, golden) in [
        (
            "--jsonl",
            include_str!("../../../tests/golden/trace_small.jsonl"),
        ),
        (
            "--chrome",
            include_str!("../../../tests/golden/trace_small.chrome.json"),
        ),
    ] {
        let mut args = argv(&flags);
        args.push(format.to_string());
        let out = run(&args).unwrap();
        assert!(out == golden, "trace {format} diverged from its golden");
    }
}

/// The same goldens on the path users run: the binary's stdout, written
/// as it renders, byte for byte — and `tq reexport` of the JSONL golden
/// reproduces it.
#[test]
fn the_binary_streams_the_goldens_byte_for_byte() {
    use std::process::Command;
    let canelyctl = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_canelyctl"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success() && stderr.is_empty(),
            "{args:?}: {stderr}"
        );
        output.stdout
    };
    let flags = [
        "trace", "--nodes", "4", "--crash", "2@250ms", "--until", "400ms",
    ];
    let jsonl = include_str!("../../../tests/golden/trace_small.jsonl");
    let chrome = include_str!("../../../tests/golden/trace_small.chrome.json");
    for (format, golden) in [("--jsonl", jsonl), ("--chrome", chrome)] {
        let mut args = flags.to_vec();
        args.push(format);
        let out = canelyctl(&args);
        assert!(
            out == golden.as_bytes(),
            "trace {format} diverged from its golden"
        );
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/trace_small.jsonl"
    );
    let out = canelyctl(&["tq", "reexport", "--trace", path]);
    assert!(
        out == jsonl.as_bytes(),
        "tq reexport of the golden diverged from it"
    );
}

/// The one-shot `metrics --live` scrape surface (docs/METRICS.md) on
/// the same episode, in both exposition formats, byte for byte.
#[test]
fn live_metrics_expositions_match_the_goldens() {
    let flags = [
        "metrics", "--nodes", "4", "--crash", "2@250ms", "--until", "400ms",
    ];
    for (format, golden) in [
        (
            &["--live"][..],
            include_str!("../../../tests/golden/metrics_live.prom"),
        ),
        (
            &["--live", "--json"],
            include_str!("../../../tests/golden/metrics_live.json"),
        ),
    ] {
        let mut args = argv(&flags);
        args.extend(argv(format));
        let out = run(&args).unwrap();
        assert!(out == golden, "metrics {format:?} diverged from its golden");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exporters' and the readers' bytes on a *federated* capture —
/// two bridged 3-node segments, a crash on segment 1, made the way
/// the campaign engine makes one — pinned as FNV-1a digests taken
/// from the build before the trace path was rewritten (PR 24): the
/// merged `seg`-tagged export, its Chrome rendering and every `tq`
/// subcommand over it.
#[test]
fn federated_capture_and_every_query_over_it_are_pinned() {
    let spec = canely_campaign::RunSpec::from_scenario(
        "nodes 3\ntm 30ms\nseed 0\nsegments 2\ngateway 0\nbridge line\nrelay none\n\
         seg-crash 1 2 100ms\nuntil 500ms\nsettle 200ms\n",
    )
    .unwrap();
    let doc = canely_campaign::execute(&spec, true).trace_jsonl.unwrap();
    let dir = std::env::temp_dir().join("canelyctl-trace-queries");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fed.trace.jsonl");
    std::fs::write(&file, &doc).unwrap();
    let path = file.to_string_lossy().to_string();
    let tq = |rest: &[&str]| {
        let mut args = argv(&["tq", rest[0], "--trace", &path]);
        args.extend(argv(&rest[1..]));
        run(&args).unwrap()
    };
    let model = TraceModel::parse(&doc).unwrap();
    let outputs = [
        ("capture", doc.clone(), 0x1b4d_8c1d_dff7_125c_u64),
        (
            "chrome_trace(capture)",
            canely_trace::chrome_trace(&model),
            0x8c80_4584_ce3b_1621,
        ),
        (
            "tq chain",
            tq(&["chain", "--suspect", "s1:n2"]),
            0xdf4a_70b0_3368_df20,
        ),
        ("tq phases", tq(&["phases"]), 0x2c6c_25ce_03ac_d491),
        (
            "tq filter",
            tq(&["filter", "--seg", "1", "--kind", "view"]),
            0x93fa_182e_b2fe_3f7d,
        ),
        ("tq summary", tq(&["summary"]), 0xcb0a_6a94_7a6f_98b7),
        ("tq reexport", tq(&["reexport"]), 0x1b4d_8c1d_dff7_125c),
    ];
    for (name, text, pinned) in &outputs {
        assert!(!text.is_empty(), "{name} rendered nothing");
        assert_eq!(
            fnv1a(text.as_bytes()),
            *pinned,
            "{name} ({} bytes) diverged from its parent-build digest {:#018x}",
            text.len(),
            fnv1a(text.as_bytes()),
        );
    }
}
