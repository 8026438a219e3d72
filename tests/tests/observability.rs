//! Whole-stack observability tests: the lifecycle scenario must
//! produce a deterministic, correctly-ordered structured trace.
//!
//! Two properties are pinned here:
//!
//! * **Golden trace** — the crash of node 2 in
//!   `scenarios/lifecycle.canely` produces an exact event-kind
//!   sequence at a fixed observer: crash marker, suspicion, FDA
//!   dissemination, agreed notification, view change. Any protocol
//!   reordering breaks this test on purpose.
//! * **Determinism** — two runs of the same scenario export
//!   byte-identical merged JSONL traces.

use can_types::BitTime;
use canely::ProtocolEvent;
use canely_cli::scenario::{run_with_obs, Scenario};
use integration::n;

fn lifecycle() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios/lifecycle.canely");
    let text = std::fs::read_to_string(path).expect("scenario file");
    Scenario::parse(&text).expect("scenario parses")
}

/// The exact chain of events around the scripted crash of node 2 at
/// 300 ms, as seen by observer node 0 (plus the global crash marker).
#[test]
fn golden_trace_crash_to_view_change() {
    let (_sim, log) = run_with_obs(&lifecycle());

    let watched = [
        "node.crashed",
        "fd.suspect",
        "fda.invoked",
        "fda.sign.tx",
        "fda.sign.rx",
        "fda.delivered",
        "fd.notified",
        "view.changed",
    ];
    let window = BitTime::new(300_000)..BitTime::new(420_000);
    let chain: Vec<String> = log
        .events()
        .iter()
        .filter(|e| window.contains(&e.time))
        .filter(|e| e.node == n(0) || matches!(e.event, ProtocolEvent::NodeCrashed))
        .map(|e| e.event.kind().to_string())
        .filter(|k| watched.contains(&k.as_str()))
        .collect();

    assert_eq!(
        chain,
        [
            "node.crashed",  // scripted crash marker for node 2
            "fd.suspect",    // node 0's surveillance timer fires
            "fda.invoked",   // FD hands the suspect to the FDA
            "fda.sign.tx",   // node 0 requests the failure sign
            "fda.sign.rx",   // ... and observes the sign on the bus
            "fda.delivered", // eager diffusion settles the failure
            "fd.notified",   // upper layer notified of agreed failure
            "view.changed",  // membership installs the shrunken view
            "fda.sign.rx",   // late duplicate sign from a peer's diffusion
        ],
        "unexpected crash-detection chain"
    );

    // The chain must precede the restart of node 2 (scripted 800 ms)
    // and the final view must reflect the whole lifecycle.
    let restart_at = log
        .events()
        .iter()
        .find(|e| matches!(e.event, ProtocolEvent::NodeRestarted))
        .map(|e| e.time)
        .expect("restart marker present");
    assert_eq!(restart_at, BitTime::new(800_000));
}

/// The exported merged trace is time-ordered, and the scripted fault
/// markers appear exactly as scheduled. (The raw in-memory log is in
/// recording order — markers are seeded before the run — so ordering
/// is a property of the export, not of `events()`.)
#[test]
fn trace_is_time_ordered_with_markers() {
    let scenario = lifecycle();
    let until = scenario.run.until;
    let (sim, log) = run_with_obs(&scenario);
    let events = log.events();
    assert!(!events.is_empty());
    let times: Vec<u64> = log
        .export_jsonl(Some(sim.trace()))
        .lines()
        .map(|line| {
            line.split("\"t\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no t in {line}"))
        })
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "export out of order"
    );
    assert!(events.iter().all(|e| e.time <= until));
    let crashes: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.event, ProtocolEvent::NodeCrashed))
        .collect();
    assert_eq!(crashes.len(), 1);
    assert_eq!(crashes[0].time, BitTime::new(300_000));
    assert_eq!(crashes[0].node, n(2));
}

/// Two identical runs export byte-identical merged JSONL documents —
/// the determinism guarantee documented in `docs/TRACE_SCHEMA.md`.
#[test]
fn identical_runs_export_identical_jsonl() {
    let scenario = lifecycle();
    let (sim_a, log_a) = run_with_obs(&scenario);
    let (sim_b, log_b) = run_with_obs(&scenario);
    let a = log_a.export_jsonl(Some(sim_a.trace()));
    let b = log_b.export_jsonl(Some(sim_b.trace()));
    assert!(!a.is_empty());
    assert_eq!(a, b, "two runs of the same scenario diverged");
    // Both protocol and bus records are present in the merge.
    assert!(a.contains("\"kind\":\"bus.tx\""));
    assert!(a.contains("\"kind\":\"view.changed\""));
}
