//! Allocation gates of the observability layer and the timers under
//! it, measured with a counting global allocator:
//!
//! * emitting through a disabled [`EventSink`] must not allocate at
//!   all, while an enabled sink visibly allocates for the backing log;
//! * a campaign run nobody exports must not materialise its trace: it
//!   requests a fraction of the bytes the same run requests with
//!   capture on, and the same bytes at twice the horizon, because its
//!   bus keeps one window's counts, not a record per transaction;
//! * re-arming a surveillance timer on a warm wheel is a store, and a
//!   warm wheel's starts, re-arms, re-keys, cascades and pops reuse its
//!   pooled entries; a warm traffic-loaded world steps without the
//!   allocator, and so does a summarizing one past the point where a
//!   recording trace regrows;
//! * a frame's exact wire duration is arithmetic: the bus asks for it
//!   once per transaction, and building the bit stream to answer cost
//!   over half of an everyday campaign;
//! * a trace is bytes in one buffer: capturing a run allocates for its
//!   documents, not per event; reading one back builds an index over
//!   the text, not an object per field; the renderers' `String` forms
//!   write into one buffer of about the right size;
//! * a trace is written as it renders: the exporter, the Chrome
//!   renderer and the re-export writing into a sink request a constant,
//!   the same at twice the horizon, not the document.

mod common;

use can_bus::{BusConfig, FaultPlan};
use can_controller::{Rig, Simulator, TimerId, TimerWheel};
use can_types::{BitTime, CanId, Frame, FrameFormat, NodeId, Payload};
use canely::obs::{Cause, ObsLog};
use canely::{
    CanelyConfig, CanelyStack, EventSink, FailureDetector, ProtocolEvent, SurveillanceDetector,
    TrafficConfig,
};
use canely_campaign::{execute, CampaignSpec, Fault, RunSpec};
use canely_federation::{FederationConfig, FederationSim};
use canely_trace::{chrome_trace, write_chrome_trace, TraceModel};
use common::measured;

#[test]
fn disabled_sink_is_allocation_free() {
    let disabled = EventSink::disabled();
    assert!(!disabled.is_enabled());

    let (disabled_delta, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            // Cause-ID threading and the timer-linking resolution path
            // must stay free as well: the dispatcher stamps an ambient
            // cause around every delivery even when tracing is off.
            disabled.set_cause(Cause::Bus {
                deliver_at: BitTime::new(i),
            });
            disabled.emit(
                BitTime::new(i),
                NodeId::new((i % 4) as u8),
                ProtocolEvent::LifeSignSent,
            );
            disabled.emit(
                BitTime::new(i),
                NodeId::new(0),
                ProtocolEvent::FdaSignReceived {
                    failed: NodeId::new(3),
                    duplicate: false,
                },
            );
            disabled.emit(
                BitTime::new(i),
                NodeId::new(0),
                ProtocolEvent::TimerExpired {
                    timer: canely::obs::ObsTimer::Surveillance(NodeId::new(3)),
                },
            );
            disabled.clear_cause();
        }
    });
    assert_eq!(
        disabled_delta, 0,
        "disabled sink performed {disabled_delta} allocations"
    );

    // Sanity check that the counter actually observes the enabled
    // path: the same traffic through a live sink must allocate (the
    // log's backing vector grows).
    let log = ObsLog::new();
    let sink = log.sink();
    assert!(sink.is_enabled());
    let (enabled_delta, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            sink.emit(
                BitTime::new(i),
                NodeId::new((i % 4) as u8),
                ProtocolEvent::LifeSignSent,
            );
        }
    });
    assert!(enabled_delta > 0, "counting allocator saw no allocations");
    assert_eq!(log.len(), 100_000);
}

/// The checked-in federation campaign's richest run (4 segments × 32
/// nodes, a gateway crash and a partition), with its horizon at
/// `ms` milliseconds.
fn federation_run(ms: u64) -> RunSpec {
    let path = format!(
        "{}/../../scenarios/federation.campaign",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
    let text = text.replace("until 600ms", &format!("until {ms}ms"));
    let spec = CampaignSpec::parse(&text).expect("checked-in campaign spec must parse");
    let run = spec.expand().pop().expect("the campaign has runs");
    assert_eq!(run.until, BitTime::new(ms * 1_000), "the horizon moved");
    run
}

#[test]
fn uncaptured_run_does_not_materialise_its_trace() {
    let run = federation_run(600);
    let (_, lean_bytes, lean) = measured(|| execute(&run, false));
    let (_, full_bytes, full) = measured(|| execute(&run, true));
    assert_eq!(lean.events, full.events);
    assert!(
        lean_bytes * 4 < full_bytes,
        "a run nobody reads requested {lean_bytes} B, a captured one {full_bytes} B"
    );
    // About twice what 4 segments × 32 nodes × 600 ms measured when the
    // gate was set (3 383 408 B). Storing every event either way made it
    // over 200 MiB; keeping every bus record when only one window's
    // counts are read, 7 508 912 B.
    assert!(
        lean_bytes < 7 << 20,
        "a run nobody reads requested {lean_bytes} B"
    );
}

#[test]
fn a_run_nobody_reads_requests_the_same_at_twice_the_horizon() {
    let (short, long) = (federation_run(600), federation_run(1_200));
    let (_, short_bytes, _) = measured(|| execute(&short, false));
    let (_, long_bytes, _) = measured(|| execute(&long, false));
    // 3 383 408 B at 600 ms and 3 402 888 B at 1 200 ms when the gate
    // was set: the few judged events the longer run adds. Keeping every
    // bus record made it 7 508 912 B and 11 788 232 B, 4.3 MB more.
    const SLACK: u64 = 64 << 10;
    assert!(
        long_bytes <= short_bytes + SLACK,
        "a run nobody reads requested {short_bytes} B at 600 ms, {long_bytes} B at 1 200 ms"
    );
}

#[test]
fn surveillance_rearm_on_a_warm_wheel_allocates_nothing() {
    const NODES: u8 = 32;
    let mut rig = Rig::new(0);
    let mut fd = SurveillanceDetector::new(BitTime::new(5_000), BitTime::new(2_500));
    rig.ctx(|ctx| {
        for r in 0..NODES {
            fd.start(ctx, NodeId::new(r));
        }
    });
    let (allocations, _, ()) = measured(|| {
        // Ten seconds of a frame every 100 µs: every timer's carrier
        // surfaces and is re-keyed many times over.
        for frame in 1..=100_000u64 {
            rig.now = BitTime::new(frame * 100);
            rig.ctx(|ctx| fd.on_activity(ctx, NodeId::new((frame % u64::from(NODES)) as u8)));
            // The step loop polls the wheel after every callback.
            rig.timers.next_deadline();
        }
    });
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in 100 000 re-arms"
    );
    assert_eq!(rig.timers.len(), usize::from(NODES));
}

#[test]
fn a_warm_wheel_allocates_nothing() {
    const LIVE: u64 = 64;
    let mut wheel = TimerWheel::new();
    let mut ids: Vec<TimerId> = (0..LIVE)
        .map(|i| wheel.start(NodeId::new((i % 32) as u8), BitTime::new(5_000 + 97 * i), i))
        .collect();
    // One round a millisecond: every timer re-armed later (its carrier
    // is re-keyed when its bucket comes up), every eighth earlier (a
    // new carrier), one cancelled and started afresh, and everything
    // due popped through the cascades of three levels.
    let mut round = |wheel: &mut TimerWheel, t: u64| {
        for (i, id) in ids.iter_mut().enumerate() {
            let i = i as u64;
            let delay = if i.is_multiple_of(8) {
                300 + i
            } else {
                5_000 + 97 * i
            };
            *id = wheel.restart(*id, NodeId::new((i % 32) as u8), BitTime::new(t + delay), i);
        }
        let victim = (t / 1_000 % LIVE) as usize;
        wheel.cancel(ids[victim]);
        ids[victim] = wheel.start(NodeId::new(0), BitTime::new(t + 70_000), 0);
        while wheel.pop_due(BitTime::new(t)).is_some() {}
        wheel.next_deadline();
    };
    for t in 1..=200 {
        round(&mut wheel, t * 1_000);
    }
    let (allocations, _, ()) = measured(|| {
        for t in 201..=10_200 {
            round(&mut wheel, t * 1_000);
        }
    });
    assert_eq!(allocations, 0, "{allocations} allocations in 10 000 rounds");
}

#[test]
fn a_warm_traffic_loaded_world_allocates_nothing() {
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for id in 0..4 {
        let traffic = TrafficConfig::staggered(BitTime::new(2_000), id);
        let stack = CanelyStack::new(CanelyConfig::default()).with_traffic(traffic);
        sim.add_node(NodeId::new(id), stack);
    }
    sim.run_until(BitTime::new(300_000));
    let before = sim.trace().len();
    // 50 ms of ticks, frames, deliveries and re-arms. The bus trace is
    // the one growing vector, and it regrows only on a power of two
    // (past 1 024 records here, at ≈ 500 ms).
    let (allocations, _, ()) = measured(|| sim.run_for(BitTime::new(50_000)));
    let frames = sim.trace().len() - before;
    assert!(frames >= 100, "{frames} transactions");
    // A payload built as a `Vec` made it one allocation per frame.
    assert_eq!(
        allocations, 0,
        "{allocations} allocations for {frames} transactions"
    );
}

#[test]
fn a_warm_summarizing_world_allocates_nothing() {
    let until = BitTime::new(800_000);
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    sim.summarize_bus(BitTime::ZERO, until);
    for id in 0..4 {
        let traffic = TrafficConfig::staggered(BitTime::new(2_000), id);
        let stack = CanelyStack::new(CanelyConfig::default()).with_traffic(traffic);
        sim.add_node(NodeId::new(id), stack);
    }
    sim.run_until(BitTime::new(300_000));
    // Half a second past the warm-up: a recording trace regrows past
    // its 1 024th record on the way; a summarizing one has no vector.
    let (allocations, _, ()) = measured(|| sim.run_until(until));
    let frames = sim.trace().stats(BitTime::ZERO, until).transactions;
    assert!(frames > 1_024, "{frames} transactions");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations for {frames} transactions"
    );
}

#[test]
fn exact_frame_duration_allocates_nothing() {
    let mut total = BitTime::ZERO;
    let (allocations, _, ()) = measured(|| {
        for format in [FrameFormat::Standard, FrameFormat::Extended] {
            for len in 0..=8usize {
                let payload = Payload::from_slice(&[0xA5; 8][..len]).expect("at most 8 bytes");
                let data = Frame::data(CanId::new(0x2AA), payload).with_format(format);
                total += data.duration_exact();
            }
            let remote = Frame::remote(CanId::new(0x2AA)).with_format(format);
            total += remote.duration_exact();
        }
    });
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in 20 exact frame durations"
    );
    assert!(total > BitTime::ZERO);
}

/// The `trace-query` workload's scenario (8 nodes, 2 ms traffic, a
/// crash, 0.5 % omissions) up to `until`.
fn trace_query_spec(until: &str) -> RunSpec {
    let traffic: String = (0..8).map(|node| format!("traffic {node} 2ms\n")).collect();
    RunSpec::from_scenario(&format!(
        "nodes 8\n{traffic}crash 7 160ms\nerror-rate 0.005\nseed 0\nuntil {until}\nsettle 150ms\n"
    ))
    .expect("the capture scenario is in the judged subset")
}

/// A capture of the `trace-query` workload's shape at `until`: at
/// 1.5 s ≈ 5.4 MB, ≈ 42 k lines, seven in eight of them `timer.armed`.
fn trace_query_capture(until: &str) -> String {
    execute(&trace_query_spec(until), true)
        .trace_jsonl
        .expect("capture was on")
}

/// The world behind [`trace_query_capture`], kept after the run: one
/// segment, its crash marker recorded as `execute` records it.
fn trace_query_world(until: &str) -> FederationSim {
    let spec = trace_query_spec(until);
    let config = FederationConfig::new(spec.config(), 1, spec.nodes);
    let mut fed = FederationSim::new(
        &config,
        spec.traffic,
        |_| spec.seed,
        |seed| spec.fault_plan(seed),
    );
    for &fault in &spec.faults {
        if let Fault::Crash { node, at, .. } = fault {
            fed.sim_mut(0).schedule_crash(NodeId::new(node), at);
        }
    }
    fed.run_until(spec.until);
    for &(t, node) in fed.sim(0).crash_times() {
        fed.log(0).record(t, node, ProtocolEvent::NodeCrashed);
    }
    fed
}

#[test]
fn reading_a_trace_builds_an_index_not_an_object_per_field() {
    let doc = trace_query_capture("1500ms");
    assert!(
        doc.len() > 4 << 20 && doc.lines().count() > 30_000,
        "{} B",
        doc.len()
    );

    let (allocations, bytes, model) = measured(|| TraceModel::parse(&doc).unwrap());
    // No record owns heap memory: 33 allocations when the gate was set,
    // the doublings of the bus records, the transmitter pool and the
    // kind table, and the line and event vectors, which are sized from
    // the document's length (a line per 100 bytes): 0.68 × it, of which
    // a capture never touches what it does not fill. The cause look-ups
    // wait for the first cause resolved. A `Vec` of transmitters per bus
    // record made it an allocation per record (5 368 here) and 1.36 ×
    // the document, a `Vec` of fields per line 95 204 allocations and
    // 8.8 ×.
    assert!(
        allocations <= 48,
        "{allocations} allocations for {} bus records",
        model.bus.len()
    );
    assert!(
        bytes * 10 <= 7 * doc.len() as u64,
        "parse requested {bytes} B for a {} B document",
        doc.len()
    );

    let (allocations, bytes, chrome) = measured(|| chrome_trace(&model));
    // A `String` per record made it 84 411 allocations and 5.9 × the
    // result.
    assert!(
        allocations <= 1_000,
        "{allocations} allocations in chrome_trace"
    );
    assert!(
        bytes <= 2 * chrome.len() as u64,
        "chrome_trace requested {bytes} B for a {} B result",
        chrome.len()
    );

    let (_, bytes, jsonl) = measured(|| model.to_jsonl());
    assert_eq!(jsonl, doc);
    // Reserving `lines × 96` and regrowing made it 2.3 ×.
    assert!(
        bytes * 10 <= 11 * jsonl.len() as u64,
        "to_jsonl requested {bytes} B for a {} B result",
        jsonl.len()
    );
}

#[test]
fn writing_a_trace_into_a_sink_requests_a_constant_not_the_document() {
    // What any render may ask for besides its own output: line and
    // event buffers, the merge's heap of stretches, the phase profile.
    // 416 B (export) and 3 793 B (Chrome and re-export) at either
    // horizon when the gate was set; rendering into a whole-document
    // buffer asked for 6.5 MB (Chrome) and 5.4 MB (re-export) at 1.5 s,
    // and the exporter's sort keys and their merge scratch for 2 MB.
    const RENDER: u64 = 256 << 10;
    for until in ["1500ms", "3000ms"] {
        let fed = trace_query_world(until);
        let doc = fed.export_jsonl();
        assert_eq!(
            doc,
            trace_query_capture(until),
            "the world is the capture's"
        );
        let segment = [(fed.log(0), Some(fed.sim(0).trace()))];
        let (_, bytes, written) =
            measured(|| canely::obs::export_segments_jsonl(&segment, &mut std::io::sink()));
        written.unwrap();
        assert!(
            bytes <= RENDER,
            "exporting {} B at {until} requested {bytes} B",
            doc.len()
        );

        let model = TraceModel::parse(&doc).unwrap();
        let (_, bytes, written) = measured(|| {
            write_chrome_trace(&model, &mut std::io::sink())?;
            model.write_jsonl(&mut std::io::sink())
        });
        written.unwrap();
        assert!(
            bytes <= RENDER,
            "Chrome and re-export of {} B at {until} requested {bytes} B",
            doc.len()
        );
    }
}

#[test]
fn capturing_a_run_allocates_for_its_documents_not_per_event() {
    // One run of the everyday matrix's shape (`matrix-small`).
    let spec = RunSpec::from_scenario(
        "nodes 4\ntm 30ms\nth 5ms\ncrash 3 100ms\nerror-rate 0.01\nseed 7\n\
         until 300ms\nsettle 150ms\n",
    )
    .expect("the run is in the judged subset");
    let (lean, _, _) = measured(|| execute(&spec, false));
    let (full, _, outcome) = measured(|| execute(&spec, true));
    let doc = outcome.trace_jsonl.expect("capture was on");
    let model = TraceModel::parse(&doc).unwrap();
    assert!(
        model.events.len() > 5 * model.bus.len(),
        "events dominate the capture"
    );
    // The full log's growth, the sort keys, the document: 16 when the
    // gate was set, and nothing that scales with the records. A
    // `String` per line made the difference 2 747 allocations for
    // these 1 457 lines.
    let extra = full.saturating_sub(lean);
    assert!(
        extra <= 64,
        "capturing {} lines ({} bus records) cost {extra} allocations",
        model.lines.len(),
        model.bus.len()
    );
}
