//! Executing one [`RunSpec`]: build the simulation, run it to the
//! horizon, and judge the trace with the oracle.
//!
//! A run is fully self-contained and single-threaded (the shared
//! `ObsLog` is `Rc`-based by design) and builds and drops its own
//! world, so the campaign runner can execute many runs concurrently —
//! determinism comes from the spec, not from scheduling or run order.

use crate::oracle::{self, GatewayFinal, GlobalOracleInput, NodeFinal, OracleInput, Violation};
use crate::spec::{segment_seed, Fault, RunSpec};
use crate::telemetry::{RunTelemetry, RP_OBS, RP_ORACLE, RP_SETUP};
use can_types::{BitTime, MsgType, NodeId, NodeSet};
use canely::obs::{latency_samples, Downtime, ProtocolEvent, TimedEvent};
use canely_federation::{quorum, FederationConfig, FederationSim};

/// The judged result of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's matrix index.
    pub id: usize,
    /// Oracle verdicts (empty = all invariants held).
    pub violations: Vec<Violation>,
    /// Number of protocol events the run emitted — whether or not the
    /// run stored them (only a capturing run stores them all).
    pub events: usize,
    /// Measured crash-to-notification latencies (bit-times), one per
    /// crash × surviving observer.
    pub detection: Vec<u64>,
    /// Measured crash-to-view-install latencies (bit-times).
    pub view_change: Vec<u64>,
    /// Suspicions raised against nodes that had *not* crashed at the
    /// time (false positives of the failure detector; the QoS
    /// `λ`-metric of the shootout report).
    pub false_suspicions: u64,
    /// Physical frames on the bus attributable to the failure
    /// detector (ELS life-signs + SWIM ping traffic).
    pub detector_frames: u64,
    /// Bus occupancy (bit-times) of those detector frames.
    pub detector_busy: u64,
    /// The merged bus + protocol JSONL trace, when requested.
    pub trace_jsonl: Option<String>,
}

/// Counts suspicions of nodes that were alive when suspected: a
/// `SuspectRaised { suspect }` is *false* unless the suspect was
/// [`Downtime`] then.
pub fn false_suspicion_count(events: &[TimedEvent]) -> u64 {
    let down = Downtime::of(events);
    let false_suspicion = |e: &&TimedEvent| {
        matches!(e.event, ProtocolEvent::SuspectRaised { suspect }
            if !down.down_at(suspect, e.time))
    };
    events.iter().filter(false_suspicion).count() as u64
}

/// The last crash any of `fed`'s `segments` logged, scheduled or
/// caused by a fault: each segment's crash log is in time order.
fn last_crash(fed: &FederationSim, segments: u8) -> Option<BitTime> {
    (0..segments)
        .filter_map(|seg| fed.sim(seg).crash_times().last())
        .map(|&(t, _)| t)
        .max()
}

/// Builds, runs and judges one simulation in a fresh world.
///
/// With `capture_trace` the full JSONL document (bus transactions
/// merged with protocol events, time-ordered, byte-deterministic) is
/// returned for counterexample emission; campaigns leave it off, and
/// the run then stores only the events the judge reads
/// ([`oracle::JUDGED`]). Every other field of the outcome is the same
/// either way.
pub fn execute(spec: &RunSpec, capture_trace: bool) -> RunOutcome {
    execute_on(&mut RunTelemetry::disabled(), spec, capture_trace)
}

/// [`execute`], streaming the run's counters and phase profile into a
/// campaign worker's telemetry handles.
///
/// There is one world shape: K bridged segments in a
/// [`FederationSim`], each an unmodified single-bus CANELy world
/// judged by the per-segment invariant oracle. A plain run is the
/// K = 1 case — one segment, no bridge, bare stacks, one stride to the
/// horizon; only K > 1 has gateways, and with them the global
/// hierarchical-membership checks and segment-qualified verdicts.
pub(crate) fn execute_on(tel: &mut RunTelemetry, spec: &RunSpec, capture: bool) -> RunOutcome {
    tel.profiler.enter(RP_SETUP);
    let fed_spec = spec.federation.unwrap_or_default();
    let segments = fed_spec.segments;
    let federated = segments > 1;
    let mut config = FederationConfig::new(spec.config(), segments, spec.nodes)
        .with_topology(fed_spec.topology)
        .with_gateway(fed_spec.gateway)
        .with_filter(fed_spec.relay);
    if !capture {
        config = config.with_retention(oracle::JUDGED);
    }
    let mut fed = FederationSim::new(
        &config,
        spec.traffic,
        |seg| segment_seed(spec.seed, seg),
        |seed| spec.fault_plan(seed),
    );
    fed.set_metrics(tel.fed.clone());
    fed.set_detector_metrics(tel.sim.detector.clone());
    for seg in 0..segments {
        let sim = fed.sim_mut(seg);
        sim.set_profiling(tel.enabled());
        if !capture {
            // The outcome reads one window of the bus, not its records.
            sim.summarize_bus(BitTime::ZERO, spec.until);
        }
    }
    let gateway = fed.gateway();
    let (mut gateway_losses, mut restarts) = (Vec::new(), Vec::new());
    for &fault in &spec.faults {
        match fault {
            Fault::Crash { seg, node, at } => {
                fed.sim_mut(seg).schedule_crash(NodeId::new(node), at)
            }
            // Each segment's bus fault plan carries the blackouts.
            Fault::Blackout { .. } => {}
            Fault::GatewayCrash { seg, at } => {
                fed.schedule_gateway_crash(seg, at);
                gateway_losses.push((seg, at));
            }
            Fault::GatewayRestart { seg, at } => {
                fed.schedule_gateway_restart(seg, at);
                restarts.push((seg, at));
            }
            Fault::Partition { from, until } => fed.schedule_partition(from, until),
            Fault::Asymmetric {
                from_seg,
                to_seg,
                from,
                until,
            } => fed.schedule_asymmetric(from_seg, to_seg, from, until),
        }
    }
    // The step loops' own profilers own the run window; pause the
    // worker-side profiler so no nanosecond is attributed twice.
    tel.profiler.pause();
    fed.run_until(spec.until);
    tel.profiler.enter(RP_OBS);

    // Ground-truth crash markers come from the simulator's own crash
    // funnel (covers scheduled *and* fault-induced crashes), so the
    // oracle never trusts the schedule alone.
    for seg in 0..segments {
        for &(t, node) in fed.sim(seg).crash_times() {
            fed.log(seg).record(t, node, ProtocolEvent::NodeCrashed);
        }
    }
    for &(seg, at) in &restarts {
        fed.log(seg)
            .record(at, gateway, ProtocolEvent::NodeRestarted);
    }

    let quiescent = spec.quiescent_after(last_crash(&fed, segments));

    let mut outcome = RunOutcome {
        id: spec.id,
        violations: Vec::new(),
        events: 0,
        detection: Vec::new(),
        view_change: Vec::new(),
        false_suspicions: 0,
        detector_frames: 0,
        detector_busy: 0,
        trace_jsonl: None,
    };
    let mut gateway_finals = Vec::new();
    let mut expected_views = Vec::new();

    for seg in 0..segments {
        let sim = fed.sim(seg);
        let finals: Vec<NodeFinal> = (0..spec.nodes)
            .map(|id| {
                let node = NodeId::new(id);
                let alive = sim.alive().contains(node);
                let stack = fed.stack(seg, node);
                NodeFinal {
                    node,
                    alive,
                    in_service: alive && !stack.is_out_of_service(),
                    view: stack.view(),
                }
            })
            .collect();
        if federated {
            let mut crashed_here = NodeSet::EMPTY;
            for &(_, node) in sim.crash_times() {
                crashed_here.insert(node);
            }
            // A restarted gateway is back up and, by quiescence,
            // re-integrated: it belongs in the segment's expected view.
            if restarts.iter().any(|&(s, _)| s == seg) && sim.alive().contains(gateway) {
                crashed_here.remove(gateway);
            }
            expected_views.push(spec.members() - crashed_here);
            // The segment's representative at the horizon: the acting
            // gateway (configured or elected successor), or — headless —
            // the configured one's frozen state for the agreement check.
            let rep = fed.active_gateway(seg);
            let gw = fed.node_app(seg, rep.unwrap_or(gateway));
            gateway_finals.push(GatewayFinal {
                seg,
                alive: rep.is_some(),
                installed: gw.installed_views(),
                install_log: gw.install_log().to_vec(),
            });
        }

        // Detector bandwidth, from the wire itself: the life-sign and
        // ping share of actual bus occupancy over the whole run.
        let bus = sim.trace().stats(BitTime::ZERO, spec.until);
        for stats in [MsgType::Els, MsgType::Ping].map(|t| bus.of_type(t)) {
            outcome.detector_frames += stats.frames as u64;
            outcome.detector_busy += stats.busy.as_u64();
        }

        // Both modes judge the same stream: a capture's full log is
        // filtered once, a retaining log already holds nothing else.
        let log = fed.log(seg);
        outcome.events += log.emitted() as usize;
        let seg_events = log.with_events(oracle::judged_subset);
        let input = OracleInput {
            events: &seg_events,
            finals: &finals,
            horizon: spec.until,
            members: spec.members(),
            quiescent,
            operational_from: spec.operational_from(),
            detection_bound: spec.detection_bound(),
            view_change_bound: spec.view_change_bound(),
        };
        tel.profiler.enter(RP_ORACLE);
        let found = oracle::check(&input).into_iter().map(|mut v| {
            if federated {
                v.detail = format!("segment {seg}: {}", v.detail);
            }
            v
        });
        outcome.violations.extend(found);
        tel.profiler.enter(RP_OBS);
        let (detection, view_change) = latency_samples(&seg_events);
        outcome.detection.extend(detection);
        outcome.view_change.extend(view_change);
        outcome.false_suspicions += false_suspicion_count(&seg_events);
    }

    if federated {
        tel.profiler.enter(RP_ORACLE);
        outcome
            .violations
            .extend(oracle::check_global(&GlobalOracleInput {
                gateways: &gateway_finals,
                expected: &expected_views,
                quiescent,
                quorum: quorum(usize::from(segments)),
                gateway_losses: &gateway_losses,
                rejoin_bound: spec.rejoin_bound(),
                horizon: spec.until,
            }));
        outcome
            .violations
            .sort_by_key(|v| (v.invariant, v.node.map(NodeId::as_u8), v.time));
        tel.profiler.enter(RP_OBS);
    }

    outcome.trace_jsonl = capture.then(|| fed.export_jsonl());
    for seg in 0..segments {
        let sim = fed.sim_mut(seg);
        let (stats, profile) = (sim.take_step_stats(), sim.take_profile());
        tel.sim.flush_sim(stats, &profile);
    }
    // Tearing the world down is the other half of building it.
    tel.profiler.enter(RP_SETUP);
    drop(fed);
    tel.profiler.pause();

    tel.flush_run_phases();
    tel.flush_outcome(&outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    const MUTANT_TRIGGER: Fault = Fault::Blackout {
        from: BitTime::new(90_000),
        until: BitTime::new(94_000),
    };

    fn base_run() -> RunSpec {
        let spec = CampaignSpec {
            seeds: (7, 8),
            crash_budgets: vec![1],
            ..CampaignSpec::default()
        };
        spec.expand().remove(0)
    }

    #[test]
    fn clean_run_with_crash_has_no_violations() {
        let outcome = execute(&base_run(), false);
        assert!(
            outcome.violations.is_empty(),
            "violations: {:?}",
            outcome.violations
        );
        assert!(outcome.events > 0);
        assert!(
            !outcome.detection.is_empty(),
            "a crashed node must yield detection-latency samples"
        );
        assert!(!outcome.view_change.is_empty());
        assert_eq!(outcome.false_suspicions, 0, "no live node may be suspected");
        // The paper's detector under cyclic traffic: implicit
        // heartbeats satisfy every surveillance timer, so the
        // detector's own wire cost is exactly zero (Sec. 6.3).
        assert_eq!(outcome.detector_frames, 0);
        assert_eq!(outcome.detector_busy, 0);
        let worst_detection = outcome.detection.iter().max().unwrap();
        let worst_view_change = outcome.view_change.iter().max().unwrap();
        assert!(
            worst_detection <= worst_view_change,
            "detection precedes the view change: {:?} vs {:?}",
            outcome.detection,
            outcome.view_change
        );
    }

    #[test]
    fn back_to_back_runs_on_one_worker_equal_isolated_runs() {
        // A worker keeps nothing between runs but its telemetry
        // handles: runs of different node counts, crash schedules and
        // fault rates, one- and two-segment worlds alternating, executed
        // back to back on ONE live handle bundle must produce exactly
        // what each produces in isolation.
        let spec = CampaignSpec {
            seeds: (3, 5),
            nodes: vec![3, 5, 4],
            crash_budgets: vec![0, 1],
            consistent_rates: vec![0.0, 0.02],
            segments: vec![1, 2],
            ..CampaignSpec::default()
        };
        let runs = spec.expand();
        let bridged = runs.iter().filter(|r| r.federation.is_some()).count();
        assert!(
            bridged >= 8 && runs.len() - bridged >= 8,
            "matrix must mix shapes"
        );
        let registry = canely_metrics::Registry::new();
        let mut worker = RunTelemetry::new(&registry);
        for run in &runs {
            let shared = execute_on(&mut worker, run, true);
            let isolated = execute(run, true);
            assert_eq!(shared.trace_jsonl, isolated.trace_jsonl, "run {}", run.id);
            assert_eq!(shared.events, isolated.events);
            assert_eq!(shared.detection, isolated.detection);
            assert_eq!(shared.view_change, isolated.view_change);
            assert_eq!(
                format!("{:?}", shared.violations),
                format!("{:?}", isolated.violations)
            );
        }
    }

    #[test]
    fn identical_specs_produce_identical_traces() {
        let run = base_run();
        let a = execute(&run, true);
        let b = execute(&run, true);
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
        assert!(a.trace_jsonl.as_deref().is_some_and(|t| !t.is_empty()));
    }

    #[test]
    fn backends_face_the_same_schedule_with_different_wire_costs() {
        use canely::DetectorKind;
        let base = base_run();
        let mut outcomes = Vec::new();
        for kind in DetectorKind::ALL {
            let run = RunSpec {
                detector: kind,
                ..base.clone()
            };
            let outcome = execute(&run, false);
            assert!(
                outcome.violations.is_empty(),
                "{kind}: violations: {:?}",
                outcome.violations
            );
            assert!(
                !outcome.detection.is_empty(),
                "{kind}: the crash must be detected"
            );
            outcomes.push((kind, outcome));
        }
        // The heartbeat-free SWIM backend must spend less life-sign
        // bandwidth than the unconditional ◇P heartbeater.
        let busy = |k: DetectorKind| {
            outcomes
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, o)| o.detector_busy)
                .unwrap()
        };
        assert!(
            busy(DetectorKind::AddPhi) > 0,
            "unconditional heartbeats must show up on the wire"
        );
        assert!(
            busy(DetectorKind::Swim) < busy(DetectorKind::AddPhi),
            "swim ({}) must under-spend add-phi ({}) on the wire",
            busy(DetectorKind::Swim),
            busy(DetectorKind::AddPhi)
        );
    }

    #[test]
    fn federated_run_survives_gateway_crash_and_partition() {
        let spec = CampaignSpec::parse(
            "name fed\nnodes 4\ntm 30ms\nseeds 0..1\ncrash-budget 1\nsegments 3\n\
             gateway-crash 0 1\nsegment-partition 0 20ms\nuntil 500ms\nsettle 200ms\n",
        )
        .unwrap();
        let runs = spec.expand();
        // 2 gateway-crash budgets × 2 partition lens × 1 seed.
        assert_eq!(runs.len(), 4);
        for run in &runs {
            assert!(run.federation.is_some(), "all combos are federated");
            let a = execute(run, true);
            assert!(
                a.violations.is_empty(),
                "run {} ({:?}): {:?}",
                run.id,
                run.faults,
                a.violations
            );
            assert!(!a.detection.is_empty(), "the crash must be detected");
            assert_eq!(a.false_suspicions, 0);
            let b = execute(run, true);
            assert_eq!(
                a.trace_jsonl, b.trace_jsonl,
                "federated runs replay exactly"
            );
            let trace = a.trace_jsonl.as_deref().unwrap();
            assert!(trace.contains("\"seg\":2"), "export must be segment-tagged");
            assert!(
                trace.contains("fed.install"),
                "global installs must be traced"
            );
        }
    }

    #[test]
    fn gateway_restart_elects_and_rejoins_within_bound() {
        // Crash the gateway mid-run and power it back on: a standby
        // must win the election, bump the segment epoch, and drive the
        // re-announced view to a fresh global install inside the
        // rejoin bound — with the restarted former gateway demoting
        // instead of splitting the segment.
        let spec = CampaignSpec::parse(
            "name failover\nnodes 4\ntm 30ms\nseeds 0..1\nsegments 3\n\
             gateway-crash 1\ngateway-restart 60ms\nuntil 600ms\nsettle 250ms\n",
        )
        .unwrap();
        let runs = spec.expand();
        assert!(!runs.is_empty());
        let mut saw_restart = false;
        for run in &runs {
            assert!(run.federation.is_some(), "all combos are federated");
            let a = execute(run, true);
            assert!(
                a.violations.is_empty(),
                "run {} ({:?}): {:?}",
                run.id,
                run.faults,
                a.violations
            );
            let trace = a.trace_jsonl.as_deref().unwrap();
            let has = |pred: fn(&Fault) -> bool| run.faults.iter().any(pred);
            if has(|f| matches!(f, Fault::GatewayCrash { .. })) {
                assert!(trace.contains("fed.elect"), "the election must be traced");
                assert!(trace.contains("fed.rejoin"), "the rejoin must be traced");
            }
            saw_restart |= has(|f| matches!(f, Fault::GatewayRestart { .. }));
            let b = execute(run, true);
            assert_eq!(a.trace_jsonl, b.trace_jsonl, "failover runs replay exactly");
        }
        assert!(saw_restart, "the restart delay must materialize");
    }

    #[test]
    fn weakened_mutant_with_blackout_violates() {
        let mut run = base_run();
        run.weaken_fda = true;
        // A 4 ms steady-state blackout stretches observed life-sign
        // gaps to ~6 ms: inside the correct surveillance margin
        // (Th + Ttd = 7.5 ms) but past the mutant's truncated one
        // (Th + Ttd/4 = 5.625 ms), so only
        // the mutant falsely suspects a live node.
        run.faults = vec![MUTANT_TRIGGER];
        let outcome = execute(&run, false);
        assert!(
            !outcome.violations.is_empty(),
            "the weakened mutant must be caught"
        );
    }

    #[test]
    fn correct_protocol_survives_the_mutant_trigger() {
        // The exact blackout that catches the mutant must stay inside
        // the correct protocol's margins — otherwise the oracle would
        // be flagging the fault load, not the weakness.
        let mut run = base_run();
        run.faults = vec![MUTANT_TRIGGER];
        let outcome = execute(&run, false);
        assert!(
            outcome.violations.is_empty(),
            "violations: {:?}",
            outcome.violations
        );
    }

    #[test]
    fn a_crash_a_fault_caused_inside_the_settle_margin_is_not_quiescent() {
        // An inconsistent omission whose sender crashes before it
        // retransmits is on no schedule: the schedule reads quiescent,
        // the crash log must not.
        use can_bus::{AccepterSpec, FaultEffect, FaultMatcher, ScriptedFault};
        let run = RunSpec {
            faults: Vec::new(),
            ..base_run()
        };
        let late = run.until - run.settle / 2;
        let config = FederationConfig::new(run.config(), 1, run.nodes);
        let plan = |seed| {
            let mut plan = run.fault_plan(seed);
            plan.push_scripted(ScriptedFault {
                matcher: FaultMatcher {
                    not_before: late,
                    ..FaultMatcher::any()
                },
                effect: FaultEffect::InconsistentOmission {
                    accepters: AccepterSpec::RandomSubset,
                    crash_sender: true,
                },
                count: 1,
            });
            plan
        };
        let mut fed = FederationSim::new(
            &config,
            run.traffic,
            |seg| segment_seed(run.seed, seg),
            plan,
        );
        fed.run_until(run.until);

        let crash = last_crash(&fed, 1).expect("the omission crashed its sender");
        assert!(late <= crash && run.until < crash + run.settle, "{crash}");
        assert!(run.quiescent_after(None), "no fault is scheduled");
        assert!(!run.quiescent_after(Some(crash)));
        // The same crash a settle margin before the horizon is settled.
        assert!(run.quiescent_after(Some(run.until - run.settle)));
    }
}
