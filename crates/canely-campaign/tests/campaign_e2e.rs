//! End-to-end campaign acceptance tests, mirroring the crate's
//! contract:
//!
//! * a seeded campaign of **500+ runs** over the correct protocol
//!   finishes with zero invariant violations;
//! * the summary JSON is byte-identical for any worker count;
//! * the deliberately weakened failure-detection mutant yields a
//!   violation that shrinks to a **replayable** minimal `.canely`
//!   counterexample.

use can_types::BitTime;
use canely_campaign::{execute, run_campaign, CampaignSpec, Counterexample, Fault, RunSpec};

#[test]
fn the_summary_escapes_a_quote_in_the_campaign_name() {
    // The name used to be written unescaped: `{"campaign":"a"b",…}`.
    let spec = CampaignSpec::parse("name a\"b\nseeds 0..1\nuntil 300ms\nsettle 150ms\n").unwrap();
    let json = run_campaign(&spec, 1).report.to_json();
    assert!(json.starts_with(r#"{"campaign":"a\"b","runs":"#), "{json}");
}

#[test]
fn five_hundred_seeded_runs_on_the_correct_protocol_are_clean() {
    // 2 populations × 2 error rates × 2 crash budgets × 63 seeds
    // = 504 runs.
    let spec = CampaignSpec {
        name: "soak".into(),
        nodes: vec![3, 4],
        seeds: (0, 63),
        consistent_rates: vec![0.0, 0.01],
        crash_budgets: vec![0, 1],
        until: BitTime::new(200_000),
        settle: BitTime::new(100_000),
        ..CampaignSpec::default()
    };
    spec.validate().expect("spec is coherent");
    assert_eq!(spec.run_count(), 504);
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let result = run_campaign(&spec, workers);
    assert_eq!(result.report.runs, 504);
    assert!(
        result.report.clean(),
        "correct protocol must survive the matrix:\n{}",
        result.report.render()
    );
    assert!(result.counterexample.is_none());
}

#[test]
fn summary_json_is_identical_for_any_worker_count() {
    let spec = CampaignSpec {
        name: "determinism".into(),
        seeds: (0, 6),
        consistent_rates: vec![0.0, 0.02],
        crash_budgets: vec![1],
        inaccessibility_lens: vec![BitTime::ZERO, BitTime::new(2_000)],
        ..CampaignSpec::default()
    };
    let one = run_campaign(&spec, 1).report.to_json();
    let five = run_campaign(&spec, 5).report.to_json();
    let sixteen = run_campaign(&spec, 16).report.to_json();
    assert_eq!(one, five);
    assert_eq!(one, sixteen);
    assert!(one.contains("\"runs\":24"), "{one}");
}

#[test]
fn weakened_mutant_shrinks_to_a_replayable_counterexample() {
    let spec = CampaignSpec {
        name: "mutant-e2e".into(),
        seeds: (0, 3),
        consistent_rates: vec![0.01],
        crash_budgets: vec![1],
        inaccessibility_lens: vec![BitTime::new(4_000)],
        weaken_fda: true,
        ..CampaignSpec::default()
    };
    let result = run_campaign(&spec, 4);
    assert!(!result.report.clean(), "the mutant must be caught");
    let cx = result.counterexample.expect("a minimized counterexample");

    // Minimality: the shrinker strips the incidental fault load.
    assert!(
        cx.minimal.faults.len() <= cx.original.faults.len()
            && cx.minimal.consistent_rate <= cx.original.consistent_rate,
        "minimal spec must not grow: {:?} from {:?}",
        cx.minimal,
        cx.original
    );
    assert!(
        matches!(cx.minimal.faults[..], [Fault::Blackout { .. }]),
        "the blackout is the essential trigger: {:?}",
        cx.minimal.faults
    );
    assert!(!cx.violations.is_empty());
    assert!(!cx.trace_jsonl.is_empty(), "offending trace ships along");

    // The exact counterexample, pinned: the campaign judges from the
    // retained kinds and the shrinker from full captures, and both
    // must keep landing on these bytes.
    assert_eq!(
        cx.scenario,
        "# canely-campaign run 1 (seed 1)\nnodes 2\ntm 30ms\nth 5ms\nseed 1\n\
         omission-degree 16\ninconsistent-degree 2\ninaccessible 89843us 93843us\n\
         weaken-fda\nuntil 300ms\nsettle 150ms\nlatency-slack 4ms\nrejoin-slack 30ms\n"
    );
    assert_eq!(cx.violations.len(), 4, "{:?}", cx.violations);
    let fnv1a = cx
        .trace_jsonl
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    assert_eq!(
        (cx.trace_jsonl.len(), fnv1a),
        (11_013, 0xcc6d_30b9_c144_df38)
    );

    // Replayability: the emitted .canely document reproduces the
    // violation after a parse round-trip.
    assert!(cx.scenario.contains("weaken-fda"), "{}", cx.scenario);
    let mut replayed = RunSpec::from_scenario(&cx.scenario).expect("scenario parses back");
    replayed.id = cx.minimal.id; // ids are not serialized state
    assert_eq!(replayed, cx.minimal, "a shrunk run round-trips");
    assert_eq!(replayed.to_scenario(), cx.scenario);
    let outcome = execute(&replayed, false);
    assert!(
        !outcome.violations.is_empty(),
        "replayed counterexample must still violate"
    );
}

/// The counterexample of the campaign `text`, checked to be a file the
/// `.canely` reader accepts and that still violates when replayed.
fn replayable_counterexample(text: &str) -> Counterexample {
    let result = run_campaign(&CampaignSpec::parse(text).unwrap(), 2);
    let cx = result.counterexample.expect("a minimized counterexample");
    let replayed = RunSpec::from_scenario(&cx.scenario).unwrap_or_else(|e| {
        panic!(
            "the reader refuses the counterexample: {e}\n{}",
            cx.scenario
        )
    });
    assert!(
        !execute(&replayed, false).violations.is_empty(),
        "replayed counterexample must still violate:\n{}",
        cx.scenario
    );
    cx
}

#[test]
fn a_federated_shrink_keeps_the_gateway_in_the_population() {
    // Dropping the top node used to propose a 3-node run whose gateway
    // is node 3, and the campaign panicked building it.
    let cx = replayable_counterexample(
        "name gw-top\nnodes 4\nseeds 2..3\ninaccessibility 4ms\nsegments 2\ngateway 3\n\
         until 400ms\nsettle 150ms\nweaken-fda\n",
    );
    assert_eq!(cx.minimal.nodes, 4);
}

#[test]
fn a_federated_shrink_keeps_each_gateway_restart_behind_its_crash() {
    // Dropping the gateway crash used to leave its restart behind, a
    // counterexample `campaign replay` refused.
    replayable_counterexample(
        "name fo\nnodes 4\nseeds 9..10\ninaccessibility 4ms\nsegments 3\ngateway-crash 1\n\
         gateway-restart 60ms\nuntil 600ms\nsettle 250ms\nweaken-fda\n",
    );
}

#[test]
fn plain_runs_go_to_forty_nodes_and_bridged_ones_stay_capped() {
    // The 32-node cap is the digest wire encoding's, so it binds
    // bridged segments only; one segment goes to `MAX_NODES`.
    let text = "name wide\nnodes 40\ntm 30ms\nth 25ms\nseeds 0..1\ncrash-budget 1\n\
                traffic 12ms\nuntil 600ms\nsettle 300ms\n";
    let run = CampaignSpec::parse(text).unwrap().expand().remove(0);
    assert_eq!(run.nodes, 40);
    let outcome = execute(&run, false);
    assert!(outcome.events > 0);
    assert!(!outcome.detection.is_empty(), "the crash must be detected");
    let err = CampaignSpec::parse(&format!("{text}segments 2\n")).unwrap_err();
    assert!(
        err.to_string()
            .contains("federated segment populations cap at 32 nodes"),
        "{err}"
    );
}
