//! Every checked-in scenario file is an executable regression test:
//! parse it, run it, and hold it to its own `expect-view` assertion.
//!
//! `partition_heal.canely` additionally replays under the campaign
//! invariant oracle: the blackout straddling a membership cycle
//! boundary must produce no false suspicion and leave the crash of
//! node 3 detected within the analytical bounds.

use canely_campaign::{Fault, RunSpec, Scenario};

fn scenario_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

fn read(name: &str) -> String {
    let path = scenario_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_checked_in_scenario_passes_its_expectation() {
    let mut seen = 0;
    for entry in std::fs::read_dir(scenario_dir()).expect("scenarios directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "canely") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("scenario file");
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let out = canely_cli::scenario::report(&scenario)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            out.contains("expect-view: ok"),
            "{}: missing expect-view assertion\n{out}",
            path.display()
        );
    }
    assert!(
        seen >= 3,
        "expected at least 3 scenario files, found {seen}"
    );
}

#[test]
fn partition_heal_straddles_the_cycle_boundary() {
    // The window [128 ms, 132 ms) must bracket the 130 ms membership
    // cycle tick (join_wait 70 ms + 2·Tm) — otherwise the scenario no
    // longer tests what its name claims.
    let run = RunSpec::from_scenario(&read("partition_heal.canely")).expect("campaign subset");
    let blackout = run.faults.iter().find_map(|f| match *f {
        Fault::Blackout { from, until } => Some((from, until)),
        _ => None,
    });
    let (from, until) = blackout.expect("a blackout window");
    let join_wait = run.tm * 2 + can_types::BitTime::new(10_000);
    let boundary = join_wait + run.tm * 2;
    assert!(
        from < boundary && boundary < until,
        "window [{from}, {until}) does not straddle the cycle boundary at {boundary}"
    );
}

#[test]
fn partition_heal_is_clean_under_the_invariant_oracle() {
    let run = RunSpec::from_scenario(&read("partition_heal.canely")).expect("campaign subset");
    let outcome = canely_campaign::execute(&run, false);
    assert!(
        outcome.violations.is_empty(),
        "violations: {:?}",
        outcome.violations
    );
}
