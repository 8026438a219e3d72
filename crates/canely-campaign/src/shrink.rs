//! Counterexample minimization: greedy delta-debugging over the fault
//! schedule.
//!
//! Given a violating [`RunSpec`], [`minimize`] repeatedly moves to the
//! first of its one-step simplifications — dropping a scheduled fault,
//! zeroing a stochastic rate, silencing the application traffic,
//! shrinking the population — that still violates *some* invariant.
//! The per-transmission independent RNG streams of `can_bus::fault`
//! make this meaningful: removing one fault leaves every surviving
//! stochastic draw bit-identical, so the shrink explores the real
//! neighbourhood of the failure instead of reshuffling it.
//!
//! Only runs the `.canely` reader accepts are proposed, so every
//! counterexample is a file `campaign replay` reads back. The result
//! is a locally minimal reproducer: no remaining simplification still
//! violates.

use crate::run;
use crate::spec::RunSpec;

fn violates(spec: &RunSpec) -> bool {
    !run::execute(spec, false).violations.is_empty()
}

/// The one-step simplifications of `run`, in the order they are
/// tried: drop each fault, zero the consistent rate, zero the
/// inconsistent rate, turn the traffic off, drop the top node. A
/// candidate is kept only if it differs from `run` and
/// [`RunSpec::from_scenario`] accepts it — the reader is the one rule
/// for a valid run.
fn candidates(run: &RunSpec) -> Vec<RunSpec> {
    let mut candidates = Vec::new();
    for i in 0..run.faults.len() {
        let mut candidate = run.clone();
        candidate.faults.remove(i);
        candidates.push(candidate);
    }
    let simplifications: [fn(&mut RunSpec); 4] = [
        |c| c.consistent_rate = 0.0,
        |c| c.inconsistent_rate = 0.0,
        |c| c.traffic = None,
        |c| c.nodes = c.nodes.saturating_sub(1),
    ];
    for simplify in simplifications {
        let mut candidate = run.clone();
        simplify(&mut candidate);
        candidates.push(candidate);
    }
    candidates.retain(|c| c != run && RunSpec::from_scenario(&c.to_scenario()).is_ok());
    candidates
}

/// Greedily minimizes a violating run. Returns the spec unchanged if
/// it does not violate (nothing to shrink).
///
/// Every candidate is re-executed, so the cost is one simulation per
/// attempted simplification — a few dozen runs in practice.
pub fn minimize(spec: &RunSpec) -> RunSpec {
    let mut current = spec.clone();
    if !violates(&current) {
        return current;
    }
    while let Some(next) = candidates(&current).into_iter().find(violates) {
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Fault};
    use can_types::BitTime;

    #[test]
    fn non_violating_spec_is_returned_unchanged() {
        let spec = CampaignSpec::default().expand().remove(0);
        assert_eq!(minimize(&spec), spec);
    }

    #[test]
    fn weakened_run_shrinks_to_the_essential_ingredients() {
        // Start from a cluttered mutant run: crashes, both stochastic
        // rates, traffic, a blackout. Only the weaken flag plus the
        // blackout are needed for the false suspicion — the shrinker
        // must strip the rest.
        let mut run = CampaignSpec {
            seeds: (3, 4),
            crash_budgets: vec![1],
            consistent_rates: vec![0.02],
            ..CampaignSpec::default()
        }
        .expand()
        .remove(0);
        run.weaken_fda = true;
        let blackout = Fault::Blackout {
            from: BitTime::new(90_000),
            until: BitTime::new(94_000),
        };
        run.faults.push(blackout);
        assert!(!run::execute(&run, false).violations.is_empty());

        let minimal = minimize(&run);
        assert!(!run::execute(&minimal, false).violations.is_empty());
        assert_eq!(minimal.consistent_rate, 0.0, "noise is incidental");
        assert_eq!(
            minimal.faults,
            [blackout],
            "the blackout is the trigger and must survive; crashes are incidental"
        );
    }

    #[test]
    fn candidates_are_runs_the_reader_accepts() {
        // A two-segment run whose gateway is the top node, with a
        // restart that needs its crash: neither the population step
        // nor dropping the crash alone may be proposed.
        let run = RunSpec::from_scenario(
            "nodes 4\nsegments 2\ngateway 3\ngateway-crash 1 100ms\n\
             gateway-restart 1 150ms\nuntil 400ms\nsettle 150ms\n",
        )
        .unwrap();
        let proposed = candidates(&run);
        assert!(proposed.iter().all(|c| c.nodes == 4), "{proposed:?}");
        let faults: Vec<_> = proposed.iter().map(|c| c.faults.clone()).collect();
        assert_eq!(
            faults,
            [run.faults[..1].to_vec()],
            "only the restart may go"
        );
    }
}
