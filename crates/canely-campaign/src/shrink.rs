//! Counterexample minimization: greedy delta-debugging over the fault
//! schedule.
//!
//! Given a violating [`RunSpec`], [`minimize`] repeatedly tries
//! simplifications — dropping a scheduled crash, dropping an
//! inaccessibility window, zeroing a stochastic rate, silencing the
//! application traffic, shrinking the population — and keeps each one
//! that still violates *some* invariant. The per-transmission
//! independent RNG streams of `can_bus::fault` make this meaningful:
//! removing one fault leaves every surviving stochastic draw
//! bit-identical, so the shrink explores the real neighbourhood of the
//! failure instead of reshuffling it.
//!
//! The result is a locally minimal reproducer: removing any single
//! remaining ingredient makes the violation disappear.

use crate::run;
use crate::spec::RunSpec;

fn violates(spec: &RunSpec) -> bool {
    !run::execute(spec, false).violations.is_empty()
}

/// Greedily minimizes a violating run. Returns the spec unchanged if
/// it does not violate (nothing to shrink).
///
/// Every candidate is re-executed, so the cost is one simulation per
/// attempted simplification — a few dozen runs in practice.
pub fn minimize(spec: &RunSpec) -> RunSpec {
    if !violates(spec) {
        return spec.clone();
    }
    let mut current = spec.clone();
    loop {
        let mut progressed = false;

        // Drop scheduled crashes, one at a time.
        for i in 0..current.crashes.len() {
            let mut candidate = current.clone();
            candidate.crashes.remove(i);
            if violates(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }

        // Drop inaccessibility windows, one at a time.
        for i in 0..current.inaccessibility.len() {
            let mut candidate = current.clone();
            candidate.inaccessibility.remove(i);
            if violates(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }

        // Drop bridge-level federation faults, one at a time.
        if let Some(fed) = &current.federation {
            let mut candidates: Vec<RunSpec> = Vec::new();
            for i in 0..fed.seg_crashes.len() {
                let mut c = current.clone();
                c.federation.as_mut().unwrap().seg_crashes.remove(i);
                candidates.push(c);
            }
            for i in 0..fed.gateway_crashes.len() {
                let mut c = current.clone();
                c.federation.as_mut().unwrap().gateway_crashes.remove(i);
                candidates.push(c);
            }
            for i in 0..fed.gateway_restarts.len() {
                let mut c = current.clone();
                c.federation.as_mut().unwrap().gateway_restarts.remove(i);
                candidates.push(c);
            }
            for i in 0..fed.partitions.len() {
                let mut c = current.clone();
                c.federation.as_mut().unwrap().partitions.remove(i);
                candidates.push(c);
            }
            for i in 0..fed.asymmetric.len() {
                let mut c = current.clone();
                c.federation.as_mut().unwrap().asymmetric.remove(i);
                candidates.push(c);
            }
            for candidate in candidates {
                if violates(&candidate) {
                    current = candidate;
                    progressed = true;
                    break;
                }
            }
            if progressed {
                continue;
            }
        }

        // Zero the stochastic rates.
        for zero in [
            |c: &mut RunSpec| c.consistent_rate = 0.0,
            |c: &mut RunSpec| c.inconsistent_rate = 0.0,
        ] {
            let mut candidate = current.clone();
            zero(&mut candidate);
            if candidate != current && violates(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }

        // Silence the application traffic (pure life-sign population).
        if current.traffic.is_some() {
            let mut candidate = current.clone();
            candidate.traffic = None;
            if violates(&candidate) {
                current = candidate;
                continue;
            }
        }

        // Shrink the population, as long as no crash targets the
        // node being removed.
        if current.nodes > 2 && current.crashes.iter().all(|&(n, _)| n < current.nodes - 1) {
            let mut candidate = current.clone();
            candidate.nodes -= 1;
            if violates(&candidate) {
                current = candidate;
                continue;
            }
        }

        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
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
        run.inaccessibility = vec![(BitTime::new(90_000), BitTime::new(94_000))];
        assert!(!run::execute(&run, false).violations.is_empty());

        let minimal = minimize(&run);
        assert!(!run::execute(&minimal, false).violations.is_empty());
        assert!(minimal.crashes.is_empty(), "crashes are incidental");
        assert_eq!(minimal.consistent_rate, 0.0, "noise is incidental");
        assert_eq!(
            minimal.inaccessibility.len(),
            1,
            "the blackout is the trigger and must survive"
        );
    }
}
