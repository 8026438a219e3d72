//! The ledger document (`out/ledger.json`) and `ledger compare`.

use crate::json::Json;
use crate::measure::{Timed, Traced};
use crate::names::{self, Better, Metric};
use crate::stats;
use crate::workloads::Workload;
use std::fmt::Write as _;

/// One workload's section of the ledger.
pub fn workload_json(workload: &Workload, timed: &Timed, traced: &Traced) -> Json {
    let end_to_end = names::END_TO_END
        .iter()
        .chain(names::LEDGER_ONLY)
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                (
                    "value",
                    timed.value(workload, m.name).map_or(Json::Null, Json::Num),
                ),
                (
                    "samples",
                    timed
                        .samples(workload, m.name)
                        .map_or(Json::Null, |s| Json::nums(&s)),
                ),
            ])
        })
        .collect();
    let per_layer = names::PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("value", Json::Num(traced.values[m.name])),
            ])
        })
        .collect();
    let digests = timed
        .facts
        .artifacts
        .iter()
        .map(|a| {
            Json::obj([
                ("artifact", Json::Str(a.name.into())),
                ("digest", Json::Str(format!("{:016x}", a.digest))),
                ("bytes", Json::Num(a.bytes as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("name", Json::Str(workload.name.into())),
        ("ops", Json::Num(timed.tally.attempted as f64)),
        ("failed_ops", Json::Num(timed.tally.failed as f64)),
        ("samples", Json::Num(timed.costs.len() as f64)),
        (
            "hi_pct",
            Json::Num(f64::from(stats::hi_percentile(timed.costs.len()))),
        ),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
        ("digests", Json::Arr(digests)),
    ])
}

/// The whole document.
pub fn document(seed: u64, seconds: f64, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(crate::nproc() as f64)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// What `compare` concluded about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the metric's bound, so
    /// "no regression" cannot be told from the medians.
    Unresolved,
    /// A value that must repeat exactly did not.
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// Judges `b` against `a` for a bounded metric. `a`/`b` are the
/// reported values, `sa`/`sb` the samples behind them (possibly one).
pub fn judge(metric: &Metric, a: f64, b: f64, sa: &[f64], sb: &[f64]) -> Verdict {
    if metric.src.exact() {
        return if a == b {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = `b` is worse, as a share of `a`.
    let worse_by = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            sign * f64::INFINITY * b.signum()
        }
    } else {
        sign * (b - a) / a.abs()
    };
    if worse_by > metric.bound {
        return Verdict::Worse;
    }
    let spread = stats::spread(sa).max(stats::spread(sb));
    if spread > metric.bound {
        // Too noisy to call unchanged — unless every run of `b` reads
        // better than every run of `a`.
        let all_better = match metric.better {
            Better::Lower => max(sb) < min(sa),
            Better::Higher => min(sb) > max(sa),
        };
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by < -stats::spread(sa) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn by_name<'a>(list: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    list?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
}

/// An end-to-end row of a workload section: its value and the entry.
fn e2e_entry<'a>(workload: &'a Json, name: &str) -> Option<(f64, &'a Json)> {
    let entry = by_name(workload.get("end_to_end"), name)?;
    Some((entry.get("value")?.as_f64()?, entry))
}

fn samples_of(entry: &Json, fallback: f64) -> Vec<f64> {
    entry
        .get("samples")
        .and_then(Json::as_arr)
        .map(|s| s.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| vec![fallback])
}

/// A value for a table column: whole numbers as they are, others to
/// about five significant digits (the ledgers keep every digit).
fn num(v: f64) -> String {
    if v.fract() == 0.0 {
        Json::Num(v).render()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn quart(samples: &[f64]) -> String {
    let (q1, _, q3) = stats::quartiles(samples);
    format!("[{} {}]", num(q1), num(q3))
}

/// Compares ledger `b` (the change) against ledger `a` (the parent).
/// Returns the report and whether it passes: no `worse`, no exact
/// value that differs, no higher share of failed operations.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    for key in ["seed", "seconds"] {
        let (va, vb) = (
            a.get(key).and_then(Json::as_f64),
            b.get(key).and_then(Json::as_f64),
        );
        if va != vb {
            return Err(format!(
                "the ledgers were made with different `{key}`: {va:?} vs {vb:?}"
            ));
        }
    }
    let list_a = a.get("workloads");
    for wb in b
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("ledger B has no workloads")?
    {
        let name = wb
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let Some(wa) = by_name(list_a, name) else {
            let _ = writeln!(out, "== {name}: only in B, not compared");
            continue;
        };
        let _ = writeln!(out, "== {name}");
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>14} {:>8}  {:<10} quartiles A / B",
            "end-to-end", "A", "B", "delta", "verdict"
        );
        let field = |w: &Json, key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let failed_share = |w: &Json| field(w, "failed_ops") / field(w, "ops").max(1.0);
        // wall_s_hi has no samples of its own; it inherits wall_s's.
        let wall = |w: &Json| {
            by_name(w.get("end_to_end"), "wall_s")
                .map(|e| samples_of(e, 0.0))
                .unwrap_or_default()
        };
        for m in names::END_TO_END.iter().chain(names::LEDGER_ONLY) {
            let (Some((va, ea)), Some((vb, eb))) = (e2e_entry(wa, m.name), e2e_entry(wb, m.name))
            else {
                let _ = writeln!(out, "{:<22} {:>14} {:>14}", m.name, "n/a", "n/a");
                continue;
            };
            let (sa, sb) = (samples_of(ea, va), samples_of(eb, vb));
            let verdict = if m.name == "failed_ops" {
                if failed_share(wb) > failed_share(wa) {
                    Verdict::Worse
                } else {
                    Verdict::Same
                }
            } else if m.name == "wall_s_hi" {
                judge(m, va, vb, &wall(wa), &wall(wb))
            } else {
                judge(m, va, vb, &sa, &sb)
            };
            pass &= !verdict.fails();
            let delta = if va == 0.0 {
                0.0
            } else {
                100.0 * (vb - va) / va.abs()
            };
            let _ = writeln!(
                out,
                "{:<22} {:>14} {:>14} {:>+7.2}%  {:<10} {} / {}",
                m.name,
                num(va),
                num(vb),
                delta,
                verdict.as_str(),
                quart(&sa),
                quart(&sb)
            );
        }
        let digests = |w: &Json| w.get("digests").map(Json::render);
        let same = digests(wa) == digests(wb);
        pass &= same;
        let _ = writeln!(
            out,
            "{:<22} {}",
            "output digests",
            if same { "same" } else { "DIFFERS" }
        );

        let _ = writeln!(
            out,
            "{:<40} {:>16} {:>16} {:>8}",
            "per-layer", "A", "B", "delta"
        );
        for m in names::PER_LAYER {
            let value = |w: &Json| by_name(w.get("per_layer"), m.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                continue;
            };
            let delta = if va == 0.0 {
                0.0
            } else {
                100.0 * (vb - va) / va.abs()
            };
            let mark = if m.src.exact() && va != vb {
                "  (exact row changed)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<40} {:>16} {:>16} {:>+7.2}%{mark}",
                m.name,
                num(va),
                num(vb),
                delta
            );
        }
    }
    let _ = writeln!(out, "{}", if pass { "PASS" } else { "FAIL" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static Metric {
        names::find("wall_s").unwrap()
    }

    /// Samples centred on `center` whose IQR is `iqr` of the centre.
    fn around(center: f64, iqr: f64) -> Vec<f64> {
        // Eleven evenly spaced samples: the quartiles sit three steps
        // either side of the median, so the IQR is six steps.
        (-5..=5)
            .map(|i| center * (1.0 + f64::from(i) * iqr / 6.0))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = wall();
        let steady = |c: f64| around(c, m.bound / 10.0);
        let verdict = |b: f64, s: &dyn Fn(f64) -> Vec<f64>| judge(m, 1.0, b, &s(1.0), &s(b));
        assert_eq!(verdict(1.0 + m.bound / 2.0, &steady), Verdict::Same);
        assert_eq!(verdict(1.0 + m.bound * 1.5, &steady), Verdict::Worse);
        assert_eq!(verdict(1.0 - m.bound / 2.0, &steady), Verdict::Better);
        // Spread wider than the bound: cannot say "same"…
        let noisy = |c: f64| around(c, m.bound * 2.0);
        assert_eq!(verdict(1.0 + m.bound / 2.0, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(1.0 - m.bound / 2.0, &noisy), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(verdict(0.2, &noisy), Verdict::Better);
        // A clear regression is `worse` however noisy the runs are.
        assert_eq!(verdict(1.0 + m.bound * 3.0, &noisy), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_flips_the_sign_and_exact_rows_must_match() {
        let rate = names::find("runs_per_s").unwrap();
        let steady = |c: f64| around(c, rate.bound / 10.0);
        let lower = 100.0 * (1.0 - rate.bound * 1.5);
        let higher = 100.0 * (1.0 + rate.bound * 1.5);
        assert_eq!(
            judge(rate, 100.0, lower, &steady(100.0), &steady(lower)),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, 100.0, higher, &steady(100.0), &steady(higher)),
            Verdict::Better
        );
        let exact = names::find("detection_bt_max").unwrap();
        assert_eq!(
            judge(exact, 7336.0, 7336.0, &[7336.0], &[7336.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(exact, 7336.0, 7337.0, &[7336.0], &[7337.0]),
            Verdict::Differs
        );
    }

    fn ledger(wall: f64, failed: f64, detection: f64) -> Json {
        let e2e = |name: &str, value: f64, samples: Json| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("value", Json::Num(value)),
                ("samples", samples),
            ])
        };
        Json::obj([
            ("seed", Json::Num(0.0)),
            ("seconds", Json::Num(1.0)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("w".into())),
                    ("ops", Json::Num(30.0)),
                    ("failed_ops", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::Arr(vec![
                            e2e("wall_s", wall, Json::nums(&around(wall, 0.001))),
                            e2e("wall_s_hi", wall * 1.01, Json::Null),
                            e2e("failed_ops", failed, Json::Null),
                            e2e("detection_bt_max", detection, Json::Null),
                        ]),
                    ),
                    ("per_layer", Json::Arr(vec![])),
                    ("digests", Json::Arr(vec![])),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_passes_on_equal_ledgers_and_fails_on_regressions() {
        let base = ledger(1.0, 0.0, 7000.0);
        let (report, pass) = compare(&base, &ledger(1.004, 0.0, 7000.0)).unwrap();
        assert!(pass, "{report}");
        assert!(report.contains("PASS") && report.contains("n/a"));
        let slow = 1.0 + 1.5 * wall().bound;
        assert!(!compare(&base, &ledger(slow, 0.0, 7000.0)).unwrap().1);
        assert!(!compare(&base, &ledger(1.0, 1.0, 7000.0)).unwrap().1);
        assert!(!compare(&base, &ledger(1.0, 0.0, 7001.0)).unwrap().1);
        let mut other_seed = ledger(1.0, 0.0, 7000.0);
        if let Json::Obj(fields) = &mut other_seed {
            fields[0].1 = Json::Num(1.0);
        }
        assert!(compare(&base, &other_seed).is_err());
    }
}
