//! Campaign-level analytics: per-run phase-latency profiles rolled up
//! into deterministic JSON and Markdown reports, with measured
//! latencies compared against the analytic bounds the campaign was
//! checked with (headroom = bound − worst observed).

use std::fmt::Write as _;

use crate::json::escape_into;
use crate::phases::{PhaseProfile, PHASE_NAMES};
use crate::stats::{Histogram, Summary};

/// The analytics extract of one campaign run.
#[derive(Debug, Clone)]
pub struct RunAnalytics {
    /// Run identifier (scenario name, seed, …).
    pub id: String,
    /// Crash-to-notification latencies, bit-times.
    pub detection: Vec<u64>,
    /// Crash-to-view-install latencies, bit-times.
    pub view_change: Vec<u64>,
    /// Per-phase duration samples, in [`PHASE_NAMES`] order.
    pub phases: Vec<(&'static str, Vec<u64>)>,
    /// The analytic detection bound the run was checked against
    /// (0 when unknown).
    pub detection_bound: u64,
    /// The analytic view-change bound (0 when unknown).
    pub view_change_bound: u64,
}

impl RunAnalytics {
    /// Extracts the analytics of one run from its phase profile.
    pub fn from_profile(
        id: impl Into<String>,
        profile: &PhaseProfile,
        detection_bound: u64,
        view_change_bound: u64,
    ) -> RunAnalytics {
        RunAnalytics {
            id: id.into(),
            detection: profile.detection_samples(),
            view_change: profile.view_change_samples(),
            phases: PHASE_NAMES
                .iter()
                .map(|&name| (name, profile.samples_for(name)))
                .collect(),
            detection_bound,
            view_change_bound,
        }
    }

    /// Bound minus worst observed detection latency; negative when the
    /// bound was violated, `None` without samples or bound.
    pub fn detection_headroom(&self) -> Option<i64> {
        headroom(self.detection_bound, &self.detection)
    }

    /// Bound minus worst observed view-change latency.
    pub fn view_change_headroom(&self) -> Option<i64> {
        headroom(self.view_change_bound, &self.view_change)
    }
}

fn headroom(bound: u64, samples: &[u64]) -> Option<i64> {
    let worst = samples.iter().copied().max()?;
    if bound == 0 {
        return None;
    }
    Some(bound as i64 - worst as i64)
}

fn latency_json(samples: &[u64], bound: u64) -> String {
    let mut out = match Summary::of(samples) {
        Some(s) => {
            let body = s.to_json();
            body[..body.len() - 1].to_string()
        }
        None => "{\"count\":0".to_string(),
    };
    if bound > 0 {
        let _ = write!(out, ",\"bound\":{bound}");
        if let Some(h) = headroom(bound, samples) {
            let _ = write!(out, ",\"headroom\":{h}");
        }
    }
    out.push('}');
    out
}

/// A whole campaign's analytics.
#[derive(Debug, Clone, Default)]
pub struct CampaignAnalytics {
    /// One entry per run, in campaign order.
    pub runs: Vec<RunAnalytics>,
}

impl CampaignAnalytics {
    /// All samples of one phase across the campaign.
    fn phase_samples(&self, phase: &str) -> Vec<u64> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.phases
                    .iter()
                    .filter(|(name, _)| *name == phase)
                    .flat_map(|(_, s)| s.iter().copied())
            })
            .collect()
    }

    fn all_detection(&self) -> Vec<u64> {
        self.runs
            .iter()
            .flat_map(|r| r.detection.iter().copied())
            .collect()
    }

    fn all_view_change(&self) -> Vec<u64> {
        self.runs
            .iter()
            .flat_map(|r| r.view_change.iter().copied())
            .collect()
    }

    fn headrooms(&self, f: impl Fn(&RunAnalytics) -> Option<i64>) -> Vec<i64> {
        self.runs.iter().filter_map(f).collect()
    }

    /// Renders the analytics as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut id = String::new();
            escape_into(&run.id, &mut id);
            let _ = write!(
                out,
                "{{\"id\":\"{id}\",\"detection\":{},\"view_change\":{},\"phases\":{{",
                latency_json(&run.detection, run.detection_bound),
                latency_json(&run.view_change, run.view_change_bound),
            );
            let mut first = true;
            for (name, samples) in &run.phases {
                if let Some(s) = Summary::of(samples) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "\"{name}\":{}", s.to_json());
                }
            }
            out.push_str("}}");
        }
        out.push_str("],\"aggregate\":{");
        let _ = write!(
            out,
            "\"detection\":{{\"histogram\":{}}}",
            Histogram::of(&self.all_detection()).to_json()
        );
        let _ = write!(
            out,
            ",\"view_change\":{{\"histogram\":{}}}",
            Histogram::of(&self.all_view_change()).to_json()
        );
        let _ = write!(
            out,
            ",\"detection_headroom\":{}",
            headroom_json(&self.headrooms(RunAnalytics::detection_headroom))
        );
        let _ = write!(
            out,
            ",\"view_change_headroom\":{}",
            headroom_json(&self.headrooms(RunAnalytics::view_change_headroom))
        );
        out.push_str(",\"phases\":{");
        let mut first = true;
        for name in PHASE_NAMES {
            let samples = self.phase_samples(name);
            if samples.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\":{{\"summary\":{},\"histogram\":{}}}",
                Summary::of(&samples).expect("non-empty").to_json(),
                Histogram::of(&samples).to_json()
            );
        }
        out.push_str("}}}");
        out
    }

    /// Renders the analytics as a Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Campaign analytics\n\n");
        let _ = writeln!(out, "Runs profiled: {}\n", self.runs.len());
        out.push_str(
            "## Per-run latency (bit-times)\n\n\
             | run | detections | det p50 | det max | det bound | headroom \
             | vc max | vc bound | headroom |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for run in &self.runs {
            let det = Summary::of(&run.detection);
            let vc = Summary::of(&run.view_change);
            let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            let opt_i = |v: Option<i64>| v.map_or("-".to_string(), |v| v.to_string());
            let bound = |b: u64| {
                if b == 0 {
                    "-".to_string()
                } else {
                    b.to_string()
                }
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                run.id,
                det.map_or(0, |s| s.count),
                opt(det.map(|s| s.p50)),
                opt(det.map(|s| s.max)),
                bound(run.detection_bound),
                opt_i(run.detection_headroom()),
                opt(vc.map(|s| s.max)),
                bound(run.view_change_bound),
                opt_i(run.view_change_headroom()),
            );
        }
        out.push_str("\n## Phase latency across the campaign (bit-times)\n\n");
        out.push_str("| phase | samples | min | p50 | p99 | max |\n|---|---|---|---|---|---|\n");
        for name in PHASE_NAMES {
            if let Some(s) = Summary::of(&self.phase_samples(name)) {
                let _ = writeln!(
                    out,
                    "| {name} | {} | {} | {} | {} | {} |",
                    s.count, s.min, s.p50, s.p99, s.max
                );
            }
        }
        let detections = self.all_detection();
        if !detections.is_empty() {
            out.push_str("\n## Detection-latency histogram\n\n```\n");
            out.push_str(&Histogram::of(&detections).to_ascii());
            out.push_str("```\n");
        }
        let view_changes = self.all_view_change();
        if !view_changes.is_empty() {
            out.push_str("\n## View-change-latency histogram\n\n```\n");
            out.push_str(&Histogram::of(&view_changes).to_ascii());
            out.push_str("```\n");
        }
        let headrooms = self.headrooms(RunAnalytics::detection_headroom);
        if !headrooms.is_empty() {
            let (min, max) = (
                *headrooms.iter().min().expect("non-empty"),
                *headrooms.iter().max().expect("non-empty"),
            );
            let _ = writeln!(
                out,
                "\nDetection headroom vs analytic bound: min {min}, max {max} \
                 across {} bounded runs (negative = bound violated).",
                headrooms.len()
            );
        }
        out
    }
}

fn headroom_json(headrooms: &[i64]) -> String {
    if headrooms.is_empty() {
        return "{\"count\":0}".to_string();
    }
    let mut sorted = headrooms.to_vec();
    sorted.sort_unstable();
    format!(
        "{{\"count\":{},\"min\":{},\"p50\":{},\"max\":{}}}",
        sorted.len(),
        sorted[0],
        sorted[sorted.len().div_ceil(2) - 1],
        sorted[sorted.len() - 1]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(id: &str, detection: Vec<u64>, bound: u64) -> RunAnalytics {
        RunAnalytics {
            id: id.to_string(),
            detection,
            view_change: vec![],
            phases: vec![("surveillance", vec![5_000]), ("agreement", vec![500])],
            detection_bound: bound,
            view_change_bound: 0,
        }
    }

    #[test]
    fn headroom_is_bound_minus_worst() {
        let r = run("a", vec![4_000, 6_000], 10_000);
        assert_eq!(r.detection_headroom(), Some(4_000));
        assert_eq!(
            run("b", vec![12_000], 10_000).detection_headroom(),
            Some(-2_000)
        );
        assert_eq!(run("c", vec![], 10_000).detection_headroom(), None);
        assert_eq!(run("d", vec![1], 0).detection_headroom(), None);
    }

    #[test]
    fn json_report_has_runs_and_aggregate() {
        let analytics = CampaignAnalytics {
            runs: vec![
                run("s1", vec![4_000], 10_000),
                run("s2", vec![6_000], 10_000),
            ],
        };
        let json = analytics.to_json();
        assert!(json.contains("\"id\":\"s1\""));
        assert!(json.contains("\"bound\":10000,\"headroom\":6000"));
        assert!(json.contains(
            "\"detection_headroom\":{\"count\":2,\"min\":4000,\"p50\":4000,\"max\":6000}"
        ));
        assert!(json.contains("\"surveillance\":{\"summary\":"));
        assert!(json.contains("\"histogram\":["));
        // Deterministic.
        assert_eq!(json, analytics.to_json());
    }

    #[test]
    fn markdown_report_tabulates_runs_and_phases() {
        let analytics = CampaignAnalytics {
            runs: vec![run("s1", vec![4_000], 10_000)],
        };
        let md = analytics.to_markdown();
        assert!(md.contains("| s1 | 1 | 4000 | 4000 | 10000 | 6000 |"));
        assert!(md.contains("| surveillance | 1 | 5000 | 5000 | 5000 | 5000 |"));
        assert!(md.contains("Detection-latency histogram"));
    }
}
