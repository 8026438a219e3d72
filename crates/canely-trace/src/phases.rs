//! Phase-level latency decomposition of failure detections.
//!
//! Each `node.crashed` marker is broken into the pipeline the paper's
//! analytic bound sums over:
//!
//! - **surveillance** — crash until the first surveillance expiry
//!   raises a suspicion (worst case one life-sign period + Tfd).
//! - **queuing** — failure-sign queued until transmission start, bus
//!   idle (controller and stack latency).
//! - **arbitration** — failure-sign queued until transmission start,
//!   bus busy (lost arbitration / higher-priority traffic).
//! - **diffusion** — failure-sign transmission start until the last
//!   node delivers the failure upstairs (FDA eager diffusion).
//! - **cycle-wait** — failure notified until the membership cycle
//!   boundary starts RHA (alignment with the Tm cycle).
//! - **agreement** — RHA start until the reception histories settle.
//! - **install** — agreement settled until the new view is installed.

use crate::model::{msg_type, parse_node_set, subject, Event, TraceModel};
use crate::stats::Summary;

/// The phase names, in pipeline order.
pub const PHASE_NAMES: [&str; 7] = [
    "surveillance",
    "queuing",
    "arbitration",
    "diffusion",
    "cycle-wait",
    "agreement",
    "install",
];

/// One concrete phase interval, attributable to a node (or to the bus
/// when `node` is `None`), for timeline rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The node the interval belongs to; `None` for bus-wide phases.
    pub node: Option<u8>,
    /// Phase name (one of [`PHASE_NAMES`]).
    pub name: &'static str,
    /// Start instant, bit-times.
    pub start: u64,
    /// End instant, bit-times.
    pub end: u64,
}

/// The decomposition of one crash's detection and view change.
#[derive(Debug, Clone, Default)]
pub struct Detection {
    /// The crashed node.
    pub suspect: u8,
    /// Crash instant.
    pub crashed_at: u64,
    /// Phase durations, possibly several per phase (one per observer
    /// for the agreement-side phases).
    pub samples: Vec<(&'static str, u64)>,
    /// Concrete intervals for timeline export.
    pub spans: Vec<PhaseSpan>,
    /// Crash-to-notification latency per observer.
    pub detection: Vec<u64>,
    /// Crash-to-view-install latency per observer.
    pub view_change: Vec<u64>,
}

/// The phase profile of a whole trace: one [`Detection`] per crash.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Per-crash decompositions, in crash order.
    pub detections: Vec<Detection>,
}

impl PhaseProfile {
    /// Profiles every `node.crashed` marker in the trace.
    pub fn of(model: &TraceModel<'_>) -> PhaseProfile {
        let crashes: Vec<(u64, u8)> = model
            .of_kind("node.crashed")
            .map(|e| (e.t, e.node))
            .collect();
        let detections = crashes
            .iter()
            .map(|&(crashed_at, suspect)| {
                // Re-crashes of the same node partition the timeline.
                let horizon = crashes
                    .iter()
                    .filter(|&&(t, n)| n == suspect && t > crashed_at)
                    .map(|&(t, _)| t)
                    .min()
                    .unwrap_or(u64::MAX);
                profile_one(model, suspect, crashed_at, horizon)
            })
            .collect();
        PhaseProfile { detections }
    }

    /// All durations recorded for one phase, across detections.
    pub fn samples_for(&self, phase: &str) -> Vec<u64> {
        self.detections
            .iter()
            .flat_map(|d| d.samples.iter())
            .filter(|(name, _)| *name == phase)
            .map(|&(_, dur)| dur)
            .collect()
    }

    /// Crash-to-notification latencies across all detections.
    pub fn detection_samples(&self) -> Vec<u64> {
        self.detections
            .iter()
            .flat_map(|d| d.detection.iter().copied())
            .collect()
    }

    /// Crash-to-view-install latencies across all detections.
    pub fn view_change_samples(&self) -> Vec<u64> {
        self.detections
            .iter()
            .flat_map(|d| d.view_change.iter().copied())
            .collect()
    }

    /// Per-phase five-number summaries (phases with samples only).
    pub fn summaries(&self) -> Vec<(&'static str, Summary)> {
        PHASE_NAMES
            .iter()
            .filter_map(|&name| Summary::of(&self.samples_for(name)).map(|s| (name, s)))
            .collect()
    }
}

fn profile_one(model: &TraceModel<'_>, suspect: u8, crashed_at: u64, horizon: u64) -> Detection {
    let mut d = Detection {
        suspect,
        crashed_at,
        ..Detection::default()
    };
    let window = |t: u64| t >= crashed_at && t < horizon;

    // Surveillance: crash → first suspicion of this node, anywhere.
    let suspicion = model
        .of_kind("fd.suspect")
        .find(|e| window(e.t) && model.line_of(e).u64("suspect") == Some(u64::from(suspect)));
    if let Some(sus) = suspicion {
        d.samples.push(("surveillance", sus.t - crashed_at));
        d.spans.push(PhaseSpan {
            node: Some(sus.node),
            name: "surveillance",
            start: crashed_at,
            end: sus.t,
        });
    }

    // The failure-sign transmission that diffuses the suspicion.
    let frame = model.bus.iter().find(|tx| {
        let mid = model.mid(tx);
        tx.delivered()
            && msg_type(&mid) == "FDA"
            && subject(&mid) == Some(suspect)
            && window(tx.start)
    });
    if let Some(tx) = frame {
        // The reader refuses a frame queued after its start and a
        // segment whose transmissions overlap, so the frame's own bus
        // was busy for at most the whole wait.
        let wait = tx.start - tx.queued;
        let busy = model.busy_between(tx.seg(), tx.queued, tx.start);
        d.samples.push(("queuing", wait - busy));
        d.samples.push(("arbitration", busy));
        d.spans.push(PhaseSpan {
            node: None,
            name: "queuing",
            start: tx.queued,
            end: tx.start,
        });
        let last_delivery = model
            .of_kind("fda.delivered")
            .filter(|e| {
                e.t >= tx.start
                    && e.t < horizon
                    && model.line_of(e).u64("failed") == Some(u64::from(suspect))
            })
            .map(|e| e.t)
            .max();
        if let Some(last) = last_delivery {
            d.samples.push(("diffusion", last - tx.start));
            d.spans.push(PhaseSpan {
                node: None,
                name: "diffusion",
                start: tx.start,
                end: last,
            });
        }
    }

    // Agreement-side phases, per observer.
    let observers: Vec<&Event> = model
        .of_kind("fd.notified")
        .filter(|e| window(e.t) && model.line_of(e).u64("failed") == Some(u64::from(suspect)))
        .collect();
    // The events an observer's phases end at, in document order: each
    // observer searches these instead of the whole trace.
    let [rha_started, rha_settled, installs, bootstraps] = [
        "rha.started",
        "rha.settled",
        "view.installed",
        "view.bootstrap",
    ]
    .map(|kind| model.kind(kind));
    let ends: Vec<&Event> = model
        .events
        .iter()
        .filter(|e| {
            e.t < horizon
                && [rha_started, rha_settled, installs, bootstraps].contains(&Some(e.kind()))
        })
        .collect();
    for notified in observers {
        let node = notified.node;
        d.detection.push(notified.t - crashed_at);
        let at = |kind, from: u64| {
            ends.iter()
                .copied()
                .find(|e| Some(e.kind()) == kind && e.node == node && e.t >= from)
        };
        let installed = ends.iter().copied().find(|e| {
            [installs, bootstraps].contains(&Some(e.kind()))
                && e.node == node
                && e.t >= notified.t
                && model
                    .line_of(e)
                    .str("view")
                    .is_some_and(|v| parse_node_set(&v).is_ok_and(|view| !view.contains(&suspect)))
        });
        if let Some(install) = installed {
            d.view_change.push(install.t - crashed_at);
        }
        if let Some(started) = at(rha_started, notified.t) {
            d.samples.push(("cycle-wait", started.t - notified.t));
            d.spans.push(PhaseSpan {
                node: Some(node),
                name: "cycle-wait",
                start: notified.t,
                end: started.t,
            });
            let Some(settled) = at(rha_settled, started.t) else {
                continue;
            };
            d.samples.push(("agreement", settled.t - started.t));
            d.spans.push(PhaseSpan {
                node: Some(node),
                name: "agreement",
                start: started.t,
                end: settled.t,
            });
            if let Some(install) = installed.filter(|e| e.t >= settled.t) {
                d.samples.push(("install", install.t - settled.t));
                d.spans.push(PhaseSpan {
                    node: Some(node),
                    name: "install",
                    start: settled.t,
                    end: install.t,
                });
            }
        } else if let Some(install) = installed {
            // No RHA round: the failure was agreed by the diffusion
            // itself, and the whole notified→install gap is alignment
            // with the membership cycle that confirms the view.
            d.samples.push(("cycle-wait", install.t - notified.t));
            d.spans.push(PhaseSpan {
                node: Some(node),
                name: "cycle-wait",
                start: notified.t,
                end: install.t,
            });
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceModel;

    /// A hand-built crash trace with known phase durations: node 2
    /// crashes at t=1000; node 0 suspects at 6000; the failure sign
    /// queues at 6000 behind a life-sign occupying [6010, 6070) and
    /// transmits at 6100; everyone delivers at 6155; RHA runs
    /// 7000→7500 at node 0; the view installs at 7600.
    const DOC: &str = "\
{\"t\":1000,\"seq\":0,\"node\":2,\"kind\":\"node.crashed\"}\n\
{\"t\":6000,\"seq\":1,\"node\":0,\"kind\":\"fd.suspect\",\"suspect\":2}\n\
{\"t\":6000,\"seq\":2,\"node\":0,\"kind\":\"fda.sign.tx\",\"failed\":2,\"diffusion\":false}\n\
{\"t\":6010,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"frame\":\"rtr\",\"transmitters\":\"{1}\",\"bus_free\":6070,\"deliver\":6065,\"queued\":6010,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":6100,\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n2]\",\"frame\":\"data\",\"transmitters\":\"{0}\",\"bus_free\":6160,\"deliver\":6155,\"queued\":6000,\"arb_losses\":1,\"delivered\":true,\"errored\":false}\n\
{\"t\":6155,\"seq\":3,\"node\":0,\"kind\":\"fda.delivered\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":6155,\"seq\":4,\"node\":1,\"kind\":\"fda.delivered\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":6155,\"seq\":5,\"node\":0,\"kind\":\"fd.notified\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":7000,\"seq\":6,\"node\":0,\"kind\":\"rha.started\",\"proposal\":\"{0,1}\",\"full_member\":true}\n\
{\"t\":7500,\"seq\":7,\"node\":0,\"kind\":\"rha.settled\",\"vector\":\"{0,1}\",\"broadcasts\":1}\n\
{\"t\":7600,\"seq\":8,\"node\":0,\"kind\":\"view.installed\",\"view\":\"{0,1}\"}\n";

    fn sample(d: &Detection, name: &str) -> Vec<u64> {
        d.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    #[test]
    fn decomposes_a_detection_into_known_phase_durations() {
        let model = TraceModel::parse(DOC).unwrap();
        let profile = PhaseProfile::of(&model);
        assert_eq!(profile.detections.len(), 1);
        let d = &profile.detections[0];
        assert_eq!(d.suspect, 2);
        assert_eq!(sample(d, "surveillance"), vec![5_000]);
        // Sign queued at 6000, started at 6100; the bus was busy with
        // the life-sign for 60 of those 100 bit-times.
        assert_eq!(sample(d, "arbitration"), vec![60]);
        assert_eq!(sample(d, "queuing"), vec![40]);
        assert_eq!(sample(d, "diffusion"), vec![55]);
        assert_eq!(sample(d, "cycle-wait"), vec![845]);
        assert_eq!(sample(d, "agreement"), vec![500]);
        assert_eq!(sample(d, "install"), vec![100]);
        assert_eq!(d.detection, vec![5_155]);
        assert_eq!(d.view_change, vec![6_600]);
    }

    #[test]
    fn spans_cover_the_pipeline_in_order() {
        let model = TraceModel::parse(DOC).unwrap();
        let profile = PhaseProfile::of(&model);
        let spans = &profile.detections[0].spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "surveillance",
                "queuing",
                "diffusion",
                "cycle-wait",
                "agreement",
                "install"
            ]
        );
        for span in spans {
            assert!(span.start <= span.end, "{span:?}");
        }
    }

    #[test]
    fn a_sign_waits_only_on_its_own_segments_bus() {
        // Segment 1's failure sign queues at 6000 and starts at 6100,
        // behind a life-sign on its own bus for 60 bit-times; segment
        // 0's bus is busy for the whole wait, which is not the sign's.
        let doc = "\
{\"t\":1000,\"seg\":1,\"seq\":0,\"node\":2,\"kind\":\"node.crashed\"}\n\
{\"t\":6000,\"seg\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"transmitters\":\"{1}\",\"bus_free\":6100,\"queued\":6000,\"delivered\":true}\n\
{\"t\":6010,\"seg\":1,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"transmitters\":\"{1}\",\"bus_free\":6070,\"queued\":6010,\"delivered\":true}\n\
{\"t\":6100,\"seg\":1,\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n2]\",\"transmitters\":\"{0}\",\"bus_free\":6160,\"deliver\":6155,\"queued\":6000,\"delivered\":true}\n";
        let model = TraceModel::parse(doc).unwrap();
        let d = &PhaseProfile::of(&model).detections[0];
        assert_eq!(sample(d, "arbitration"), vec![60]);
        assert_eq!(sample(d, "queuing"), vec![40]);
    }

    #[test]
    fn summaries_report_each_observed_phase() {
        let model = TraceModel::parse(DOC).unwrap();
        let profile = PhaseProfile::of(&model);
        let summaries = profile.summaries();
        let agreement = summaries
            .iter()
            .find(|(name, _)| *name == "agreement")
            .unwrap();
        assert_eq!(agreement.1.p50, 500);
    }
}
