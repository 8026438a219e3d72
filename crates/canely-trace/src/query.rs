//! Deterministic renderers behind the `canely tq` subcommand: same
//! trace in, byte-identical report out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::chain::{chain_for_in, suspicions};
use crate::model::{seg_node, TraceModel};
use crate::phases::PhaseProfile;
use crate::stats::Summary;

/// Line filters for [`filter`].
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Only records on this segment (federated traces).
    pub seg: Option<u8>,
    /// Only records of (or transmitted by) this node.
    pub node: Option<u8>,
    /// Only records whose kind starts with this prefix (`bus` matches
    /// `bus.tx`; `fda` matches the whole FDA family).
    pub kind: Option<String>,
    /// Only records mentioning this view/vector rendering, e.g.
    /// `{0,1}`.
    pub view: Option<String>,
    /// Only records at or after this instant.
    pub since: Option<u64>,
    /// Only records strictly before this instant.
    pub until: Option<u64>,
}

/// Writes the records matching `filter` to `out`, one canonical JSON
/// line each, in document order.
///
/// # Errors
///
/// The first error `out` returns.
pub fn filter<W: Write + ?Sized>(
    model: &TraceModel<'_>,
    filter: &Filter,
    out: &mut W,
) -> io::Result<()> {
    let mut buf = Vec::new();
    for line in model.lines.iter() {
        let t = line.u64("t").unwrap_or(0);
        if filter.since.is_some_and(|s| t < s) || filter.until.is_some_and(|u| t >= u) {
            continue;
        }
        if let Some(seg) = filter.seg {
            if line.u64("seg") != Some(u64::from(seg)) {
                continue;
            }
        }
        if let Some(kind) = &filter.kind {
            if !line
                .str("kind")
                .unwrap_or_default()
                .starts_with(kind.as_str())
            {
                continue;
            }
        }
        if let Some(node) = filter.node {
            let of_node = line.u64("node") == Some(u64::from(node))
                || line.str("transmitters").is_some_and(|t| {
                    crate::model::parse_node_set(&t).is_ok_and(|set| set.contains(&node))
                });
            if !of_node {
                continue;
            }
        }
        if let Some(view) = &filter.view {
            let mut walk = line.fields();
            let mentions = std::iter::from_fn(|| walk.field()).any(|(key, value)| {
                matches!(key.decode().as_ref(), "view" | "vector" | "proposal")
                    && value.text().is_some_and(|text| text.is(view))
            });
            if !mentions {
                continue;
            }
        }
        buf.clear();
        line.render_into(&mut buf);
        buf.push(b'\n');
        out.write_all(&buf)?;
    }
    Ok(())
}

/// Renders kind counts and bus occupancy statistics.
pub fn summary(model: &TraceModel<'_>) -> String {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &model.events {
        *counts.entry(model.kind_of(event)).or_default() += 1;
    }
    let mut out = String::from("trace summary\n");
    // Federated traces announce their segment count; single-segment
    // documents carry no `seg` tags and render exactly as before.
    let segments: std::collections::BTreeSet<u8> = model
        .bus
        .iter()
        .filter_map(|tx| tx.seg())
        .chain(model.events.iter().filter_map(|e| e.seg()))
        .collect();
    if !segments.is_empty() {
        let _ = writeln!(out, "  segments: {}", segments.len());
    }
    let _ = writeln!(out, "  protocol events: {}", model.events.len());
    for (kind, count) in &counts {
        let _ = writeln!(out, "    {kind:<16} {count}");
    }
    let delivered = model.bus.iter().filter(|tx| tx.delivered()).count();
    let errored = model.bus.iter().filter(|tx| tx.errored()).count();
    let _ = writeln!(
        out,
        "  bus: {} transactions, {delivered} delivered, {errored} errored",
        model.bus.len()
    );
    let busy: u64 = model
        .bus
        .iter()
        .map(|tx| tx.bus_free.saturating_sub(tx.start))
        .sum();
    let horizon = model
        .bus
        .iter()
        .map(|tx| tx.bus_free)
        .chain(model.events.iter().map(|e| e.t))
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "  bus busy: {busy} of {horizon} bit-times{}",
        (busy * 100)
            .checked_div(horizon)
            .map(|pct| format!(" ({pct}%)"))
            .unwrap_or_default()
    );
    let queue_delay: u64 = model.bus.iter().map(|tx| tx.queue_delay()).sum();
    let arb_losses: u64 = model.bus.iter().map(|tx| tx.arb_losses).sum();
    let _ = writeln!(
        out,
        "  queueing: {queue_delay} bit-times total delay, {arb_losses} arbitration losses"
    );
    out
}

/// Renders the causal chain of the first suspicion of `suspect`
/// (optionally on one segment of a federated trace).
///
/// # Errors
///
/// Returns a message listing the available suspicions when none
/// matches.
pub fn render_chain(
    model: &TraceModel<'_>,
    seg: Option<u8>,
    suspect: u8,
    observer: Option<u8>,
) -> Result<String, String> {
    let Some(chain) = chain_for_in(model, seg, suspect, observer) else {
        let all = suspicions(model);
        return Err(if all.is_empty() {
            "no suspicions in this trace".to_string()
        } else {
            let list: Vec<String> = all
                .iter()
                .map(|&(g, s, o, t)| format!("{} by {} at t={t}", seg_node(g, s), seg_node(g, o)))
                .collect();
            format!(
                "no matching suspicion; the trace contains: {}",
                list.join(", ")
            )
        });
    };
    let mut out = format!(
        "causal chain: suspicion of {} raised by {} at t={}\n",
        seg_node(chain.seg, chain.suspect),
        seg_node(chain.seg, chain.observer),
        chain.suspected_at
    );
    for step in &chain.steps {
        let place = step
            .node
            .map_or_else(|| "bus".to_string(), |n| seg_node(chain.seg, n));
        let _ = writeln!(
            out,
            "  t={:<10} {place:<4} {:<16} {}",
            step.t, step.label, step.detail
        );
    }
    if chain.complete {
        let _ = writeln!(
            out,
            "chain complete: view installed without {}",
            seg_node(chain.seg, chain.suspect)
        );
    } else {
        let _ = writeln!(
            out,
            "chain incomplete: no view install without {} found",
            seg_node(chain.seg, chain.suspect)
        );
    }
    Ok(out)
}

/// Renders the phase-latency table, with headroom against the analytic
/// bounds when given (in bit-times; 0 = unknown).
pub fn render_phases(
    model: &TraceModel<'_>,
    detection_bound: u64,
    view_change_bound: u64,
) -> String {
    let profile = PhaseProfile::of(model);
    let mut out = String::from("phase latencies (bit-times)\n");
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "min", "p50", "p99", "max"
    );
    for (name, s) in profile.summaries() {
        let _ = writeln!(
            out,
            "  {name:<14} {:>6} {:>10} {:>10} {:>10} {:>10}",
            s.count, s.min, s.p50, s.p99, s.max
        );
    }
    let mut total = |label: &str, samples: &[u64], bound: u64| {
        let Some(s) = Summary::of(samples) else {
            let _ = writeln!(out, "{label}: no samples");
            return;
        };
        let _ = write!(
            out,
            "{label}: count={} min={} p50={} p99={} max={}",
            s.count, s.min, s.p50, s.p99, s.max
        );
        if bound > 0 {
            let _ = write!(
                out,
                " bound={bound} headroom={}",
                bound as i64 - s.max as i64
            );
        }
        out.push('\n');
    };
    total("detection", &profile.detection_samples(), detection_bound);
    total(
        "view-change",
        &profile.view_change_samples(),
        view_change_bound,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`filter`] into a `String`.
    fn filtered(model: &TraceModel<'_>, keep: &Filter) -> String {
        let mut out = Vec::new();
        filter(model, keep, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    const DOC: &str = "\
{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":55,\"seq\":0,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2,\"cause\":\"bus:55\"}\n\
{\"t\":60,\"seq\":1,\"node\":1,\"kind\":\"rha.started\",\"proposal\":\"{0,1}\",\"full_member\":true}\n";

    #[test]
    fn filters_compose_and_preserve_bytes() {
        let model = TraceModel::parse(DOC).unwrap();
        let all = filtered(&model, &Filter::default());
        assert_eq!(all, DOC, "no filter = lossless re-render");
        let only_node2 = filtered(
            &model,
            &Filter {
                node: Some(2),
                ..Filter::default()
            },
        );
        assert_eq!(
            only_node2.lines().count(),
            1,
            "transmitter match:\n{only_node2}"
        );
        let only_rha = filtered(
            &model,
            &Filter {
                kind: Some("rha".to_string()),
                ..Filter::default()
            },
        );
        assert!(only_rha.contains("rha.started"));
        assert_eq!(only_rha.lines().count(), 1);
        let view = filtered(
            &model,
            &Filter {
                view: Some("{0,1}".to_string()),
                ..Filter::default()
            },
        );
        assert_eq!(view.lines().count(), 1);
        let window = filtered(
            &model,
            &Filter {
                since: Some(56),
                until: Some(61),
                ..Filter::default()
            },
        );
        assert_eq!(window.lines().count(), 1);
    }

    #[test]
    fn summary_counts_kinds_and_bus_occupancy() {
        let model = TraceModel::parse(DOC).unwrap();
        let text = summary(&model);
        assert!(text.contains("protocol events: 2"));
        assert!(text.contains("fd.lifesign.rx   1"));
        assert!(text.contains("bus: 1 transactions, 1 delivered, 0 errored"));
        assert!(text.contains("bus busy: 58 of 60 bit-times (96%)"));
    }

    #[test]
    fn chain_errors_list_available_suspicions() {
        let model = TraceModel::parse(DOC).unwrap();
        let err = render_chain(&model, None, 5, None).unwrap_err();
        assert_eq!(err, "no suspicions in this trace");
    }

    #[test]
    fn seg_filter_and_summary_cover_federated_traces() {
        let doc = "\
{\"t\":10,\"seg\":0,\"seq\":0,\"node\":1,\"kind\":\"fd.suspect\",\"suspect\":2}\n\
{\"t\":20,\"seg\":1,\"seq\":0,\"node\":1,\"kind\":\"fd.suspect\",\"suspect\":3}\n";
        let model = TraceModel::parse(doc).unwrap();
        let only_seg1 = filtered(
            &model,
            &Filter {
                seg: Some(1),
                ..Filter::default()
            },
        );
        assert_eq!(only_seg1.lines().count(), 1, "{only_seg1}");
        assert!(only_seg1.contains("\"seg\":1"), "{only_seg1}");
        assert!(summary(&model).contains("segments: 2"));

        // Segment-qualified chain rendering and error listing.
        let out = render_chain(&model, Some(1), 3, None).unwrap();
        assert!(out.contains("suspicion of s1:n3 raised by s1:n1"), "{out}");
        let err = render_chain(&model, Some(1), 7, None).unwrap_err();
        assert!(err.contains("s0:n2 by s0:n1"), "{err}");
        assert!(err.contains("s1:n3 by s1:n1"), "{err}");
    }

    #[test]
    fn renders_are_deterministic() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(summary(&model), summary(&model));
        assert_eq!(render_phases(&model, 0, 0), render_phases(&model, 0, 0));
    }
}
