//! Output rendering helpers for the CLI.

use can_bus::BusStats;
use can_controller::Simulator;
use can_types::{BitRate, BitTime, NodeId};
use canely::obs::{Counts, Histogram, Snapshot};
use canely::{CanelyStack, UpperEvent};
use std::fmt::Write as _;

/// Milliseconds at 1 Mbps, two decimals.
pub fn ms(t: BitTime) -> String {
    format!("{:.2}ms", t.as_millis_f64(BitRate::MBPS_1))
}

/// A ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Renders the upper-layer event history of one CANELy node, and
/// whether its controller ended the run bus-off.
pub fn stack_history(out: &mut String, sim: &Simulator, node: NodeId) {
    let stack = sim.app::<CanelyStack>(node);
    let _ = writeln!(out, "node {node}: final view {}", stack.view());
    for &(t, event) in stack.events() {
        let line = match event {
            UpperEvent::MembershipChange { view, failed } => {
                format!("view change -> {view} (failed {failed})")
            }
            UpperEvent::FailureNotified(r) => format!("failure of {r} agreed"),
            UpperEvent::LeftService => "left the membership service".to_string(),
            UpperEvent::Expelled => "expelled from the membership".to_string(),
        };
        let _ = writeln!(out, "  [{:>10}] {line}", ms(t));
    }
    if sim.controller(node).is_bus_off() {
        let _ = writeln!(out, "  controller bus-off");
    }
}

/// Renders the bus statistics of a window.
pub fn bus_summary(out: &mut String, sim: &Simulator, from: BitTime, to: BitTime) {
    let stats = sim.trace().stats(from, to);
    let _ = writeln!(
        out,
        "bus [{} .. {}]: {}",
        ms(from),
        ms(to),
        bus_figures(&stats)
    );
    if let Some(worst) = sim.trace().worst_inaccessibility() {
        let _ = writeln!(
            out,
            "worst inaccessibility episode: {} bit-times",
            worst.as_u64()
        );
    }
}

/// Renders the bus trace as a CSV document.
pub fn trace_csv(sim: &Simulator) -> String {
    let mut out = String::from("start_bt,bus_free_bt,kind,mid,transmitters,delivered,errored\n");
    for rec in sim.trace().iter() {
        let mid = rec.mid().map_or_else(|| "-".to_string(), |m| m.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            rec.start.as_u64(),
            rec.bus_free.as_u64(),
            if rec.frame.is_remote() { "rtr" } else { "data" },
            mid,
            rec.transmitters,
            !rec.errored,
            rec.errored,
        );
    }
    out
}

/// Renders a histogram: summary statistics plus ASCII bucket bars.
/// With `unit_ms` the samples are bit-times and are printed as
/// milliseconds; otherwise they are plain counts.
pub fn histogram(out: &mut String, title: &str, unit_ms: bool, h: &Histogram) {
    if h.is_empty() {
        let _ = writeln!(out, "{title}: no samples");
        return;
    }
    let fmt = |v: u64| {
        if unit_ms {
            ms(BitTime::new(v))
        } else {
            v.to_string()
        }
    };
    let mean = h.mean().unwrap_or(0.0);
    let _ = writeln!(
        out,
        "{title}: {} samples, min {}, mean {}, p99 {}, max {}",
        h.count(),
        fmt(h.min().unwrap_or(0)),
        if unit_ms {
            format!("{:.2}ms", mean / 1_000.0)
        } else {
            format!("{mean:.2}")
        },
        fmt(h.percentile(99.0).unwrap_or(0)),
        fmt(h.max().unwrap_or(0)),
    );
    for (lo, hi, count) in h.buckets(8) {
        let bar = "#".repeat(count.min(48));
        let _ = writeln!(
            out,
            "  {:>10} .. {:<10} |{:>4} {bar}",
            fmt(lo),
            fmt(hi),
            count
        );
    }
}

/// Renders a metrics [`Snapshot`]: totals, per-node counts, the
/// latency histograms and (when present) the bus figures.
pub fn metrics_report(out: &mut String, snapshot: &Snapshot) {
    // A view commit is a `view.installed` or a `view.bootstrap`.
    let views = |c: &Counts| c.of("view.installed") + c.of("view.bootstrap");
    let t = |kind: &str| snapshot.totals.of(kind);
    let _ = writeln!(out, "event totals:");
    let _ = writeln!(
        out,
        "  fd : life-signs {} tx / {} rx, suspects {}, failures notified {}",
        t("fd.lifesign.tx"),
        t("fd.lifesign.rx"),
        t("fd.suspect"),
        t("fd.notified"),
    );
    let _ = writeln!(
        out,
        "  fda: invoked {}, signs {} tx / {} rx, delivered {}",
        t("fda.invoked"),
        t("fda.sign.tx"),
        t("fda.sign.rx"),
        t("fda.delivered"),
    );
    let _ = writeln!(
        out,
        "  rha: started {}, rhv {} tx / {} rx, narrowings {}, settled {}",
        t("rha.started"),
        t("rha.rhv.tx"),
        t("rha.rhv.rx"),
        t("rha.narrowed"),
        t("rha.settled"),
    );
    let _ = writeln!(
        out,
        "  msh: cycles {}, views installed {}, view changes {}, joins {}, leaves {}, expulsions {}",
        t("msh.cycle"),
        views(&snapshot.totals),
        t("view.changed"),
        t("msh.join.tx"),
        t("msh.leave.tx"),
        t("msh.expelled"),
    );
    let _ = writeln!(
        out,
        "  timers {} armed / {} expired; markers: {} crashes, {} restarts",
        t("timer.armed"),
        t("timer.expired"),
        t("node.crashed"),
        t("node.restarted"),
    );
    let _ = writeln!(out, "per node:");
    for (node, c) in snapshot.per_node() {
        let _ = writeln!(
            out,
            "  {node}: life-signs {} tx / {} rx, fda delivered {}, rha settled {}, \
             cycles {}, views {}",
            c.of("fd.lifesign.tx"),
            c.of("fd.lifesign.rx"),
            c.of("fda.delivered"),
            c.of("rha.settled"),
            c.of("msh.cycle"),
            views(c),
        );
    }
    for (title, unit_ms, h) in [
        (
            "failure-detection latency",
            true,
            &snapshot.detection_latency,
        ),
        ("view-change latency", true, &snapshot.view_change_latency),
        (
            "rha broadcasts per agreement",
            false,
            &snapshot.rha_broadcasts,
        ),
    ] {
        histogram(out, title, unit_ms, h);
    }
    if let Some(bus) = &snapshot.bus {
        let _ = writeln!(out, "bus: {}", bus_figures(bus));
    }
}

/// A bus window's transaction, error and utilization figures.
fn bus_figures(stats: &BusStats) -> String {
    format!(
        "{} transactions, {} errored, utilization {} (membership suite {})",
        stats.transactions,
        stats.errors,
        pct(stats.utilization()),
        pct(stats.utilization_of(&BusStats::MEMBERSHIP_SUITE)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ms(BitTime::new(1_500)), "1.50ms");
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn histogram_renders_stats_and_buckets() {
        let mut h = Histogram::new();
        for v in [1_000, 2_000, 8_000] {
            h.record(v);
        }
        let mut out = String::new();
        histogram(&mut out, "latency", true, &h);
        assert!(out.contains("latency: 3 samples"), "{out}");
        assert!(out.contains("min 1.00ms"), "{out}");
        assert!(out.contains("max 8.00ms"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    #[test]
    fn empty_histogram_renders_placeholder() {
        let mut out = String::new();
        histogram(&mut out, "latency", true, &Histogram::new());
        assert_eq!(out, "latency: no samples\n");
    }
}
