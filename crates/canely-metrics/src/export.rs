//! One-shot exposition of a [`Registry`]: Prometheus text format and
//! a JSON snapshot. Both render metrics in name order, so two
//! registries holding the same values export byte-identical documents
//! — the property the telemetry-determinism tests pin.

use crate::registry::{Entry, Registry, Value};

/// Splits `name{label="value"}` into the base name and the label
/// suffix (empty when unlabelled).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(idx) => (&name[..idx], &name[idx..]),
        None => (name, ""),
    }
}

impl Registry {
    /// Renders the Prometheus text exposition format. `HELP`/`TYPE`
    /// headers are emitted once per base name (label-suffixed series
    /// share them); histograms expand to cumulative `_bucket{le=..}`
    /// series plus `_sum` and `_count`. With `include_volatile` false
    /// only [`crate::Stability::Stable`] metrics appear, making the
    /// output deterministic for a given simulation workload.
    pub fn to_prometheus(&self, include_volatile: bool) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        self.for_each(|name, entry| {
            if !include_volatile && entry.stability == crate::Stability::Volatile {
                return;
            }
            let (base, labels) = split_labels(name);
            if base != last_base {
                let kind = match entry.value {
                    Value::Counter(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {base} {}\n", entry.help));
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            render_prom_value(&mut out, base, labels, entry);
        });
        out
    }

    /// Renders a JSON snapshot: one object per metric carrying its full
    /// name, kind, stability and value (no help text). Name-sorted,
    /// integer-only — byte-deterministic for equal registry contents.
    pub fn to_json(&self, include_volatile: bool) -> String {
        let mut out = String::from("{\"metrics\":[");
        let mut first = true;
        self.for_each(|name, entry| {
            if !include_volatile && entry.stability == crate::Stability::Volatile {
                return;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let stability = match entry.stability {
                crate::Stability::Stable => "stable",
                crate::Stability::Volatile => "volatile",
            };
            match &entry.value {
                Value::Counter(cell) => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"kind\":\"counter\",\"stability\":\"{stability}\",\"value\":{}}}",
                    cell.get()
                )),
                Value::Gauge(cell) => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"kind\":\"gauge\",\"stability\":\"{stability}\",\"value\":{}}}",
                    cell.get()
                )),
                Value::Histogram(cell) => {
                    let (buckets, count, sum) = cell.snapshot();
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"kind\":\"histogram\",\"stability\":\"{stability}\",\"bounds\":["
                    ));
                    for (i, b) in cell.bounds().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str("],\"buckets\":[");
                    for (i, b) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str(&format!("],\"count\":{count},\"sum\":{sum}}}"));
                }
            }
        });
        out.push_str("]}");
        out
    }
}

fn render_prom_value(out: &mut String, base: &str, labels: &str, entry: &Entry) {
    match &entry.value {
        Value::Counter(cell) | Value::Gauge(cell) => {
            out.push_str(&format!("{base}{labels} {}\n", cell.get()));
        }
        Value::Histogram(cell) => {
            let (buckets, count, sum) = cell.snapshot();
            // `labels` is either empty or `{k="v"}`; splice `le` in.
            let label_body = labels
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .unwrap_or("");
            let mut cumulative = 0u64;
            for (i, bound) in cell.bounds().iter().enumerate() {
                cumulative += buckets[i];
                if label_body.is_empty() {
                    out.push_str(&format!("{base}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                } else {
                    out.push_str(&format!(
                        "{base}_bucket{{{label_body},le=\"{bound}\"}} {cumulative}\n"
                    ));
                }
            }
            cumulative += buckets[cell.bounds().len()];
            if label_body.is_empty() {
                out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            } else {
                out.push_str(&format!(
                    "{base}_bucket{{{label_body},le=\"+Inf\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("{base}_sum{labels} {sum}\n"));
            out.push_str(&format!("{base}_count{labels} {count}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Registry, Stability};

    fn sample() -> Registry {
        let reg = Registry::new();
        reg.counter("canely_runs_total", "Completed runs", Stability::Stable)
            .add(64);
        reg.counter(
            "canely_phase_nanos_total{phase=\"sched\"}",
            "Per-phase wall nanos",
            Stability::Volatile,
        )
        .add(123);
        reg.counter(
            "canely_phase_nanos_total{phase=\"timer\"}",
            "Per-phase wall nanos",
            Stability::Volatile,
        )
        .add(456);
        reg.gauge("canely_progress_pct", "Progress", Stability::Volatile)
            .set(50);
        let h = reg.histogram(
            "canely_latency_bittimes",
            "Detection latency",
            Stability::Stable,
            &[10, 100],
        );
        h.record(5);
        h.record(50);
        h.record(500);
        reg
    }

    #[test]
    fn prometheus_shape() {
        let text = sample().to_prometheus(true);
        assert!(text.contains("# HELP canely_runs_total Completed runs"));
        assert!(text.contains("# TYPE canely_runs_total counter"));
        assert!(text.contains("canely_runs_total 64"));
        assert!(text.contains("canely_phase_nanos_total{phase=\"sched\"} 123"));
        assert!(text.contains("canely_latency_bittimes_bucket{le=\"10\"} 1"));
        assert!(text.contains("canely_latency_bittimes_bucket{le=\"100\"} 2"));
        assert!(text.contains("canely_latency_bittimes_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("canely_latency_bittimes_sum 555"));
        assert!(text.contains("canely_latency_bittimes_count 3"));
        // HELP/TYPE emitted once for the labelled family.
        assert_eq!(text.matches("# TYPE canely_phase_nanos_total").count(), 1);
    }

    #[test]
    fn volatile_metrics_are_excluded_from_stable_exports() {
        let text = sample().to_prometheus(false);
        assert!(!text.contains("phase_nanos"));
        assert!(!text.contains("progress_pct"));
        assert!(text.contains("canely_runs_total 64"));
        let json = sample().to_json(false);
        assert!(!json.contains("phase_nanos"));
        assert!(json.contains("\"canely_runs_total\""));
    }

    #[test]
    fn exports_are_deterministic_across_equal_registries() {
        let a = sample();
        let b = sample();
        assert_eq!(a.to_prometheus(true), b.to_prometheus(true));
        assert_eq!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn json_histogram_shape() {
        let json = sample().to_json(true);
        assert!(json.contains(
            "{\"name\":\"canely_latency_bittimes\",\"kind\":\"histogram\",\"stability\":\"stable\",\"bounds\":[10,100],\"buckets\":[1,1,1],\"count\":3,\"sum\":555}"
        ));
    }
}
