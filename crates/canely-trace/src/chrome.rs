//! Chrome / Perfetto trace-event export.
//!
//! The output is a standard `{"traceEvents":[...]}` document loadable
//! in `ui.perfetto.dev` or `chrome://tracing`:
//!
//! - **pid 0** is the bus: each transaction is a complete (`X`) span
//!   from arbitration win to bus-free, named by its mid.
//! - **pid N+1** is node N: protocol events are instants (`i`) on
//!   tid 0; detection phases are `X` spans on tid 1.
//! - Bus-wide phases (queuing, diffusion) render on the bus process,
//!   tid 1.
//!
//! Timestamps are in microseconds as the format requires; at the
//! nominal 1 Mbit/s of the simulated bus one bit-time is exactly one
//! microsecond, so values pass through unscaled.

use std::fmt::Write as _;

use crate::json::{escape_into, Scalar};
use crate::model::TraceModel;
use crate::phases::PhaseProfile;

/// Starts the next trace event: the separator after the previous one.
fn next_event(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

/// Appends `label` and `n` in decimal: an instant is two numbers
/// between fixed labels, and `write!` spends more on its way to the
/// digits than on them.
fn push_num(out: &mut String, label: &str, mut n: u64) {
    out.push_str(label);
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn meta(out: &mut String, first: &mut bool, pid: u64, tid: u64, kind: &str, name: &str) {
    next_event(out, first);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\""
    );
    escape_into(name, out);
    out.push_str("\"}}");
}

/// Renders the trace (plus its phase profile) as a Chrome trace-event
/// JSON document. Deterministic: equal traces render byte-identically.
pub fn chrome_trace(model: &TraceModel<'_>) -> String {
    let profile = PhaseProfile::of(model);
    let mut nodes: Vec<u8> = model.events.iter().map(|e| e.node).collect();
    for tx in &model.bus {
        nodes.extend(&tx.transmitters);
    }
    nodes.sort_unstable();
    nodes.dedup();

    // The bulk records render straight into the one buffer, sized up
    // front: a record comes out as its line plus a fixed frame.
    let source: usize = model.lines.iter().map(|line| line.text().len() + 64).sum();
    let mut out = String::with_capacity(source + 4096);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;

    // Process/thread naming metadata.
    meta(&mut out, &mut first, 0, 0, "process_name", "bus");
    meta(&mut out, &mut first, 0, 0, "thread_name", "frames");
    meta(&mut out, &mut first, 0, 1, "thread_name", "phases");
    for &node in &nodes {
        let pid = u64::from(node) + 1;
        meta(
            &mut out,
            &mut first,
            pid,
            0,
            "process_name",
            &format!("node {node}"),
        );
        meta(&mut out, &mut first, pid, 0, "thread_name", "events");
        meta(&mut out, &mut first, pid, 1, "thread_name", "phases");
    }

    // Bus transactions: complete spans on the bus track.
    for tx in &model.bus {
        next_event(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"",
            tx.start,
            tx.bus_free.saturating_sub(tx.start),
        );
        escape_into(&tx.mid, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"bus\",\"args\":{{\
             \"queued\":{},\"deliver\":{},\"arb_losses\":{},\
             \"delivered\":{},\"errored\":{}}}}}",
            tx.queued, tx.deliver, tx.arb_losses, tx.delivered, tx.errored
        );
    }

    // Protocol events: instants on their node's event track, the
    // variant-specific fields as string arguments and the cause last.
    for event in &model.events {
        next_event(&mut out, &mut first);
        let cat = event.kind.split('.').next().unwrap_or("event");
        push_num(
            &mut out,
            "{\"ph\":\"i\",\"pid\":",
            u64::from(event.node) + 1,
        );
        push_num(&mut out, ",\"tid\":0,\"ts\":", event.t);
        let name: &str = &event.kind;
        for part in [
            ",\"s\":\"t\",\"name\":\"",
            name,
            "\",\"cat\":\"",
            cat,
            "\",\"args\":{",
        ] {
            out.push_str(part);
        }
        let args = out.len();
        let mut cause = None;
        let mut fields = model.line_of(event).fields();
        while let Some((key, value)) = fields.field() {
            let key = key.decode();
            match key.as_ref() {
                "cause" => cause = cause.or(Some(value)),
                "t" | "seq" | "node" | "kind" => {}
                _ => {
                    out.push_str(if out.len() > args { ",\"" } else { "\"" });
                    out.push_str(&key);
                    out.push_str("\":\"");
                    escape_into(&value.display(), &mut out);
                    out.push('"');
                }
            }
        }
        if let Some(cause) = cause.and_then(Scalar::text) {
            out.push_str(if out.len() > args {
                ",\"cause\":\""
            } else {
                "\"cause\":\""
            });
            out.push_str(&cause.decode());
            out.push('"');
        }
        out.push_str("}}");
    }

    // Detection phases: spans on the owner's phase track.
    for detection in &profile.detections {
        for span in &detection.spans {
            next_event(&mut out, &mut first);
            let pid = span.node.map_or(0, |n| u64::from(n) + 1);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"cat\":\"phase\",\
                 \"args\":{{\"suspect\":\"n{}\"}}}}",
                span.start,
                span.end - span.start,
                span.name,
                detection.suspect
            );
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceModel;

    const DOC: &str = "\
{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":55,\"seq\":0,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2,\"cause\":\"bus:55\"}\n";

    #[test]
    fn emits_metadata_spans_and_instants() {
        let model = TraceModel::parse(DOC).unwrap();
        let doc = chrome_trace(&model);
        assert!(doc.starts_with("{\"traceEvents\":[\n"));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert!(doc.contains("\"process_name\",\"args\":{\"name\":\"bus\"}"));
        assert!(doc.contains("\"args\":{\"name\":\"node 0\"}"));
        assert!(
            doc.contains("\"args\":{\"name\":\"node 2\"}"),
            "transmitter-only node"
        );
        assert!(doc.contains(
            "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":58,\"name\":\"ELS[0,n2]\""
        ));
        assert!(doc.contains(
            "\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":55,\"s\":\"t\",\"name\":\"fd.lifesign.rx\""
        ));
        assert!(doc.contains("\"of\":\"2\""));
        assert!(doc.contains("\"cause\":\"bus:55\""));
    }

    #[test]
    fn every_line_is_one_json_object() {
        let model = TraceModel::parse(DOC).unwrap();
        let doc = chrome_trace(&model);
        // The body between the envelope lines must be comma-terminated
        // object lines — a structural stand-in for a full JSON parse.
        for line in doc.lines().skip(1) {
            if line.starts_with(']') {
                break;
            }
            let bare = line.strip_suffix(',').unwrap_or(line);
            assert!(bare.starts_with('{') && bare.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        let model1 = TraceModel::parse(DOC).unwrap();
        let model2 = TraceModel::parse(DOC).unwrap();
        assert_eq!(chrome_trace(&model1), chrome_trace(&model2));
    }
}
