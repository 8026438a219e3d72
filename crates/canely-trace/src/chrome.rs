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

use std::io::{self, Write};

use crate::json::{escape_bytes, Scalar};
use crate::model::TraceModel;
use crate::phases::PhaseProfile;

/// Appends `label` and `n` in decimal: an instant is two numbers
/// between fixed labels, and `write!` spends more on its way to the
/// digits than on them.
fn push_num(out: &mut Vec<u8>, label: &str, mut n: u64) {
    out.extend_from_slice(label.as_bytes());
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
    out.extend_from_slice(&digits[at..]);
}

/// Appends each part in turn.
fn push_all(out: &mut Vec<u8>, parts: &[&str]) {
    for part in parts {
        out.extend_from_slice(part.as_bytes());
    }
}

/// The trace events, written one at a time: each is rendered into one
/// reused buffer, after the separator from the one before, and written
/// whole.
struct Events<'o, W: ?Sized> {
    out: &'o mut W,
    buf: Vec<u8>,
    first: bool,
}

impl<W: Write + ?Sized> Events<'_, W> {
    /// The buffer to render the next event into.
    fn next(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        if !std::mem::take(&mut self.first) {
            self.buf.extend_from_slice(b",\n");
        }
        &mut self.buf
    }

    /// Writes the event rendered since [`Events::next`].
    fn write(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)
    }

    /// A process (`tid` 0, `kind` `process_name`) or thread naming
    /// event: `name`, then `number` if given.
    fn meta(
        &mut self,
        pid: u64,
        tid: u64,
        kind: &str,
        name: &str,
        number: Option<u8>,
    ) -> io::Result<()> {
        let buf = self.next();
        push_num(buf, "{\"ph\":\"M\",\"pid\":", pid);
        push_num(buf, ",\"tid\":", tid);
        push_all(
            buf,
            &[",\"name\":\"", kind, "\",\"args\":{\"name\":\"", name],
        );
        if let Some(number) = number {
            push_num(buf, "", number.into());
        }
        buf.extend_from_slice(b"\"}}");
        self.write()
    }
}

/// Renders the trace (plus its phase profile) as a Chrome trace-event
/// JSON document into a `String` reserved at about its size:
/// [`write_chrome_trace`].
pub fn chrome_trace(model: &TraceModel<'_>) -> String {
    // A record comes out as its line plus a fixed frame.
    let source: usize = model.lines.iter().map(|line| line.text().len() + 64).sum();
    let mut out = Vec::with_capacity(source + 4096);
    write_chrome_trace(model, &mut out).expect("a `Vec` takes every write");
    String::from_utf8(out).expect("a rendering is made of `str` pieces")
}

/// Writes the trace (plus its phase profile) to `out` as a Chrome
/// trace-event JSON document, one event at a time. Deterministic:
/// equal traces render byte-identically.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_chrome_trace<W: Write + ?Sized>(
    model: &TraceModel<'_>,
    out: &mut W,
) -> io::Result<()> {
    let profile = PhaseProfile::of(model);
    let mut seen = [false; 256];
    for node in model.events.iter().map(|e| e.node) {
        seen[usize::from(node)] = true;
    }
    for tx in &model.bus {
        for &node in model.transmitters(tx) {
            seen[usize::from(node)] = true;
        }
    }
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut events = Events {
        out,
        buf: Vec::with_capacity(512),
        first: true,
    };

    // Process/thread naming metadata.
    events.meta(0, 0, "process_name", "bus", None)?;
    events.meta(0, 0, "thread_name", "frames", None)?;
    events.meta(0, 1, "thread_name", "phases", None)?;
    for node in (0..=u8::MAX).filter(|&node| seen[usize::from(node)]) {
        let pid = u64::from(node) + 1;
        events.meta(pid, 0, "process_name", "node ", Some(node))?;
        events.meta(pid, 0, "thread_name", "events", None)?;
        events.meta(pid, 1, "thread_name", "phases", None)?;
    }

    // Bus transactions: complete spans on the bus track.
    for tx in &model.bus {
        let buf = events.next();
        push_num(buf, "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":", tx.start);
        push_num(buf, ",\"dur\":", tx.bus_free.saturating_sub(tx.start));
        buf.extend_from_slice(b",\"name\":\"");
        escape_bytes(&model.mid(tx), buf);
        push_num(buf, "\",\"cat\":\"bus\",\"args\":{\"queued\":", tx.queued);
        push_num(buf, ",\"deliver\":", tx.deliver);
        push_num(buf, ",\"arb_losses\":", tx.arb_losses);
        push_all(
            buf,
            &[
                ",\"delivered\":",
                if tx.delivered() { "true" } else { "false" },
            ],
        );
        push_all(
            buf,
            &[
                ",\"errored\":",
                if tx.errored() { "true" } else { "false" },
                "}}",
            ],
        );
        events.write()?;
    }

    // Protocol events: instants on their node's event track, the
    // variant-specific fields as string arguments and the cause last.
    for event in &model.events {
        let buf = events.next();
        let kind = model.kind_of(event);
        let cat = kind.split('.').next().unwrap_or("event");
        push_num(buf, "{\"ph\":\"i\",\"pid\":", u64::from(event.node) + 1);
        push_num(buf, ",\"tid\":0,\"ts\":", event.t);
        push_all(
            buf,
            &[
                ",\"s\":\"t\",\"name\":\"",
                kind,
                "\",\"cat\":\"",
                cat,
                "\",\"args\":{",
            ],
        );
        let args = buf.len();
        let line = model.line_of(event);
        let mut cause = None;
        let mut fields = line.fields();
        while let Some((key, value)) = fields.field() {
            let key = key.decode();
            match key.as_ref() {
                "cause" => cause = cause.or(Some(value)),
                "t" | "seq" | "node" | "kind" => {}
                _ => {
                    let open = if buf.len() > args { ",\"" } else { "\"" };
                    push_all(buf, &[open, &key, "\":\""]);
                    value.escape_display(line.canonical(), buf);
                    buf.push(b'"');
                }
            }
        }
        if let Some(cause) = cause.and_then(Scalar::text) {
            let open = if buf.len() > args {
                ",\"cause\":\""
            } else {
                "\"cause\":\""
            };
            push_all(buf, &[open, &cause.decode(), "\""]);
        }
        buf.extend_from_slice(b"}}");
        events.write()?;
    }

    // Detection phases: spans on the owner's phase track.
    for detection in &profile.detections {
        for span in &detection.spans {
            let buf = events.next();
            let pid = span.node.map_or(0, |n| u64::from(n) + 1);
            push_num(buf, "{\"ph\":\"X\",\"pid\":", pid);
            push_num(buf, ",\"tid\":1,\"ts\":", span.start);
            push_num(buf, ",\"dur\":", span.end - span.start);
            push_all(buf, &[",\"name\":\"", span.name, "\",\"cat\":\"phase\""]);
            push_num(buf, ",\"args\":{\"suspect\":\"n", detection.suspect.into());
            buf.extend_from_slice(b"\"}}");
            events.write()?;
        }
    }

    events.out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
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
