//! The benchmark-side span recorder. Every call from the harness into
//! a layer — a `canelyctl` process or a crate's public function — is
//! wrapped in a span; spans stay in memory and are written once, when
//! the run ends (`out/spans.json`).

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the same list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: &'static str,
}

/// Records spans against one epoch, nesting by call order.
pub struct Recorder {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans opened from now on belong to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`, and returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        now - self.spans[id].start_ns
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let result = f();
        (result, self.exit(id))
    }

    /// Adds children to the closed span `parent` for time the program
    /// itself attributed (its phase totals). The program reports
    /// totals, not intervals, so the children are laid end to end from
    /// the parent's start; only their durations carry information.
    pub fn attribute(&mut self, parent: usize, totals: &[(String, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for (name, nanos) in totals {
            self.spans.push(Span {
                name: name.clone(),
                start_ns: at,
                end_ns: at + nanos,
                parent: Some(parent),
                workload: self.workload,
            });
            at += nanos;
        }
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (one object per span, in open order).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::Str(s.workload.to_string())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new("w");
        let outer = rec.enter("outer");
        let (_, inner_ns) = rec.time("inner", || std::hint::black_box(1 + 1));
        let outer_ns = rec.exit(outer);
        assert_eq!(rec.spans()[1].parent, Some(outer));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(outer_ns >= inner_ns);
        assert_eq!(rec.self_ns(outer), outer_ns - inner_ns);

        rec.attribute(outer, &[("a".into(), 3), ("b".into(), 4)]);
        let added = &rec.spans()[2..];
        assert_eq!(added[0].end_ns - added[0].start_ns, 3);
        assert_eq!(added[1].start_ns, added[0].end_ns);
        assert_eq!(rec.self_ns(outer), outer_ns.saturating_sub(inner_ns + 7));
        assert_eq!(rec.to_json().as_arr().unwrap().len(), 4);
    }
}
