//! The lock-free metric registry and its handle types.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An [`AtomicU64`] padded to a cache line so adjacent hot counters
/// never false-share. 64 bytes covers every target this workspace
/// builds for.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct PaddedAtomicU64(AtomicU64);

impl PaddedAtomicU64 {
    /// Relaxed add.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Relaxed store.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Relaxed load.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Whether a metric's value is reproducible from the simulation alone.
///
/// Stable metrics are commutative sums of simulation-deterministic
/// quantities: any interleaving of workers lands on the same total, so
/// the stable export is byte-identical across worker counts. Volatile
/// metrics are wall-clock-derived (phase nanos, occupancy) and are
/// excluded from deterministic exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Simulation-deterministic; included in deterministic exports.
    Stable,
    /// Wall-clock-derived; excluded unless explicitly requested.
    Volatile,
}

/// A fixed-bucket integer histogram cell: cumulative-style buckets
/// with upper bounds `bounds[i]` plus an implicit `+Inf` bucket, a
/// total count and a sum. All fields are padded atomics — concurrent
/// `record`s from many workers never contend on a shared line beyond
/// the cell itself.
#[derive(Debug)]
pub struct HistCell {
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` buckets; the last is the overflow (+Inf).
    buckets: Box<[PaddedAtomicU64]>,
    count: PaddedAtomicU64,
    sum: PaddedAtomicU64,
}

impl HistCell {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| PaddedAtomicU64::default());
        HistCell {
            bounds: bounds.into(),
            buckets: buckets.collect(),
            count: PaddedAtomicU64::default(),
            sum: PaddedAtomicU64::default(),
        }
    }

    /// Records one observation (non-cumulative bucket increment; the
    /// exporter accumulates to Prometheus' cumulative `le` form).
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].add(1);
        self.count.add(1);
        self.sum.add(value);
    }

    /// The configured upper bounds (exclusive of the implicit +Inf).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Snapshot: per-bucket (non-cumulative) counts, total count, sum.
    pub fn snapshot(&self) -> (Vec<u64>, u64, u64) {
        let buckets = self.buckets.iter().map(PaddedAtomicU64::get).collect();
        (buckets, self.count.get(), self.sum.get())
    }
}

/// A monotonically increasing counter handle. `Default` is the
/// disabled handle: every operation is a no-op costing one branch.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<PaddedAtomicU64>>,
}

impl Counter {
    /// Adds `delta` (no-op when disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.add(delta);
        }
    }

    /// Adds one (no-op when disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }

    /// Whether this handle is wired to a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// A gauge handle: a value that can move both ways. `Default` is the
/// disabled handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<PaddedAtomicU64>>,
}

impl Gauge {
    /// Sets the gauge (no-op when disabled).
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.set(value);
        }
    }

    /// Adds `delta` (no-op when disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.add(delta);
        }
    }

    /// Current value (0 when disabled).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }
}

/// A histogram handle. `Default` is the disabled handle.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    cell: Option<Arc<HistCell>>,
}

impl Hist {
    /// Records one observation (no-op when disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.record(value);
        }
    }

    /// Snapshot of (buckets, count, sum); empty when disabled.
    pub fn snapshot(&self) -> Option<(Vec<u64>, u64, u64)> {
        self.cell.as_ref().map(|c| c.snapshot())
    }
}

/// One registered metric: help text, stability class and the shared
/// value cell.
pub(crate) struct Entry {
    pub(crate) help: &'static str,
    pub(crate) stability: Stability,
    pub(crate) value: Value,
}

#[derive(Clone)]
pub(crate) enum Value {
    Counter(Arc<PaddedAtomicU64>),
    Gauge(Arc<PaddedAtomicU64>),
    Histogram(Arc<HistCell>),
}

struct Inner {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

/// The metric registry. Cloning is cheap (an `Arc`); the disabled
/// registry hands out disabled handles, so a single code path serves
/// both the instrumented and the zero-cost configuration.
///
/// Registration is idempotent: registering the same name twice
/// returns a handle onto the same cell (a kind or stability mismatch
/// panics — that is a programming error, not an operational one).
/// Names follow the Prometheus data model, with an optional
/// `{label="value"}` suffix for families like
/// `canely_sim_phase_nanos_total{phase="sched"}`.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The disabled registry: hands out disabled handles.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers `name` with the value `make` builds — or re-attaches
    /// to the existing registration — and returns a handle on what the
    /// name now holds (`None` on the disabled registry).
    fn register(
        &self,
        name: &str,
        help: &'static str,
        stability: Stability,
        make: impl FnOnce() -> Value,
    ) -> Option<Value> {
        let inner = self.inner.as_ref()?;
        let mut metrics = inner.metrics.lock().expect("metrics registry poisoned");
        let entry = metrics.entry(name.to_string()).or_insert_with(|| Entry {
            help,
            stability,
            value: make(),
        });
        assert_eq!(entry.stability, stability, "stability mismatch for {name}");
        Some(entry.value.clone())
    }

    /// Registers (or re-attaches to) a counter.
    pub fn counter(&self, name: &str, help: &'static str, stability: Stability) -> Counter {
        match self.register(name, help, stability, || Value::Counter(Arc::default())) {
            Some(Value::Counter(cell)) => Counter { cell: Some(cell) },
            Some(_) => panic!("metric {name} already registered with a different kind"),
            None => Counter::default(),
        }
    }

    /// Registers (or re-attaches to) a gauge.
    pub fn gauge(&self, name: &str, help: &'static str, stability: Stability) -> Gauge {
        match self.register(name, help, stability, || Value::Gauge(Arc::default())) {
            Some(Value::Gauge(cell)) => Gauge { cell: Some(cell) },
            Some(_) => panic!("metric {name} already registered with a different kind"),
            None => Gauge::default(),
        }
    }

    /// Registers (or re-attaches to) a fixed-bucket histogram. The
    /// bounds of an existing registration win; a bounds mismatch
    /// panics.
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        stability: Stability,
        bounds: &[u64],
    ) -> Hist {
        let make = || Value::Histogram(Arc::new(HistCell::new(bounds)));
        match self.register(name, help, stability, make) {
            Some(Value::Histogram(cell)) => {
                assert_eq!(cell.bounds(), bounds, "bucket bounds mismatch for {name}");
                Hist { cell: Some(cell) }
            }
            Some(_) => panic!("metric {name} already registered with a different kind"),
            None => Hist::default(),
        }
    }

    /// Runs `f` over every metric in name order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&str, &Entry)) {
        if let Some(inner) = &self.inner {
            let metrics = inner.metrics.lock().expect("metrics registry poisoned");
            for (name, entry) in metrics.iter() {
                f(name, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x_total", "x", Stability::Stable);
        let g = reg.gauge("g", "g", Stability::Stable);
        let h = reg.histogram("h", "h", Stability::Stable, &[1, 2]);
        c.inc();
        g.set(7);
        h.record(3);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.snapshot().is_none());
        assert!(!c.enabled());
        assert!(!reg.enabled());
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter("runs_total", "runs", Stability::Stable);
        let b = reg.counter("runs_total", "runs", Stability::Stable);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m", "m", Stability::Stable);
        reg.gauge("m", "m", Stability::Stable);
    }

    #[test]
    fn histogram_buckets_partition_correctly() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "lat", Stability::Stable, &[10, 100]);
        h.record(5); // bucket 0 (<= 10)
        h.record(10); // bucket 0 (le is inclusive)
        h.record(11); // bucket 1 (<= 100)
        h.record(1000); // overflow
        let (buckets, count, sum) = h.snapshot().unwrap();
        assert_eq!(buckets, vec![2, 1, 1]);
        assert_eq!(count, 4);
        assert_eq!(sum, 5 + 10 + 11 + 1000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("inflight", "in flight", Stability::Volatile);
        g.set(5);
        g.add(2);
        assert_eq!(g.get(), 7);
        g.set(0);
        assert_eq!(g.get(), 0);
    }
}
