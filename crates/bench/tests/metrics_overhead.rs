//! Verifies the cost contract of the metrics registry with a counting
//! global allocator: disabled handles must not allocate at all, and —
//! stronger — the *enabled* hot path (counter adds, histogram
//! records) is allocation-free too once the handles exist, so workers
//! can bump freely from the campaign hot loop. The same holds for the
//! phase profiler once it is enabled.

mod common;

use canely_metrics::{PhaseProfiler, Registry, Stability};
use common::measured;

#[test]
fn metric_bumps_never_allocate() {
    // Disabled handles: the whole plane is a branch on a `None`.
    let disabled = Registry::disabled();
    let d_counter = disabled.counter("x_total", "x", Stability::Stable);
    let d_gauge = disabled.gauge("g", "g", Stability::Volatile);
    let d_hist = disabled.histogram("h", "h", Stability::Stable, &[10, 100, 1_000]);
    let (clean, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            d_counter.add(i & 1);
            d_gauge.set(i);
            d_hist.record(i);
        }
    });
    assert_eq!(clean, 0, "disabled metric handles must never allocate");
    assert_eq!(d_counter.get(), 0);

    // Enabled handles: registration allocates (cells, the name map),
    // but every subsequent bump is a relaxed atomic — nothing else.
    let enabled = Registry::new();
    let (registering, _, (e_counter, e_gauge, e_hist)) = measured(|| {
        (
            enabled.counter("x_total", "x", Stability::Stable),
            enabled.gauge("g", "g", Stability::Volatile),
            enabled.histogram("h", "h", Stability::Stable, &[10, 100, 1_000]),
        )
    });
    assert!(registering > 0, "registration allocates the cells");
    let (clean, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            e_counter.add(i & 1);
            e_gauge.set(i);
            e_hist.record(i);
        }
    });
    assert_eq!(clean, 0, "the enabled hot path must be allocation-free");
    assert_eq!(e_counter.get(), 50_000);
    let (_, count, _) = e_hist.snapshot().expect("enabled");
    assert_eq!(count, 100_000);
}

#[test]
fn an_enabled_profiler_never_allocates_once_enabled() {
    const PHASES: &[&str] = &["alpha", "beta", "gamma"];
    let mut profiler = PhaseProfiler::new(PHASES);
    let (enabling, _, ()) = measured(|| profiler.set_enabled(true));
    assert!(enabling > 0, "enabling boxes the recording state");
    // Long windows (sampled) and short ones (timed span by span).
    let (clean, _, ()) = measured(|| {
        for i in 0..100_000 {
            profiler.enter(i % 3);
            if i % 5_000 >= 4_990 {
                profiler.pause();
            }
        }
        profiler.pause();
    });
    assert_eq!(
        clean, 0,
        "enter / pause on an enabled profiler must not allocate"
    );
    let report = profiler.take();
    assert_eq!(report.entries().iter().sum::<u64>(), 100_000);
}
