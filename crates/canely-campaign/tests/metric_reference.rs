//! `docs/METRICS.md`'s metric reference, pinned from the outside: its
//! table lists exactly the series a campaign worker registers — base
//! name, kind and stability — with each `{phase=…}` family as one row.

use canely_campaign::RunTelemetry;
use canely_metrics::Registry;
use std::collections::BTreeSet;

type Row = (String, String, String);

/// `(base name, kind, stability)` of every series `registry` holds,
/// read off the `# TYPE` headers (one per base name); a series is
/// stable when the stable-only export has it too.
fn registered(registry: &Registry) -> BTreeSet<Row> {
    let stable = registry.to_prometheus(false);
    registry
        .to_prometheus(true)
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|header| {
            let (base, kind) = header.split_once(' ').expect("`# TYPE base kind`");
            let stability = if stable.contains(&format!("# TYPE {header}\n")) {
                "stable"
            } else {
                "volatile"
            };
            (base.to_string(), kind.to_string(), stability.to_string())
        })
        .collect()
}

/// The `(name, kind, stability)` rows of the `## Metric reference`
/// table, with a `{phase=…}` suffix cut to its base name.
fn documented(doc: &str) -> BTreeSet<Row> {
    let section = doc
        .split_once("## Metric reference")
        .expect("docs/METRICS.md lost its `## Metric reference` section")
        .1;
    let section = section.split("\n## ").next().unwrap();
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| {
            let cells: Vec<&str> = row.split(" | ").collect();
            let name = cells[0].trim_end_matches('`');
            let base = name.split_once('{').map_or(name, |(base, _)| base);
            (base.to_string(), cells[1].to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn the_reference_tabulates_exactly_what_a_worker_registers() {
    let registry = Registry::new();
    let _worker = RunTelemetry::new(&registry);
    let path = format!("{}/../../docs/METRICS.md", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
    let (registered, documented) = (registered(&registry), documented(&doc));
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "registered but not in docs/METRICS.md: {undocumented:?}\n\
         in docs/METRICS.md but not registered: {unregistered:?}"
    );
}
