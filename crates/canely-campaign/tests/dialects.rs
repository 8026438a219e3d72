//! The two file dialects, pinned from the outside:
//!
//! * their keyword sets are exactly the literal arrays below (a new
//!   keyword is a new option: it needs a reason, not just a table row);
//! * `docs/CAMPAIGN_SPEC.md` tabulates exactly what the two `pub const`
//!   tables declare — keyword and argument shape — so the reference
//!   cannot drift from the readers;
//! * reading and writing `.canely` are inverses on every checked-in
//!   scenario and on every run of the four checked-in campaigns, and
//!   the bytes `RunSpec::to_scenario` writes for those runs are the
//!   ones it wrote before the readers were unified.

use canely_campaign::{scenario, spec, CampaignSpec, RunSpec, Scenario};

fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read `{full}`: {e}"))
}

#[test]
fn keyword_sets_are_exactly_these() {
    let campaign: Vec<&str> = spec::KEYWORDS.iter().map(|k| k.name).collect();
    assert_eq!(
        campaign,
        [
            "name",
            "nodes",
            "tm",
            "th",
            "seeds",
            "error-rate",
            "inconsistent-rate",
            "crash-budget",
            "inaccessibility",
            "detector",
            "omission-degree",
            "inconsistent-degree",
            "traffic",
            "until",
            "settle",
            "latency-slack",
            "weaken-fda",
            "segments",
            "gateway",
            "bridge",
            "relay",
            "gateway-crash",
            "segment-partition",
            "asymmetric-inaccessibility",
            "gateway-restart",
            "rejoin-slack",
        ]
    );
    let canely: Vec<&str> = scenario::KEYWORDS.iter().map(|k| k.name).collect();
    assert_eq!(
        canely,
        [
            "nodes",
            "tm",
            "th",
            "until",
            "seed",
            "error-rate",
            "inconsistent-rate",
            "omission-degree",
            "inconsistent-degree",
            "traffic",
            "crash",
            "join",
            "leave",
            "restart",
            "inaccessible",
            "weaken-fda",
            "detector",
            "settle",
            "latency-slack",
            "rejoin-slack",
            "expect-view",
            "segments",
            "gateway",
            "bridge",
            "relay",
            "seg-crash",
            "gateway-crash",
            "gateway-restart",
            "segment-partition",
            "asymmetric",
        ]
    );
}

/// The `` `keyword ARGS` `` first cells of the table under `heading`.
fn documented(doc: &str, heading: &str) -> Vec<String> {
    let section = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("docs/CAMPAIGN_SPEC.md lost its `{heading}` section"))
        .1;
    let section = section.split("\n## ").next().unwrap();
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
        .map(|(cell, _)| cell.replace("\\|", "|"))
        .collect()
}

#[test]
fn the_reference_tabulates_exactly_the_keyword_tables() {
    let doc = repo_file("docs/CAMPAIGN_SPEC.md");
    let declared = |name: &str, args: &str| format!("{name} {args}").trim_end().to_string();
    let campaign: Vec<String> = spec::KEYWORDS
        .iter()
        .map(|k| declared(k.name, k.args))
        .collect();
    assert_eq!(documented(&doc, "## `.campaign` grammar"), campaign);
    let canely: Vec<String> = scenario::KEYWORDS
        .iter()
        .map(|k| declared(k.name, k.args))
        .collect();
    assert_eq!(documented(&doc, "## `.canely` grammar"), canely);
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn checked_in_scenarios_round_trip() {
    for name in ["lifecycle", "noisy_storm", "partition_heal"] {
        let scenario = Scenario::parse(&repo_file(&format!("scenarios/{name}.canely"))).unwrap();
        let back = Scenario::parse(&scenario.to_text()).unwrap();
        assert_eq!(back, scenario, "{name}.canely");
    }
}

#[test]
fn every_campaign_run_round_trips_to_the_bytes_it_always_wrote() {
    // FNV-1a of every run's `to_scenario()` concatenated, computed at
    // the parent of the one-grammar change.
    for (name, runs, digest) in [
        ("smoke", 128, 0xc3f5_9955_54ce_30de_u64),
        ("shootout", 72, 0xab4f_595c_a487_9712),
        ("federation", 4, 0x369d_6623_956c_8c00),
        ("failover", 1, 0xe4df_984a_f6c2_1271),
    ] {
        let spec = CampaignSpec::parse(&repo_file(&format!("scenarios/{name}.campaign"))).unwrap();
        let expanded = spec.expand();
        assert_eq!(expanded.len(), runs, "{name}");
        let mut written = String::new();
        for run in &expanded {
            let text = run.to_scenario();
            let mut back = RunSpec::from_scenario(&text).unwrap();
            back.id = run.id; // ids are not serialized state
            assert_eq!(&back, run, "{name} run {}", run.id);
            assert_eq!(back.to_scenario(), text, "{name} run {}", run.id);
            written.push_str(&text);
        }
        assert_eq!(fnv1a(&written), digest, "{name}: {:#018x}", fnv1a(&written));
    }
}
