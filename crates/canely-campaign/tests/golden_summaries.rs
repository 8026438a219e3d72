//! The behaviour contract, pinned to files: the checked-in campaigns
//! must reproduce `tests/golden/<name>.summary.json` — the exact
//! stdout of `canelyctl campaign run --spec scenarios/<name>.campaign
//! --workers 1 --json` — byte for byte, at one worker and at two (the
//! engine's promise that the summary does not depend on the worker
//! count). Each golden holds `"violating_runs":[]`, so a campaign that
//! stops coming back clean from the oracle fails here too.
//!
//! A golden only changes in a PR whose purpose is to change campaign
//! behaviour; regenerate it with the command above.

use canely_campaign::{run_campaign, CampaignSpec};

fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read `{full}`: {e}"))
}

/// What `campaign run --workers W --json` prints: the summary line,
/// then — for a multi-backend matrix — the shootout line.
fn summary_document(name: &str, workers: usize) -> String {
    let spec = CampaignSpec::parse(&repo_file(&format!("scenarios/{name}.campaign")))
        .expect("checked-in campaign spec must parse");
    let result = run_campaign(&spec, workers);
    let mut out = result.report.to_json();
    out.push('\n');
    if let Some(shootout) = &result.shootout {
        out.push_str(&shootout.to_json());
        out.push('\n');
    }
    out
}

/// Every checked-in campaign at `workers` against its golden.
fn assert_goldens_at(workers: usize) {
    for name in ["smoke", "shootout", "failover", "federation"] {
        let golden = repo_file(&format!("tests/golden/{name}.summary.json"));
        let actual = summary_document(name, workers);
        assert!(
            actual == golden,
            "{name}.campaign at {workers} worker(s) diverged from \
             tests/golden/{name}.summary.json ({} vs {} bytes)",
            actual.len(),
            golden.len()
        );
    }
}

#[test]
fn checked_in_campaigns_reproduce_their_golden_summaries() {
    assert_goldens_at(1);
}

#[test]
fn checked_in_campaigns_reproduce_their_golden_summaries_at_two_workers() {
    assert_goldens_at(2);
}
