//! The behaviour contract, pinned to files: the checked-in campaigns
//! must reproduce `tests/golden/<name>.summary.json` — the exact
//! stdout of `canelyctl campaign run --spec scenarios/<name>.campaign
//! --workers 1 --json` — byte for byte. `scripts/verify.sh` `cmp`s the
//! same files against the release binary; this test catches a drift
//! without leaving `cargo test`.
//!
//! A golden only changes in a PR whose purpose is to change campaign
//! behaviour; regenerate it with the command above.

use canely_campaign::{run_campaign, CampaignSpec};

fn repo_file(path: &str) -> String {
    let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read `{full}`: {e}"))
}

/// What `campaign run --json` prints: the summary line, then — for a
/// multi-backend matrix — the shootout line.
fn summary_document(name: &str) -> String {
    let spec = CampaignSpec::parse(&repo_file(&format!("scenarios/{name}.campaign")))
        .expect("checked-in campaign spec must parse");
    let result = run_campaign(&spec, 1);
    let mut out = result.report.to_json();
    out.push('\n');
    if let Some(shootout) = &result.shootout {
        out.push_str(&shootout.to_json());
        out.push('\n');
    }
    out
}

#[test]
fn checked_in_campaigns_reproduce_their_golden_summaries() {
    for name in ["smoke", "shootout", "failover", "federation"] {
        let golden = repo_file(&format!("tests/golden/{name}.summary.json"));
        let actual = summary_document(name);
        assert!(
            actual == golden,
            "{name}.campaign diverged from tests/golden/{name}.summary.json \
             ({} vs {} bytes)",
            actual.len(),
            golden.len()
        );
    }
}
