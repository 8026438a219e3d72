//! `campaign run --progress` end to end, through the binary: the
//! streamed lines and registry snapshots land on stderr, the summary on
//! stdout is the one a run without telemetry prints, and a stderr
//! reader that goes away ends the streaming, not the campaign.

use canely_cli::run;
use std::io::Read;
use std::process::{Command, Output, Stdio};

const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/smoke.campaign"
);

/// `campaign run --spec SPEC --workers 2 --json`.
fn campaign_run(spec: &str) -> Vec<String> {
    [
        "campaign",
        "run",
        "--spec",
        spec,
        "--workers",
        "2",
        "--json",
    ]
    .map(String::from)
    .to_vec()
}

/// The summary of `spec` without telemetry, in process.
fn plain_summary(spec: &str) -> String {
    run(&campaign_run(spec)).unwrap()
}

/// The binary's `campaign run` on `spec` with `extra` flags.
fn canelyctl(spec: &str, extra: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_canelyctl"));
    command.args(campaign_run(spec)).args(extra);
    command
}

/// Runs `spec` streaming progress and registry snapshots; returns
/// stdout and stderr.
fn streamed(spec: &str) -> (String, String) {
    const STREAM: &[&str] = &[
        "--progress",
        "--metrics-json",
        "--progress-interval-ms",
        "20",
    ];
    let Output {
        status,
        stdout,
        stderr,
    } = canelyctl(spec, STREAM).output().unwrap();
    let stderr = String::from_utf8(stderr).unwrap();
    assert!(status.success(), "{status:?}: {stderr}");
    (String::from_utf8(stdout).unwrap(), stderr)
}

/// The integer right after the first `key` in `text`.
fn number_after(text: &str, key: &str) -> u64 {
    let rest = &text[text.find(key).expect(key) + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn telemetry_streams_on_stderr_and_changes_no_summary_byte() {
    // The smoke campaign: streaming changes no summary byte, and both
    // the progress lines (with their `[done]` tail) and the registry
    // snapshots arrive.
    let (summary, stderr) = streamed(SMOKE);
    assert_eq!(summary, plain_summary(SMOKE));
    let done = stderr
        .lines()
        .find(|line| line.ends_with("[done]"))
        .unwrap_or_else(|| panic!("no [done] line: {stderr}"));
    assert!(done.starts_with("progress: 128/128 runs"), "{done}");
    assert!(stderr.contains("\n{\"metrics\":["), "{stderr}");

    // A federated matrix: a campaign keeps only the events its judge
    // reads and counts the rest, and the registry counts the same runs
    // on its own path — the last snapshot agrees with the summary.
    let dir = std::env::temp_dir().join("canelyctl-progress-stream");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("fed2.campaign");
    std::fs::write(
        &spec,
        "name fed2\nnodes 4\nsegments 2\nseeds 0..2\ncrash-budget 0 1\nuntil 300ms\nsettle 150ms\n",
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let (summary, stderr) = streamed(spec);
    assert_eq!(summary, plain_summary(spec));
    let events = number_after(&summary, "\"events\":");
    assert!(events > 0, "{summary}");
    let snapshot = stderr
        .lines()
        .rfind(|line| line.starts_with("{\"metrics\":["))
        .expect("a registry snapshot");
    let counter = &snapshot[snapshot.find("\"canely_campaign_events_total\"").unwrap()..];
    assert_eq!(number_after(counter, "\"value\":"), events);
}

#[test]
fn progress_to_a_closed_stderr_pipe_finishes_the_campaign() {
    // `campaign run … --progress 2>&1 >/dev/null | head -c 10` used to
    // panic in the ticker (`failed printing to stderr`, exit 101).
    let mut child = canelyctl(SMOKE, &["--progress", "--progress-interval-ms", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = child.stderr.take().unwrap();
    let mut head = [0; 10];
    stderr.read_exact(&mut head).unwrap();
    assert_eq!(&head, b"progress: ");
    drop(stderr);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "{:?}", output.status);
    assert_eq!(
        String::from_utf8(output.stdout).unwrap(),
        plain_summary(SMOKE)
    );
}
