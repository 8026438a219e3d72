//! The paper-reproduction binaries are deterministic and read frame
//! durations off the wire, so a change that bends a figure (a
//! wire-length, stuffing or bandwidth-accounting slip) fails here, in
//! tier-1. Regenerate with
//! `cargo run --release -p bench --bin BIN > tests/golden/figures/BIN.txt`
//! only when a figure is meant to change.

use std::process::Command;

#[test]
fn figure_binaries_print_their_goldens() {
    for (bin, exe) in [
        ("fig01_ttp_vs_can", env!("CARGO_BIN_EXE_fig01_ttp_vs_can")),
        ("fig10_bandwidth", env!("CARGO_BIN_EXE_fig10_bandwidth")),
        ("fig11_comparison", env!("CARGO_BIN_EXE_fig11_comparison")),
        (
            "sec66_related_latency",
            env!("CARGO_BIN_EXE_sec66_related_latency"),
        ),
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ] {
        let golden = format!(
            "{}/../../tests/golden/figures/{bin}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let expected = std::fs::read(&golden).unwrap_or_else(|e| panic!("`{golden}`: {e}"));
        let output = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("`{exe}`: {e}"));
        assert!(
            output.status.success(),
            "{bin} exited with {}",
            output.status
        );
        assert!(output.stdout == expected, "{bin} diverged from {golden}");
    }
}
