//! Each example asserts its own invariants and panics on a violation,
//! so a clean exit is the observation: every binary must exit 0.

use std::process::{Command, Stdio};

#[test]
fn every_example_exits_cleanly() {
    let children: Vec<_> = [
        ("factory_cell", env!("CARGO_BIN_EXE_factory_cell")),
        ("fault_storm", env!("CARGO_BIN_EXE_fault_storm")),
        ("primary_backup", env!("CARGO_BIN_EXE_primary_backup")),
        ("quickstart", env!("CARGO_BIN_EXE_quickstart")),
        ("redundant_media", env!("CARGO_BIN_EXE_redundant_media")),
        ("synchronized_cell", env!("CARGO_BIN_EXE_synchronized_cell")),
    ]
    .into_iter()
    .map(|(name, exe)| {
        let child = Command::new(exe)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("`{exe}`: {e}"));
        (name, child)
    })
    .collect();
    for (name, child) in children {
        let output = child.wait_with_output().unwrap();
        assert!(
            output.status.success(),
            "{name} exited with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
