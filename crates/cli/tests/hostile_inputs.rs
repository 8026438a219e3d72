//! Inputs that used to panic or be silently accepted: each must yield
//! a report or a named diagnostic, never exit 101 or a trace of a node
//! that does not exist.

use canely_cli::run;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn single_segment_scenario_file_reports_instead_of_panicking() {
    // `segments 1` is federation vocabulary, so `run` hands the file
    // to the campaign engine — where it parses to a plain run.
    let dir = std::env::temp_dir().join("canelyctl-hostile-inputs");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("seg1.canely");
    std::fs::write(&file, "nodes 4\nsegments 1\nuntil 300ms\nsettle 150ms\n").unwrap();
    let out = run(&argv(&["run", &file.to_string_lossy()])).unwrap();
    assert!(out.contains("1 segments × 4 nodes"), "{out}");
    assert!(out.contains("verdict: clean"), "{out}");
}

#[test]
fn faults_on_nodes_that_never_exist_are_rejected() {
    for command in ["membership", "trace", "metrics"] {
        for option in ["--crash", "--leave", "--restart"] {
            let err = run(&argv(&[command, "--nodes", "4", option, "9@1ms"])).unwrap_err();
            assert!(
                err.starts_with("error: ") && err.contains("node n9"),
                "{command} {option}: {err}"
            );
        }
    }
    // A late joiner is a node of the scenario like any other.
    let out = run(&argv(&[
        "membership", "--nodes", "4", "--join", "9@100ms", "--crash", "9@300ms", "--until",
        "400ms",
    ]))
    .unwrap();
    assert!(out.contains("CANELy membership"), "{out}");
}
