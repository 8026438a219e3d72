//! The usage text is held to the parser: every option it lists under a
//! single-bus command is one that command reads, so a deleted option
//! cannot linger in the help. And the membership report says what
//! silenced a node.

use canely_cli::{run, usage};

/// A value for each placeholder the usage text writes after an option.
fn value(placeholder: &str) -> &'static str {
    match placeholder {
        "N" => "3",
        "DUR" => "60ms",
        "NODE@TIME" => "1@20ms",
        "P" => "0.01",
        other => panic!("no test value for placeholder `{other}`"),
    }
}

/// A command block of the usage text: the invocation that selects the
/// command (the first alternative of a `<a|b>` subcommand) and its
/// `--option [PLACEHOLDER]` lines.
type Block = (Vec<String>, Vec<(String, Option<String>)>);

/// Every command block of the usage text. A block that takes
/// `(membership options …, plus)` inherits membership's list, less
/// the options named after `but`.
fn listed_options() -> Vec<Block> {
    let text = usage();
    let (_, commands) = text.split_once("COMMANDS:\n").expect("a COMMANDS section");
    let mut blocks: Vec<Block> = Vec::new();
    let mut inherited: Option<String> = None;
    for line in commands.lines() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if indent == 2 && trimmed.starts_with(|c: char| c.is_ascii_lowercase()) {
            let mut words = trimmed.split_whitespace();
            let mut command = vec![words.next().unwrap().to_string()];
            if let Some(alternatives) = words.next().and_then(|w| w.strip_prefix('<')) {
                command.push(alternatives.split(['|', '>']).next().unwrap().to_string());
            }
            blocks.push((command, Vec::new()));
            continue;
        }
        let Some((_, options)) = blocks.last_mut() else {
            continue;
        };
        if let Some(clause) = inherited.as_mut() {
            clause.push_str(trimmed);
        } else if trimmed.starts_with("(membership options") {
            inherited = Some(trimmed.to_string());
        } else if let Some(option) = trimmed.strip_prefix("--") {
            let mut words = option.split_whitespace();
            let name = words.next().unwrap().to_string();
            let placeholder = words
                .next()
                .filter(|w| w.chars().all(|c| c.is_ascii_uppercase() || c == '@'));
            options.push((name, placeholder.map(str::to_string)));
        }
        if let Some(clause) = inherited.take_if(|clause| clause.contains("plus)")) {
            let membership = blocks[0].1.clone();
            let excluded = |name: &str| clause.contains(&format!("--{name}"));
            let own = &mut blocks.last_mut().unwrap().1;
            own.extend(membership.into_iter().filter(|(name, _)| !excluded(name)));
        }
    }
    assert_eq!(blocks[0].0, ["membership"], "the first command block");
    blocks
}

#[test]
fn every_listed_option_is_read_by_its_command() {
    let blocks = listed_options();
    let mut checked = 0;
    for command in ["membership", "groups", "trace", "metrics", "baseline"] {
        let (invocation, options) = blocks
            .iter()
            .find(|(words, _)| words[0] == command)
            .unwrap_or_else(|| panic!("usage lists no `{command}` block"));
        assert!(!options.is_empty(), "`{command}` lists no options");
        for (name, placeholder) in options {
            // Debug-cheap: three nodes, 100 ms of bus time.
            let mut argv = invocation.clone();
            argv.extend(["--nodes", "3", "--until", "100ms"].map(String::from));
            argv.push(format!("--{name}"));
            argv.extend(placeholder.as_deref().map(|p| value(p).to_string()));
            if let Err(err) = run(&argv) {
                assert!(
                    !err.contains("unknown option") && !err.contains("unknown flag"),
                    "{argv:?}: {err}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} options read from the usage");
}

#[test]
fn membership_names_the_nodes_that_went_bus_off() {
    // At a 90 % omission rate n0 and n1 exhaust their error counters:
    // that is why the membership expels them, and the report says so
    // without any extra flag.
    let argv = [
        "membership",
        "--nodes",
        "3",
        "--error-rate",
        "0.9",
        "--until",
        "600ms",
    ];
    let out = run(&argv.map(String::from)).unwrap();
    let bus_off: Vec<&str> = out
        .split("node ")
        .filter(|section| section.contains("  controller bus-off\n"))
        .map(|section| &section[..2])
        .collect();
    assert_eq!(bus_off, ["n0", "n1"], "{out}");
}
