//! Robustness: the argument parser and the one line grammar behind
//! `.campaign` specs, `.canely` scenarios and the duration/event
//! options never panic on arbitrary input, and every file diagnostic
//! names a line.

use can_types::BitTime;
use canely_campaign::{grammar, spec, CampaignSpec, RunSpec, Scenario};
use canely_cli::args::{parse_duration, parse_event, Args};
use proptest::prelude::*;

/// The keywords of each dialect (the two `pub const` tables).
fn dialects() -> [Vec<&'static str>; 2] {
    [
        spec::KEYWORDS.iter().map(|k| k.name).collect(),
        canely_campaign::scenario::KEYWORDS
            .iter()
            .map(|k| k.name)
            .collect(),
    ]
}

/// Numerals around every range check the grammar makes, up to
/// `u64::MAX` and past it, plus the non-numeric argument words.
fn words() -> Vec<&'static str> {
    vec![
        "0",
        "1",
        "2",
        "3",
        "15",
        "16",
        "31",
        "32",
        "33",
        "63",
        "64",
        "65",
        "255",
        "256",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "-1",
        "0.5",
        "1.5",
        "NaN",
        "inf",
        "0us",
        "0ms",
        "1us",
        "30ms",
        "150ms",
        "300ms",
        "3600000ms",
        "3600001ms",
        "18446744073709551ms",
        "18446744073709552ms",
        "18446744073709551615us",
        "0..1",
        "0..18446744073709551615",
        "5..5",
        "7..",
        "none",
        "all",
        "below",
        "line",
        "ring",
        "star",
        "full",
        "swim",
        "add-phi",
        "{0,1}",
        "{64}",
        "{",
        "#",
        "é",
    ]
}

/// Both file readers plus the judged path must survive `text`; every
/// `Err` is anchored to a line of `f` — except the `.campaign`
/// geometry check, which judges the matrix as a whole. What they
/// accept carries no zero traffic period, which the traffic generator
/// refuses with a panic.
fn assert_readers_survive(text: &str) -> Result<(), TestCaseError> {
    let anchored = |e: &str| {
        let rest = e.strip_prefix("f:").unwrap_or("");
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        digits > 0 && rest[digits..].starts_with(": ")
    };
    let zero = Some(BitTime::ZERO);
    match CampaignSpec::parse_named("f", text) {
        Ok(spec) => prop_assert!(spec.traffic != zero, "{}", text),
        Err(e) => prop_assert!(
            anchored(&e) || e.starts_with("f: invalid campaign: "),
            "{}",
            e
        ),
    }
    match Scenario::read(&grammar::Doc::named("f", text)) {
        Ok((scenario, _)) => prop_assert!(scenario.traffic.iter().all(|t| !t.1.is_zero())),
        Err(e) => prop_assert!(anchored(&e), "{}", e),
    }
    match RunSpec::from_scenario_named("f", text) {
        Ok(run) => prop_assert!(run.traffic != zero, "{}", text),
        Err(e) => prop_assert!(anchored(&e), "{}", e),
    }
    Ok(())
}

proptest! {
    #[test]
    fn parser_never_panics(argv in prop::collection::vec(".{0,24}", 0..8)) {
        let _ = Args::parse(&argv);
    }

    #[test]
    fn duration_grammar_never_panics(text in ".{0,16}") {
        if let Ok(t) = parse_duration(&text) {
            prop_assert!(t <= grammar::MAX_HORIZON);
        }
    }

    #[test]
    fn event_grammar_never_panics(text in ".{0,16}") {
        let _ = parse_event(&text);
    }

    #[test]
    fn valid_durations_round_trip(ms in 0u64..=3_600_000) {
        let parsed = parse_duration(&format!("{ms}ms")).expect("valid");
        prop_assert_eq!(parsed.as_u64(), ms * 1_000);
        prop_assert_eq!(parse_duration(&grammar::fmt_duration(parsed)), Ok(parsed));
    }

    #[test]
    fn valid_events_round_trip(node in 0u8..64, us in 0u64..10_000_000) {
        let parsed = parse_event(&format!("{node}@{us}us")).expect("valid");
        prop_assert_eq!(parsed, (node, BitTime::new(us)));
    }

    #[test]
    fn readers_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        assert_readers_survive(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn readers_never_panic_on_keyword_lines(
        lines in prop::collection::vec(
            (0usize..64, prop::collection::vec(prop::sample::select(words()), 0..5)),
            0..12,
        ),
    ) {
        // The same lines in each dialect's vocabulary, so a document
        // gets past the keyword lookup and into the range checks.
        for keywords in dialects() {
            let keyword = |i: usize| keywords[i % keywords.len()];
            let text: String = lines
                .iter()
                .map(|(i, args)| format!("{} {}\n", keyword(*i), args.join(" ")))
                .collect();
            assert_readers_survive(&text)?;
            // And as option values.
            let mut argv = vec!["membership".to_string()];
            for (i, args) in &lines {
                argv.push(format!("--{}", keyword(*i)));
                argv.extend(args.iter().map(|w| w.to_string()));
            }
            let _ = Args::parse(&argv);
        }
    }
}
