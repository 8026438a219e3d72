//! No document makes the JSONL reader panic or stall: arbitrary bytes,
//! truncated exports, non-UTF-8, absurd nesting and records with
//! duplicated or missing schema keys all come back from
//! [`TraceModel::parse`] as a model or as a `line N: …` message — and
//! a model built from a hostile document still profiles, crashes and
//! their failure signs included.

use canely_trace::{PhaseProfile, TraceModel};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// `Ok`, or an error that says where and what.
fn parses_or_explains(text: &str) -> Result<(), TestCaseError> {
    match TraceModel::parse(text) {
        Ok(model) => {
            let _ = PhaseProfile::of(&model);
        }
        Err(error) => {
            prop_assert!(error.line >= 1 && error.line <= text.lines().count());
            prop_assert!(error
                .to_string()
                .starts_with(&format!("line {}: ", error.line)));
        }
    }
    Ok(())
}

/// Schema fields in every shape a damaged exporter could write them:
/// right, mistyped, out of range, dangling.
const FIELDS: &[&str] = &[
    "\"t\":1200",
    "\"t\":\"soon\"",
    "\"t\":18446744073709551616",
    "\"kind\":\"bus.tx\"",
    "\"kind\":\"fd.suspect\"",
    "\"kind\":\"view.installed\"",
    "\"kind\":\"node.crashed\"",
    "\"kind\":7",
    "\"seq\":3",
    "\"seq\":-3",
    "\"node\":2",
    "\"node\":300",
    "\"seg\":1",
    "\"seg\":70000",
    "\"cause\":\"bus:1300\"",
    "\"cause\":\"event:3\"",
    "\"cause\":\"event:99999\"",
    "\"cause\":\"because\"",
    "\"bus_free\":1300",
    "\"deliver\":1290",
    "\"deliver\":1",
    "\"queued\":5000",
    "\"delivered\":true",
    "\"delivered\":\"yes\"",
    "\"errored\":true",
    "\"transmitters\":\"{0,2,x,999}\"",
    "\"mid\":\"FDA[0,n2]\"",
    "\"suspect\":2",
    "\"view\":\"{0,1\"",
];

/// Whole records of a crash and its failure sign, for the profile to
/// decompose: node 2 crashes at 1000 and its sign, queued at 1000,
/// starts at 1200 — or claims to be queued at 5000, after it started;
/// and two transmissions that overlap inside the sign's wait, so the
/// bus was busy for longer than the wait lasted.
const RECORDS: &[&str] = &[
    CRASH,
    SIGN,
    LATE_SIGN,
    OVERLAPPING_SPANS,
    "{\"t\":6155,\"seq\":1,\"node\":0,\"kind\":\"fda.delivered\",\"failed\":2}",
];
const CRASH: &str = "{\"t\":1000,\"seq\":0,\"node\":2,\"kind\":\"node.crashed\"}";
const SIGN: &str = "{\"t\":1200,\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n2]\",\"transmitters\":\"{0}\",\"bus_free\":1260,\"deliver\":1255,\"queued\":1000,\"delivered\":true}";
const LATE_SIGN: &str = "{\"t\":1200,\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n2]\",\"transmitters\":\"{0}\",\"bus_free\":1260,\"deliver\":1255,\"queued\":5000,\"delivered\":true}";
const OVERLAPPING_SPANS: &str = "\
{\"t\":1000,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n1]\",\"transmitters\":\"{1}\",\"bus_free\":1150,\"delivered\":true}
{\"t\":1050,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n3]\",\"transmitters\":\"{3}\",\"bus_free\":1190,\"delivered\":true}";

/// A record of schema fields, or one of the whole [`RECORDS`].
fn arb_record() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0..FIELDS.len(), 0..10),
        0..2 * RECORDS.len(),
    )
        .prop_map(|(picks, whole)| match RECORDS.get(whole) {
            Some(record) => record.to_string(),
            None => {
                let fields: Vec<&str> = picks.into_iter().map(|i| FIELDS[i]).collect();
                format!("{{{}}}", fields.join(","))
            }
        })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parses_or_explains(&String::from_utf8_lossy(&bytes))?;
    }

    /// Records assembled from schema fields with keys missing,
    /// repeated and mistyped — whole, and cut anywhere.
    #[test]
    fn damaged_records_never_panic(
        records in prop::collection::vec(arb_record(), 1..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let doc = records.join("\n");
        parses_or_explains(&doc)?;
        let cut = cut.index(doc.len() + 1);
        parses_or_explains(&String::from_utf8_lossy(&doc.as_bytes()[..cut]))?;
    }
}

/// Nesting is outside the flat schema, so depth is refused at the first
/// inner bracket instead of being recursed into: 200 000 levels cost no
/// more than reading the line.
#[test]
fn deep_nesting_is_refused_at_once() {
    for open in ["{\"a\":", "["] {
        let doc = format!("{{\"t\":1,\"v\":{}", open.repeat(200_000));
        let t0 = Instant::now();
        let error = TraceModel::parse(&doc).expect_err("nesting is outside the schema");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(error.line, 1);
    }
}

/// A segment or node id that does not fit the model's `u8` is refused
/// on its line — it used to be truncated (`seg 256` read as segment 0,
/// `node 300` as node 44) and the queries answered for the wrong node.
#[test]
fn out_of_range_ids_are_refused_not_truncated() {
    for (record, message) in [
        (
            "{\"t\":1,\"seg\":256,\"seq\":0,\"node\":3,\"kind\":\"fd.suspect\",\"suspect\":2}",
            "line 2: seg 256 is out of range (at byte 16)",
        ),
        (
            "{\"t\":1,\"seg\":1,\"seq\":0,\"node\":300,\"kind\":\"fd.suspect\",\"suspect\":2}",
            "line 2: node 300 is out of range (at byte 33)",
        ),
    ] {
        let doc =
            format!("{{\"t\":0,\"seg\":255,\"node\":255,\"kind\":\"node.crashed\"}}\n{record}\n");
        let error = TraceModel::parse(&doc).expect_err(record);
        assert_eq!(error.to_string(), message);
    }
}

/// The two transmissions no export writes, which gave a profiled
/// failure sign a negative wait or a bus busier than the wait, are
/// refused on their line.
#[test]
fn a_sign_queued_late_or_waiting_on_overlaps_is_refused() {
    for (doc, message) in [
        (
            format!("{CRASH}\n{LATE_SIGN}\n"),
            "line 2: queued 5000 is after the transmission start 1200 (at byte 109)",
        ),
        (
            format!("{CRASH}\n{OVERLAPPING_SPANS}\n{SIGN}\n"),
            "line 3: transmission at 1050 overlaps the one before, busy until 1150 (at byte 9)",
        ),
    ] {
        let error = TraceModel::parse(&doc).expect_err(&doc);
        assert_eq!(error.to_string(), message);
    }
}
