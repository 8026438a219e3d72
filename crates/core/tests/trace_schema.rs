//! `docs/TRACE_SCHEMA.md`'s record tables, pinned from the outside:
//! every protocol event kind has exactly one row, naming the fields
//! its JSONL line carries in the order it carries them, and the
//! `bus.tx` table names the fields of an exported bus line.

use can_bus::{BusTrace, TxRecord};
use can_types::{BitTime, Frame, Mid, MsgType, NodeId, NodeSet};
use canely::obs::{ObsLog, TimedEvent};
use canely::ProtocolEvent;

/// The fields every line may carry (the *Common fields* table, plus
/// the federation's `seg` tag): no kind row repeats them.
const COMMON: [&str; 6] = ["t", "seg", "seq", "node", "kind", "cause"];

fn doc() -> String {
    let path = format!("{}/../../docs/TRACE_SCHEMA.md", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("`{path}`: {e}"))
}

/// The text from `heading` to the next level-2 heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let body = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("docs/TRACE_SCHEMA.md lost its `{heading}` section"))
        .1;
    body.split("\n## ").next().unwrap()
}

/// The cells of every table row whose first cell is a `code` name.
fn rows(section: &str) -> impl Iterator<Item = Vec<&str>> {
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| row.split(" | ").collect())
}

/// The `code` spans of one cell, in order.
fn code_spans(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The keys of one flat JSON object, in order, without the common ones.
fn fields(line: &str) -> Vec<String> {
    let chars: Vec<char> = line.chars().collect();
    let (mut keys, mut i) = (Vec::new(), 0);
    while i < chars.len() {
        if chars[i] == '"' {
            let start = i + 1;
            i += 1;
            while chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            // A string followed by `:` is a key; a value string is not.
            if chars.get(i + 1) == Some(&':') {
                keys.push(chars[start..i].iter().collect::<String>());
            }
        }
        i += 1;
    }
    keys.retain(|key| !COMMON.contains(&key.as_str()));
    keys
}

#[test]
fn every_kind_has_one_row_naming_the_fields_it_renders() {
    let doc = doc();
    let documented: Vec<(String, Vec<String>)> = rows(section(&doc, "## Protocol event kinds"))
        .map(|cells| {
            (
                cells[0].trim_end_matches('`').to_string(),
                code_spans(cells[1]),
            )
        })
        .collect();
    let kinds = ProtocolEvent::one_of_each();
    for event in &kinds {
        let line = TimedEvent::new(BitTime::new(1), NodeId::new(0), *event).to_json();
        let rows: Vec<_> = documented
            .iter()
            .filter(|(kind, _)| kind == event.kind())
            .collect();
        assert_eq!(rows.len(), 1, "`{}` has {} rows", event.kind(), rows.len());
        assert_eq!(
            rows[0].1,
            fields(&line),
            "`{}` renders {line}",
            event.kind()
        );
    }
    let unknown: Vec<_> = documented
        .iter()
        .filter(|(kind, _)| kinds.iter().all(|event| event.kind() != kind))
        .collect();
    assert!(unknown.is_empty(), "rows for no event kind: {unknown:?}");
}

#[test]
fn the_bus_table_lists_the_fields_of_a_bus_line() {
    let mut trace = BusTrace::new();
    trace.push(TxRecord {
        start: BitTime::new(10),
        bus_free: BitTime::new(70),
        deliver_at: BitTime::new(67),
        queued_at: BitTime::new(4),
        arb_losses: 1,
        frame: Frame::remote(Mid::new(MsgType::Els, 0, NodeId::new(1))),
        transmitters: NodeSet::singleton(NodeId::new(1)),
        errored: false,
    });
    let jsonl = ObsLog::new().export_jsonl(Some(&trace));
    assert!(jsonl.contains("\"kind\":\"bus.tx\""), "{jsonl}");
    let doc = doc();
    let documented: Vec<String> = rows(section(&doc, "### Bus record fields"))
        .map(|cells| cells[0].trim_end_matches('`').to_string())
        .collect();
    assert_eq!(documented, fields(jsonl.trim_end()), "{jsonl}");
}
