//! Reads the registry snapshot `canelyctl` prints with
//! `--metrics-json` (campaigns, on stderr) or `metrics --live --json`
//! (stdout): one line `{"metrics":[{"name":…,"kind":…,…},…]}`.
//!
//! The labelled series are written as
//! `"name":"canely_sim_phase_nanos_total{phase="sched"}"` — the label
//! quotes are not escaped, so the line is not valid JSON and a JSON
//! parser stops inside the name. Entries are therefore cut apart on the
//! fixed `{"name":"` … `","kind":"` framing the exporter always emits.

use std::collections::BTreeMap;

const ENTRY: &str = "{\"name\":\"";
const NAME_END: &str = "\",\"kind\":\"";

/// Counter and gauge values by series name; a histogram `h`
/// contributes `h_count` and `h_sum`.
pub type Snapshot = BTreeMap<String, u64>;

/// The last snapshot line in `text`, if any.
pub fn last_line(text: &str) -> Option<&str> {
    text.lines().rev().find(|l| l.starts_with("{\"metrics\":["))
}

fn field(entry: &str, key: &str) -> Option<u64> {
    let at = entry.find(key)? + key.len();
    let digits = entry[at..].bytes().take_while(u8::is_ascii_digit).count();
    entry[at..at + digits].parse().ok()
}

/// Parses one snapshot line.
pub fn parse(line: &str) -> Result<Snapshot, String> {
    if !line.starts_with("{\"metrics\":[") {
        return Err("not a registry snapshot line".into());
    }
    let mut out = Snapshot::new();
    for entry in line.split(ENTRY).skip(1) {
        let name_end = entry
            .find(NAME_END)
            .ok_or_else(|| format!("snapshot entry without a kind: `{entry}`"))?;
        let name = &entry[..name_end];
        let rest = &entry[name_end + NAME_END.len()..];
        if rest.starts_with("histogram") {
            for (suffix, key) in [("_count", "\"count\":"), ("_sum", "\"sum\":")] {
                let v =
                    field(rest, key).ok_or_else(|| format!("histogram `{name}` without {key}"))?;
                out.insert(format!("{name}{suffix}"), v);
            }
        } else {
            let v = field(rest, "\"value\":")
                .ok_or_else(|| format!("series `{name}` without a value"))?;
            out.insert(name.to_string(), v);
        }
    }
    if out.is_empty() {
        return Err("snapshot has no series".into());
    }
    Ok(out)
}

/// Looks a phase total up by family and phase label.
pub fn phase(snapshot: &Snapshot, family: &str, phase: &str) -> u64 {
    snapshot
        .get(&format!("{family}{{phase=\"{phase}\"}}"))
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = concat!(
        r#"{"metrics":[{"name":"canely_campaign_runs_total","kind":"counter","stability":"stable","value":1024},"#,
        r#"{"name":"canely_detection_latency_bittimes","kind":"histogram","stability":"stable","bounds":[1000,2000],"buckets":[0,5,1275],"count":1280,"sum":8862023},"#,
        r#"{"name":"canely_fed_bridge_health","kind":"gauge","stability":"volatile","value":8},"#,
        r#"{"name":"canely_run_phase_nanos_total{phase="obs-emit"}","kind":"counter","stability":"volatile","value":6937705},"#,
        r#"{"name":"canely_sim_phase_nanos_total{phase="bus-arbitration"}","kind":"counter","stability":"volatile","value":540846726}]}"#
    );

    #[test]
    fn parses_plain_labelled_and_histogram_series() {
        let snap = parse(LINE).unwrap();
        assert_eq!(snap["canely_campaign_runs_total"], 1024);
        assert_eq!(snap["canely_fed_bridge_health"], 8);
        assert_eq!(snap["canely_detection_latency_bittimes_count"], 1280);
        assert_eq!(snap["canely_detection_latency_bittimes_sum"], 8_862_023);
        assert_eq!(
            phase(&snap, "canely_run_phase_nanos_total", "obs-emit"),
            6_937_705
        );
        assert_eq!(
            phase(&snap, "canely_sim_phase_nanos_total", "bus-arbitration"),
            540_846_726
        );
        assert_eq!(phase(&snap, "canely_sim_phase_nanos_total", "absent"), 0);
        assert_eq!(snap.len(), 6);
    }

    #[test]
    fn finds_the_final_snapshot_among_progress_lines() {
        let stderr =
            format!("progress: 10/20 runs\n{{\"metrics\":[]}}\nprogress: 20/20 [done]\n{LINE}\n");
        assert_eq!(last_line(&stderr), Some(LINE));
        assert_eq!(last_line("progress only\n"), None);
    }

    #[test]
    fn rejects_lines_that_are_not_snapshots() {
        assert!(parse("progress: 1/2").is_err());
        assert!(parse("{\"metrics\":[]}").is_err());
        assert!(parse("{\"metrics\":[{\"name\":\"x\"}]}").is_err());
    }
}
