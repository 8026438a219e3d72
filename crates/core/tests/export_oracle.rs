//! The JSONL exporter against the exporters it replaced, kept verbatim
//! here as oracles: the single-bus one that built a `String` per record
//! and sorted `(t, class, seq, String)` tuples, the federation one that
//! exported each segment to text, re-read `t` from every line, spliced
//! a `seg` tag in and sorted the tagged copies, and the `write!`-based
//! spelling of a protocol event's line. The byte renderer that merges
//! time-ordered stretches of records and writes each once must produce
//! their bytes — also for inputs a simulator never makes: equal
//! instants across classes and segments, events recorded out of time
//! order, frames whose identifier decodes to no mid, any field value.

use can_bus::{BusTrace, TxRecord};
use can_types::{BitTime, CanId, Frame, Mid, MsgType, NodeId, NodeSet, Payload};
use canely::obs::{export_segments_string, Cause, ObsLog, ObsTimer, TimedEvent};
use canely::ProtocolEvent;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The single-bus exporter as it stood before PR 24.
fn oracle_export_jsonl(events: &[TimedEvent], bus: Option<&BusTrace>) -> String {
    // (time, class, sequence) — class 0 = bus, 1 = protocol.
    let mut lines: Vec<(u64, u8, usize, String)> =
        Vec::with_capacity(events.len() + bus.map_or(0, BusTrace::len));
    if let Some(trace) = bus {
        for (seq, rec) in trace.iter().enumerate() {
            let mut line = String::with_capacity(160);
            let mid = rec.mid().map_or_else(|| "-".to_string(), |m| m.to_string());
            let _ = write!(
                line,
                "{{\"t\":{},\"kind\":\"bus.tx\",\"mid\":\"{}\",\"frame\":\"{}\",\
                 \"transmitters\":\"{}\",\"bus_free\":{},\"deliver\":{},\"queued\":{},\
                 \"arb_losses\":{},\"delivered\":{},\"errored\":{}}}",
                rec.start.as_u64(),
                json_escape(&mid),
                if rec.frame.is_remote() { "rtr" } else { "data" },
                rec.transmitters,
                rec.bus_free.as_u64(),
                rec.deliver_at.as_u64(),
                rec.queued_at.as_u64(),
                rec.arb_losses,
                !rec.errored,
                rec.errored,
            );
            lines.push((rec.start.as_u64(), 0, seq, line));
        }
    }
    for (seq, event) in events.iter().enumerate() {
        lines.push((
            event.time.as_u64(),
            1,
            seq,
            event.to_json_seq(Some(seq as u64)),
        ));
    }
    lines.sort_by_key(|&(t, class, seq, _)| (t, class, seq));
    let mut out = String::new();
    for (_, _, _, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The federation exporter as it stood before PR 24, over the
/// per-segment oracle exports.
fn oracle_export_segments(segments: &[(Vec<TimedEvent>, BusTrace)]) -> String {
    if segments.len() == 1 {
        return oracle_export_jsonl(&segments[0].0, Some(&segments[0].1));
    }
    // (t, seg, per-segment line index) is a total order because
    // each per-segment export is already (t, class, seq)-sorted.
    let mut tagged: Vec<(u64, u8, usize, String)> = Vec::new();
    for (seg, (events, bus)) in segments.iter().enumerate() {
        let seg = seg as u8;
        let export = oracle_export_jsonl(events, Some(bus));
        for (idx, line) in export.lines().enumerate() {
            let t: u64 = line
                .strip_prefix("{\"t\":")
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse()
                        .ok()
                })
                .expect("exporter lines start with {\"t\":<num>");
            let tagged_line = {
                let (head, tail) = line.split_at(line.find(',').expect("multi-field line"));
                format!("{head},\"seg\":{seg}{tail}")
            };
            tagged.push((t, seg, idx, tagged_line));
        }
    }
    tagged.sort_by_key(|&(t, seg, idx, _)| (t, seg, idx));
    let mut out = String::new();
    for (_, _, _, line) in tagged {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// A protocol event's line as `write!` spelled it before the exporter
/// rendered bytes.
fn oracle_event_json(e: &TimedEvent, seq: u64) -> String {
    let mut out = format!(
        "{{\"t\":{},\"seq\":{seq},\"node\":{},\"kind\":\"{}\"",
        e.time.as_u64(),
        e.node.as_u8(),
        e.event.kind()
    );
    let _ = match e.event {
        ProtocolEvent::TimerArmed { timer, deadline } => write!(
            out,
            ",\"timer\":\"{timer}\",\"deadline\":{}",
            deadline.as_u64()
        ),
        ProtocolEvent::TimerExpired { timer } => write!(out, ",\"timer\":\"{timer}\""),
        ProtocolEvent::LifeSignObserved { of } => write!(out, ",\"of\":{}", of.as_u8()),
        ProtocolEvent::SuspectRaised { suspect } => {
            write!(out, ",\"suspect\":{}", suspect.as_u8())
        }
        ProtocolEvent::FailureNotified { failed }
        | ProtocolEvent::FdaInvoked { failed }
        | ProtocolEvent::FdaDelivered { failed } => write!(out, ",\"failed\":{}", failed.as_u8()),
        ProtocolEvent::FdaSignSent { failed, diffusion } => write!(
            out,
            ",\"failed\":{},\"diffusion\":{diffusion}",
            failed.as_u8()
        ),
        ProtocolEvent::FdaSignReceived { failed, duplicate } => write!(
            out,
            ",\"failed\":{},\"duplicate\":{duplicate}",
            failed.as_u8()
        ),
        ProtocolEvent::RhaStarted {
            proposal,
            full_member,
        } => write!(
            out,
            ",\"proposal\":\"{proposal}\",\"full_member\":{full_member}"
        ),
        ProtocolEvent::RhvSent { vector }
        | ProtocolEvent::RhaNarrowed { vector }
        | ProtocolEvent::RhaQuenched { vector } => write!(out, ",\"vector\":\"{vector}\""),
        ProtocolEvent::RhvReceived { from, vector } => {
            write!(out, ",\"from\":{},\"vector\":\"{vector}\"", from.as_u8())
        }
        ProtocolEvent::RhaSettled { vector, broadcasts } => {
            write!(out, ",\"vector\":\"{vector}\",\"broadcasts\":{broadcasts}")
        }
        ProtocolEvent::JoinObserved { subject } | ProtocolEvent::LeaveObserved { subject } => {
            write!(out, ",\"subject\":{}", subject.as_u8())
        }
        ProtocolEvent::CycleStarted { index, idle } => {
            write!(out, ",\"index\":{index},\"idle\":{idle}")
        }
        ProtocolEvent::ViewBootstrapped { view } | ProtocolEvent::ViewInstalled { view } => {
            write!(out, ",\"view\":\"{view}\"")
        }
        ProtocolEvent::ViewChanged { view, failed } => {
            write!(out, ",\"view\":\"{view}\",\"failed\":\"{failed}\"")
        }
        ProtocolEvent::FedDigest {
            reporter,
            subject,
            epoch,
            view,
        } => write!(
            out,
            ",\"reporter\":{reporter},\"subject\":{subject},\"epoch\":{epoch},\"view\":\"{view}\""
        ),
        ProtocolEvent::FedInstall {
            subject,
            epoch,
            view,
        } => write!(
            out,
            ",\"subject\":{subject},\"epoch\":{epoch},\"view\":\"{view}\""
        ),
        ProtocolEvent::FedRelay { mid, from_seg } => {
            write!(out, ",\"mid\":\"{mid}\",\"from_seg\":{from_seg}")
        }
        ProtocolEvent::FedElect { leader, epoch } => {
            write!(out, ",\"leader\":{},\"epoch\":{epoch}", leader.as_u8())
        }
        ProtocolEvent::FedRejoin { subject, epoch } => {
            write!(out, ",\"subject\":{subject},\"epoch\":{epoch}")
        }
        ProtocolEvent::LifeSignSent
        | ProtocolEvent::JoinRequested
        | ProtocolEvent::LeaveRequested
        | ProtocolEvent::Expelled
        | ProtocolEvent::LeftService
        | ProtocolEvent::NodeCrashed
        | ProtocolEvent::NodeRestarted => Ok(()),
    };
    let _ = match e.cause {
        Cause::Boot => Ok(()),
        Cause::Bus { deliver_at } => write!(out, ",\"cause\":\"bus:{}\"", deliver_at.as_u64()),
        Cause::Event { seq } => write!(out, ",\"cause\":\"event:{seq}\""),
    };
    out.push('}');
    out
}

/// Every event kind with every field drawn over its whole range: node
/// ids, sets, counters, flags, timers and mids.
fn arb_event() -> impl Strategy<Value = ProtocolEvent> {
    let kinds = ProtocolEvent::one_of_each().len();
    (
        0..kinds,
        (0u8..64, any::<u8>(), any::<u32>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<bool>(), 0u8..3),
        (0usize..21, any::<u16>()),
    )
        .prop_map(
            move |(kind, (node, byte, word, long), (set, other, flag, timer), (ty, reference))| {
                let (node, view, failed) = (
                    NodeId::new(node),
                    NodeSet::from_bits(set),
                    NodeSet::from_bits(other),
                );
                let timer = match timer {
                    0 => ObsTimer::Surveillance(node),
                    1 => ObsTimer::RhaTermination,
                    _ => ObsTimer::MembershipCycle,
                };
                let types = [
                    MsgType::Fda,
                    MsgType::Rha,
                    MsgType::Els,
                    MsgType::Join,
                    MsgType::Leave,
                    MsgType::ClockSync,
                    MsgType::ClockFollowUp,
                    MsgType::Edcan,
                    MsgType::Relcan,
                    MsgType::RelcanConfirm,
                    MsgType::Totcan,
                    MsgType::TotcanAccept,
                    MsgType::NodeGuard,
                    MsgType::Heartbeat,
                    MsgType::OsekRing,
                    MsgType::OsekAlive,
                    MsgType::TtpSlot,
                    MsgType::Group,
                    MsgType::Ping,
                    MsgType::Digest,
                    MsgType::AppData,
                ];
                let mid = Mid::new(types[ty], reference, node);
                // Each variant of `one_of_each`, refilled from the draw.
                match ProtocolEvent::one_of_each()[kind] {
                    ProtocolEvent::TimerArmed { .. } => ProtocolEvent::TimerArmed {
                        timer,
                        deadline: BitTime::new(long),
                    },
                    ProtocolEvent::TimerExpired { .. } => ProtocolEvent::TimerExpired { timer },
                    ProtocolEvent::LifeSignObserved { .. } => {
                        ProtocolEvent::LifeSignObserved { of: node }
                    }
                    ProtocolEvent::SuspectRaised { .. } => {
                        ProtocolEvent::SuspectRaised { suspect: node }
                    }
                    ProtocolEvent::FailureNotified { .. } => {
                        ProtocolEvent::FailureNotified { failed: node }
                    }
                    ProtocolEvent::FdaInvoked { .. } => ProtocolEvent::FdaInvoked { failed: node },
                    ProtocolEvent::FdaDelivered { .. } => {
                        ProtocolEvent::FdaDelivered { failed: node }
                    }
                    ProtocolEvent::FdaSignSent { .. } => ProtocolEvent::FdaSignSent {
                        failed: node,
                        diffusion: flag,
                    },
                    ProtocolEvent::FdaSignReceived { .. } => ProtocolEvent::FdaSignReceived {
                        failed: node,
                        duplicate: flag,
                    },
                    ProtocolEvent::RhaStarted { .. } => ProtocolEvent::RhaStarted {
                        proposal: view,
                        full_member: flag,
                    },
                    ProtocolEvent::RhvSent { .. } => ProtocolEvent::RhvSent { vector: view },
                    ProtocolEvent::RhaNarrowed { .. } => {
                        ProtocolEvent::RhaNarrowed { vector: view }
                    }
                    ProtocolEvent::RhaQuenched { .. } => {
                        ProtocolEvent::RhaQuenched { vector: view }
                    }
                    ProtocolEvent::RhvReceived { .. } => ProtocolEvent::RhvReceived {
                        from: node,
                        vector: view,
                    },
                    ProtocolEvent::RhaSettled { .. } => ProtocolEvent::RhaSettled {
                        vector: view,
                        broadcasts: word,
                    },
                    ProtocolEvent::JoinObserved { .. } => {
                        ProtocolEvent::JoinObserved { subject: node }
                    }
                    ProtocolEvent::LeaveObserved { .. } => {
                        ProtocolEvent::LeaveObserved { subject: node }
                    }
                    ProtocolEvent::CycleStarted { .. } => ProtocolEvent::CycleStarted {
                        index: long,
                        idle: flag,
                    },
                    ProtocolEvent::ViewBootstrapped { .. } => {
                        ProtocolEvent::ViewBootstrapped { view }
                    }
                    ProtocolEvent::ViewInstalled { .. } => ProtocolEvent::ViewInstalled { view },
                    ProtocolEvent::ViewChanged { .. } => {
                        ProtocolEvent::ViewChanged { view, failed }
                    }
                    ProtocolEvent::FedDigest { .. } => ProtocolEvent::FedDigest {
                        reporter: byte,
                        subject: node.as_u8(),
                        epoch: word,
                        view,
                    },
                    ProtocolEvent::FedInstall { .. } => ProtocolEvent::FedInstall {
                        subject: byte,
                        epoch: word,
                        view,
                    },
                    ProtocolEvent::FedRelay { .. } => ProtocolEvent::FedRelay {
                        mid,
                        from_seg: byte,
                    },
                    ProtocolEvent::FedElect { .. } => ProtocolEvent::FedElect {
                        leader: node,
                        epoch: word,
                    },
                    ProtocolEvent::FedRejoin { .. } => ProtocolEvent::FedRejoin {
                        subject: byte,
                        epoch: word,
                    },
                    fieldless => fieldless,
                }
            },
        )
}

/// A soup of every event kind: instants drawn from a narrow range (so
/// that they collide, within a class and across classes) in no order,
/// every cause form.
fn arb_events() -> impl Strategy<Value = Vec<TimedEvent>> {
    let kinds = ProtocolEvent::one_of_each();
    let event = (0..kinds.len(), 0u64..40, 0u8..8, 0u8..3, 0u64..50).prop_map(
        move |(kind, t, node, cause, reference)| TimedEvent {
            time: BitTime::new(t * 25),
            node: NodeId::new(node),
            event: kinds[kind],
            cause: match cause {
                0 => Cause::Boot,
                1 => Cause::Bus {
                    deliver_at: BitTime::new(reference * 20),
                },
                _ => Cause::Event { seq: reference },
            },
        },
    );
    prop::collection::vec(event, 0..40)
}

/// A bus trace in time order (the medium only ever appends), its
/// starts on the events' grid: remote and data frames, with and
/// without a decodable mid, delivered and errored.
fn arb_bus() -> impl Strategy<Value = BusTrace> {
    let record = (0u64..3, 0u8..6, 0u8..8, any::<u64>(), 0u32..4);
    prop::collection::vec(record, 0..16).prop_map(|records| {
        let mut trace = BusTrace::new();
        let mut start = 0;
        for (gap, shape, node, transmitters, arb_losses) in records {
            start += gap * 25;
            let mid = Mid::new(
                [MsgType::Els, MsgType::Fda, MsgType::Rha][usize::from(shape % 3)],
                u16::from(node),
                NodeId::new(node),
            );
            let frame = match shape {
                0..=2 => Frame::remote(mid),
                3 | 4 => Frame::data(mid, Payload::from_slice(&[node]).unwrap()),
                // An identifier with no message-control field: `-`.
                _ => Frame::remote(CanId::new(0x1FFF_FFFF)),
            };
            trace.push(TxRecord {
                start: BitTime::new(start),
                bus_free: BitTime::new(start + 58),
                deliver_at: BitTime::new(start + 55),
                queued_at: BitTime::new(start.saturating_sub(7)),
                arb_losses,
                frame,
                transmitters: NodeSet::from_bits(transmitters),
                errored: shape % 2 == 1,
            });
        }
        trace
    })
}

/// A log holding `events` (sequence numbers in recording order).
fn log_of(events: &[TimedEvent]) -> ObsLog {
    let log = ObsLog::new();
    let sink = log.sink();
    for event in events {
        sink.set_cause(event.cause);
        sink.emit(event.time, event.node, event.event);
    }
    log
}

proptest! {
    #[test]
    fn single_bus_export_matches_the_oracle(events in arb_events(), bus in arb_bus()) {
        // A log stamps a `timer.expired` with the arming it recorded,
        // so the oracle reads the events back from the log.
        let log = log_of(&events);
        let events = log.events();
        prop_assert_eq!(log.export_jsonl(None), oracle_export_jsonl(&events, None));
        prop_assert_eq!(
            log.export_jsonl(Some(&bus)),
            oracle_export_jsonl(&events, Some(&bus))
        );
    }

    /// One to four segments: the merged document is the oracle's, tag
    /// for tag — and a lone segment carries none.
    #[test]
    fn segment_merge_matches_the_oracle(
        segments in prop::collection::vec((arb_events(), arb_bus()), 1..5),
    ) {
        let logs: Vec<ObsLog> = segments.iter().map(|(events, _)| log_of(events)).collect();
        let recorded: Vec<(Vec<TimedEvent>, BusTrace)> = logs
            .iter()
            .zip(&segments)
            .map(|(log, (_, bus))| (log.events(), bus.clone()))
            .collect();
        let pairs: Vec<(&ObsLog, Option<&BusTrace>)> = logs
            .iter()
            .zip(&segments)
            .map(|(log, (_, bus))| (log, Some(bus)))
            .collect();
        let merged = export_segments_string(&pairs);
        prop_assert_eq!(&merged, &oracle_export_segments(&recorded));
        prop_assert_eq!(merged.contains("\"seg\":"), segments.len() > 1 && !merged.is_empty());
    }

    /// The byte renderer spells every kind's line as `write!` did, for
    /// any field values and every cause form.
    #[test]
    fn event_lines_match_the_fmt_renderer(
        event in arb_event(),
        line in (any::<u64>(), 0u8..64, any::<u64>(), 0u8..3, any::<u64>()),
    ) {
        let (t, node, seq, cause, reference) = line;
        let event = TimedEvent {
            time: BitTime::new(t),
            node: NodeId::new(node),
            event,
            cause: match cause {
                0 => Cause::Boot,
                1 => Cause::Bus { deliver_at: BitTime::new(reference) },
                _ => Cause::Event { seq: reference },
            },
        };
        prop_assert_eq!(event.to_json_seq(Some(seq)), oracle_event_json(&event, seq));
    }
}
