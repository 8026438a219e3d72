//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, Frame, FrameKind, Mid, NodeId};

/// A transparent application that records every driver event with its
/// timestamp and can send scheduled frames. Used to observe raw CAN
/// layer behaviour (the LCAN properties) without any protocol on top.
#[derive(Default)]
pub struct Recorder {
    /// Events observed, in order.
    pub events: Vec<(BitTime, DriverEvent)>,
    /// Frames to transmit at `on_start`.
    pub send_at_start: Vec<Frame>,
    /// Frames to transmit at given absolute instants.
    pub send_at: Vec<(BitTime, Frame)>,
}

impl Recorder {
    /// A recorder transmitting nothing.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder that sends `frame` at power-on.
    pub fn sending(frame: Frame) -> Self {
        Recorder {
            send_at_start: vec![frame],
            ..Recorder::default()
        }
    }

    /// Indications (data or remote) for a given mid.
    pub fn indications_of(&self, mid: Mid) -> Vec<BitTime> {
        self.events
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    DriverEvent::DataInd { mid: m, .. } | DriverEvent::RtrInd { mid: m }
                    if *m == mid
                )
            })
            .map(|&(t, _)| t)
            .collect()
    }
}

impl Application for Recorder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for frame in &self.send_at_start {
            request(ctx, frame);
        }
        for (i, (at, _)) in self.send_at.iter().enumerate() {
            let delay = at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, i as u64);
        }
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        self.events.push((ctx.now(), event.clone()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if let Some((_, frame)) = self.send_at.get(tag as usize) {
            let frame = *frame;
            request(ctx, &frame);
        }
    }
}

fn request(ctx: &mut Ctx<'_>, frame: &Frame) {
    let mid = Mid::from_can_id(frame.id()).expect("recorder frames carry mids");
    match frame.kind() {
        FrameKind::Data => ctx.can_data_req(mid, *frame.payload()),
        FrameKind::Remote => ctx.can_rtr_req(mid),
    }
}

/// Shorthand node id constructor.
pub fn n(id: u8) -> NodeId {
    NodeId::new(id)
}

/// Asserts that the membership *view sequences* (not just the final
/// views) observed by the given CANELy nodes are mutually consistent:
/// one node's history must be a prefix of — or equal to — every
/// other's once aligned at the first common view. Nodes that joined
/// later naturally observe a suffix.
///
/// # Panics
///
/// Panics with a diagnostic if two histories conflict.
pub fn assert_view_sequences_consistent(sim: &can_controller::Simulator, nodes: &[u8]) {
    use can_types::NodeSet;
    let histories: Vec<(u8, Vec<NodeSet>)> = nodes
        .iter()
        .map(|&id| {
            let views: Vec<NodeSet> = sim
                .app::<canely::CanelyStack>(n(id))
                .membership_history()
                .iter()
                .map(|e| e.view)
                .collect();
            (id, views)
        })
        .collect();
    for (a_id, a) in &histories {
        for (b_id, b) in &histories {
            if a_id >= b_id || a.is_empty() || b.is_empty() {
                continue;
            }
            // Align at b's first view inside a (b may have joined later).
            let Some(start) = a.iter().position(|v| v == &b[0]) else {
                panic!(
                    "node {b_id}'s first view {:?} never observed by node {a_id} ({:?})",
                    b[0], a
                );
            };
            let a_tail = &a[start..];
            let common = a_tail.len().min(b.len());
            assert_eq!(
                &a_tail[..common],
                &b[..common],
                "view sequences of nodes {a_id} and {b_id} diverge"
            );
        }
    }
}
