//! The composed node: CANELy site membership plus process groups.

use crate::group::{GroupId, GroupManager};
use can_controller::{Application, Ctx, DriverEvent, TimerId};
use can_types::{BitTime, MsgType, NodeSet};
use canely::{CanelyConfig, CanelyStack, TrafficConfig, UpperEvent};

/// Tag space for scripted group operations, drawn from the registry's
/// reserved wrapper range so it can never collide with a `TimerOwner`
/// encoding. (It used to hardcode `6 << 56`, which PR 5 silently
/// claimed for the detector period tick: a group script slot 0 alarm
/// carried the *same* tag as the SWIM backend's period timer.)
const TAG_GROUP_SCRIPT: u64 = canely::tags::TAG_EXTERNAL_SCRIPT;

/// A scripted group operation.
#[derive(Debug, Clone, Copy)]
struct ScriptedOp {
    at: BitTime,
    group: GroupId,
    join: bool,
}

/// A node running the full CANELy stack with a process-group layer on
/// top.
///
/// Driver events and timers are routed to both layers; site-membership
/// failure notifications recorded by the CANELy stack are consumed and
/// turned into group purges, which is what makes group views
/// consistent without an extra agreement protocol.
#[derive(Debug)]
pub struct GroupStack {
    site: CanelyStack,
    groups: GroupManager,
    script: Vec<ScriptedOp>,
    /// Cursor over the site stack's upper-event log.
    site_events_seen: usize,
}

impl GroupStack {
    /// Creates a stack joining the site membership at power-on.
    pub fn new(config: CanelyConfig) -> Self {
        GroupStack {
            site: CanelyStack::new(config),
            groups: GroupManager::new(),
            script: Vec::new(),
            site_events_seen: 0,
        }
    }

    /// Adds cyclic application traffic (implicit heartbeats).
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.site = self.site.with_traffic(traffic);
        self
    }

    /// Schedules a group join at an absolute instant.
    pub fn with_group_join_at(mut self, group: GroupId, at: BitTime) -> Self {
        self.script.push(ScriptedOp {
            at,
            group,
            join: true,
        });
        self
    }

    /// Schedules a group leave at an absolute instant.
    pub fn with_group_leave_at(mut self, group: GroupId, at: BitTime) -> Self {
        self.script.push(ScriptedOp {
            at,
            group,
            join: false,
        });
        self
    }

    /// The underlying site membership stack.
    pub fn site(&self) -> &CanelyStack {
        &self.site
    }

    /// The site membership view.
    pub fn site_view(&self) -> NodeSet {
        self.site.view()
    }

    /// The process-group layer.
    pub fn groups(&self) -> &GroupManager {
        &self.groups
    }

    /// Shorthand: the view of one group.
    pub fn group_view(&self, group: GroupId) -> NodeSet {
        self.groups.view(group)
    }

    /// Feeds new site-membership notifications into the group layer.
    fn sync_site_events(&mut self, now: BitTime) {
        let events = self.site.events();
        for &(time, event) in &events[self.site_events_seen..] {
            let _ = time;
            match event {
                UpperEvent::FailureNotified(failed) => {
                    self.groups.on_node_failed(now, failed);
                }
                UpperEvent::MembershipChange { view, failed } => {
                    for node in failed.iter() {
                        self.groups.on_node_failed(now, node);
                    }
                    // Nodes withdrawn by join/leave settlement: purge
                    // any that left the site service.
                    let _ = view;
                }
                UpperEvent::LeftService | UpperEvent::Expelled => {}
            }
        }
        self.site_events_seen = events.len();
    }
}

impl Application for GroupStack {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.site.on_start(ctx);
        for (i, op) in self.script.iter().enumerate() {
            let delay = op.at.saturating_sub(ctx.now());
            ctx.start_alarm(delay, TAG_GROUP_SCRIPT + i as u64);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        self.site.on_event(ctx, event);
        self.sync_site_events(ctx.now());
        if let DriverEvent::DataInd { mid, payload } = event {
            if mid.msg_type() == MsgType::Group {
                self.groups.on_data_ind(ctx, *mid, payload);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        if (TAG_GROUP_SCRIPT..TAG_GROUP_SCRIPT + self.script.len() as u64).contains(&tag) {
            let op = self.script[(tag - TAG_GROUP_SCRIPT) as usize];
            if op.join {
                self.groups.join(ctx, op.group);
            } else {
                self.groups.leave(ctx, op.group);
            }
            return;
        }
        self.site.on_timer(ctx, id, tag);
        self.sync_site_events(ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupEvent;
    use can_bus::{AccepterSpec, BusConfig, FaultEffect, FaultMatcher, FaultPlan, ScriptedFault};
    use can_controller::Simulator;
    use can_types::NodeId;

    fn n(id: u8) -> NodeId {
        NodeId::new(id)
    }

    fn g(id: u8) -> GroupId {
        GroupId::new(id)
    }

    #[test]
    fn group_views_form_and_agree() {
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4u8 {
            let mut stack = GroupStack::new(config.clone());
            if id < 3 {
                stack = stack.with_group_join_at(g(1), BitTime::new(200_000));
            }
            sim.add_node(n(id), stack);
        }
        sim.run_until(BitTime::new(400_000));
        let expected = NodeSet::first_n(3);
        for id in 0..4u8 {
            assert_eq!(
                sim.app::<GroupStack>(n(id)).group_view(g(1)),
                expected,
                "node {id}"
            );
        }
    }

    #[test]
    fn node_crash_purges_group_views_everywhere() {
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4u8 {
            sim.add_node(
                n(id),
                GroupStack::new(config.clone())
                    .with_group_join_at(g(0), BitTime::new(200_000))
                    .with_group_join_at(g(5), BitTime::new(210_000)),
            );
        }
        sim.schedule_crash(n(2), BitTime::new(300_000));
        sim.run_until(BitTime::new(600_000));
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        for id in [0u8, 1, 3] {
            let stack = sim.app::<GroupStack>(n(id));
            assert_eq!(stack.group_view(g(0)), expected, "node {id} g0");
            assert_eq!(stack.group_view(g(5)), expected, "node {id} g5");
            assert_eq!(stack.site_view(), expected, "node {id} site");
        }
    }

    #[test]
    fn group_leave_is_selective() {
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..3u8 {
            let mut stack = GroupStack::new(config.clone())
                .with_group_join_at(g(2), BitTime::new(200_000))
                .with_group_join_at(g(3), BitTime::new(205_000));
            if id == 1 {
                stack = stack.with_group_leave_at(g(2), BitTime::new(300_000));
            }
            sim.add_node(n(id), stack);
        }
        sim.run_until(BitTime::new(500_000));
        for id in 0..3u8 {
            let stack = sim.app::<GroupStack>(n(id));
            assert_eq!(
                stack.group_view(g(2)),
                NodeSet::from_bits(0b101),
                "node {id}: node 1 left g2"
            );
            assert_eq!(
                stack.group_view(g(3)),
                NodeSet::first_n(3),
                "node {id}: g3 untouched"
            );
        }
    }

    #[test]
    fn announcement_survives_inconsistent_omission_with_crash() {
        // The announcer's GROUP join reaches exactly one node and the
        // announcer dies: eager diffusion must still propagate the
        // announcement, and the subsequent failure purge must remove
        // the announcer — leaving everyone with the same (empty) view.
        let mut faults = FaultPlan::none();
        faults.push_scripted(ScriptedFault {
            matcher: FaultMatcher {
                msg_type: Some(MsgType::Group),
                ..FaultMatcher::default()
            },
            effect: FaultEffect::InconsistentOmission {
                accepters: AccepterSpec::Exactly(NodeSet::singleton(n(1))),
                crash_sender: true,
            },
            count: 1,
        });
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), faults);
        for id in 0..4u8 {
            let mut stack = GroupStack::new(config.clone());
            if id == 3 {
                stack = stack.with_group_join_at(g(7), BitTime::new(250_000));
            }
            sim.add_node(n(id), stack);
        }
        sim.run_until(BitTime::new(600_000));
        for id in 0..3u8 {
            let stack = sim.app::<GroupStack>(n(id));
            // The join was seen (diffused) …
            let saw_join = stack
                .groups()
                .events()
                .iter()
                .any(|e: &GroupEvent| e.group == g(7) && e.view.contains(n(3)));
            assert!(saw_join, "node {id} must have seen the diffused join");
            // … and then purged by the failure notification.
            assert_eq!(stack.group_view(g(7)), NodeSet::EMPTY, "node {id}");
        }
    }

    #[test]
    fn group_script_does_not_shadow_detector_period_ticks() {
        // Regression: TAG_GROUP_SCRIPT used to be 6 << 56 — exactly
        // the TimerOwner::DetectorPeriod encoding — so a group stack
        // with a scripted op in slot 0 would consume the SWIM
        // backend's period tick as a group join/leave and the
        // detector would never probe. With the reserved external tag
        // space the script and the period timer coexist: the crash is
        // still detected and the scripted join still happens.
        let config = CanelyConfig::default().with_detector(canely::DetectorKind::Swim);
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4u8 {
            sim.add_node(
                n(id),
                GroupStack::new(config.clone()).with_group_join_at(g(1), BitTime::new(200_000)),
            );
        }
        sim.schedule_crash(n(2), BitTime::new(300_000));
        sim.run_until(BitTime::new(700_000));
        let expected = NodeSet::first_n(4) - NodeSet::singleton(n(2));
        for id in [0u8, 1, 3] {
            let stack = sim.app::<GroupStack>(n(id));
            assert_eq!(stack.site_view(), expected, "node {id} site");
            assert_eq!(stack.group_view(g(1)), expected, "node {id} g1");
        }
    }

    #[test]
    fn group_event_streams_identical_across_nodes() {
        let config = CanelyConfig::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        for id in 0..4u8 {
            sim.add_node(
                n(id),
                GroupStack::new(config.clone())
                    .with_group_join_at(g(1), BitTime::new(200_000 + u64::from(id) * 3_000)),
            );
        }
        sim.schedule_crash(n(0), BitTime::new(300_000));
        sim.run_until(BitTime::new(600_000));
        let reference: Vec<(GroupId, NodeSet)> = sim
            .app::<GroupStack>(n(1))
            .groups()
            .events()
            .iter()
            .map(|e| (e.group, e.view))
            .collect();
        for id in 2..4u8 {
            let stream: Vec<(GroupId, NodeSet)> = sim
                .app::<GroupStack>(n(id))
                .groups()
                .events()
                .iter()
                .map(|e| (e.group, e.view))
                .collect();
            assert_eq!(stream, reference, "node {id}");
        }
    }
}
