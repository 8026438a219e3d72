//! Group identifiers, announcements and the per-node group manager.

use can_controller::{Ctx, FirstCopy};
use can_types::{BitTime, Mid, MsgType, NodeId, NodeSet, Payload};
use std::collections::HashMap;
use std::fmt;

/// Maximum number of process groups.
pub const MAX_GROUPS: usize = 32;

/// Identifier of a process group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(u8);

impl GroupId {
    /// Creates a group identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id >= MAX_GROUPS`.
    pub const fn new(id: u8) -> Self {
        assert!((id as usize) < MAX_GROUPS, "group id out of range");
        GroupId(id)
    }

    /// The raw identifier.
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// The identifier as an index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Group operation carried by an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupOp {
    Join,
    Leave,
}

/// A group view change recorded for upper layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEvent {
    /// When the view changed.
    pub time: BitTime,
    /// Which group.
    pub group: GroupId,
    /// The new group view (nodes hosting a member process).
    pub view: NodeSet,
}

/// The per-node process group manager.
///
/// Announcements are `GROUP` data frames whose mid reference encodes
/// `(op, group, seq)` and whose node field is the announcer; the
/// one-byte payload repeats the operation for wire-level clarity.
/// First-copy recipients rediffuse an identical copy (eager
/// diffusion), so an announcement that reached *any* correct node
/// reaches all of them even if the announcer crashes mid-protocol.
#[derive(Debug, Default)]
pub struct GroupManager {
    /// Per-group view: nodes hosting a member process.
    views: HashMap<GroupId, NodeSet>,
    /// Groups the local process has joined.
    local: Vec<GroupId>,
    /// Eager-diffusion duplicate/request counters per announcement mid.
    copies: HashMap<Mid, FirstCopy>,
    /// Per-announcer sequence counter (distinguishes repeated joins).
    /// The wire encoding carries 10 bits, so the counter wraps after
    /// 1024 announcements by one node; a wrapped identifier collides
    /// with the eager-diffusion duplicate counters of a much older
    /// announcement and would be suppressed. Group churn rates are
    /// orders of magnitude below this in any realistic run; a larger
    /// epoch field would be needed to lift the limit.
    seq: u16,
    /// Recorded view changes.
    events: Vec<GroupEvent>,
}

impl GroupManager {
    /// A manager with no group memberships.
    pub fn new() -> Self {
        GroupManager::default()
    }

    /// The current view of a group.
    pub fn view(&self, group: GroupId) -> NodeSet {
        self.views.get(&group).copied().unwrap_or(NodeSet::EMPTY)
    }

    /// Groups the local process belongs to.
    pub fn local_groups(&self) -> &[GroupId] {
        &self.local
    }

    /// The recorded group view changes.
    pub fn events(&self) -> &[GroupEvent] {
        &self.events
    }

    /// Encodes an announcement mid: reference = `op(1) | group(5) | seq(10)`.
    fn announce_mid(announcer: NodeId, op: GroupOp, group: GroupId, seq: u16) -> Mid {
        let op_bit = match op {
            GroupOp::Join => 0u16,
            GroupOp::Leave => 1u16,
        };
        let reference = (op_bit << 15) | ((group.as_u8() as u16) << 10) | (seq & 0x3FF);
        Mid::new(MsgType::Group, reference, announcer)
    }

    fn decode(mid: Mid) -> (GroupOp, GroupId) {
        let reference = mid.reference();
        let op = if reference >> 15 == 0 {
            GroupOp::Join
        } else {
            GroupOp::Leave
        };
        let group = GroupId::new(((reference >> 10) & 0x1F) as u8);
        (op, group)
    }

    /// The local process joins `group`: announce it on the bus.
    pub fn join(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        if self.local.contains(&group) {
            return;
        }
        self.local.push(group);
        self.announce(ctx, GroupOp::Join, group);
    }

    /// The local process leaves `group`.
    pub fn leave(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        if let Some(pos) = self.local.iter().position(|&g| g == group) {
            self.local.remove(pos);
            self.announce(ctx, GroupOp::Leave, group);
        }
    }

    fn announce(&mut self, ctx: &mut Ctx<'_>, op: GroupOp, group: GroupId) {
        let mid = Self::announce_mid(ctx.me(), op, group, self.seq);
        self.seq = self.seq.wrapping_add(1) & 0x3FF;
        self.copies.entry(mid).or_default().request();
        let op_byte = match op {
            GroupOp::Join => 1u8,
            GroupOp::Leave => 2u8,
        };
        ctx.can_data_req(mid, Payload::from_slice(&[op_byte]).expect("one byte"));
    }

    /// Handles an arriving `GROUP` announcement (own transmissions
    /// included): deliver-once plus eager rediffusion.
    pub fn on_data_ind(&mut self, ctx: &mut Ctx<'_>, mid: Mid, payload: &Payload) {
        debug_assert_eq!(mid.msg_type(), MsgType::Group);
        let Some(rediffuse) = self.copies.entry(mid).or_default().copy() else {
            return;
        };
        // Join the diffusion unless we already requested this exact
        // announcement.
        if rediffuse {
            ctx.can_data_req(mid, *payload);
        }
        // Apply the operation.
        let (op, group) = Self::decode(mid);
        let view = self.views.entry(group).or_insert(NodeSet::EMPTY);
        let changed = match op {
            GroupOp::Join => view.insert(mid.node()),
            GroupOp::Leave => view.remove(mid.node()),
        };
        if changed {
            let view = *view;
            self.events.push(GroupEvent {
                time: ctx.now(),
                group,
                view,
            });
        }
    }

    /// Site membership input: `failed` was reported crashed — purge it
    /// from every group (all correct nodes receive the same agreed
    /// notification, so all purge identically).
    pub fn on_node_failed(&mut self, now: BitTime, failed: NodeId) {
        let groups: Vec<GroupId> = self.views.keys().copied().collect();
        for group in groups {
            let view = self.views.get_mut(&group).expect("key just listed");
            if view.remove(failed) {
                let view = *view;
                self.events.push(GroupEvent {
                    time: now,
                    group,
                    view,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_controller::Rig;

    fn g(id: u8) -> GroupId {
        GroupId::new(id)
    }

    #[test]
    fn join_announces_once() {
        let mut h = Rig::new(1);
        let mut mgr = GroupManager::new();
        h.ctx(|ctx| {
            mgr.join(ctx, g(3));
            mgr.join(ctx, g(3)); // idempotent
        });
        assert_eq!(h.ctl.queue_len(), 1);
        assert_eq!(mgr.local_groups(), &[g(3)]);
    }

    #[test]
    fn leave_requires_membership() {
        let mut h = Rig::new(1);
        let mut mgr = GroupManager::new();
        h.ctx(|ctx| mgr.leave(ctx, g(3)));
        assert_eq!(h.ctl.queue_len(), 0);
        h.ctx(|ctx| {
            mgr.join(ctx, g(3));
            mgr.leave(ctx, g(3));
        });
        assert_eq!(h.ctl.queue_len(), 2);
        assert!(mgr.local_groups().is_empty());
    }

    #[test]
    fn announcement_mid_round_trips() {
        for op in [GroupOp::Join, GroupOp::Leave] {
            for group in [0u8, 7, 31] {
                let mid = GroupManager::announce_mid(NodeId::new(5), op, g(group), 321);
                let (dop, dgroup) = GroupManager::decode(mid);
                assert_eq!(dop, op);
                assert_eq!(dgroup, g(group));
            }
        }
    }

    #[test]
    fn first_copy_applies_and_rediffuses() {
        let mut h = Rig::new(2);
        let mut mgr = GroupManager::new();
        let mid = GroupManager::announce_mid(NodeId::new(5), GroupOp::Join, g(1), 0);
        let payload = Payload::from_slice(&[1]).unwrap();
        h.ctx(|ctx| {
            mgr.on_data_ind(ctx, mid, &payload);
            mgr.on_data_ind(ctx, mid, &payload); // duplicate
        });
        assert_eq!(mgr.view(g(1)), NodeSet::singleton(NodeId::new(5)));
        assert_eq!(h.ctl.queue_len(), 1, "one rediffusion only");
        assert_eq!(mgr.events().len(), 1);
    }

    #[test]
    fn own_announcement_not_rediffused() {
        let mut h = Rig::new(5);
        let mut mgr = GroupManager::new();
        h.ctx(|ctx| mgr.join(ctx, g(1)));
        assert_eq!(h.ctl.queue_len(), 1);
        // Our own frame comes back (own transmissions included).
        let mid = GroupManager::announce_mid(NodeId::new(5), GroupOp::Join, g(1), 0);
        h.ctx(|ctx| mgr.on_data_ind(ctx, mid, &Payload::from_slice(&[1]).unwrap()));
        assert_eq!(h.ctl.queue_len(), 1, "nreq guard suppresses rediffusion");
        assert_eq!(mgr.view(g(1)), NodeSet::singleton(NodeId::new(5)));
    }

    #[test]
    fn node_failure_purges_all_groups() {
        let mut h = Rig::new(0);
        let mut mgr = GroupManager::new();
        let failed = NodeId::new(4);
        for group in [0u8, 1, 2] {
            let mid = GroupManager::announce_mid(failed, GroupOp::Join, g(group), group as u16);
            h.ctx(|ctx| mgr.on_data_ind(ctx, mid, &Payload::from_slice(&[1]).unwrap()));
        }
        mgr.on_node_failed(BitTime::new(9_999), failed);
        for group in [0u8, 1, 2] {
            assert_eq!(mgr.view(g(group)), NodeSet::EMPTY, "group {group}");
        }
        // Three joins + three purges recorded.
        assert_eq!(mgr.events().len(), 6);
    }

    #[test]
    fn purge_of_non_member_records_nothing() {
        let mut mgr = GroupManager::new();
        mgr.on_node_failed(BitTime::ZERO, NodeId::new(9));
        assert!(mgr.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "group id out of range")]
    fn group_id_range_checked() {
        let _ = GroupId::new(32);
    }
}
