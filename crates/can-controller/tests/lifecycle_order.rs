//! The simulator's lifecycle agenda against the rule it keeps: the
//! earliest instant first; at one instant power-ons, then crashes,
//! then restarts; within a kind by node; restarts of one node in the
//! order they were scheduled. Random power-on, crash and restart
//! schedules with shared instants and repeats on one node, given in
//! two batches around a partial run, must boot the same applications
//! in the same order, log the same crashes, leave the same nodes alive
//! and count the same lifecycle events as a reference model of that
//! rule.

use can_bus::{BusConfig, FaultPlan};
use can_controller::{Application, Ctx, Simulator};
use can_types::{BitTime, NodeId, NodeSet};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const NODES: usize = 4;
const MID: u64 = 30;
const HORIZON: u64 = 200;

type Boots = Rc<RefCell<Vec<(BitTime, NodeId, u64)>>>;

/// Logs its `on_start` as (instant, node, tag).
struct Booted(u64, Boots);

impl Application for Booted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.1.borrow_mut().push((ctx.now(), ctx.me(), self.0));
    }
}

/// Declared in the order the rule ranks the kinds at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    PowerOn,
    Crash,
    Restart,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    at: u64,
    kind: Kind,
    node: usize,
    tag: u64,
}

/// The rule, on plain per-node flags.
#[derive(Default)]
struct Model {
    pending: Vec<Event>,
    added: [bool; NODES],
    booted: [bool; NODES],
    crashed: [bool; NODES],
    app: [u64; NODES],
    boots: Vec<(BitTime, NodeId, u64)>,
    crashes: Vec<(BitTime, NodeId)>,
    fired: u64,
}

impl Model {
    fn run_until(&mut self, deadline: u64) {
        // A stable sort: equal keys stay in scheduling order.
        self.pending.sort_by_key(|e| (e.at, e.kind, e.node));
        let due = self.pending.partition_point(|e| e.at <= deadline);
        let due: Vec<Event> = self.pending.drain(..due).collect();
        for e in due {
            self.fired += 1;
            match e.kind {
                Kind::PowerOn => self.power_on(e.at, e.node),
                Kind::Crash => self.crash(e.at, e.node),
                Kind::Restart => {
                    self.crash(e.at, e.node);
                    self.app[e.node] = e.tag;
                    (self.booted[e.node], self.crashed[e.node]) = (false, false);
                    self.power_on(e.at, e.node);
                }
            }
        }
    }

    fn power_on(&mut self, at: u64, node: usize) {
        if !self.crashed[node] && !self.booted[node] {
            self.booted[node] = true;
            self.boots
                .push((BitTime::new(at), id(node), self.app[node]));
        }
    }

    fn crash(&mut self, at: u64, node: usize) {
        if self.added[node] && !self.crashed[node] {
            self.crashed[node] = true;
            self.crashes.push((BitTime::new(at), id(node)));
        }
    }

    fn alive(&self) -> NodeSet {
        (0..NODES)
            .filter(|&n| self.booted[n] && !self.crashed[n])
            .map(id)
            .collect()
    }
}

fn id(node: usize) -> NodeId {
    NodeId::new(node as u8)
}

/// (kind, node, instant step): six instants ten bit-times apart, so
/// most batches share some.
fn batch() -> impl Strategy<Value = Vec<(u8, u8, u64)>> {
    prop::collection::vec((0u8..3, 0u8..NODES as u8, 0u64..6), 0..16)
}

/// Schedules one batch on both sides, from instant `from` on. A
/// power-on of a node already added, and a restart of a node not yet
/// added, are skipped: the simulator refuses both.
fn schedule(
    sim: &mut Simulator,
    model: &mut Model,
    boots: &Boots,
    batch: &[(u8, u8, u64)],
    from: u64,
) {
    for (i, &(kind, node, step)) in batch.iter().enumerate() {
        let (at, node) = (from + step * 10, usize::from(node));
        let tag = from * 100 + i as u64;
        let kind = match kind {
            0 if model.added[node] => continue,
            0 => {
                sim.add_node_at(id(node), Booted(tag, Rc::clone(boots)), BitTime::new(at));
                (model.added[node], model.app[node]) = (true, tag);
                Kind::PowerOn
            }
            1 => {
                sim.schedule_crash(id(node), BitTime::new(at));
                Kind::Crash
            }
            _ if !model.added[node] => continue,
            _ => {
                sim.schedule_restart(id(node), BitTime::new(at), Booted(tag, Rc::clone(boots)));
                Kind::Restart
            }
        };
        model.pending.push(Event {
            at,
            kind,
            node,
            tag,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_agenda_fires_lifecycle_events_by_the_rule(first in batch(), second in batch()) {
        let boots = Boots::default();
        let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
        let mut model = Model::default();
        schedule(&mut sim, &mut model, &boots, &first, 0);
        sim.run_until(BitTime::new(MID));
        model.run_until(MID);
        schedule(&mut sim, &mut model, &boots, &second, MID);
        sim.run_until(BitTime::new(HORIZON));
        model.run_until(HORIZON);

        prop_assert!(model.pending.is_empty());
        prop_assert_eq!(&*boots.borrow(), &model.boots);
        prop_assert_eq!(sim.crash_times(), &model.crashes[..]);
        prop_assert_eq!(sim.alive(), model.alive());
        prop_assert_eq!(sim.take_step_stats().lifecycle_events, model.fired);
    }
}
