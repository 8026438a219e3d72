//! The full CANELy service portfolio on one bus: membership + clock
//! synchronization + totally ordered atomic broadcast.
//!
//! The paper positions membership as "a crucial assistant … \[that\] may
//! be used to simplify the design of other protocols (e.g. group
//! communication, clock synchronization)". This example runs all
//! three service families side by side on the same simulated CAN bus:
//!
//! * nodes 0–3 run the CANELy membership stack with cyclic traffic;
//! * the same nodes run the clock synchronization service (drifting
//!   oscillators, rotating master);
//! * nodes 4–5 exchange setpoint updates over TOTCAN, so both apply
//!   the *same* sequence of setpoints in the *same* order.
//!
//! Run with `cargo run --release -p examples --bin synchronized_cell`.

use can_bus::{BusConfig, FaultPlan};
use can_controller::{Application, Ctx, DriverEvent, Simulator, TimerId};
use can_types::{BitTime, NodeId, NodeSet, Payload};
use canely::{CanelyConfig, CanelyStack, TrafficConfig};
use canely_broadcast::common::ScheduledSend;
use canely_broadcast::Totcan;
use canely_clock::{ensemble_precision, ClockConfig, ClockSync};
use examples::fmt_ms;

/// A node hosting two protocol entities: membership stack + clock.
struct DualStack {
    membership: CanelyStack,
    clock: ClockSync,
}

impl Application for DualStack {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.membership.on_start(ctx);
        self.clock.on_start(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &DriverEvent) {
        self.membership.on_event(ctx, event);
        self.clock.on_event(ctx, event);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        // Tag spaces are disjoint: the membership stack ignores the
        // clock's small tags and vice versa (TimerOwner encodes the
        // protocol in the top byte; the clock uses 1 and 2).
        if tag < 16 {
            self.clock.on_timer(ctx, id, tag);
        } else {
            self.membership.on_timer(ctx, id, tag);
        }
    }
}

fn main() {
    let members = NodeSet::first_n(4);
    let config = CanelyConfig::default();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());

    for id in 0..4u8 {
        let drift = [120, -60, 30, -90][id as usize];
        let membership = CanelyStack::new(config.clone()).with_traffic(
            TrafficConfig::periodic(BitTime::new(4_000), 4)
                .with_offset(BitTime::new(u64::from(id) * 149)),
        );
        let clock = ClockSync::new(
            ClockConfig::new(members)
                .with_drift_ppm(drift)
                .with_initial_offset(i64::from(id) * 7_000 - 10_000),
        );
        sim.add_node(NodeId::new(id), DualStack { membership, clock });
    }

    // Two controller nodes exchanging setpoints over TOTCAN.
    let abort = BitTime::new(5_000);
    sim.add_node(
        NodeId::new(4),
        Totcan::new(abort).with_schedule(vec![
            ScheduledSend::new(BitTime::new(100_000), Payload::from_slice(&[10]).unwrap()),
            ScheduledSend::new(BitTime::new(300_000), Payload::from_slice(&[30]).unwrap()),
        ]),
    );
    sim.add_node(
        NodeId::new(5),
        Totcan::new(abort).with_schedule(vec![ScheduledSend::new(
            BitTime::new(100_050),
            Payload::from_slice(&[20]).unwrap(),
        )]),
    );

    sim.run_until(BitTime::new(1_000_000));

    // Membership converged (nodes 4/5 do not participate — they run
    // only the broadcast protocol).
    let view = sim.app::<DualStack>(NodeId::new(0)).membership.view();
    println!("membership view of the control group: {view}");
    assert_eq!(view, members);

    // Clocks agree to tens of µs despite drifting oscillators.
    let clocks: Vec<&ClockSync> = (0..4)
        .map(|id| &sim.app::<DualStack>(NodeId::new(id)).clock)
        .collect();
    let precision = ensemble_precision(&clocks, sim.now());
    println!(
        "clock ensemble precision at t={}: {precision} µs",
        fmt_ms(sim.now())
    );
    assert!(precision <= 60, "tens-of-µs figure");

    // Both TOTCAN nodes applied the same setpoints in the same order.
    let order4: Vec<u8> = sim
        .app::<Totcan>(NodeId::new(4))
        .deliveries()
        .iter()
        .map(|d| d.payload.as_slice()[0])
        .collect();
    let order5: Vec<u8> = sim
        .app::<Totcan>(NodeId::new(5))
        .deliveries()
        .iter()
        .map(|d| d.payload.as_slice()[0])
        .collect();
    println!("setpoint order at node 4: {order4:?}");
    println!("setpoint order at node 5: {order5:?}");
    assert_eq!(order4, order5, "total order");
    assert_eq!(order4.len(), 3);
    println!("all services healthy on one bus ✓");
}
