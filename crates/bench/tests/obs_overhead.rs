//! Allocation gates of the observability layer and the timers under
//! it, measured with a counting global allocator:
//!
//! * emitting through a disabled [`EventSink`] must not allocate at
//!   all, while an enabled sink visibly allocates for the backing log;
//! * a campaign run nobody exports must not materialise its trace: it
//!   requests a fraction of the bytes the same run requests with
//!   capture on;
//! * re-arming a surveillance timer on a warm wheel is a store;
//! * a frame's exact wire duration is arithmetic: the bus asks for it
//!   once per transaction, and building the bit stream to answer cost
//!   over half of an everyday campaign.
//!
//! The counters are per thread and the harness runs every `#[test]` on
//! a thread of its own, so the tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use can_controller::{Controller, Ctx, TimerWheel};
use can_types::{BitTime, CanId, Frame, FrameFormat, NodeId, Payload};
use canely::obs::{Cause, ObsLog};
use canely::{EventSink, FailureDetector, ProtocolEvent, SurveillanceDetector};
use canely_campaign::{execute, CampaignSpec};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread may still allocate while it is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes requested by this thread while `f` ran.
fn measured<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (ALLOCATIONS.get(), BYTES.get());
    let result = f();
    (ALLOCATIONS.get() - before.0, BYTES.get() - before.1, result)
}

#[test]
fn disabled_sink_is_allocation_free() {
    let disabled = EventSink::disabled();
    assert!(!disabled.is_enabled());

    let (disabled_delta, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            // Cause-ID threading and the timer-linking resolution path
            // must stay free as well: the dispatcher stamps an ambient
            // cause around every delivery even when tracing is off.
            disabled.set_cause(Cause::Bus {
                deliver_at: BitTime::new(i),
            });
            disabled.emit(
                BitTime::new(i),
                NodeId::new((i % 4) as u8),
                ProtocolEvent::LifeSignSent,
            );
            disabled.emit(
                BitTime::new(i),
                NodeId::new(0),
                ProtocolEvent::FdaSignReceived {
                    failed: NodeId::new(3),
                    duplicate: false,
                },
            );
            disabled.emit(
                BitTime::new(i),
                NodeId::new(0),
                ProtocolEvent::TimerExpired {
                    timer: canely::obs::ObsTimer::Surveillance(NodeId::new(3)),
                },
            );
            disabled.clear_cause();
        }
    });
    assert_eq!(
        disabled_delta, 0,
        "disabled sink performed {disabled_delta} allocations"
    );

    // Sanity check that the counter actually observes the enabled
    // path: the same traffic through a live sink must allocate (the
    // log's backing vector grows).
    let log = ObsLog::new();
    let sink = log.sink();
    assert!(sink.is_enabled());
    let (enabled_delta, _, ()) = measured(|| {
        for i in 0..100_000u64 {
            sink.emit(
                BitTime::new(i),
                NodeId::new((i % 4) as u8),
                ProtocolEvent::LifeSignSent,
            );
        }
    });
    assert!(enabled_delta > 0, "counting allocator saw no allocations");
    assert_eq!(log.len(), 100_000);
}

#[test]
fn uncaptured_run_does_not_materialise_its_trace() {
    let path = format!(
        "{}/../../scenarios/federation.campaign",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("`{path}`: {e}"));
    let spec = CampaignSpec::parse(&text).expect("checked-in campaign spec must parse");
    let run = spec.expand().pop().expect("the campaign has runs");

    let (_, lean_bytes, lean) = measured(|| execute(&run, false));
    let (_, full_bytes, full) = measured(|| execute(&run, true));
    assert_eq!(lean.events, full.events);
    assert!(
        lean_bytes * 4 < full_bytes,
        "a run nobody reads requested {lean_bytes} B, a captured one {full_bytes} B"
    );
    // Twice what 4 segments × 32 nodes × 600 ms measured when the
    // gate was set (10 250 240 B; over 200 MiB while every event was
    // stored either way).
    assert!(
        lean_bytes < 20 << 20,
        "a run nobody reads requested {lean_bytes} B"
    );
}

#[test]
fn surveillance_rearm_on_a_warm_wheel_allocates_nothing() {
    const NODES: u8 = 32;
    let me = NodeId::new(0);
    let (mut ctl, mut timers, mut journal) = (Controller::new(), TimerWheel::new(), Vec::new());
    let mut fd = SurveillanceDetector::new(BitTime::new(5_000), BitTime::new(2_500));
    let mut ctx = Ctx::new(
        BitTime::ZERO,
        me,
        &mut ctl,
        &mut timers,
        &mut journal,
        false,
    );
    for r in 0..NODES {
        fd.start(&mut ctx, NodeId::new(r));
    }
    let (allocations, _, ()) = measured(|| {
        // Ten seconds of a frame every 100 µs: every timer's carrier
        // surfaces and is re-keyed many times over.
        for frame in 1..=100_000u64 {
            let now = BitTime::new(frame * 100);
            let mut ctx = Ctx::new(now, me, &mut ctl, &mut timers, &mut journal, false);
            fd.on_activity(&mut ctx, NodeId::new((frame % u64::from(NODES)) as u8));
            // The step loop polls the wheel after every callback.
            timers.next_deadline();
        }
    });
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in 100 000 re-arms"
    );
    assert_eq!(timers.len(), usize::from(NODES));
}

#[test]
fn exact_frame_duration_allocates_nothing() {
    let mut total = BitTime::ZERO;
    let (allocations, _, ()) = measured(|| {
        for format in [FrameFormat::Standard, FrameFormat::Extended] {
            for len in 0..=8usize {
                let payload = Payload::from_slice(&[0xA5; 8][..len]).expect("at most 8 bytes");
                let data = Frame::data(CanId::new(0x2AA), payload).with_format(format);
                total += data.duration_exact();
            }
            let remote = Frame::remote(CanId::new(0x2AA)).with_format(format);
            total += remote.duration_exact();
        }
    });
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in 20 exact frame durations"
    );
    assert!(total > BitTime::ZERO);
}
