//! Cross-validation of the Tindell–Burns response-time analysis
//! (`canely-analysis::response_time`, the source of the `Tltm` bound)
//! against the simulator: for a contended periodic workload, every
//! *measured* frame response time must stay within its *analytic*
//! worst-case bound.

use can_bus::{BusConfig, FaultPlan};
use can_controller::{DriverEvent, Simulator};
use can_types::{BitTime, Frame, Mid, MsgType, Payload};
use canely_analysis::{MessageSpec, ResponseTimeAnalysis};
use integration::{n, Recorder};

/// One periodic stream of the workload.
struct Stream {
    node: u8,
    msg_type: MsgType,
    period: BitTime,
    payload: usize,
}

impl Stream {
    fn mid(&self) -> Mid {
        Mid::new(self.msg_type, 0, n(self.node))
    }
    fn frame(&self) -> Frame {
        Frame::data(
            self.mid(),
            Payload::from_slice(&vec![0x5A; self.payload]).unwrap(),
        )
    }
    fn spec(&self) -> MessageSpec {
        MessageSpec::periodic(self.mid().to_can_id(), self.period, self.payload)
    }
}

fn workload() -> Vec<Stream> {
    vec![
        // High-priority control stream.
        Stream {
            node: 0,
            msg_type: MsgType::ClockSync,
            period: BitTime::new(1_000),
            payload: 2,
        },
        // Two mid-priority streams.
        Stream {
            node: 1,
            msg_type: MsgType::Edcan,
            period: BitTime::new(2_000),
            payload: 8,
        },
        Stream {
            node: 2,
            msg_type: MsgType::Totcan,
            period: BitTime::new(2_500),
            payload: 4,
        },
        // A low-priority background stream.
        Stream {
            node: 3,
            msg_type: MsgType::AppData,
            period: BitTime::new(5_000),
            payload: 8,
        },
    ]
}

#[test]
fn measured_response_times_within_analytic_bounds() {
    let streams = workload();

    // Analytic bounds.
    let mut rta = ResponseTimeAnalysis::new();
    for s in &streams {
        rta.push(s.spec());
    }
    assert!(rta.utilization() < 1.0, "workload must be schedulable");

    // Simulated run: schedule every instance over a 100 ms window.
    let horizon = BitTime::new(100_000);
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    for s in &streams {
        let sends: Vec<(BitTime, Frame)> = (0..horizon.as_u64() / s.period.as_u64())
            .map(|k| (BitTime::new(k * s.period.as_u64() + 1), s.frame()))
            .collect();
        sim.add_node(
            n(s.node),
            Recorder {
                send_at: sends,
                ..Recorder::default()
            },
        );
    }
    sim.add_node(n(10), Recorder::new()); // observer
    sim.run_until(horizon + BitTime::new(5_000));

    // Measured worst response per stream: delivery instant at the
    // observer minus the (periodic) request instant.
    let observer = sim.app::<Recorder>(n(10));
    for s in &streams {
        let analytic = rta.response_time(s.mid().to_can_id()).unwrap();
        let deliveries: Vec<BitTime> = observer
            .events
            .iter()
            .filter_map(|&(t, ref e)| match e {
                DriverEvent::DataInd { mid, .. } if *mid == s.mid() => Some(t),
                _ => None,
            })
            .collect();
        assert!(
            deliveries.len() >= (horizon.as_u64() / s.period.as_u64()) as usize - 1,
            "stream {} lost instances",
            s.mid()
        );
        let mut worst = BitTime::ZERO;
        for (k, &delivered) in deliveries.iter().enumerate() {
            let requested = BitTime::new(k as u64 * s.period.as_u64() + 1);
            assert!(delivered >= requested, "causality");
            worst = worst.max(delivered - requested);
        }
        assert!(
            worst <= analytic,
            "stream {}: measured worst {} exceeds analytic bound {}",
            s.mid(),
            worst,
            analytic
        );
        // The analysis is not uselessly loose either: within 8x.
        assert!(
            worst * 8 >= analytic,
            "stream {}: analytic {} implausibly loose vs measured {}",
            s.mid(),
            analytic,
            worst
        );
    }
}

/// Priority inversion check: the highest-priority stream's measured
/// worst response is bounded by one blocking frame plus its own
/// transmission, even under full contention.
#[test]
fn highest_priority_stream_sees_only_blocking() {
    let streams = workload();
    let mut sim = Simulator::new(BusConfig::default(), FaultPlan::none());
    let horizon = BitTime::new(50_000);
    for s in &streams {
        let sends: Vec<(BitTime, Frame)> = (0..horizon.as_u64() / s.period.as_u64())
            .map(|k| (BitTime::new(k * s.period.as_u64() + 1), s.frame()))
            .collect();
        sim.add_node(
            n(s.node),
            Recorder {
                send_at: sends,
                ..Recorder::default()
            },
        );
    }
    sim.add_node(n(10), Recorder::new());
    sim.run_until(horizon + BitTime::new(5_000));

    let top = &streams[0];
    let observer = sim.app::<Recorder>(n(10));
    let mut worst = BitTime::ZERO;
    for (k, &(t, _)) in observer
        .events
        .iter()
        .filter(|(_, e)| matches!(e, DriverEvent::DataInd { mid, .. } if *mid == top.mid()))
        .enumerate()
    {
        let requested = BitTime::new(k as u64 * top.period.as_u64() + 1);
        worst = worst.max(t - requested);
    }
    // Blocking: longest lower-priority frame (157 bits + overheads),
    // plus own transmission (~100 bits): well under 400 bit-times.
    assert!(
        worst < BitTime::new(400),
        "top-priority stream delayed {worst}"
    );
}
