//! The CAN controller: transmit queue, abort, and fault confinement.
//!
//! "Fault-confinement in CAN … is based on two counters recording, at
//! each node, transmit and receive errors. Though these mechanisms are
//! extremely useful to the (local) control of omission failures, they
//! are helpless in respect to the distributed signaling of such
//! failures" (Sec. 3). The [`FaultConfinement`] state machine below is
//! exactly that local mechanism: it is what gives the *weak-fail-
//! silent* coverage assumed by the system model — a controller that
//! keeps failing transmissions is eventually forced bus-off and stops
//! disturbing the bus.

use can_types::{CanId, Frame, Mid, Payload};
use std::fmt;

/// Error-counter thresholds of ISO 11898.
const ERROR_PASSIVE_THRESHOLD: u32 = 128;
const BUS_OFF_THRESHOLD: u32 = 256;

/// Fault-confinement state of a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultState {
    /// Normal operation: errors signalled with active error flags.
    #[default]
    ErrorActive,
    /// Degraded: the controller still communicates but signals errors
    /// passively and defers after transmissions.
    ErrorPassive,
    /// The controller has disconnected itself from the bus. This is
    /// the enforcement of weak-fail-silence: a node exceeding its
    /// omission degree stops transmitting altogether.
    BusOff,
}

impl fmt::Display for FaultState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultState::ErrorActive => f.write_str("error-active"),
            FaultState::ErrorPassive => f.write_str("error-passive"),
            FaultState::BusOff => f.write_str("bus-off"),
        }
    }
}

/// The ISO 11898 transmit/receive error counters.
///
/// # Examples
///
/// ```
/// use can_controller::FaultConfinement;
///
/// let mut fc = FaultConfinement::new();
/// for _ in 0..16 {
///     fc.note_tx_error();
/// }
/// assert!(fc.state().is_passive_or_worse());
/// for _ in 0..16 {
///     fc.note_tx_error();
/// }
/// assert!(fc.is_bus_off());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfinement {
    tec: u32,
    rec: u32,
}

impl FaultState {
    /// Whether the state is error-passive or bus-off.
    pub fn is_passive_or_worse(self) -> bool {
        !matches!(self, FaultState::ErrorActive)
    }
}

impl FaultConfinement {
    /// A fresh controller: both counters zero, error-active.
    pub fn new() -> Self {
        FaultConfinement::default()
    }

    /// Transmit error counter.
    pub fn tec(&self) -> u32 {
        self.tec
    }

    /// Receive error counter.
    pub fn rec(&self) -> u32 {
        self.rec
    }

    /// Records a transmission error (+8 per ISO 11898).
    pub fn note_tx_error(&mut self) {
        self.tec = self.tec.saturating_add(8);
    }

    /// Records a successful transmission (−1).
    pub fn note_tx_success(&mut self) {
        self.tec = self.tec.saturating_sub(1);
    }

    /// Records a receive error (+1; +8 belongs to the node that first
    /// signals, a distinction the transaction-level model folds away).
    pub fn note_rx_error(&mut self) {
        if !self.is_bus_off() {
            self.rec = self.rec.saturating_add(1);
        }
    }

    /// Records a successful reception (−1).
    pub fn note_rx_success(&mut self) {
        self.rec = self.rec.saturating_sub(1);
    }

    /// The confinement state implied by the counters.
    pub fn state(&self) -> FaultState {
        if self.tec >= BUS_OFF_THRESHOLD {
            FaultState::BusOff
        } else if self.tec >= ERROR_PASSIVE_THRESHOLD || self.rec >= ERROR_PASSIVE_THRESHOLD {
            FaultState::ErrorPassive
        } else {
            FaultState::ErrorActive
        }
    }

    /// Whether the controller has gone bus-off.
    pub fn is_bus_off(&self) -> bool {
        matches!(self.state(), FaultState::BusOff)
    }

    /// Reinitializes the controller after a bus-off (requires an
    /// explicit management action, as in real controllers).
    pub fn reset(&mut self) {
        self.tec = 0;
        self.rec = 0;
    }
}

/// A simulated CAN controller: prioritized transmit queue plus fault
/// confinement.
///
/// The queue orders requests by CAN arbitration priority (lowest
/// identifier first; FIFO among equal identifiers), mirroring a
/// controller with multiple message buffers. The head of the queue is
/// what the node offers to the bus.
///
/// # Examples
///
/// ```
/// use can_controller::Controller;
/// use can_types::{Mid, MsgType, NodeId, Payload};
///
/// let mut ctl = Controller::new();
/// ctl.request_data(Mid::new(MsgType::AppData, 0, NodeId::new(1)), Payload::EMPTY);
/// ctl.request_rtr(Mid::new(MsgType::Els, 0, NodeId::new(1)));
/// // The life-sign outranks the data frame.
/// assert!(ctl.head().unwrap().is_remote());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Controller {
    queue: Vec<Frame>,
    confinement: FaultConfinement,
    /// Bounded-retransmission limit (inaccessibility control): after
    /// this many consecutive errors the head frame is dropped.
    retry_limit: Option<u32>,
    consecutive_errors: u32,
    /// Whether the simulator's bus offer for this node is still the
    /// head: cleared by whatever may move the head (the queue, bus-off),
    /// set by the simulator's offer sync.
    pub(crate) synced: bool,
}

impl Controller {
    /// A controller with an empty transmit queue.
    pub fn new() -> Self {
        Controller::default()
    }

    /// `can-data.req`: queues a data frame.
    pub fn request_data(&mut self, mid: Mid, payload: Payload) {
        self.enqueue(Frame::data(mid, payload));
    }

    /// `can-rtr.req`: queues a remote frame.
    pub fn request_rtr(&mut self, mid: Mid) {
        self.enqueue(Frame::remote(mid));
    }

    fn enqueue(&mut self, frame: Frame) {
        // Stable insertion keeping ascending identifier order: the
        // position after the last entry with id <= frame.id().
        let pos = self
            .queue
            .iter()
            .position(|f| frame.id().beats(f.id()))
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, frame);
        self.synced = false;
    }

    /// `can-abort.req`: drops every *pending* request whose identifier
    /// matches `id`. Returns the number of aborted requests.
    pub fn abort(&mut self, id: impl Into<CanId>) -> usize {
        let id = id.into();
        let before = self.queue.len();
        self.queue.retain(|f| f.id() != id);
        self.synced = false;
        before - self.queue.len()
    }

    /// The frame the controller is currently trying to transmit.
    /// `None` when the queue is empty or the controller is bus-off.
    pub fn head(&self) -> Option<&Frame> {
        if self.confinement.is_bus_off() {
            None
        } else {
            self.queue.first()
        }
    }

    /// Number of queued requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Consumes the queued request equal to `frame` after a successful
    /// transmission. Returns `true` if a request was consumed (i.e. a
    /// confirmation is due).
    pub fn confirm(&mut self, frame: &Frame) -> bool {
        self.consecutive_errors = 0;
        if let Some(pos) = self.queue.iter().position(|f| f == frame) {
            self.queue.remove(pos);
            self.confinement.note_tx_success();
            self.synced = false;
            true
        } else {
            false
        }
    }

    /// Enables bounded retransmission (the CANELy inaccessibility-
    /// control mechanism): a frame erroring more than `limit`
    /// consecutive times is dropped and reported with `can-fail.ind`,
    /// which caps error-burst bus occupation at `limit` frame slots.
    pub fn set_retry_limit(&mut self, limit: Option<u32>) {
        self.retry_limit = limit;
    }

    /// The configured bounded-retransmission limit.
    pub fn retry_limit(&self) -> Option<u32> {
        self.retry_limit
    }

    /// Records a failed transmission attempt of the head frame; on
    /// bus-off the queue is flushed (the controller is off the bus).
    /// Returns the new fault state.
    pub fn note_tx_error(&mut self) -> FaultState {
        self.confinement.note_tx_error();
        self.consecutive_errors += 1;
        self.synced = false;
        let state = self.confinement.state();
        if matches!(state, FaultState::BusOff) {
            self.queue.clear();
        }
        state
    }

    /// Applies the bounded-retransmission rule after an error: returns
    /// the dropped head frame once the consecutive-error budget is
    /// exhausted.
    pub fn apply_retry_limit(&mut self) -> Option<Frame> {
        let limit = self.retry_limit?;
        if self.consecutive_errors <= limit || self.queue.is_empty() {
            return None;
        }
        self.consecutive_errors = 0;
        self.synced = false;
        Some(self.queue.remove(0))
    }

    /// Records a missing-acknowledgement error. Per the ISO 11898
    /// exception, the TEC is only incremented while error-active: a
    /// transmitter alone on the bus (or alone on its partition side)
    /// keeps retrying at error-passive instead of going bus-off.
    pub fn note_ack_error(&mut self) -> FaultState {
        if matches!(self.confinement.state(), FaultState::ErrorActive) {
            self.confinement.note_tx_error();
        }
        self.confinement.state()
    }

    /// Records reception outcomes (fault confinement bookkeeping).
    pub fn note_rx(&mut self, success: bool) {
        if success {
            self.confinement.note_rx_success();
        } else {
            self.confinement.note_rx_error();
        }
    }

    /// The fault-confinement counters.
    pub fn confinement(&self) -> &FaultConfinement {
        &self.confinement
    }

    /// Whether the controller is bus-off.
    pub fn is_bus_off(&self) -> bool {
        self.confinement.is_bus_off()
    }

    /// Management reset after bus-off: counters cleared, queue empty.
    pub fn reset(&mut self) {
        self.confinement.reset();
        self.queue.clear();
        self.synced = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{MsgType, NodeId};

    fn mid(t: MsgType, node: u8) -> Mid {
        Mid::new(t, 0, NodeId::new(node))
    }

    #[test]
    fn queue_orders_by_arbitration_priority() {
        let mut ctl = Controller::new();
        ctl.request_data(mid(MsgType::AppData, 1), Payload::EMPTY);
        ctl.request_rtr(mid(MsgType::Els, 1));
        ctl.request_rtr(mid(MsgType::Fda, 2));
        let head = ctl.head().unwrap();
        assert_eq!(
            Mid::from_can_id(head.id()).unwrap().msg_type(),
            MsgType::Fda
        );
        assert_eq!(ctl.queue_len(), 3);
    }

    #[test]
    fn fifo_among_equal_ids() {
        let mut ctl = Controller::new();
        let m = mid(MsgType::AppData, 1);
        ctl.request_data(m, Payload::from_slice(&[1]).unwrap());
        ctl.request_data(m, Payload::from_slice(&[2]).unwrap());
        assert_eq!(ctl.head().unwrap().payload().as_slice(), &[1]);
    }

    #[test]
    fn abort_drops_all_matching_pending_requests() {
        let mut ctl = Controller::new();
        let m = mid(MsgType::Rha, 1);
        ctl.request_data(m, Payload::EMPTY);
        ctl.request_data(m, Payload::EMPTY);
        ctl.request_rtr(mid(MsgType::Els, 1));
        assert_eq!(ctl.abort(m), 2);
        assert_eq!(ctl.queue_len(), 1);
        assert_eq!(ctl.abort(m), 0);
    }

    #[test]
    fn confirm_consumes_exactly_one_request() {
        let mut ctl = Controller::new();
        let m = mid(MsgType::Els, 1);
        ctl.request_rtr(m);
        ctl.request_rtr(m);
        let frame = Frame::remote(m);
        assert!(ctl.confirm(&frame));
        assert_eq!(ctl.queue_len(), 1);
        assert!(ctl.confirm(&frame));
        assert!(!ctl.confirm(&frame));
    }

    #[test]
    fn tx_errors_escalate_to_bus_off_and_flush() {
        let mut ctl = Controller::new();
        ctl.request_rtr(mid(MsgType::Els, 1));
        let mut state = FaultState::ErrorActive;
        for _ in 0..32 {
            state = ctl.note_tx_error();
        }
        assert_eq!(state, FaultState::BusOff);
        assert_eq!(ctl.head(), None);
        assert_eq!(ctl.queue_len(), 0);
    }

    #[test]
    fn error_passive_at_128() {
        let mut fc = FaultConfinement::new();
        for _ in 0..15 {
            fc.note_tx_error();
        }
        assert_eq!(fc.tec(), 120);
        assert_eq!(fc.state(), FaultState::ErrorActive);
        fc.note_tx_error();
        assert_eq!(fc.state(), FaultState::ErrorPassive);
    }

    #[test]
    fn successes_decay_counters() {
        let mut fc = FaultConfinement::new();
        fc.note_tx_error();
        for _ in 0..8 {
            fc.note_tx_success();
        }
        assert_eq!(fc.tec(), 0);
        fc.note_tx_success();
        assert_eq!(fc.tec(), 0, "counter saturates at zero");
    }

    #[test]
    fn rx_errors_can_force_error_passive_but_not_bus_off() {
        let mut fc = FaultConfinement::new();
        for _ in 0..300 {
            fc.note_rx_error();
        }
        assert_eq!(fc.state(), FaultState::ErrorPassive);
        assert!(!fc.is_bus_off(), "only TEC drives bus-off");
    }

    #[test]
    fn reset_restores_operation() {
        let mut ctl = Controller::new();
        for _ in 0..32 {
            ctl.note_tx_error();
        }
        assert!(ctl.is_bus_off());
        ctl.reset();
        assert!(!ctl.is_bus_off());
        ctl.request_rtr(mid(MsgType::Els, 1));
        assert!(ctl.head().is_some());
    }

    #[test]
    fn display_of_states() {
        assert_eq!(FaultState::ErrorActive.to_string(), "error-active");
        assert_eq!(FaultState::BusOff.to_string(), "bus-off");
    }
}
