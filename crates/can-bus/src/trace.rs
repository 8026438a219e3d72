//! Bus transaction tracing and bandwidth accounting.
//!
//! The trace is the ground truth from which the measured curves of the
//! evaluation are computed — most importantly the *CAN bandwidth
//! utilization by the site membership protocols* (Fig. 10), obtained
//! by classifying bus occupancy per message type over a membership
//! cycle. A trace either *records* every transaction (the default) or
//! *summarizes* one window, folding each into that window's
//! [`BusStats`] and keeping none; its owner chooses before the first
//! transaction ([`BusTrace::summarize`]), as a campaign run that does
//! not capture does. A summarizing trace answers only
//! [`BusTrace::stats`] for its window and panics on any other question.

use can_types::{BitTime, Frame, Mid, MsgType, NodeSet};

/// A bus transaction as the trace records it (the part of a
/// [`Transaction`](crate::Transaction) that outlives its dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// Instant transmission began.
    pub start: BitTime,
    /// Instant the bus becomes free again (frame, plus error
    /// signalling on omissions, plus intermission).
    pub bus_free: BitTime,
    /// Instant receivers deliver the frame (end of frame proper;
    /// equals the delivery instant seen by the controllers, so causal
    /// references from protocol events resolve against this field).
    pub deliver_at: BitTime,
    /// Earliest instant any of the transmitters queued this frame
    /// (profiling: `start - queued_at` is the queueing + arbitration
    /// delay the frame experienced, retransmissions included).
    pub queued_at: BitTime,
    /// Largest number of arbitration rounds any transmitter of this
    /// frame lost before winning the bus (profiling).
    pub arb_losses: u32,
    /// The frame on the wire.
    pub frame: Frame,
    /// Nodes that transmitted (clustered transmissions have several).
    pub transmitters: NodeSet,
    /// Whether the transaction ended in anything but a delivery: an
    /// omission (consistent or inconsistent), a collision or an ACK
    /// error.
    pub errored: bool,
}

impl TxRecord {
    /// The decoded message control field, if the identifier carries one.
    pub fn mid(&self) -> Option<Mid> {
        Mid::from_can_id(self.frame.id())
    }
}

/// The ordered record of bus activity, or one window's summary of it
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct BusTrace {
    records: Vec<TxRecord>,
    /// The window being summarized instead of recorded.
    summary: Option<BusStats>,
}

impl BusTrace {
    /// An empty recording trace.
    pub fn new() -> Self {
        BusTrace::default()
    }

    /// Makes the trace summarize `[from, to)`: every later transaction
    /// is folded into that window's [`BusStats`] and none is kept.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`, or if the trace already holds a record
    /// or a summary: the mode is chosen before the first transaction.
    pub fn summarize(&mut self, from: BitTime, to: BitTime) {
        assert!(from < to, "stats window must be non-empty");
        assert!(
            self.records.is_empty() && self.summary.is_none(),
            "a bus trace chooses to summarize before its first transaction"
        );
        self.summary = Some(BusStats::new(from, to));
    }

    /// Appends a record (transactions arrive in time order), or folds
    /// it into the summary.
    pub fn push(&mut self, record: TxRecord) {
        if let Some(stats) = &mut self.summary {
            stats.add(&record);
            return;
        }
        debug_assert!(
            self.records
                .last()
                .is_none_or(|last| record.start >= last.start),
            "trace must stay time-ordered"
        );
        self.records.push(record);
    }

    /// The records, which only a recording trace has.
    fn records(&self) -> &[TxRecord] {
        assert!(
            self.summary.is_none(),
            "a summarizing bus trace keeps no records"
        );
        &self.records
    }

    /// Number of recorded transactions (a summarizing trace panics).
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether the trace is empty (a summarizing trace panics).
    pub fn is_empty(&self) -> bool {
        self.records().is_empty()
    }

    /// Iterates over the records in time order (a summarizing trace panics).
    pub fn iter(&self) -> std::slice::Iter<'_, TxRecord> {
        self.records().iter()
    }

    /// Computes aggregate statistics over the window `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `to <= from`, or on a summarizing trace if the window
    /// is not the one it summarizes.
    pub fn stats(&self, from: BitTime, to: BitTime) -> BusStats {
        assert!(from < to, "stats window must be non-empty");
        if let Some(stats) = &self.summary {
            assert!(
                (stats.from, stats.to) == (from, to),
                "a summarizing bus trace holds only the stats of [{}, {}), not [{from}, {to})",
                stats.from,
                stats.to
            );
            return stats.clone();
        }
        let mut stats = BusStats::new(from, to);
        for rec in &self.records {
            stats.add(rec);
        }
        stats
    }

    /// Extracts the inaccessibility episodes: maximal runs of
    /// consecutive errored transactions. The longest episode is the
    /// measured counterpart of the analytic `Tina` upper bound
    /// (Fig. 11: 14–2880 bit-times for CAN, 14–2160 for CANELy). A
    /// summarizing trace panics.
    pub fn inaccessibility_episodes(&self) -> Vec<InaccessibilityEpisode> {
        self.records()
            .chunk_by(|a, b| a.errored == b.errored)
            .filter(|run| run[0].errored)
            .map(|run| InaccessibilityEpisode {
                from: run[0].start,
                until: run[run.len() - 1].bus_free,
                omissions: run.len(),
            })
            .collect()
    }

    /// The longest measured inaccessibility, if any omission occurred
    /// (a summarizing trace panics).
    pub fn worst_inaccessibility(&self) -> Option<BitTime> {
        self.inaccessibility_episodes()
            .iter()
            .map(InaccessibilityEpisode::duration)
            .max()
    }
}

/// A measured inaccessibility episode: a maximal run of consecutive
/// errored transactions (the bus was operational but provided no
/// service — the definition of \[22\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InaccessibilityEpisode {
    /// Start of the first errored transaction.
    pub from: BitTime,
    /// Instant the bus returned to service.
    pub until: BitTime,
    /// Number of consecutive errored transactions.
    pub omissions: usize,
}

impl InaccessibilityEpisode {
    /// Duration of the episode.
    pub fn duration(&self) -> BitTime {
        self.until - self.from
    }
}

impl<'a> IntoIterator for &'a BusTrace {
    type Item = &'a TxRecord;
    type IntoIter = std::slice::Iter<'a, TxRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-message-type occupancy bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeStats {
    /// Number of transactions carrying this type.
    pub frames: usize,
    /// Bus occupancy attributable to this type.
    pub busy: BitTime,
}

/// Aggregate bus statistics over a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusStats {
    /// Window start.
    pub from: BitTime,
    /// Window end.
    pub to: BitTime,
    /// Total bus-busy time inside the window.
    pub busy: BitTime,
    /// Number of transactions overlapping the window.
    pub transactions: usize,
    /// Number of errored transactions.
    pub errors: usize,
    /// Occupancy bucketed by message-type wire code.
    per_type: [TypeStats; 32],
}

impl BusStats {
    fn new(from: BitTime, to: BitTime) -> Self {
        BusStats {
            from,
            to,
            busy: BitTime::ZERO,
            transactions: 0,
            errors: 0,
            per_type: [TypeStats::default(); 32],
        }
    }

    /// Folds one transaction in: its occupancy clipped to the window,
    /// if any is left, counts towards the totals and its type's bucket.
    fn add(&mut self, rec: &TxRecord) {
        let begin = rec.start.max(self.from);
        let end = rec.bus_free.min(self.to);
        if begin >= end {
            return;
        }
        let occupancy = end - begin;
        self.busy += occupancy;
        self.transactions += 1;
        if rec.errored {
            self.errors += 1;
        }
        if let Some(mid) = rec.mid() {
            let slot = &mut self.per_type[mid.msg_type().code() as usize];
            slot.frames += 1;
            slot.busy += occupancy;
        }
    }

    /// The window length.
    pub fn window(&self) -> BitTime {
        self.to - self.from
    }

    /// Overall bus utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.busy.as_u64() as f64 / self.window().as_u64() as f64
    }

    /// Occupancy bucket for one message type.
    pub fn of_type(&self, msg_type: MsgType) -> TypeStats {
        self.per_type[msg_type.code() as usize]
    }

    /// Utilization attributable to the given message types — e.g. the
    /// membership suite's share of the bus (ELS + FDA + RHA + JOIN +
    /// LEAVE), the quantity plotted in Fig. 10.
    pub fn utilization_of(&self, types: &[MsgType]) -> f64 {
        let busy: u64 = types.iter().map(|&t| self.of_type(t).busy.as_u64()).sum();
        busy as f64 / self.window().as_u64() as f64
    }

    /// The message types that make up the CANELy membership suite
    /// (the numerator of the Fig. 10 utilization curves).
    pub const MEMBERSHIP_SUITE: [MsgType; 5] = [
        MsgType::Els,
        MsgType::Fda,
        MsgType::Rha,
        MsgType::Join,
        MsgType::Leave,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{Frame, Mid, MsgType, NodeId};

    fn record(start: u64, free: u64, t: MsgType, errored: bool) -> TxRecord {
        TxRecord {
            start: BitTime::new(start),
            bus_free: BitTime::new(free),
            deliver_at: BitTime::new(free),
            queued_at: BitTime::new(start),
            arb_losses: 0,
            frame: Frame::remote(Mid::new(t, 0, NodeId::new(1))),
            transmitters: NodeSet::singleton(NodeId::new(1)),
            errored,
        }
    }

    #[test]
    fn empty_trace_stats() {
        let trace = BusTrace::new();
        let stats = trace.stats(BitTime::ZERO, BitTime::new(1_000));
        assert_eq!(stats.busy, BitTime::ZERO);
        assert_eq!(stats.transactions, 0);
        assert_eq!(stats.utilization(), 0.0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 80, MsgType::Els, false));
        trace.push(record(100, 180, MsgType::Els, false));
        let stats = trace.stats(BitTime::ZERO, BitTime::new(1_000));
        assert_eq!(stats.busy, BitTime::new(160));
        assert_eq!(stats.transactions, 2);
        assert!((stats.utilization() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn occupancy_clipped_to_window() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 100, MsgType::Els, false));
        // Window covers only the second half of the transaction.
        let stats = trace.stats(BitTime::new(50), BitTime::new(150));
        assert_eq!(stats.busy, BitTime::new(50));
    }

    #[test]
    fn out_of_window_records_ignored() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 100, MsgType::Els, false));
        let stats = trace.stats(BitTime::new(200), BitTime::new(300));
        assert_eq!(stats.transactions, 0);
        assert_eq!(stats.busy, BitTime::ZERO);
    }

    #[test]
    fn per_type_classification() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 80, MsgType::Els, false));
        trace.push(record(100, 250, MsgType::Rha, false));
        trace.push(record(300, 400, MsgType::AppData, false));
        let stats = trace.stats(BitTime::ZERO, BitTime::new(1_000));
        assert_eq!(stats.of_type(MsgType::Els).frames, 1);
        assert_eq!(stats.of_type(MsgType::Els).busy, BitTime::new(80));
        assert_eq!(stats.of_type(MsgType::Rha).busy, BitTime::new(150));
        // Membership suite excludes application data.
        let suite = stats.utilization_of(&BusStats::MEMBERSHIP_SUITE);
        assert!((suite - 0.23).abs() < 1e-12);
    }

    #[test]
    fn errors_counted() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 80, MsgType::Els, true));
        trace.push(record(100, 180, MsgType::Els, false));
        let stats = trace.stats(BitTime::ZERO, BitTime::new(1_000));
        assert_eq!(stats.errors, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        BusTrace::new().stats(BitTime::new(5), BitTime::new(5));
    }

    #[test]
    fn inaccessibility_episodes_are_maximal_error_runs() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 80, MsgType::Els, false));
        trace.push(record(100, 200, MsgType::Els, true));
        trace.push(record(200, 300, MsgType::Els, true));
        trace.push(record(320, 400, MsgType::Els, false));
        trace.push(record(500, 600, MsgType::Els, true));
        let episodes = trace.inaccessibility_episodes();
        assert_eq!(episodes.len(), 2);
        assert_eq!(episodes[0].from, BitTime::new(100));
        assert_eq!(episodes[0].until, BitTime::new(300));
        assert_eq!(episodes[0].omissions, 2);
        assert_eq!(episodes[1].omissions, 1);
        assert_eq!(trace.worst_inaccessibility(), Some(BitTime::new(200)));
    }

    #[test]
    fn error_free_trace_has_no_episodes() {
        let mut trace = BusTrace::new();
        trace.push(record(0, 80, MsgType::Els, false));
        assert!(trace.inaccessibility_episodes().is_empty());
        assert_eq!(trace.worst_inaccessibility(), None);
    }
}
