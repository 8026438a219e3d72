//! The driver primitives of the CAN standard layer and its extension
//! (paper Fig. 4).
//!
//! The primitives surface to protocol entities as [`DriverEvent`]s:
//!
//! | Paper primitive  | Event                    | Semantics |
//! |------------------|--------------------------|-----------|
//! | `can-data.ind`   | [`DriverEvent::DataInd`] | arrival of a data frame, message data included, own transmissions included |
//! | `can-data.nty`   | [`DriverEvent::DataNty`] | **extension**: arrival of a data frame *without* delivering the data — only the message control information |
//! | `can-data.cnf`   | [`DriverEvent::DataCnf`] | successful transmission of a data frame |
//! | `can-rtr.ind`    | [`DriverEvent::RtrInd`]  | arrival of a remote frame, own transmissions included |
//! | `can-rtr.cnf`    | [`DriverEvent::RtrCnf`]  | successful transmission of a remote frame |
//!
//! The request primitives (`can-data.req`, `can-rtr.req`,
//! `can-abort.req`) are methods on [`crate::Ctx`].

use can_types::{Mid, Payload};
use std::fmt;

/// An event delivered by the CAN standard layer (plus the `.nty`
/// extension) to the protocol entity of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverEvent {
    /// `can-data.ind`: a data frame arrived (own transmissions
    /// included); carries the message data.
    DataInd {
        /// The message control field.
        mid: Mid,
        /// The message data.
        payload: Payload,
    },
    /// `can-data.nty`: a data frame arrived; only the control
    /// information is delivered. This is the CANELy extension that
    /// lets normal traffic double as node-activity signalling.
    DataNty {
        /// The message control field.
        mid: Mid,
    },
    /// `can-data.cnf`: a previously requested data frame was
    /// successfully transmitted.
    DataCnf {
        /// The message control field of the confirmed request.
        mid: Mid,
    },
    /// `can-rtr.ind`: a remote frame arrived (own transmissions
    /// included).
    RtrInd {
        /// The message control field.
        mid: Mid,
    },
    /// `can-rtr.cnf`: a previously requested remote frame was
    /// successfully transmitted (possibly clustered with identical
    /// requests of other nodes).
    RtrCnf {
        /// The message control field of the confirmed request.
        mid: Mid,
    },
    /// `can-fail.ind` (CANELy extension): a transmit request was
    /// dropped by the controller's bounded-retransmission limit — the
    /// inaccessibility-control mechanism that keeps a burst of errors
    /// from stretching bus occupation beyond the engineered `Tina`
    /// bound (Fig. 11 row "Inaccessibility control: yes").
    TxFailInd {
        /// The message control field of the dropped request.
        mid: Mid,
    },
}

impl DriverEvent {
    /// The message control field the event refers to.
    pub fn mid(&self) -> Mid {
        match self {
            DriverEvent::DataInd { mid, .. }
            | DriverEvent::DataNty { mid }
            | DriverEvent::DataCnf { mid }
            | DriverEvent::RtrInd { mid }
            | DriverEvent::RtrCnf { mid }
            | DriverEvent::TxFailInd { mid } => *mid,
        }
    }

    /// Whether this is a confirmation (`.cnf`) event.
    pub fn is_confirmation(&self) -> bool {
        matches!(
            self,
            DriverEvent::DataCnf { .. } | DriverEvent::RtrCnf { .. }
        )
    }
}

impl fmt::Display for DriverEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverEvent::DataInd { mid, payload } => {
                write!(f, "can-data.ind({mid}, {} B)", payload.len())
            }
            DriverEvent::DataNty { mid } => write!(f, "can-data.nty({mid})"),
            DriverEvent::DataCnf { mid } => write!(f, "can-data.cnf({mid})"),
            DriverEvent::RtrInd { mid } => write!(f, "can-rtr.ind({mid})"),
            DriverEvent::RtrCnf { mid } => write!(f, "can-rtr.cnf({mid})"),
            DriverEvent::TxFailInd { mid } => write!(f, "can-fail.ind({mid})"),
        }
    }
}

/// The first-copy rule of eager diffusion (EDCAN, FDA, TOTCAN's ACCEPT,
/// group announcements), which rests on indications including own
/// transmissions: per message, copies seen (`ndup`) and own transmit
/// requests issued (`nreq`). Only the first copy is delivered, and it
/// is rediffused only if no request was issued before it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstCopy {
    /// Copies received.
    pub ndup: u32,
    /// Own transmit requests issued.
    pub nreq: u32,
}

impl FirstCopy {
    /// Counts an own transmit request: whether it is the first.
    pub fn request(&mut self) -> bool {
        self.nreq += 1;
        self.nreq == 1
    }

    /// Counts an arriving copy: `None` for a duplicate, else whether to
    /// rediffuse it (counted as a [`FirstCopy::request`]).
    pub fn copy(&mut self) -> Option<bool> {
        self.ndup += 1;
        (self.ndup == 1).then(|| self.request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_types::{MsgType, NodeId};

    fn mid() -> Mid {
        Mid::new(MsgType::Els, 0, NodeId::new(3))
    }

    #[test]
    fn mid_accessor_covers_all_variants() {
        let events = [
            DriverEvent::DataInd {
                mid: mid(),
                payload: Payload::EMPTY,
            },
            DriverEvent::DataNty { mid: mid() },
            DriverEvent::DataCnf { mid: mid() },
            DriverEvent::RtrInd { mid: mid() },
            DriverEvent::RtrCnf { mid: mid() },
        ];
        for e in events {
            assert_eq!(e.mid(), mid());
        }
    }

    #[test]
    fn confirmation_classification() {
        assert!(DriverEvent::DataCnf { mid: mid() }.is_confirmation());
        assert!(DriverEvent::RtrCnf { mid: mid() }.is_confirmation());
        assert!(!DriverEvent::RtrInd { mid: mid() }.is_confirmation());
    }

    #[test]
    fn display_names_match_paper() {
        assert!(DriverEvent::DataNty { mid: mid() }
            .to_string()
            .starts_with("can-data.nty"));
        assert!(DriverEvent::RtrInd { mid: mid() }
            .to_string()
            .starts_with("can-rtr.ind"));
    }
}
