//! Causal-chain reconstruction: for any suspicion, the full story
//! from the suspect's last observed life-sign, through the
//! surveillance expiry, failure-sign diffusion and reception-history
//! agreement, to the view install — each step justified by a recorded
//! `cause` reference or a schema-level correlation.
//!
//! In federated (multi-segment) traces every correlation is
//! segment-local, and a chain whose trigger frame was injected by a
//! gateway additionally walks the bridge hop: the `fed.relay` record
//! names the segment the frame originated on.

use crate::model::{
    msg_type, parse_node_set, seg_node, subject, BusTx, CauseRef, Event, Parent, TraceModel,
};

/// One step of a causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// Step instant, bit-times.
    pub t: u64,
    /// The node the step happened at; `None` for bus transactions.
    pub node: Option<u8>,
    /// The record kind (`bus.tx` or a protocol event kind).
    pub label: String,
    /// Human-oriented rendering of the record's salient fields.
    pub detail: String,
}

/// The reconstructed causal chain of one suspicion.
#[derive(Debug, Clone)]
pub struct SuspicionChain {
    /// Segment the suspicion lives on (`None` in single-segment
    /// traces).
    pub seg: Option<u8>,
    /// The suspected node.
    pub suspect: u8,
    /// The node that raised the suspicion.
    pub observer: u8,
    /// The suspicion instant.
    pub suspected_at: u64,
    /// The steps, in chronological order.
    pub steps: Vec<ChainStep>,
    /// Whether the chain reached a view install excluding the suspect.
    pub complete: bool,
}

fn event_step(model: &TraceModel<'_>, event: &Event) -> ChainStep {
    let mut detail = String::new();
    for (key, value) in model.line_of(event).display_fields() {
        detail.push_str(&format!("{key}={value} "));
    }
    ChainStep {
        t: event.t,
        node: Some(event.node),
        label: model.kind_of(event).to_string(),
        detail: detail.trim_end().to_string(),
    }
}

fn bus_step(model: &TraceModel<'_>, tx: &BusTx, note: &str) -> ChainStep {
    ChainStep {
        t: tx.start,
        node: None,
        label: "bus.tx".to_string(),
        detail: format!(
            "{} queued={} start={} deliver={} arb_losses={}{}{}",
            model.mid(tx),
            tx.queued,
            tx.start,
            tx.deliver,
            tx.arb_losses,
            if note.is_empty() { "" } else { " — " },
            note
        ),
    }
}

/// Every suspicion in the trace, as
/// `(segment, suspect, observer, instant)`.
pub fn suspicions(model: &TraceModel<'_>) -> Vec<(Option<u8>, u8, u8, u64)> {
    model
        .of_kind("fd.suspect")
        .filter_map(|e| {
            model
                .line_of(e)
                .u64("suspect")
                .map(|s| (e.seg(), s as u8, e.node, e.t))
        })
        .collect()
}

/// Reconstructs the chain for the first suspicion of `suspect`
/// (optionally restricted to one observing node). `None` when the
/// trace contains no such suspicion. Single-segment entry point; see
/// [`chain_for_in`] for federated traces.
pub fn chain_for(
    model: &TraceModel<'_>,
    suspect: u8,
    observer: Option<u8>,
) -> Option<SuspicionChain> {
    chain_for_in(model, None, suspect, observer)
}

/// The `fed.relay` record behind a relayed frame: the gateway's
/// injection event on the same segment, for the same mid, at or
/// before the transmission start.
fn relay_of<'m>(model: &'m TraceModel<'_>, tx: &BusTx) -> Option<&'m Event> {
    let (mid, transmitters) = (model.mid(tx), model.transmitters(tx));
    model
        .of_kind("fed.relay")
        .filter(|e| {
            e.seg() == tx.seg()
                && e.t <= tx.start
                && transmitters.contains(&e.node)
                && model.line_of(e).str("mid").as_deref() == Some(mid.as_ref())
        })
        .max_by_key(|e| (e.t, e.seq()))
}

/// Reconstructs the chain for the first suspicion of `suspect` on
/// segment `seg` (`None` matches any segment — and is the only
/// sensible value for single-segment traces, whose records carry no
/// segment tag).
pub fn chain_for_in(
    model: &TraceModel<'_>,
    seg: Option<u8>,
    suspect: u8,
    observer: Option<u8>,
) -> Option<SuspicionChain> {
    let suspicion = model.of_kind("fd.suspect").find(|e| {
        model.line_of(e).u64("suspect") == Some(u64::from(suspect))
            && (seg.is_none() || e.seg() == seg)
            && observer.is_none_or(|o| e.node == o)
    })?;
    let observer = suspicion.node;
    // All further correlation is local to the suspicion's segment.
    let home = suspicion.seg();
    let mut chain = SuspicionChain {
        seg: home,
        suspect,
        observer,
        suspected_at: suspicion.t,
        steps: Vec::new(),
        complete: false,
    };

    // Backward: suspicion → expiry → arming → triggering delivery —
    // and across the bridge when a gateway injected that frame. The
    // walk ends: the reader refuses a cause that does not precede its
    // event, so each parent event has a lower seq than its child.
    let mut backward = vec![event_step(model, suspicion)];
    let mut cursor = Some(suspicion);
    while let Some(event) = cursor {
        match model.parent(event) {
            Some(Parent::Event(parent)) => {
                backward.push(event_step(model, parent));
                cursor = Some(parent);
            }
            Some(Parent::Bus(tx)) => {
                let note = if model.transmitters(tx).contains(&suspect) {
                    format!("last activity of {} on the bus", seg_node(home, suspect))
                } else {
                    String::new()
                };
                backward.push(bus_step(model, tx, &note));
                // Gateway hop: a relayed frame was injected by the
                // segment's gateway; surface the bridge crossing.
                if let Some(relay) = relay_of(model, tx) {
                    let mut step = event_step(model, relay);
                    if let Some(from) = model.line_of(relay).u64("from_seg") {
                        step.detail
                            .push_str(&format!(" — bridged from segment s{from}"));
                    }
                    backward.push(step);
                }
                cursor = None;
            }
            None => cursor = None,
        }
    }
    backward.reverse();
    chain.steps = backward;

    // Forward: diffusion, agreement, view install — correlated by the
    // observer's own records and the diffused frame's deliveries.
    let after = |kind: &str, from: u64, node: u8| {
        let needs_failed = matches!(kind, "fda.invoked" | "fda.sign.tx" | "fd.notified");
        model.of_kind(kind).find(|e| {
            e.seg() == home
                && e.node == node
                && e.t >= from
                && (!needs_failed || model.line_of(e).u64("failed") == Some(u64::from(suspect)))
        })
    };
    let mut from = suspicion.t;
    for kind in ["fda.invoked", "fda.sign.tx"] {
        if let Some(e) = after(kind, from, observer) {
            chain.steps.push(event_step(model, e));
            from = e.t;
        }
    }
    let frame = model.bus.iter().find(|tx| {
        let mid = model.mid(tx);
        tx.delivered()
            && tx.seg() == home
            && msg_type(&mid) == "FDA"
            && subject(&mid) == Some(suspect)
            && tx.start >= from
    });
    if let Some(tx) = frame {
        chain
            .steps
            .push(bus_step(model, tx, "failure-sign diffusion"));
        let delivered_at: Vec<String> = model
            .of_kind("fda.delivered")
            .filter(|e| e.seg() == tx.seg() && e.cause() == Some(CauseRef::Bus(tx.deliver)))
            .map(|e| format!("n{}", e.node))
            .collect();
        if !delivered_at.is_empty() {
            chain.steps.push(ChainStep {
                t: tx.deliver,
                node: None,
                label: "fda.delivered".to_string(),
                detail: format!("failed=n{suspect} at {}", delivered_at.join(",")),
            });
        }
        from = tx.deliver;
    }
    if let Some(e) = after("fd.notified", from, observer) {
        chain.steps.push(event_step(model, e));
        from = e.t;
    }
    for kind in ["rha.started", "rha.settled"] {
        if let Some(e) = after(kind, from, observer) {
            chain.steps.push(event_step(model, e));
            from = e.t;
        }
    }
    let installs = [model.kind("view.installed"), model.kind("view.bootstrap")];
    let install = model.events.iter().find(|e| {
        installs.contains(&Some(e.kind()))
            && e.seg() == home
            && e.node == observer
            && e.t >= from
            && model
                .line_of(e)
                .str("view")
                .is_some_and(|v| parse_node_set(&v).is_ok_and(|view| !view.contains(&suspect)))
    });
    if let Some(e) = install {
        chain.steps.push(event_step(model, e));
        chain.complete = true;
        // Failover epilogue: when the expelled suspect was the
        // segment's gateway, the story continues past the install — a
        // standby promotes itself (`fed.elect` names the expelled
        // leader) and its re-announced view reaches the global stable
        // cut (`fed.rejoin`).
        let elect = model.of_kind("fed.elect").find(|e| {
            e.seg() == home
                && e.t >= suspicion.t
                && model.line_of(e).u64("leader") == Some(u64::from(suspect))
        });
        if let Some(elect) = elect {
            chain.steps.push(event_step(model, elect));
            let rejoin = model
                .of_kind("fed.rejoin")
                .find(|e| e.seg() == home && e.t >= elect.t);
            if let Some(rejoin) = rejoin {
                chain.steps.push(event_step(model, rejoin));
            }
        }
    }
    // Stable sort: steps were appended in causal order, so same-instant
    // steps keep it.
    chain.steps.sort_by_key(|step| step.t);
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceModel;

    /// A complete crash story with recorded causes: node 2's last
    /// life-sign arms the surveillance timer at node 0, the expiry
    /// raises the suspicion, FDA diffuses it, RHA agrees and the view
    /// installs.
    const DOC: &str = "\
{\"t\":0,\"kind\":\"bus.tx\",\"mid\":\"ELS[0,n2]\",\"frame\":\"rtr\",\"transmitters\":\"{2}\",\"bus_free\":58,\"deliver\":55,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":0,\"seq\":0,\"node\":2,\"kind\":\"fd.lifesign.tx\"}\n\
{\"t\":55,\"seq\":1,\"node\":0,\"kind\":\"fd.lifesign.rx\",\"of\":2,\"cause\":\"bus:55\"}\n\
{\"t\":55,\"seq\":2,\"node\":0,\"kind\":\"timer.armed\",\"timer\":\"surveillance:2\",\"deadline\":6000,\"cause\":\"bus:55\"}\n\
{\"t\":1000,\"seq\":3,\"node\":2,\"kind\":\"node.crashed\"}\n\
{\"t\":6000,\"seq\":4,\"node\":0,\"kind\":\"timer.expired\",\"timer\":\"surveillance:2\",\"cause\":\"event:2\"}\n\
{\"t\":6000,\"seq\":5,\"node\":0,\"kind\":\"fd.suspect\",\"suspect\":2,\"cause\":\"event:4\"}\n\
{\"t\":6000,\"seq\":6,\"node\":0,\"kind\":\"fda.invoked\",\"failed\":2,\"cause\":\"event:4\"}\n\
{\"t\":6000,\"seq\":7,\"node\":0,\"kind\":\"fda.sign.tx\",\"failed\":2,\"diffusion\":false,\"cause\":\"event:4\"}\n\
{\"t\":6100,\"kind\":\"bus.tx\",\"mid\":\"FDA[0,n2]\",\"frame\":\"data\",\"transmitters\":\"{0}\",\"bus_free\":6160,\"deliver\":6155,\"queued\":6000,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":6155,\"seq\":8,\"node\":0,\"kind\":\"fda.delivered\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":6155,\"seq\":9,\"node\":1,\"kind\":\"fda.delivered\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":6155,\"seq\":10,\"node\":0,\"kind\":\"fd.notified\",\"failed\":2,\"cause\":\"bus:6155\"}\n\
{\"t\":7000,\"seq\":11,\"node\":0,\"kind\":\"rha.started\",\"proposal\":\"{0,1}\",\"full_member\":true}\n\
{\"t\":7500,\"seq\":12,\"node\":0,\"kind\":\"rha.settled\",\"vector\":\"{0,1}\",\"broadcasts\":1}\n\
{\"t\":7600,\"seq\":13,\"node\":0,\"kind\":\"view.installed\",\"view\":\"{0,1}\"}\n";

    #[test]
    fn chain_runs_from_life_sign_to_view_install() {
        let model = TraceModel::parse(DOC).unwrap();
        let chain = chain_for(&model, 2, None).unwrap();
        assert_eq!(chain.observer, 0);
        assert_eq!(chain.suspected_at, 6_000);
        assert!(chain.complete, "{chain:?}");
        let labels: Vec<&str> = chain.steps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "bus.tx",        // last life-sign of n2
                "timer.armed",   // surveillance armed by its delivery
                "timer.expired", // the expiry that raised the suspicion
                "fd.suspect",
                "fda.invoked",
                "fda.sign.tx",
                "bus.tx", // failure-sign diffusion frame
                "fda.delivered",
                "fd.notified",
                "rha.started",
                "rha.settled",
                "view.installed",
            ],
            "{chain:#?}"
        );
        assert!(chain.steps[0].detail.contains("last activity of n2"));
        assert!(chain.steps[7].detail.contains("n0,n1"));
        let times: Vec<u64> = chain.steps.iter().map(|s| s.t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "steps are chronological");
    }

    #[test]
    fn suspicions_enumerate_suspect_observer_pairs() {
        let model = TraceModel::parse(DOC).unwrap();
        assert_eq!(suspicions(&model), vec![(None, 2, 0, 6_000)]);
    }

    /// A two-segment trace: on segment 1 the surveillance timer for n2
    /// was armed by a frame the gateway (n0) relayed across the
    /// bridge, recorded as `fed.relay`; segment 0 holds an unrelated
    /// suspicion of the same local id.
    const FED_DOC: &str = "\
{\"t\":0,\"seg\":1,\"kind\":\"bus.tx\",\"mid\":\"DAT[5,n0]\",\"frame\":\"data\",\"transmitters\":\"{0}\",\"bus_free\":120,\"deliver\":115,\"queued\":0,\"arb_losses\":0,\"delivered\":true,\"errored\":false}\n\
{\"t\":0,\"seg\":1,\"seq\":0,\"node\":0,\"kind\":\"fed.relay\",\"mid\":\"DAT[5,n0]\",\"from_seg\":0}\n\
{\"t\":115,\"seg\":1,\"seq\":1,\"node\":1,\"kind\":\"timer.armed\",\"timer\":\"surveillance:2\",\"deadline\":6000,\"cause\":\"bus:115\"}\n\
{\"t\":6000,\"seg\":1,\"seq\":2,\"node\":1,\"kind\":\"timer.expired\",\"timer\":\"surveillance:2\",\"cause\":\"event:1\"}\n\
{\"t\":6000,\"seg\":1,\"seq\":3,\"node\":1,\"kind\":\"fd.suspect\",\"suspect\":2,\"cause\":\"event:2\"}\n\
{\"t\":9000,\"seg\":0,\"seq\":0,\"node\":3,\"kind\":\"fd.suspect\",\"suspect\":2}\n";

    #[test]
    fn federated_chain_stays_segment_local_and_walks_the_bridge_hop() {
        let model = TraceModel::parse(FED_DOC).unwrap();
        let chain = chain_for_in(&model, Some(1), 2, None).unwrap();
        assert_eq!(chain.seg, Some(1));
        assert_eq!(chain.observer, 1, "segment 0's decoy must not match");
        let labels: Vec<&str> = chain.steps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "fed.relay",
                "bus.tx",
                "timer.armed",
                "timer.expired",
                "fd.suspect"
            ],
            "{chain:#?}"
        );
        assert!(
            chain.steps[0].detail.contains("bridged from segment s0"),
            "{chain:#?}"
        );

        // Selecting segment 0 finds the other suspicion.
        let other = chain_for_in(&model, Some(0), 2, None).unwrap();
        assert_eq!((other.seg, other.observer), (Some(0), 3));
        assert_eq!(suspicions(&model).len(), 2);
    }

    /// A gateway-failover trace on segment 1: n0 (the gateway) is
    /// suspected and expelled; the successor n1 promotes itself under
    /// epoch 2 and the segment rejoins the federation.
    const FAILOVER_DOC: &str = "\
{\"t\":6000,\"seg\":1,\"seq\":0,\"node\":1,\"kind\":\"fd.suspect\",\"suspect\":0}\n\
{\"t\":7600,\"seg\":1,\"seq\":1,\"node\":1,\"kind\":\"view.installed\",\"view\":\"{1,2}\"}\n\
{\"t\":7600,\"seg\":1,\"seq\":2,\"node\":1,\"kind\":\"fed.elect\",\"leader\":0,\"epoch\":2}\n\
{\"t\":19000,\"seg\":1,\"seq\":3,\"node\":1,\"kind\":\"fed.rejoin\",\"subject\":1,\"epoch\":2}\n";

    #[test]
    fn gateway_expulsion_chain_walks_election_and_rejoin() {
        let model = TraceModel::parse(FAILOVER_DOC).unwrap();
        let chain = chain_for_in(&model, Some(1), 0, None).unwrap();
        assert!(chain.complete, "{chain:?}");
        let labels: Vec<&str> = chain.steps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["fd.suspect", "view.installed", "fed.elect", "fed.rejoin"],
            "{chain:#?}"
        );
        assert!(chain.steps[2].detail.contains("leader=0"), "{chain:#?}");
        assert!(chain.steps[3].detail.contains("epoch=2"), "{chain:#?}");
    }

    #[test]
    fn missing_suspect_yields_no_chain() {
        let model = TraceModel::parse(DOC).unwrap();
        assert!(chain_for(&model, 7, None).is_none());
        assert!(chain_for(&model, 2, Some(1)).is_none());
    }

    #[test]
    fn truncated_trace_yields_an_incomplete_chain() {
        // Drop everything after the suspicion: the backward part still
        // resolves, the forward part is absent, complete=false.
        let cut: String = DOC.lines().take(7).map(|l| format!("{l}\n")).collect();
        let model = TraceModel::parse(&cut).unwrap();
        let chain = chain_for(&model, 2, None).unwrap();
        assert!(!chain.complete);
        assert_eq!(chain.steps.last().unwrap().label, "fd.suspect");
    }
}
