//! Equivalence-compromise event transformations (paper §3.3).
//!
//! "Equivalence Compromise transforms the event into an equivalent one,
//! e.g. a switch down event can be transformed into a series of link down
//! events. Alternatively, a link down event may be transformed into a
//! switch down event. This transformation exploits the domain knowledge
//! that certain events are super-sets of other events and vice versa."

use legosdn_controller::event::Event;
use legosdn_controller::services::TopologyView;
use legosdn_openflow::messages::{PortStatus, PortStatusReason};
use legosdn_openflow::prelude::PacketInReason;

/// Direction of the equivalence rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformDirection {
    /// Rewrite toward finer-grained events (switch-down → link-downs).
    Decompose,
    /// Rewrite toward coarser events (link-down → switch-down).
    Generalize,
}

/// Transform `event` into equivalent events using the topology's domain
/// knowledge. Returns `None` when no equivalence exists (the caller falls
/// back to Absolute Compromise and ignores the event).
#[must_use]
pub fn transform(
    event: &Event,
    topology: &TopologyView,
    direction: TransformDirection,
) -> Option<Vec<Event>> {
    match (event, direction) {
        // Switch-down ⇒ one link-down per link the switch carried (the
        // live view no longer has them, so consult the last-known set).
        (Event::SwitchDown(dpid), TransformDirection::Decompose) => {
            let links = topology.last_known_links(*dpid);
            if links.is_empty() {
                return None;
            }
            Some(
                links
                    .into_iter()
                    .map(|l| Event::LinkDown { a: l.a, b: l.b })
                    .collect(),
            )
        }
        // Link-down ⇒ the "superset" switch-down of one endpoint. We pick
        // the endpoint with fewer remaining links (less collateral damage).
        (Event::LinkDown { a, b }, TransformDirection::Generalize) => {
            let deg_a = topology.links_of(a.dpid).len();
            let deg_b = topology.links_of(b.dpid).len();
            let victim = if deg_a <= deg_b { a.dpid } else { b.dpid };
            Some(vec![Event::SwitchDown(victim)])
        }
        // Switch-up ⇒ link-ups (symmetric decomposition, useful when the
        // up-handler is the buggy path).
        (Event::SwitchUp(dpid), TransformDirection::Decompose) => {
            let links = topology.links_of(*dpid);
            if links.is_empty() {
                return None;
            }
            Some(
                links
                    .into_iter()
                    .map(|l| Event::LinkUp { a: l.a, b: l.b })
                    .collect(),
            )
        }
        // Link-up ⇒ switch-up of an endpoint.
        (Event::LinkUp { a, .. }, TransformDirection::Generalize) => {
            Some(vec![Event::SwitchUp(a.dpid)])
        }
        // Port-status down ⇒ the link-down it implies (if any).
        (Event::PortStatus(dpid, ps), TransformDirection::Decompose) => {
            decompose_port_status(*dpid, ps, topology)
        }
        // A packet-in's nearest equivalent: the same packet re-reported
        // with reason Action instead of NoMatch (some apps special-case the
        // reason; a bug keyed on it is sidestepped).
        (Event::PacketIn(dpid, pi), _) => {
            if pi.reason == PacketInReason::NoMatch {
                let mut alt = pi.clone();
                alt.reason = PacketInReason::Action;
                Some(vec![Event::PacketIn(*dpid, alt)])
            } else {
                None
            }
        }
        _ => None,
    }
}

fn decompose_port_status(
    dpid: legosdn_openflow::prelude::DatapathId,
    ps: &PortStatus,
    topology: &TopologyView,
) -> Option<Vec<Event>> {
    if ps.reason != PortStatusReason::Modify || ps.desc.is_live() {
        return None;
    }
    let port = ps.desc.port_no.phys()?;
    let link = topology.link_at(legosdn_netsim::Endpoint::new(dpid, port))?;
    Some(vec![Event::LinkDown {
        a: link.a,
        b: link.b,
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_netsim::Endpoint;
    use legosdn_openflow::prelude::*;

    fn topo() -> TopologyView {
        // 1 -(1:1)- 2 -(2:1)- 3; switch 2 has two links.
        let mut t = TopologyView::default();
        for d in 1..=3 {
            t.switch_up(DatapathId(d), vec![]);
        }
        t.link_up(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 1),
        );
        t.link_up(
            Endpoint::new(DatapathId(2), 2),
            Endpoint::new(DatapathId(3), 1),
        );
        t
    }

    /// A star: hub switch 1 with `degree` links, its port `i + 1` to leaf
    /// switch `10 + i`'s port 1.
    fn star(degree: u16) -> (TopologyView, Vec<(Endpoint, Endpoint)>) {
        let mut t = TopologyView::default();
        t.switch_up(DatapathId(1), vec![]);
        let links: Vec<_> = (0..degree)
            .map(|i| {
                let leaf = DatapathId(10 + u64::from(i));
                t.switch_up(leaf, vec![]);
                let link = (Endpoint::new(DatapathId(1), i + 1), Endpoint::new(leaf, 1));
                t.link_up(link.0, link.1);
                link
            })
            .collect();
        (t, links)
    }

    #[test]
    fn switch_down_decomposes_into_its_link_downs() {
        for degree in [2, 4, 16, 48] {
            let (t, links) = star(degree);
            let out = transform(
                &Event::SwitchDown(DatapathId(1)),
                &t,
                TransformDirection::Decompose,
            )
            .unwrap();
            assert_eq!(out.len(), usize::from(degree));
            for (a, b) in &links {
                let hits = out
                    .iter()
                    .filter(|e| {
                        matches!(e, Event::LinkDown { a: x, b: y }
                            if (x, y) == (a, b) || (x, y) == (b, a))
                    })
                    .count();
                assert_eq!(hits, 1, "degree {degree}: link {a:?}-{b:?}");
            }
            for down in &out {
                let back = transform(down, &t, TransformDirection::Generalize).unwrap();
                assert!(
                    matches!(back[..], [Event::SwitchDown(_)]),
                    "degree {degree}: {down:?} generalized to {back:?}"
                );
            }
        }
    }

    #[test]
    fn isolated_switch_down_has_no_decomposition() {
        let mut t = topo();
        t.switch_up(DatapathId(9), vec![]);
        assert_eq!(
            transform(
                &Event::SwitchDown(DatapathId(9)),
                &t,
                TransformDirection::Decompose
            ),
            None
        );
    }

    #[test]
    fn link_down_generalizes_to_lower_degree_endpoint() {
        let t = topo();
        let ev = Event::LinkDown {
            a: Endpoint::new(DatapathId(1), 1),
            b: Endpoint::new(DatapathId(2), 1),
        };
        let out = transform(&ev, &t, TransformDirection::Generalize).unwrap();
        // Switch 1 has degree 1, switch 2 degree 2 → victim is 1.
        assert_eq!(out, vec![Event::SwitchDown(DatapathId(1))]);
    }

    #[test]
    fn switch_up_decomposes() {
        let t = topo();
        let out = transform(
            &Event::SwitchUp(DatapathId(2)),
            &t,
            TransformDirection::Decompose,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| matches!(e, Event::LinkUp { .. })));
    }

    #[test]
    fn port_status_down_becomes_link_down() {
        let t = topo();
        let ps = PortStatus {
            reason: PortStatusReason::Modify,
            desc: PortDesc {
                port_no: PortNo::Phys(1),
                hw_addr: MacAddr::from_index(1),
                name: "eth1".into(),
                config_down: false,
                link_down: true,
            },
        };
        let out = transform(
            &Event::PortStatus(DatapathId(2), ps),
            &t,
            TransformDirection::Decompose,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Event::LinkDown { .. }));
    }

    #[test]
    fn live_port_status_does_not_transform() {
        let t = topo();
        let ps = PortStatus {
            reason: PortStatusReason::Modify,
            desc: PortDesc::up(PortNo::Phys(1), MacAddr::from_index(1)),
        };
        assert_eq!(
            transform(
                &Event::PortStatus(DatapathId(2), ps),
                &t,
                TransformDirection::Decompose
            ),
            None
        );
    }

    #[test]
    fn packet_in_reason_flip() {
        let t = topo();
        let pi = PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(1),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2)),
        };
        let out = transform(
            &Event::PacketIn(DatapathId(1), pi),
            &t,
            TransformDirection::Decompose,
        )
        .unwrap();
        match &out[0] {
            Event::PacketIn(_, alt) => assert_eq!(alt.reason, PacketInReason::Action),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tick_has_no_equivalent() {
        let t = topo();
        assert_eq!(
            transform(
                &Event::Tick(legosdn_netsim::SimTime::ZERO),
                &t,
                TransformDirection::Decompose
            ),
            None
        );
    }
}
