//! Non-mutating dataplane probing.
//!
//! Walks a hypothetical packet through the network's flow tables using
//! read-only lookups (`FlowTable::peek`), classifying the outcome without
//! touching counters, buffers, or the event queue. This is what lets the
//! checker evaluate the *current* rule set — and, against a scratch clone of
//! the network, a *candidate* rule set — without observable side effects.

use legosdn_codec::Codec;
use legosdn_netsim::{Endpoint, Network};
use legosdn_openflow::prelude::{MacAddr, Packet, PortNo};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Hop budget for a probe (matches the dataplane's limit).
pub const PROBE_HOP_LIMIT: usize = 64;

/// How a probed packet fared.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub enum ProbeOutcome {
    /// Reached the destination host.
    Delivered,
    /// Matched a rule whose outputs lead nowhere (or a drop rule) at this
    /// switch — a black-hole.
    BlackHole { at: Endpoint },
    /// Revisited a (switch, port, packet) state or exhausted the hop
    /// budget — a forwarding loop.
    Loop { path: Vec<Endpoint> },
    /// No rule matched somewhere: the packet would punt to the controller.
    /// Not a violation — reactive apps are expected to handle it.
    Punt { at: Endpoint },
    /// Delivered, but to hosts other than the intended destination (e.g. a
    /// flood); carries whether the intended host was among them.
    Flooded { reached_destination: bool },
    /// The source host is unknown to the network.
    NoSuchSource,
}

impl ProbeOutcome {
    /// Does the outcome mean the destination is reachable right now without
    /// controller intervention?
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(
            self,
            ProbeOutcome::Delivered
                | ProbeOutcome::Flooded {
                    reached_destination: true
                }
        )
    }

    /// Is this outcome an invariant violation (black-hole or loop)?
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ProbeOutcome::BlackHole { .. } | ProbeOutcome::Loop { .. }
        )
    }
}

fn hash_packet(pkt: &Packet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pkt.hash(&mut h);
    h.finish()
}

/// Working memory of a probe walk, reusable across probes so a check of
/// thousands of pairs allocates once, not three containers per pair.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    queue: VecDeque<(Endpoint, Packet)>,
    /// `(arrival point, packet hash)` states in visit order. Doubles as
    /// the revisit set (a walk is at most [`PROBE_HOP_LIMIT`] states, so a
    /// scan beats hashing) and, projected to its endpoints, as the path.
    visited: Vec<(Endpoint, u64)>,
    outputs: Vec<PortNo>,
    rewrote: bool,
}

impl ProbeScratch {
    /// Arrival points of the last walk, in visit order. The walk read
    /// forwarding state of exactly these switches and no others.
    pub(crate) fn path(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.visited.iter().map(|&(at, _)| at)
    }

    /// Did the last walk carry anything but the packet it was given into
    /// a switch? If not, every table lookup it made was for that packet.
    pub(crate) fn rewrote(&self) -> bool {
        self.rewrote
    }

    /// Bytes held by the scratch containers.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<(Endpoint, Packet)>()
            + self.visited.capacity() * std::mem::size_of::<(Endpoint, u64)>()
            + self.outputs.capacity() * std::mem::size_of::<PortNo>()
    }
}

/// Probe `packet` from `src` toward `dst` through the current flow tables.
#[must_use]
pub fn probe(net: &Network, src: MacAddr, dst: MacAddr, packet: &Packet) -> ProbeOutcome {
    let Some(host) = net.host_by_mac(src) else {
        return ProbeOutcome::NoSuchSource;
    };
    walk(net, host.attach, dst, packet, &mut ProbeScratch::default())
}

/// Walk `packet`, entering the network at `start`, toward the host `dst`.
///
/// Everything the walk reads that can change — flow tables, port
/// liveness, up-flags, link status at an emitting port — belongs to a
/// switch it *arrived at*, i.e. one on `scratch.path()` afterwards. A
/// walk cut short (revisit or hop budget) returns before looking at the
/// arrival points still queued, so the same holds for it.
pub(crate) fn walk(
    net: &Network,
    start: Endpoint,
    dst: MacAddr,
    packet: &Packet,
    scratch: &mut ProbeScratch,
) -> ProbeOutcome {
    let ProbeScratch {
        queue,
        visited,
        outputs,
        rewrote,
    } = scratch;
    queue.clear();
    visited.clear();
    *rewrote = false;
    queue.push_back((start, packet.clone()));

    let mut delivered_to_dst = false;
    let mut delivered_other = false;
    let mut punt: Option<Endpoint> = None;
    let mut black_hole: Option<Endpoint> = None;
    let mut hops = 0usize;

    while let Some((at, pkt)) = queue.pop_front() {
        hops += 1;
        let state = (at, hash_packet(&pkt));
        if hops > PROBE_HOP_LIMIT || visited.contains(&state) {
            return ProbeOutcome::Loop {
                path: visited.iter().map(|&(at, _)| at).collect(),
            };
        }
        visited.push(state);
        let Some(sw) = net.switch(at.dpid) else {
            black_hole.get_or_insert(at);
            continue;
        };
        if !sw.is_up() {
            black_hole.get_or_insert(at);
            continue;
        }
        let port_live = |p: u16| sw.port(p).is_some_and(|ps| ps.desc.is_live());
        if !port_live(at.port) {
            black_hole.get_or_insert(at);
            continue;
        }
        let Some(entry) = sw.table().peek(&pkt, PortNo::Phys(at.port)) else {
            punt.get_or_insert(at);
            continue;
        };
        if entry.actions.is_empty() {
            black_hole.get_or_insert(at);
            continue;
        }
        // Fold the action list: every output emits the fully rewritten
        // packet, as the switch's own `emit` does.
        let mut rewritten = pkt;
        outputs.clear();
        outputs.extend(entry.actions.iter().filter_map(|a| a.apply(&mut rewritten)));
        let mut emitted_any = false;
        let mut emit = |p: u16| {
            if !port_live(p) {
                return;
            }
            let from = Endpoint::new(at.dpid, p);
            if let Some(h) = net.host_at(from) {
                emitted_any = true;
                if h.mac == dst {
                    delivered_to_dst = true;
                } else {
                    delivered_other = true;
                }
            } else if let Some(peer) = net.link_peer(from) {
                emitted_any = true;
                *rewrote |= rewritten != *packet;
                queue.push_back((peer, rewritten.clone()));
            }
            // Dangling live port: emitted into the void — not counted.
        };
        for &out in outputs.iter() {
            match out {
                PortNo::Phys(p) => emit(p),
                PortNo::InPort => emit(at.port),
                PortNo::Flood | PortNo::All => {
                    sw.live_ports()
                        .filter(|&p| p != at.port)
                        .for_each(&mut emit);
                }
                // Controller output punts; other pseudo-ports drop.
                PortNo::Controller => {
                    punt.get_or_insert(at);
                }
                _ => {}
            }
        }
        if !emitted_any && punt.is_none() {
            // Every output died (dead ports, dangling links): black-hole.
            black_hole.get_or_insert(at);
        }
    }

    if delivered_to_dst && !delivered_other {
        ProbeOutcome::Delivered
    } else if delivered_to_dst || delivered_other {
        ProbeOutcome::Flooded {
            reached_destination: delivered_to_dst,
        }
    } else if let Some(at) = punt {
        ProbeOutcome::Punt { at }
    } else if let Some(at) = black_hole {
        ProbeOutcome::BlackHole { at }
    } else {
        // Nothing happened at all (e.g. source attach port dead).
        ProbeOutcome::BlackHole { at: start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_netsim::Topology;
    use legosdn_openflow::prelude::*;

    fn net2() -> (Network, Topology) {
        let topo = Topology::linear(2, 1);
        (Network::new(&topo), topo)
    }

    fn install(net: &mut Network, dpid: DatapathId, fm: FlowMod) {
        net.apply(dpid, &Message::FlowMod(fm)).unwrap();
    }

    fn trunk_port(net: &Network, d: DatapathId) -> u16 {
        net.links()
            .find_map(|(l, _)| {
                if l.a.dpid == d {
                    Some(l.a.port)
                } else if l.b.dpid == d {
                    Some(l.b.port)
                } else {
                    None
                }
            })
            .unwrap()
    }

    #[test]
    fn empty_tables_punt() {
        let (net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::Punt { .. }));
        assert!(!out.is_violation());
        // Probing must not mutate counters.
        assert_eq!(
            net.switch(DatapathId(1))
                .unwrap()
                .table()
                .stats()
                .lookup_count,
            0
        );
    }

    #[test]
    fn full_path_delivers() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let b_attach = topo.hosts[1].attach;
        let d1 = topo.hosts[0].attach.dpid;
        let trunk = trunk_port(&net, d1);
        install(
            &mut net,
            d1,
            FlowMod::add(Match::eth_dst(b)).action(Action::Output(PortNo::Phys(trunk))),
        );
        install(
            &mut net,
            b_attach.dpid,
            FlowMod::add(Match::eth_dst(b)).action(Action::Output(PortNo::Phys(b_attach.port))),
        );
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert_eq!(out, ProbeOutcome::Delivered);
        assert!(out.is_delivered());
    }

    #[test]
    fn drop_rule_is_black_hole() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        install(&mut net, d1, FlowMod::add(Match::any()).priority(u16::MAX));
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::BlackHole { at } if at.dpid == d1));
        assert!(out.is_violation());
    }

    #[test]
    fn dead_egress_is_black_hole() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        let trunk = trunk_port(&net, d1);
        install(
            &mut net,
            d1,
            FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(trunk))),
        );
        net.set_link_up(0, false).unwrap();
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::BlackHole { .. }), "got {out:?}");
    }

    #[test]
    fn two_switch_loop_detected() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for sw in topo.switches.keys() {
            let out_port = trunk_port(&net, *sw);
            install(
                &mut net,
                *sw,
                FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(out_port))),
            );
        }
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(
            matches!(out, ProbeOutcome::Loop { ref path } if path.len() >= 2),
            "got {out:?}"
        );
    }

    #[test]
    fn flood_reaches_destination_as_flooded() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for sw in topo.switches.keys() {
            install(
                &mut net,
                *sw,
                FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood)),
            );
        }
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        // Linear(2, 1): the flood exits to host b only (other ports are the
        // trunk); b is on the far switch, so it arrives. Intermediate
        // deliveries to other hosts don't exist here, so Delivered.
        assert!(out.is_delivered(), "got {out:?}");
    }

    #[test]
    fn controller_output_is_punt() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        install(
            &mut net,
            d1,
            FlowMod::add(Match::any()).action(Action::Output(PortNo::Controller)),
        );
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::Punt { .. }), "got {out:?}");
    }

    #[test]
    fn unknown_source() {
        let (net, topo) = net2();
        let ghost = MacAddr::from_index(999);
        let out = probe(
            &net,
            ghost,
            topo.hosts[0].mac,
            &Packet::ethernet(ghost, ghost),
        );
        assert_eq!(out, ProbeOutcome::NoSuchSource);
    }
}
