//! Translation from raw simulator events to controller-level [`Event`]s,
//! including the switch handshake and LLDP link discovery.
//!
//! This is the controller core the paper treats as "a common layer that is
//! highly reused" (§1): switch manager, link discovery, and device manager
//! rolled into one deterministic pipeline. Both the monolithic baseline and
//! the LegoSDN runtime drive their app dispatch from this translator, so the
//! two architectures see byte-identical event streams — the property the
//! availability experiments depend on.

use crate::event::Event;
use crate::services::{DeviceView, TopologyView};
use legosdn_netsim::{Endpoint, NetEvent, Network};
use legosdn_openflow::messages::{PacketOut, StatsRequest};
use legosdn_openflow::packet::EtherType;
use legosdn_openflow::prelude::{
    Action, BufferId, DatapathId, MacAddr, Message, Packet, PortNo, Xid,
};

/// Translates raw network events into app-facing events while maintaining
/// the controller's topology and device views.
#[derive(Debug, Default)]
pub struct EventTranslator {
    /// The switch/link view (switch manager + link discovery state).
    pub topology: TopologyView,
    /// The end-host view (device manager state).
    pub devices: DeviceView,
    next_xid: Xid,
    /// Count of translator-level protocol actions (handshakes, probes).
    pub control_messages_sent: u64,
}

impl EventTranslator {
    /// Fresh translator with empty views.
    #[must_use]
    pub fn new() -> Self {
        EventTranslator::default()
    }

    fn xid(&mut self) -> Xid {
        let x = self.next_xid;
        self.next_xid = self.next_xid.next();
        x
    }

    /// Process one raw event, updating views and producing app events.
    pub fn process(&mut self, net: &mut Network, raw: NetEvent) -> Vec<Event> {
        match raw {
            NetEvent::SwitchConnected(dpid) => self.handle_switch_connected(net, dpid),
            NetEvent::SwitchDisconnected(dpid) => self.handle_switch_disconnected(dpid),
            NetEvent::FromSwitch(dpid, msg) => self.handle_message(net, dpid, msg),
        }
    }

    fn handle_switch_connected(&mut self, net: &mut Network, dpid: DatapathId) -> Vec<Event> {
        // Handshake: features request → port inventory.
        let _ = self.xid();
        self.control_messages_sent += 1;
        let ports = match net.apply(dpid, &Message::FeaturesRequest) {
            Ok(out) => out
                .replies
                .into_iter()
                .find_map(|m| match m {
                    Message::FeaturesReply(f) => Some(f.ports),
                    _ => None,
                })
                .unwrap_or_default(),
            Err(_) => return Vec::new(),
        };
        self.topology.switch_up(dpid, ports);
        let mut events = vec![Event::SwitchUp(dpid)];
        events.extend(self.probe_switch(net, dpid));
        events
    }

    fn handle_switch_disconnected(&mut self, dpid: DatapathId) -> Vec<Event> {
        let dead = self.topology.switch_down(dpid);
        self.devices.purge_switch(dpid);
        let mut events: Vec<Event> = dead
            .into_iter()
            .map(|l| Event::LinkDown { a: l.a, b: l.b })
            .collect();
        events.push(Event::SwitchDown(dpid));
        events
    }

    fn handle_message(&mut self, net: &mut Network, dpid: DatapathId, msg: Message) -> Vec<Event> {
        match msg {
            Message::PacketIn(pi) => {
                if pi.packet.eth_type == EtherType::Lldp {
                    return self.handle_lldp(dpid, &pi.packet, pi.in_port);
                }
                // Learn the source host — but never on a port we know to be
                // an inter-switch link.
                if let Some(p) = pi.in_port.phys() {
                    let at = Endpoint::new(dpid, p);
                    if self.topology.link_at(at).is_none() {
                        self.devices
                            .learn(pi.packet.eth_src, pi.packet.ip_src, at, net.now());
                    }
                }
                vec![Event::PacketIn(dpid, pi)]
            }
            Message::PortStatus(ps) => {
                let mut events = Vec::new();
                // Keep the port inventory current.
                self.topology.port_refresh(dpid, &ps.desc);
                if let Some(p) = ps.desc.port_no.phys() {
                    let at = Endpoint::new(dpid, p);
                    if !ps.desc.is_live() {
                        if let Some(link) = self.topology.link_at(at) {
                            self.topology.link_down(link.a, link.b);
                            events.push(Event::LinkDown {
                                a: link.a,
                                b: link.b,
                            });
                        }
                    } else {
                        // Port came back: re-probe to rediscover the link.
                        events.extend(self.probe_port(net, dpid, p));
                    }
                }
                events.push(Event::PortStatus(dpid, ps));
                events
            }
            Message::FlowRemoved(fr) => vec![Event::FlowRemoved(dpid, fr)],
            Message::StatsReply(sr) => vec![Event::StatsReply(dpid, sr)],
            Message::Error(e) => vec![Event::Error(dpid, e)],
            // Handshake echoes and the like carry no app-level meaning.
            _ => Vec::new(),
        }
    }

    fn handle_lldp(&mut self, dpid: DatapathId, pkt: &Packet, in_port: PortNo) -> Vec<Event> {
        let (Some(origin_ip), Some(origin_port), Some(p)) =
            (pkt.ip_src, pkt.tp_src, in_port.phys())
        else {
            return Vec::new();
        };
        let origin = Endpoint::new(DatapathId(u64::from(origin_ip.0)), origin_port);
        let here = Endpoint::new(dpid, p);
        if self.topology.link_up(origin, here) {
            let key = crate::services::LinkKey::new(origin, here);
            // A trunk port can't host a device; forget anything mislearned.
            vec![Event::LinkUp { a: key.a, b: key.b }]
        } else {
            Vec::new()
        }
    }

    /// Send LLDP probes out every live port of `dpid`. Probes that reach a
    /// neighbor switch punt to the controller and are consumed by
    /// [`Self::process`], yielding `LinkUp` events synchronously (the
    /// simulator walks packets inline).
    pub fn probe_switch(&mut self, net: &mut Network, dpid: DatapathId) -> Vec<Event> {
        let ports: Vec<u16> = match net.switch(dpid) {
            Some(sw) => sw.live_ports().collect(),
            None => return Vec::new(),
        };
        let mut events = Vec::new();
        for p in ports {
            events.extend(self.probe_port(net, dpid, p));
        }
        events
    }

    /// Probe one port, consuming any resulting LLDP packet-ins.
    fn probe_port(&mut self, net: &mut Network, dpid: DatapathId, port: u16) -> Vec<Event> {
        let hw = net
            .switch(dpid)
            .and_then(|s| s.port(port))
            .map(|p| p.desc.hw_addr)
            .unwrap_or(MacAddr::from_index(0));
        let probe = Packet::lldp(hw, dpid.0 as u32, port);
        let po = PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Phys(port))],
            packet: Some(probe),
        };
        self.control_messages_sent += 1;
        if net.apply(dpid, &Message::PacketOut(po)).is_err() {
            return Vec::new();
        }
        // The probe's packet-in (if the far end is a switch) is now queued;
        // consume LLDP arrivals, leaving other events untouched.
        let mut events = Vec::new();
        let pending = net.poll_events();
        for ev in pending {
            match ev {
                NetEvent::FromSwitch(d, Message::PacketIn(pi))
                    if pi.packet.eth_type == EtherType::Lldp =>
                {
                    events.extend(self.handle_lldp(d, &pi.packet, pi.in_port));
                }
                other => events.extend(self.process(net, other)),
            }
        }
        events
    }

    /// Issue a flow-stats request to a switch (helper for monitoring apps
    /// running in-process with the controller core).
    pub fn request_flow_stats(&mut self, net: &mut Network, dpid: DatapathId) -> Vec<Event> {
        self.control_messages_sent += 1;
        let req = Message::StatsRequest(StatsRequest::Flow {
            mat: legosdn_openflow::prelude::Match::any(),
            out_port: PortNo::None,
        });
        match net.apply(dpid, &req) {
            Ok(out) => out
                .replies
                .into_iter()
                .filter_map(|m| match m {
                    Message::StatsReply(sr) => Some(Event::StatsReply(dpid, sr)),
                    _ => None,
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_netsim::Topology;

    fn boot(topo: &Topology) -> (Network, EventTranslator, Vec<Event>) {
        let mut net = Network::new(topo);
        let mut tr = EventTranslator::new();
        let mut events = Vec::new();
        let raw = net.poll_events();
        for r in raw {
            events.extend(tr.process(&mut net, r));
        }
        (net, tr, events)
    }

    #[test]
    fn handshake_registers_switches() {
        let topo = Topology::linear(3, 1);
        let (_, tr, events) = boot(&topo);
        assert_eq!(tr.topology.switches.len(), 3);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::SwitchUp(_)))
                .count(),
            3
        );
    }

    #[test]
    fn lldp_discovers_every_link() {
        let topo = Topology::linear(4, 1);
        let (_, tr, events) = boot(&topo);
        assert_eq!(tr.topology.n_links(), 3, "all linear links discovered");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::LinkUp { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn lldp_discovers_fat_tree() {
        let topo = Topology::fat_tree(4);
        let (_, tr, _) = boot(&topo);
        assert_eq!(tr.topology.n_links(), 32);
    }

    #[test]
    fn discovered_paths_match_topology() {
        let topo = Topology::linear(4, 0);
        let (_, tr, _) = boot(&topo);
        let path = tr
            .topology
            .shortest_path(DatapathId(1), DatapathId(4))
            .unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn packet_in_learns_host_and_emits_event() {
        let topo = Topology::linear(2, 1);
        let (mut net, mut tr, _) = boot(&topo);
        let a = topo.hosts[0].clone();
        let b = topo.hosts[1].clone();
        net.inject(a.mac, Packet::ethernet(a.mac, b.mac)).unwrap();
        let mut events = Vec::new();
        for r in net.poll_events() {
            events.extend(tr.process(&mut net, r));
        }
        assert!(events.iter().any(|e| matches!(e, Event::PacketIn(..))));
        let dev = tr.devices.get(a.mac).expect("host learned");
        assert_eq!(dev.attach, a.attach);
    }

    #[test]
    fn hosts_never_learned_on_trunk_ports() {
        // Inject across switches so the second switch sees the packet on its
        // inter-switch port; the host must stay attached to the first.
        let topo = Topology::linear(2, 1);
        let (mut net, mut tr, _) = boot(&topo);
        let a = topo.hosts[0].clone();
        let b = topo.hosts[1].clone();
        // Flood everywhere so the packet reaches switch 2 via the trunk.
        for sw in topo.switches.keys() {
            let fm =
                legosdn_openflow::prelude::FlowMod::add(legosdn_openflow::prelude::Match::any())
                    .action(Action::Output(PortNo::Flood))
                    .action(Action::Output(PortNo::Controller));
            net.apply(*sw, &Message::FlowMod(fm)).unwrap();
        }
        net.inject(a.mac, Packet::ethernet(a.mac, b.mac)).unwrap();
        for r in net.poll_events() {
            tr.process(&mut net, r);
        }
        let dev = tr.devices.get(a.mac).expect("learned somewhere");
        assert_eq!(
            dev.attach, a.attach,
            "must be learned at the edge, not the trunk"
        );
    }

    #[test]
    fn switch_down_produces_linkdowns_then_switchdown() {
        let topo = Topology::linear(3, 0);
        let (mut net, mut tr, _) = boot(&topo);
        net.set_switch_up(DatapathId(2), false).unwrap();
        let mut events = Vec::new();
        for r in net.poll_events() {
            events.extend(tr.process(&mut net, r));
        }
        let downs: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::LinkDown { .. }))
            .collect();
        assert_eq!(downs.len(), 2, "middle switch had two links: {events:?}");
        let sd_pos = events
            .iter()
            .position(|e| matches!(e, Event::SwitchDown(_)))
            .unwrap();
        let ld_pos = events
            .iter()
            .position(|e| matches!(e, Event::LinkDown { .. }))
            .unwrap();
        assert!(ld_pos < sd_pos, "link-downs precede the switch-down");
        assert_eq!(tr.topology.n_links(), 0);
    }

    #[test]
    fn link_down_translates_via_port_status() {
        let topo = Topology::linear(2, 0);
        let (mut net, mut tr, _) = boot(&topo);
        net.set_link_up(0, false).unwrap();
        let mut events = Vec::new();
        for r in net.poll_events() {
            events.extend(tr.process(&mut net, r));
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::LinkDown { .. }))
                .count(),
            1,
            "one LinkDown despite two port-status reports: {events:?}"
        );
        assert_eq!(tr.topology.n_links(), 0);
        // Restore: port-status up triggers re-probe and rediscovery.
        net.set_link_up(0, true).unwrap();
        let mut events = Vec::new();
        for r in net.poll_events() {
            events.extend(tr.process(&mut net, r));
        }
        assert!(events.iter().any(|e| matches!(e, Event::LinkUp { .. })));
        assert_eq!(tr.topology.n_links(), 1);
    }

    #[test]
    fn identical_port_status_refresh_leaves_the_inventory_shared() {
        let topo = Topology::linear(2, 0);
        let (mut net, mut tr, _) = boot(&topo);
        net.set_link_up(0, false).unwrap();
        let reports = net.poll_events();
        let before = tr.topology.clone();
        for r in reports.clone() {
            tr.process(&mut net, r);
        }
        assert!(
            !std::sync::Arc::ptr_eq(&before.switches, &tr.topology.switches),
            "a port going down is a real inventory change"
        );
        // The same reports again describe ports exactly as recorded.
        let before = tr.topology.clone();
        for r in reports {
            tr.process(&mut net, r);
        }
        assert!(std::sync::Arc::ptr_eq(
            &before.switches,
            &tr.topology.switches
        ));
    }

    #[test]
    fn stats_request_helper_roundtrips() {
        let topo = Topology::linear(1, 1);
        let (mut net, mut tr, _) = boot(&topo);
        let events = tr.request_flow_stats(&mut net, DatapathId(1));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::StatsReply(..)));
    }

    #[test]
    fn switch_reconnect_rediscovers() {
        let topo = Topology::linear(2, 0);
        let (mut net, mut tr, _) = boot(&topo);
        net.set_switch_up(DatapathId(2), false).unwrap();
        for r in net.poll_events() {
            tr.process(&mut net, r);
        }
        assert_eq!(tr.topology.n_links(), 0);
        net.set_switch_up(DatapathId(2), true).unwrap();
        let mut events = Vec::new();
        for r in net.poll_events() {
            events.extend(tr.process(&mut net, r));
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SwitchUp(d) if *d == DatapathId(2))));
        assert_eq!(
            tr.topology.n_links(),
            1,
            "link rediscovered after reconnect"
        );
    }
}
