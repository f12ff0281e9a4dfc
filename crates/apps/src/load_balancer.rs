//! A FlowScale-style traffic-engineering load balancer (paper Table 2).
//!
//! Traffic to a virtual IP is spread round-robin over a backend pool with
//! per-client stickiness: the first flow from a client picks a backend, and
//! subsequent flows stick to it. The switch rewrites destination MAC/IP
//! toward the chosen backend.

use crate::util::{packet_out_reply, snap, unsnap};
use legosdn_codec::{Codec, Memo};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;
use std::collections::BTreeMap;

/// A backend server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub struct Backend {
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    vip: Ipv4Addr,
    backends: Vec<Backend>,
    /// Sticky client → backend index. Memoized (DESIGN.md §15): written
    /// once per new client, read on every flow.
    assignments: Memo<BTreeMap<Ipv4Addr, usize>>,
    rr_next: usize,
    flows_balanced: u64,
}

/// Round-robin virtual-IP load balancer with client stickiness.
#[derive(Debug)]
pub struct LoadBalancer {
    state: State,
    /// Idle timeout for installed flows, seconds.
    pub idle_timeout: u16,
}

impl LoadBalancer {
    /// Balance `vip` over `backends`.
    #[must_use]
    pub fn new(vip: Ipv4Addr, backends: Vec<Backend>) -> Self {
        LoadBalancer {
            state: State {
                vip,
                backends,
                ..State::default()
            },
            idle_timeout: 10,
        }
    }

    /// Flows balanced so far.
    #[must_use]
    pub fn flows_balanced(&self) -> u64 {
        self.state.flows_balanced
    }

    /// Current per-backend assignment counts.
    #[must_use]
    pub fn assignment_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.state.backends.len()];
        for &idx in self.state.assignments.values() {
            if let Some(c) = counts.get_mut(idx) {
                *c += 1;
            }
        }
        counts
    }

    fn pick_backend(&mut self, client: Ipv4Addr) -> Option<(usize, Backend)> {
        if self.state.backends.is_empty() {
            return None;
        }
        let idx = match self.state.assignments.get(&client) {
            Some(&i) if i < self.state.backends.len() => i,
            _ => {
                let i = self.state.rr_next % self.state.backends.len();
                self.state.rr_next = self.state.rr_next.wrapping_add(1);
                self.state.assignments.make_mut().insert(client, i);
                i
            }
        };
        Some((idx, self.state.backends[idx]))
    }
}

impl SdnApp for LoadBalancer {
    fn name(&self) -> &str {
        "load-balancer"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let Event::PacketIn(dpid, pi) = event else {
            return;
        };
        // Only claim traffic addressed to the VIP.
        if pi.packet.ip_dst != Some(self.state.vip) {
            return;
        }
        let Some(client) = pi.packet.ip_src else {
            return;
        };
        let Some((_, backend)) = self.pick_backend(client) else {
            return;
        };

        // Where is the backend? Prefer the device view; fall back to flood.
        let out_port = ctx
            .devices
            .get(backend.mac)
            .filter(|d| d.attach.dpid == *dpid)
            .map(|d| PortNo::Phys(d.attach.port))
            .or_else(|| {
                ctx.devices.get(backend.mac).and_then(|d| {
                    ctx.topology
                        .shortest_path(*dpid, d.attach.dpid)
                        .and_then(|p| p.first().map(|&(_, port)| PortNo::Phys(port)))
                })
            })
            .unwrap_or(PortNo::Flood);

        let actions = vec![
            Action::SetEthDst(backend.mac),
            Action::SetIpDst(backend.ip),
            Action::Output(out_port),
        ];
        let fm = FlowMod::add(Match::from_packet(&pi.packet, pi.in_port))
            .idle_timeout(self.idle_timeout)
            .actions(actions.clone());
        ctx.send(*dpid, Message::FlowMod(fm));
        ctx.send(*dpid, Message::PacketOut(packet_out_reply(pi, actions)));
        self.state.flows_balanced += 1;
    }

    fn snapshot(&self) -> Vec<u8> {
        snap(&self.state)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.state = unsnap(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_controller::services::{DeviceView, TopologyView};
    use legosdn_netsim::{Endpoint, SimTime};

    fn vip() -> Ipv4Addr {
        Ipv4Addr::new(10, 99, 0, 1)
    }

    fn backends() -> Vec<Backend> {
        vec![
            Backend {
                mac: MacAddr::from_index(101),
                ip: Ipv4Addr::from_index(101),
            },
            Backend {
                mac: MacAddr::from_index(102),
                ip: Ipv4Addr::from_index(102),
            },
        ]
    }

    fn views() -> (TopologyView, DeviceView) {
        let mut topo = TopologyView::default();
        topo.switch_up(DatapathId(1), vec![]);
        let mut dev = DeviceView::default();
        dev.learn(
            MacAddr::from_index(101),
            Some(Ipv4Addr::from_index(101)),
            Endpoint::new(DatapathId(1), 5),
            SimTime::ZERO,
        );
        dev.learn(
            MacAddr::from_index(102),
            Some(Ipv4Addr::from_index(102)),
            Endpoint::new(DatapathId(1), 6),
            SimTime::ZERO,
        );
        (topo, dev)
    }

    fn vip_pin(client: u32) -> Event {
        Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::tcp(
                    MacAddr::from_index(u64::from(client)),
                    MacAddr::from_index(200),
                    Ipv4Addr::from_index(client),
                    vip(),
                    10_000 + client as u16,
                    80,
                ),
            },
        )
    }

    #[test]
    fn rewrites_toward_backend() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), backends());
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        lb.on_event(&vip_pin(1), &mut ctx);
        let cmds = ctx.into_commands();
        assert_eq!(cmds.len(), 2);
        match &cmds[0].msg {
            Message::FlowMod(fm) => {
                assert!(fm
                    .actions
                    .contains(&Action::SetEthDst(MacAddr::from_index(101))));
                assert!(fm
                    .actions
                    .contains(&Action::SetIpDst(Ipv4Addr::from_index(101))));
                assert!(fm.actions.contains(&Action::Output(PortNo::Phys(5))));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(lb.flows_balanced(), 1);
    }

    #[test]
    fn round_robins_distinct_clients() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), backends());
        for client in 1..=4 {
            let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
            lb.on_event(&vip_pin(client), &mut ctx);
        }
        assert_eq!(lb.assignment_histogram(), vec![2, 2]);
    }

    #[test]
    fn clients_are_sticky() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), backends());
        for _ in 0..3 {
            let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
            lb.on_event(&vip_pin(1), &mut ctx);
        }
        assert_eq!(lb.assignment_histogram(), vec![1, 0]);
        assert_eq!(lb.flows_balanced(), 3);
    }

    #[test]
    fn ignores_non_vip_traffic() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), backends());
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        let ev = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::tcp(
                    MacAddr::from_index(1),
                    MacAddr::from_index(2),
                    Ipv4Addr::from_index(1),
                    Ipv4Addr::from_index(2),
                    1,
                    80,
                ),
            },
        );
        lb.on_event(&ev, &mut ctx);
        assert!(ctx.commands().is_empty());
    }

    #[test]
    fn empty_pool_does_nothing() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), vec![]);
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        lb.on_event(&vip_pin(1), &mut ctx);
        assert!(ctx.commands().is_empty());
    }

    #[test]
    fn stickiness_survives_snapshot() {
        let (topo, dev) = views();
        let mut lb = LoadBalancer::new(vip(), backends());
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        lb.on_event(&vip_pin(1), &mut ctx);
        let snapshot = lb.snapshot();
        let mut fresh = LoadBalancer::new(vip(), backends());
        fresh.restore(&snapshot).unwrap();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        fresh.on_event(&vip_pin(1), &mut ctx);
        assert_eq!(
            fresh.assignment_histogram(),
            vec![1, 0],
            "same backend after restore"
        );
    }

    #[test]
    fn remote_backend_routes_via_topology() {
        // Backend on a different switch: first hop follows the path.
        let mut topo = TopologyView::default();
        topo.switch_up(DatapathId(1), vec![]);
        topo.switch_up(DatapathId(2), vec![]);
        topo.link_up(
            Endpoint::new(DatapathId(1), 9),
            Endpoint::new(DatapathId(2), 1),
        );
        let mut dev = DeviceView::default();
        dev.learn(
            MacAddr::from_index(101),
            Some(Ipv4Addr::from_index(101)),
            Endpoint::new(DatapathId(2), 5),
            SimTime::ZERO,
        );
        let mut lb = LoadBalancer::new(
            vip(),
            vec![Backend {
                mac: MacAddr::from_index(101),
                ip: Ipv4Addr::from_index(101),
            }],
        );
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        lb.on_event(&vip_pin(1), &mut ctx);
        let cmds = ctx.into_commands();
        match &cmds[0].msg {
            Message::FlowMod(fm) => {
                assert!(fm.actions.contains(&Action::Output(PortNo::Phys(9))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
