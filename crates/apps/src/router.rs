//! A RouteFlow-style shortest-path router (paper Table 2: "Routing").
//!
//! Reactively routes packet-ins along BFS shortest paths from the
//! controller's topology view, installing per-destination flows at every
//! hop. Tears installed routes down when a link they traverse fails — the
//! stateful behaviour that makes naive app reboots lossy (paper §1).

use crate::util::{packet_out_reply, snap, unsnap};
use legosdn_codec::{Codec, Memo};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_netsim::Endpoint;
use legosdn_openflow::prelude::*;

/// One installed route.
#[derive(Clone, Debug, PartialEq, Codec)]
struct Route {
    dst: MacAddr,
    cookie: u64,
    /// `(switch, out_port)` per hop, including the final host-facing hop.
    hops: Vec<(DatapathId, u16)>,
}

impl Route {
    /// Does this route forward across the link `a`—`b`?
    fn uses_link(&self, a: Endpoint, b: Endpoint) -> bool {
        self.hops
            .iter()
            .any(|&(d, p)| (d == a.dpid && p == a.port) || (d == b.dpid && p == b.port))
    }
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    /// Memoized (DESIGN.md §15): written when a route is installed or
    /// torn down, not by the floods and failures in between.
    routes: Memo<Vec<Route>>,
    next_cookie: u64,
    packets_routed: u64,
    routes_torn_down: u64,
}

/// Reactive shortest-path router.
#[derive(Debug, Default)]
pub struct ShortestPathRouter {
    state: State,
    /// Idle timeout for installed route flows, seconds (0 = permanent).
    pub idle_timeout: u16,
}

/// Cookie namespace so the router only deletes its own flows.
const COOKIE_BASE: u64 = 0x5250_0000_0000_0000; // "RP"

impl ShortestPathRouter {
    /// A router installing flows with a 30-second idle timeout.
    #[must_use]
    pub fn new() -> Self {
        ShortestPathRouter {
            state: State::default(),
            idle_timeout: 30,
        }
    }

    /// Routes currently installed.
    #[must_use]
    pub fn active_routes(&self) -> usize {
        self.state.routes.len()
    }

    /// Packets routed so far.
    #[must_use]
    pub fn packets_routed(&self) -> u64 {
        self.state.packets_routed
    }

    fn route_packet(&mut self, dpid: DatapathId, pi: &PacketIn, ctx: &mut Ctx<'_>) {
        let dst = pi.packet.eth_dst;
        if dst.is_multicast() {
            ctx.send(
                dpid,
                Message::PacketOut(packet_out_reply(pi, vec![Action::Output(PortNo::Flood)])),
            );
            return;
        }
        let Some(dev) = ctx.devices.get(dst) else {
            // Destination unknown: flood and let the reply teach us.
            ctx.send(
                dpid,
                Message::PacketOut(packet_out_reply(pi, vec![Action::Output(PortNo::Flood)])),
            );
            return;
        };
        let target = dev.attach;
        let Some(path) = ctx.topology.shortest_path(dpid, target.dpid) else {
            // No path right now (partition): drop by doing nothing.
            return;
        };
        // Hops along the path, then the host-facing port.
        let mut hops: Vec<(DatapathId, u16)> = path;
        hops.push((target.dpid, target.port));

        let cookie = COOKIE_BASE | self.state.next_cookie;
        self.state.next_cookie += 1;
        for &(d, out_port) in &hops {
            let fm = FlowMod::add(Match::eth_dst(dst))
                .cookie(cookie)
                .idle_timeout(self.idle_timeout)
                .action(Action::Output(PortNo::Phys(out_port)));
            ctx.send(d, Message::FlowMod(fm));
        }
        // Release the original packet along the fresh path.
        let first_port = hops[0].1;
        ctx.send(
            dpid,
            Message::PacketOut(packet_out_reply(
                pi,
                vec![Action::Output(PortNo::Phys(first_port))],
            )),
        );
        self.state.packets_routed += 1;
        self.state
            .routes
            .make_mut()
            .push(Route { dst, cookie, hops });
    }

    /// Remove and return the routes `dead` selects, in order. Touches the
    /// route list only if there are any.
    fn take_routes(&mut self, dead: impl Fn(&Route) -> bool) -> Vec<Route> {
        if !self.state.routes.iter().any(&dead) {
            return Vec::new();
        }
        let routes = self.state.routes.make_mut();
        let (gone, alive) = routes.drain(..).partition(dead);
        *routes = alive;
        gone
    }

    fn handle_link_down(&mut self, a: Endpoint, b: Endpoint, ctx: &mut Ctx<'_>) {
        for route in self.take_routes(|r| r.uses_link(a, b)) {
            self.state.routes_torn_down += 1;
            for &(d, _) in &route.hops {
                ctx.send(
                    d,
                    Message::FlowMod(FlowMod::delete(Match::eth_dst(route.dst))),
                );
            }
        }
    }
}

impl SdnApp for ShortestPathRouter {
    fn name(&self) -> &str {
        "shortest-path-router"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![
            EventKind::PacketIn,
            EventKind::LinkDown,
            EventKind::SwitchDown,
            EventKind::FlowRemoved,
        ]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match event {
            Event::PacketIn(dpid, pi) => self.route_packet(*dpid, pi, ctx),
            Event::LinkDown { a, b } => self.handle_link_down(*a, *b, ctx),
            Event::SwitchDown(dpid) => {
                // Routes through the dead switch are gone with it.
                let gone = self.take_routes(|r| r.hops.iter().any(|&(d, _)| d == *dpid));
                self.state.routes_torn_down += gone.len() as u64;
            }
            Event::FlowRemoved(_, fr)
                // An idle-expired route: forget the matching record.
                if fr.cookie & COOKIE_BASE == COOKIE_BASE => {
                    self.take_routes(|r| r.cookie == fr.cookie);
                }
            _ => {}
        }
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
    use legosdn_netsim::SimTime;

    /// 1 -(1:1)- 2 -(2:1)- 3, host A at 1:3, host B at 3:3.
    fn views() -> (TopologyView, DeviceView) {
        let mut topo = TopologyView::default();
        for d in 1..=3 {
            topo.switch_up(DatapathId(d), vec![]);
        }
        topo.link_up(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 1),
        );
        topo.link_up(
            Endpoint::new(DatapathId(2), 2),
            Endpoint::new(DatapathId(3), 1),
        );
        let mut dev = DeviceView::default();
        dev.learn(
            MacAddr::from_index(1),
            Some(Ipv4Addr::from_index(1)),
            Endpoint::new(DatapathId(1), 3),
            SimTime::ZERO,
        );
        dev.learn(
            MacAddr::from_index(2),
            Some(Ipv4Addr::from_index(2)),
            Endpoint::new(DatapathId(3), 3),
            SimTime::ZERO,
        );
        (topo, dev)
    }

    fn pin(dpid: u64, src: u64, dst: u64) -> Event {
        Event::PacketIn(
            DatapathId(dpid),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(3),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(src), MacAddr::from_index(dst)),
            },
        )
    }

    #[test]
    fn installs_flows_along_whole_path() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        let cmds = ctx.into_commands();
        // 3 flow-mods (switches 1,2,3) + 1 packet-out.
        let fms: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(c.msg, Message::FlowMod(_)))
            .collect();
        assert_eq!(fms.len(), 3);
        let dpids: Vec<u64> = fms.iter().map(|c| c.dpid.0).collect();
        assert_eq!(dpids, vec![1, 2, 3]);
        // Final hop forwards to the host port.
        match &fms[2].msg {
            Message::FlowMod(fm) => {
                assert_eq!(fm.actions, vec![Action::Output(PortNo::Phys(3))]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(cmds.iter().any(|c| matches!(c.msg, Message::PacketOut(_))));
        assert_eq!(app.active_routes(), 1);
    }

    #[test]
    fn unknown_destination_floods() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 99), &mut ctx);
        let cmds = ctx.into_commands();
        assert_eq!(cmds.len(), 1);
        assert!(matches!(&cmds[0].msg, Message::PacketOut(po)
            if po.actions == vec![Action::Output(PortNo::Flood)]));
        assert_eq!(app.active_routes(), 0);
    }

    #[test]
    fn no_path_means_drop() {
        let (mut topo, dev) = views();
        topo.link_down(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 1),
        );
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        assert!(ctx.commands().is_empty());
    }

    #[test]
    fn link_down_tears_down_affected_routes() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        assert_eq!(app.active_routes(), 1);
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(
            &Event::LinkDown {
                a: Endpoint::new(DatapathId(2), 2),
                b: Endpoint::new(DatapathId(3), 1),
            },
            &mut ctx,
        );
        let cmds = ctx.into_commands();
        assert_eq!(cmds.len(), 3, "delete at every hop: {cmds:?}");
        assert!(cmds
            .iter()
            .all(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.is_delete())));
        assert_eq!(app.active_routes(), 0);
    }

    #[test]
    fn unrelated_link_down_is_ignored() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(
            &Event::LinkDown {
                a: Endpoint::new(DatapathId(7), 1),
                b: Endpoint::new(DatapathId(8), 1),
            },
            &mut ctx,
        );
        assert!(ctx.commands().is_empty());
        assert_eq!(app.active_routes(), 1);
    }

    #[test]
    fn switch_down_forgets_routes_through_it() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&Event::SwitchDown(DatapathId(2)), &mut ctx);
        assert_eq!(app.active_routes(), 0);
    }

    #[test]
    fn flow_removed_retires_route_record() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        let cookie = COOKIE_BASE; // first route
        let fr = Event::FlowRemoved(
            DatapathId(1),
            FlowRemoved {
                mat: Match::eth_dst(MacAddr::from_index(2)),
                cookie,
                priority: 0x8000,
                reason: FlowRemovedReason::IdleTimeout,
                duration_sec: 30,
                idle_timeout: 30,
                packet_count: 5,
                byte_count: 500,
            },
        );
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&fr, &mut ctx);
        assert_eq!(app.active_routes(), 0);
    }

    #[test]
    fn state_roundtrips() {
        let (topo, dev) = views();
        let mut app = ShortestPathRouter::new();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&pin(1, 1, 2), &mut ctx);
        let snap = app.snapshot();
        let mut fresh = ShortestPathRouter::new();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.active_routes(), 1);
        assert_eq!(fresh.packets_routed(), 1);
    }
}
