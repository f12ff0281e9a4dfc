//! Snapshot bytes are a compatibility surface: checkpoints taken by one
//! build are restored by the next, and stubs ship them across the wire.
//! Each app whose state is held in memoized segments (`legosdn_codec::Memo`,
//! DESIGN.md §15) is pinned here to the bytes its plain, un-wrapped state
//! layout produces for a fixed event sequence — and must restore from
//! those bytes.
//!
//! The `Old*` structs are the state layouts as they were before any field
//! was wrapped. They are the oracle; do not "update" them to match an app.

use legosdn_apps::{
    Backend, LearningSwitch, LoadBalancer, Sample, ShortestPathRouter, SpanningTree, StatsMonitor,
};
use legosdn_codec::{to_bytes, Codec};
use legosdn_controller::app::{Ctx, SdnApp};
use legosdn_controller::event::Event;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::{Endpoint, SimTime};
use legosdn_openflow::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn dp(d: u64) -> DatapathId {
    DatapathId(d)
}

fn ep(d: u64, p: u16) -> Endpoint {
    Endpoint::new(dp(d), p)
}

fn mac(i: u64) -> MacAddr {
    MacAddr::from_index(i)
}

fn deliver(app: &mut dyn SdnApp, ev: &Event, topo: &TopologyView, dev: &DeviceView, now: SimTime) {
    let mut ctx = Ctx::new(now, topo, dev);
    app.on_event(ev, &mut ctx);
}

/// The app's snapshot is `want`'s encoding, a fresh app restores from
/// those bytes, and its own next snapshot is again the same bytes.
fn assert_pinned<S: Codec>(app: &dyn SdnApp, fresh: &mut dyn SdnApp, want: &S) {
    let golden = to_bytes(want).unwrap();
    assert_eq!(app.snapshot(), golden, "{} snapshot moved", app.name());
    // A second snapshot (served from warm memos) is the same bytes.
    assert_eq!(app.snapshot(), golden);
    fresh.restore(&golden).expect("old bytes restore");
    assert_eq!(fresh.snapshot(), golden, "{} restore moved", app.name());
}

fn eth_pin(dpid: u64, src: u64, dst: u64, port: u16) -> Event {
    Event::PacketIn(
        dp(dpid),
        PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(port),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(mac(src), mac(dst)),
        },
    )
}

// ---------------------------------------------------------------- learning

#[derive(Codec)]
struct OldLearningSwitchState {
    tables: BTreeMap<DatapathId, BTreeMap<MacAddr, u16>>,
    packets_handled: u64,
    flows_installed: u64,
}

#[test]
fn learning_switch_snapshot_is_pinned() {
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let mut app = LearningSwitch::new();
    let events = [
        eth_pin(1, 1, 2, 3), // learn 1@3 on s1, flood
        eth_pin(1, 2, 1, 7), // learn 2@7 on s1, install toward 1
        eth_pin(2, 1, 2, 4), // learn 1@4 on s2, flood
        eth_pin(1, 1, 2, 3), // nothing new on s1, install toward 2
        eth_pin(3, 9, 1, 1), // learn 9@1 on s3
        eth_pin(1, 2, 1, 8), // host 2 moved to port 8 on s1, install
        Event::SwitchDown(dp(3)),
    ];
    for ev in &events {
        deliver(&mut app, ev, &topo, &dev, SimTime::ZERO);
        // Snapshot between events, as Crash-Pad does: later writes must
        // still show through the memos this warms.
        let _ = app.snapshot();
    }
    let want = OldLearningSwitchState {
        tables: BTreeMap::from([
            (dp(1), BTreeMap::from([(mac(1), 3), (mac(2), 8)])),
            (dp(2), BTreeMap::from([(mac(1), 4)])),
        ]),
        packets_handled: 6,
        flows_installed: 3,
    };
    assert_pinned(&app, &mut LearningSwitch::new(), &want);
}

// ---------------------------------------------------------------- spanning

#[derive(Codec)]
struct OldSpanningTreeState {
    blocked: BTreeMap<DatapathId, BTreeSet<u16>>,
    recomputations: u64,
}

#[test]
fn spanning_tree_snapshot_is_pinned() {
    // Triangle 1-2, 2-3, 1-3: BFS from 1 keeps 1-2 and 1-3, blocks 2-3.
    let mut topo = TopologyView::default();
    for d in 1..=3 {
        topo.switch_up(dp(d), vec![]);
    }
    topo.link_up(ep(1, 1), ep(2, 1));
    topo.link_up(ep(2, 2), ep(3, 1));
    topo.link_up(ep(1, 2), ep(3, 2));
    let dev = DeviceView::default();
    let mut app = SpanningTree::new();
    deliver(
        &mut app,
        &Event::SwitchUp(dp(1)),
        &topo,
        &dev,
        SimTime::ZERO,
    );
    let _ = app.snapshot();
    // Same topology again: recomputed, nothing moves.
    deliver(
        &mut app,
        &Event::SwitchUp(dp(2)),
        &topo,
        &dev,
        SimTime::ZERO,
    );
    let want = OldSpanningTreeState {
        blocked: BTreeMap::from([(dp(2), BTreeSet::from([2])), (dp(3), BTreeSet::from([1]))]),
        recomputations: 2,
    };
    assert_pinned(&app, &mut SpanningTree::new(), &want);

    // A tree link fails: the spare is unblocked, the map empties.
    let _ = app.snapshot();
    topo.link_down(ep(1, 1), ep(2, 1));
    let down = Event::LinkDown {
        a: ep(1, 1),
        b: ep(2, 1),
    };
    deliver(&mut app, &down, &topo, &dev, SimTime::ZERO);
    let want = OldSpanningTreeState {
        blocked: BTreeMap::new(),
        recomputations: 3,
    };
    assert_pinned(&app, &mut SpanningTree::new(), &want);
}

// ------------------------------------------------------------------ router

#[derive(Codec)]
struct OldRoute {
    dst: MacAddr,
    cookie: u64,
    hops: Vec<(DatapathId, u16)>,
}

#[derive(Codec)]
struct OldRouterState {
    routes: Vec<OldRoute>,
    next_cookie: u64,
    packets_routed: u64,
    routes_torn_down: u64,
}

const ROUTER_COOKIE_BASE: u64 = 0x5250_0000_0000_0000;

#[test]
fn router_snapshot_is_pinned() {
    // 1 -(1:1)- 2 -(2:1)- 3, host 1 at 1:3, host 2 at 3:3, host 3 at 2:3.
    let mut topo = TopologyView::default();
    for d in 1..=3 {
        topo.switch_up(dp(d), vec![]);
    }
    topo.link_up(ep(1, 1), ep(2, 1));
    topo.link_up(ep(2, 2), ep(3, 1));
    let mut dev = DeviceView::default();
    for (host, at) in [(1, ep(1, 3)), (2, ep(3, 3)), (3, ep(2, 3))] {
        dev.learn(mac(host), None, at, SimTime::ZERO);
    }
    let mut app = ShortestPathRouter::new();
    let events = [
        eth_pin(1, 1, 2, 3),  // route 1→3 toward host 2
        eth_pin(1, 1, 99, 3), // unknown destination: flood, no state
        eth_pin(1, 1, 3, 3),  // route 1→2 toward host 3
        eth_pin(3, 2, 1, 3),  // route 3→1 toward host 1
        // 2-3 fails: the first and third routes die, the second survives.
        Event::LinkDown {
            a: ep(2, 2),
            b: ep(3, 1),
        },
        // A link no route uses and a switch no route crosses: nothing
        // changes.
        Event::LinkDown {
            a: ep(7, 1),
            b: ep(8, 1),
        },
        Event::SwitchDown(dp(9)),
    ];
    for ev in &events {
        deliver(&mut app, ev, &topo, &dev, SimTime::ZERO);
        let _ = app.snapshot();
    }
    let want = OldRouterState {
        routes: vec![OldRoute {
            dst: mac(3),
            cookie: ROUTER_COOKIE_BASE | 1,
            hops: vec![(dp(1), 1), (dp(2), 3)],
        }],
        next_cookie: 3,
        packets_routed: 3,
        routes_torn_down: 2,
    };
    assert_pinned(&app, &mut ShortestPathRouter::new(), &want);
}

// ----------------------------------------------------------- load balancer

#[derive(Codec)]
struct OldLoadBalancerState {
    vip: Ipv4Addr,
    backends: Vec<Backend>,
    assignments: BTreeMap<Ipv4Addr, usize>,
    rr_next: usize,
    flows_balanced: u64,
}

#[test]
fn load_balancer_snapshot_is_pinned() {
    let vip = Ipv4Addr::new(10, 99, 0, 1);
    let backends = vec![
        Backend {
            mac: mac(101),
            ip: Ipv4Addr::from_index(101),
        },
        Backend {
            mac: mac(102),
            ip: Ipv4Addr::from_index(102),
        },
    ];
    let mut topo = TopologyView::default();
    topo.switch_up(dp(1), vec![]);
    let dev = DeviceView::default();
    let vip_pin = |client: u32| {
        Event::PacketIn(
            dp(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::tcp(
                    mac(u64::from(client)),
                    mac(200),
                    Ipv4Addr::from_index(client),
                    vip,
                    10_000,
                    80,
                ),
            },
        )
    };
    let mut app = LoadBalancer::new(vip, backends.clone());
    // Client 1 twice (sticky), then 2 and 3 round-robin.
    for client in [1, 1, 2, 3] {
        deliver(&mut app, &vip_pin(client), &topo, &dev, SimTime::ZERO);
        let _ = app.snapshot();
    }
    let want = OldLoadBalancerState {
        vip,
        backends: backends.clone(),
        assignments: BTreeMap::from([
            (Ipv4Addr::from_index(1), 0),
            (Ipv4Addr::from_index(2), 1),
            (Ipv4Addr::from_index(3), 0),
        ]),
        rr_next: 3,
        flows_balanced: 4,
    };
    assert_pinned(&app, &mut LoadBalancer::new(vip, Vec::new()), &want);
}

// ----------------------------------------------------------- stats monitor

#[derive(Codec)]
struct OldStatsMonitorState {
    switches: BTreeSet<DatapathId>,
    history: Vec<Sample>,
    polls_sent: u64,
}

#[test]
fn stats_monitor_snapshot_is_pinned() {
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let mut app = StatsMonitor::new();
    let reply = |dpid: u64, n: u64| {
        Event::StatsReply(
            dp(dpid),
            StatsReply::Aggregate {
                packet_count: n,
                byte_count: n * 64,
                flow_count: n as u32,
            },
        )
    };
    let script = [
        (Event::SwitchUp(dp(1)), 0),
        (Event::SwitchUp(dp(2)), 0),
        (Event::Tick(SimTime::from_secs(1)), 1),
        (reply(1, 10), 2),
        (reply(2, 20), 3),
        (Event::SwitchDown(dp(2)), 4),
        (Event::Tick(SimTime::from_secs(5)), 5),
    ];
    for (ev, at) in &script {
        deliver(&mut app, ev, &topo, &dev, SimTime::from_secs(*at));
        let _ = app.snapshot();
    }
    let sample = |at: u64, dpid: u64, n: u64| Sample {
        at: SimTime::from_secs(at),
        dpid: dp(dpid),
        packets: n,
        bytes: n * 64,
        flows: n as u32,
    };
    let want = OldStatsMonitorState {
        switches: BTreeSet::from([dp(1)]),
        history: vec![sample(2, 1, 10), sample(3, 2, 20)],
        polls_sent: 3,
    };
    assert_pinned(&app, &mut StatsMonitor::new(), &want);
}
