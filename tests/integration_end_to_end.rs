//! Integration: the full stack on a fat-tree — router + firewall + load
//! balancer + monitor under LegoSDN, with faults injected across the run.
//! Verifies the system-level property the paper promises: operators can
//! "readily deploy new SDN-Apps in their networks without fear of crashing
//! the controller".

use legosdn::invariants::{Checker, Invariant};
use legosdn::prelude::*;

/// Converge reactive rules by replaying each flow until delivered (or give
/// up after a few rounds).
fn send_until_delivered(
    net: &mut Network,
    rt: &mut LegoSdnRuntime,
    src: MacAddr,
    dst: MacAddr,
) -> bool {
    for _ in 0..6 {
        let trace = net.inject(src, Packet::ethernet(src, dst)).unwrap();
        rt.run_cycle(net);
        if trace.delivered_to(dst) {
            return true;
        }
    }
    // One more after the last learning round.
    let trace = net.inject(src, Packet::ethernet(src, dst)).unwrap();
    rt.run_cycle(net);
    trace.delivered_to(dst)
}

#[test]
fn full_app_stack_on_fat_tree_with_crashing_router() {
    let topo = Topology::fat_tree(4);
    let mut net = Network::new(&topo);
    let checker = Checker {
        max_pairs: 24,
        ..Checker::default()
    };
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        checker: Some(checker),
        ..LegoSdnConfig::default()
    });

    // The production stack (Table 2's categories), one of them buggy: the
    // router panics on any packet toward the poisoned host. (An
    // input-keyed deterministic bug: every occurrence crashes, every other
    // input works — the recoverable shape. A count-keyed bug would re-fire
    // on every event after restore, which Absolute Compromise rightly
    // turns into "ignore all events from here on".)
    let poison = topo.hosts[15].mac;
    rt.attach(Box::new(FaultyApp::new(
        Box::new(ShortestPathRouter::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.attach(Box::new(Firewall::new(vec![AclRule::deny_port(23)])))
        .unwrap();
    rt.attach(Box::new(StatsMonitor::new())).unwrap();

    rt.run_cycle(&mut net);
    assert_eq!(
        rt.translator().topology.n_links(),
        32,
        "fat-tree discovered"
    );

    // Every host announces itself (ARP-style broadcast) so the device
    // manager learns attachment points — the router can only compute paths
    // between known hosts.
    for h in &topo.hosts {
        net.inject(h.mac, Packet::ethernet(h.mac, MacAddr::BROADCAST))
            .unwrap();
        rt.run_cycle(&mut net);
    }

    // Cross-pod traffic among several host pairs, with poisoned packets
    // interleaved: each poison crashes the router, recovery kicks in, and
    // the clean pairs keep converging.
    let hosts = topo.hosts.clone();
    let mut delivered_pairs = 0;
    for i in 0..6 {
        let src = hosts[i].mac;
        let dst = hosts[(i + 8) % hosts.len()].mac;
        if i % 2 == 0 {
            net.inject(src, Packet::ethernet(src, poison)).unwrap();
            rt.run_cycle(&mut net);
        }
        if send_until_delivered(&mut net, &mut rt, src, dst) {
            delivered_pairs += 1;
        }
    }
    assert!(
        rt.stats().failstop_recoveries >= 1,
        "the bug fired: {:?}",
        rt.stats()
    );
    assert!(!rt.is_crashed());
    assert!(
        delivered_pairs >= 4,
        "most pairs must converge despite crashes: {delivered_pairs}/6"
    );

    // The firewall stayed correct throughout: telnet is still blocked.
    // (Aimed at a host with no installed route, so the first packet punts
    // and the firewall's higher-priority drop lands before any route —
    // flows that already ride a router rule never reach a reactive
    // firewall, a composition caveat this test deliberately sidesteps.)
    let src = hosts[0].clone();
    let dst = hosts[14].clone();
    let telnet = Packet::tcp(src.mac, dst.mac, src.ip, dst.ip, 40_000, 23);
    net.inject(src.mac, telnet.clone()).unwrap();
    rt.run_cycle(&mut net);
    let trace = net.inject(src.mac, telnet).unwrap();
    rt.run_cycle(&mut net);
    assert!(
        !trace.delivered_to(dst.mac),
        "firewall drop must hold: {trace:?}"
    );
}

#[test]
fn load_balancer_spreads_and_survives_neighbour_crashes() {
    let topo = Topology::star(2, 2); // core + 2 leaves, 2 hosts per leaf
    let mut net = Network::new(&topo);
    let backends: Vec<Backend> = topo.hosts[..2]
        .iter()
        .map(|h| Backend {
            mac: h.mac,
            ip: h.ip,
        })
        .collect();
    let vip = Ipv4Addr::new(10, 99, 0, 1);

    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(LoadBalancer::new(vip, backends)))
        .unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.run_cycle(&mut net);

    // Teach the device manager where the backends are.
    for h in &topo.hosts[..2] {
        net.inject(h.mac, Packet::ethernet(h.mac, MacAddr::BROADCAST))
            .unwrap();
        rt.run_cycle(&mut net);
    }
    // Clients hit the VIP; the crashing hub fails on every packet-in.
    let clients = &topo.hosts[2..];
    for (i, c) in clients.iter().enumerate() {
        let pkt = Packet::tcp(
            c.mac,
            MacAddr::from_index(999),
            c.ip,
            vip,
            9000 + i as u16,
            80,
        );
        net.inject(c.mac, pkt).unwrap();
        rt.run_cycle(&mut net);
    }
    assert!(rt.stats().failstop_recoveries >= 2);
    // The LB did its job: flows were rewritten toward backends.
    let rewrites: usize = net
        .switches()
        .map(|s| {
            s.table()
                .iter()
                .filter(|e| e.actions.iter().any(|a| matches!(a, Action::SetIpDst(_))))
                .count()
        })
        .sum();
    assert!(rewrites >= 1, "VIP flows must be rewritten");
}

#[test]
fn invariants_hold_after_chaotic_run() {
    // Chaos run: byzantine + fail-stop apps, link flaps, switch bounce.
    // Afterwards, the network must be violation-free (the gate did its
    // job) and the controller alive.
    let topo = Topology::random(8, 4, 1, 1234);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnNthOfKind(EventKind::PacketIn, 3),
        BugEffect::ForwardingLoop,
    )))
    .unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Flooder::new()),
        BugTrigger::OnNthOfKind(EventKind::PacketIn, 5),
        BugEffect::Blackhole,
    )))
    .unwrap();
    rt.run_cycle(&mut net);

    let hosts = topo.hosts.clone();
    for round in 0..10usize {
        let src = hosts[round % hosts.len()].mac;
        let dst = hosts[(round + 3) % hosts.len()].mac;
        net.inject(src, Packet::ethernet(src, dst)).unwrap();
        rt.run_cycle(&mut net);
        match round {
            3 => {
                net.set_link_up(0, false).unwrap();
            }
            5 => {
                net.set_link_up(0, true).unwrap();
            }
            7 => {
                let d = hosts[0].attach.dpid;
                net.set_switch_up(d, false).unwrap();
                rt.run_cycle(&mut net);
                net.set_switch_up(d, true).unwrap();
            }
            _ => {}
        }
        rt.run_cycle(&mut net);
        net.tick(SimDuration::from_secs(1));
    }

    assert!(!rt.is_crashed());
    assert!(rt.stats().byzantine_blocked > 0, "{:?}", rt.stats());
    let checker = Checker::new(vec![Invariant::NoBlackHoles, Invariant::NoLoops]);
    let report = checker.check(&net);
    assert!(report.is_clean(), "violations leaked: {report:?}");
}

#[test]
fn deterministic_runs_are_reproducible() {
    // The whole stack is deterministic in Local isolation: two identical
    // runs end in identical stats and identical flow tables.
    let run = || {
        let topo = Topology::random(5, 2, 1, 77);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnNthOfKind(EventKind::PacketIn, 2),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let hosts = topo.hosts.clone();
        for i in 0..8usize {
            let src = hosts[i % hosts.len()].mac;
            let dst = hosts[(i + 1) % hosts.len()].mac;
            net.inject(src, Packet::ethernet(src, dst)).unwrap();
            rt.run_cycle(&mut net);
        }
        let tables: Vec<(u64, usize)> = net
            .switches()
            .map(|s| (s.dpid().0, s.table().len()))
            .collect();
        (rt.stats(), tables, net.delivery_counters())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// One default-config runtime (checker on, a private `Obs` so its
/// counters are its own) on its own `fat_tree(4)`, driven one cycle per
/// step by a seeded script of TCP traffic, some of it to the host a
/// black-holing app poisons.
struct Rig {
    topo: Topology,
    net: Network,
    rt: LegoSdnRuntime,
    obs: Obs,
    rng: legosdn_testkit::Rng,
}

/// What a rig leaves behind: flow tables, txlog, runtime counters, and
/// how many pairs its warm check walked again.
#[derive(Debug, PartialEq)]
struct Residue {
    tables: Vec<(DatapathId, Vec<legosdn::netsim::FlowEntry>)>,
    txlog: Vec<legosdn::netlog::TxRecord>,
    stats: RuntimeStats,
    pairs_reprobed: u64,
}

impl Rig {
    fn new(seed: u64) -> Self {
        let topo = Topology::fat_tree(4);
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(SpanningTree::new())).unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(topo.hosts[15].mac),
            BugEffect::Blackhole,
        )))
        .unwrap();
        Rig {
            net: Network::new(&topo),
            topo,
            rt,
            obs,
            rng: legosdn_testkit::Rng::seed_from_u64(seed),
        }
    }

    fn step(&mut self) {
        if self.rng.gen_bool(0.7) {
            let hosts = &self.topo.hosts;
            let s = self.rng.gen_range(0..hosts.len());
            let d = if self.rng.gen_bool(0.25) {
                15
            } else {
                self.rng.gen_range(0..hosts.len())
            };
            let (s, d) = (&hosts[s], &hosts[d]);
            let pkt = Packet::tcp(s.mac, d.mac, s.ip, d.ip, 4000, 80);
            let _ = self.net.inject(s.mac, pkt);
        }
        self.rt.run_cycle(&mut self.net);
    }

    fn residue(self) -> Residue {
        let tables = self
            .net
            .switches()
            .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
            .collect();
        Residue {
            tables,
            txlog: self.rt.netlog().log().iter().cloned().collect(),
            stats: self.rt.stats(),
            pairs_reprobed: self.obs.counter("invariants", "pairs_reprobed", "").get(),
        }
    }
}

#[test]
fn two_runtimes_on_one_thread_keep_their_warm_checks_apart() {
    const STEPS: usize = 80;
    let alone = |seed| {
        let mut rig = Rig::new(seed);
        for _ in 0..STEPS {
            rig.step();
        }
        rig.residue()
    };
    let (want_a, want_b) = (alone(1), alone(2));
    for want in [&want_a, &want_b] {
        assert!(want.stats.byzantine_blocked > 0, "{:?}", want.stats);
        assert!(want.pairs_reprobed > 0);
    }
    assert_ne!(want_a.tables, want_b.tables, "the two scripts differ");

    // Each network and each NetLog's warm check stay their own when the
    // two runtimes take turns, cycle by cycle.
    let (mut a, mut b) = (Rig::new(1), Rig::new(2));
    for _ in 0..STEPS {
        a.step();
        b.step();
    }
    assert_eq!(a.residue(), want_a);
    assert_eq!(b.residue(), want_b);
}
