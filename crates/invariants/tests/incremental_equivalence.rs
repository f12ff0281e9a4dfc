//! Warm ≡ cold invariant checking (DESIGN.md §13).
//!
//! [`CheckState`] answers a check by re-probing only the pairs whose last
//! walk touched a switch that has been stamped since — and, where the
//! network can name the flow-mods that did the stamping, only those of
//! them whose probe one of those flow-mods could match. The stateless
//! [`Checker::check`] is the same routine from an empty state, so the
//! property to hold is *warm report == cold report*, in full
//! (`pairs_checked`, counts, and every violation in order with its
//! `Loop.path` / `BlackHole.at`), whatever a network underwent between
//! two checks: flow-mods of every shape (the stock apps' TCP 12-tuples,
//! VLAN matches only a rewritten probe can hit), singly, in runs, in
//! runs longer than the network keeps described, with port-mods, link
//! and switch failures and timeouts among them, NetLog transactions
//! checked mid-flight and rolled back, and clones that diverge on both
//! sides while one state is checked against each.
//!
//! Plus the properties that make the warm path worth having: a flow-mod
//! on a core switch re-probes the pairs that cross it *and* that it could
//! match — none, for what a learning switch installs — and the whole
//! cache stays within its 64 KB budget at the default 4 096 pairs.

use legosdn_invariants::{CheckReport, CheckState, Checker, Invariant, Violation};
use legosdn_netlog::NetLog;
use legosdn_netsim::{Endpoint, HostSpec, Network, SimDuration, Topology};
use legosdn_openflow::messages::PortMod;
use legosdn_openflow::prelude::*;
use legosdn_testkit::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::mem::size_of;

/// `(from switch, toward switch) → out-port` along shortest paths over the
/// wiring, so generated rules mostly forward somewhere sensible and walks
/// cross several switches.
type NextHop = BTreeMap<(DatapathId, DatapathId), u16>;

fn next_hops(topo: &Topology) -> NextHop {
    let mut table = NextHop::new();
    for &target in topo.switches.keys() {
        // BFS outward from the target; the first link that reaches a
        // switch is that switch's way back.
        let mut seen = vec![target];
        let mut queue = VecDeque::from([target]);
        while let Some(cur) = queue.pop_front() {
            for l in &topo.links {
                let far = if l.a.dpid == cur {
                    l.b
                } else if l.b.dpid == cur {
                    l.a
                } else {
                    continue;
                };
                if !seen.contains(&far.dpid) {
                    seen.push(far.dpid);
                    table.insert((far.dpid, target), far.port);
                    queue.push_back(far.dpid);
                }
            }
        }
    }
    table
}

/// The one tag rules set and match, so that the two meet.
const VLAN: VlanId = VlanId(7);

struct World {
    topo: Topology,
    hops: NextHop,
    dpids: Vec<DatapathId>,
}

impl World {
    fn new(topo: Topology) -> Self {
        World {
            hops: next_hops(&topo),
            dpids: topo.switches.keys().copied().collect(),
            topo,
        }
    }

    fn dpid(&self, rng: &mut Rng) -> DatapathId {
        *rng.pick(&self.dpids)
    }

    fn port(&self, rng: &mut Rng, dpid: DatapathId) -> u16 {
        // One past the last port on purpose: rules may name a port the
        // switch does not have.
        rng.gen_range_inclusive(1..=self.topo.switches[&dpid] + 1)
    }

    /// The port on `at` that leads toward `host` (its own port on the
    /// attachment switch).
    fn port_toward(&self, at: DatapathId, host: &HostSpec) -> u16 {
        if at == host.attach.dpid {
            host.attach.port
        } else {
            self.hops[&(at, host.attach.dpid)]
        }
    }

    fn gen_match(&self, rng: &mut Rng, dpid: DatapathId) -> Match {
        let hosts = &self.topo.hosts;
        match rng.gen_range(0..10u32) {
            0 => Match::any(),
            1 => Match::exact_eth(rng.pick(hosts).mac, rng.pick(hosts).mac),
            2 => {
                Match::eth_dst(rng.pick(hosts).mac).with_in_port(PortNo::Phys(self.port(rng, dpid)))
            }
            3 => Match::from_packet(
                &Packet::ethernet(rng.pick(hosts).mac, rng.pick(hosts).mac),
                PortNo::Phys(self.port(rng, dpid)),
            ),
            // What LearningSwitch and Firewall install for real traffic:
            // a TCP 12-tuple no probe can match, rewritten or not.
            4 => {
                let (a, b) = (rng.pick(hosts), rng.pick(hosts));
                Match::from_packet(
                    &Packet::tcp(a.mac, b.mac, a.ip, b.ip, 4000, 80),
                    PortNo::Phys(self.port(rng, dpid)),
                )
            }
            5 => Match {
                eth_src: Some(rng.pick(hosts).mac),
                ..Match::any()
            },
            // Only a probe that crossed a `SetVlanId` can match these.
            6 => Match {
                vlan: Some(VLAN),
                ..Match::any()
            },
            7 => Match {
                vlan: Some(VLAN),
                ..Match::eth_dst(rng.pick(hosts).mac)
            },
            _ => Match::eth_dst(rng.pick(hosts).mac),
        }
    }

    fn gen_actions(&self, rng: &mut Rng, dpid: DatapathId, mat: &Match) -> Vec<Action> {
        let hosts = &self.topo.hosts;
        let toward_dst = || {
            let dst = hosts.iter().find(|h| Some(h.mac) == mat.eth_dst)?;
            Some(Action::Output(PortNo::Phys(self.port_toward(dpid, dst))))
        };
        match rng.gen_range(0..16u32) {
            // Drop rule.
            0 => vec![],
            // Flood / all / in-port / controller / an unsupported sink.
            1 => vec![Action::Output(PortNo::Flood)],
            2 => vec![Action::Output(*rng.pick(&[
                PortNo::All,
                PortNo::InPort,
                PortNo::Controller,
                PortNo::Normal,
            ]))],
            // Anywhere: loops, dead ends, the occasional lucky hit.
            3 | 4 => vec![Action::Output(PortNo::Phys(self.port(rng, dpid)))],
            // Two copies.
            5 => vec![
                Action::Output(PortNo::Phys(self.port(rng, dpid))),
                Action::Output(PortNo::Phys(self.port(rng, dpid))),
            ],
            // Rewrite the destination, then forward toward the old one.
            6 => vec![
                Action::SetEthDst(rng.pick(hosts).mac),
                toward_dst().unwrap_or(Action::Output(PortNo::Flood)),
            ],
            // Tag, or pose as another source, and send on: downstream the
            // probe matches rules its own headers never would.
            7 | 8 => vec![
                Action::SetVlanId(VLAN),
                toward_dst().unwrap_or(Action::Output(PortNo::Flood)),
            ],
            9 | 10 => vec![
                Action::SetEthSrc(rng.pick(hosts).mac),
                toward_dst().unwrap_or(Action::Output(PortNo::Flood)),
            ],
            // The right thing.
            _ => vec![toward_dst().unwrap_or(Action::Output(PortNo::Phys(self.port(rng, dpid))))],
        }
    }

    fn gen_flow_mod(&self, rng: &mut Rng, dpid: DatapathId) -> FlowMod {
        let mat = self.gen_match(rng, dpid);
        let mut fm = FlowMod::add(mat.clone()).actions(self.gen_actions(rng, dpid, &mat));
        fm.command = *rng.pick(&[
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ]);
        fm.priority = *rng.pick(&[1, 5, 5, 9, u16::MAX]);
        if rng.gen_bool(0.25) {
            fm.idle_timeout = rng.gen_range(1..6u16);
        }
        if rng.gen_bool(0.25) {
            fm.hard_timeout = rng.gen_range(1..10u16);
        }
        fm.send_flow_removed = rng.gen_bool(0.2);
        fm
    }

    /// Destination-based forwarding toward one host on every switch —
    /// many switches stamped by one op, and the source of most of the
    /// multi-hop delivered pairs.
    fn route_host(&self, net: &mut Network, host: &HostSpec) {
        for &d in &self.dpids {
            let out = Action::Output(PortNo::Phys(self.port_toward(d, host)));
            let fm = FlowMod::add(Match::eth_dst(host.mac)).action(out);
            let _ = net.apply(d, &Message::FlowMod(fm));
        }
    }

    /// One random mutation of `net`.
    fn mutate(&self, rng: &mut Rng, net: &mut Network) {
        match rng.gen_range(0..20u32) {
            0..=7 => {
                let d = self.dpid(rng);
                let fm = self.gen_flow_mod(rng, d);
                let _ = net.apply(d, &Message::FlowMod(fm));
            }
            // A burst on one switch: more flow-mods than a network keeps
            // described, as often as not.
            8 => {
                let d = self.dpid(rng);
                for _ in 0..rng.gen_range(2..8u32) {
                    let fm = self.gen_flow_mod(rng, d);
                    let _ = net.apply(d, &Message::FlowMod(fm));
                }
            }
            9 => self.route_host(net, rng.pick(&self.topo.hosts)),
            10 => {
                let d = self.dpid(rng);
                let pm = PortMod {
                    port_no: PortNo::Phys(self.port(rng, d)),
                    hw_addr: MacAddr::from_index(0),
                    down: rng.gen_bool(0.5),
                };
                let _ = net.apply(d, &Message::PortMod(pm));
            }
            11 | 12 => {
                let idx = rng.gen_range(0..self.topo.links.len());
                net.set_link_up(idx, rng.gen_bool(0.5)).unwrap();
            }
            13 => {
                let d = self.dpid(rng);
                net.set_switch_up(d, rng.gen_bool(0.4)).unwrap();
            }
            14 | 15 => net.tick(SimDuration::from_secs(rng.gen_range(1..6u64))),
            16 => {
                // A NetLog transaction that applies for real and rolls
                // back unseen.
                let mut netlog = NetLog::default();
                let mut tx = netlog.begin();
                for _ in 0..rng.gen_range(1..5u32) {
                    let d = self.dpid(rng);
                    let fm = self.gen_flow_mod(rng, d);
                    let _ = netlog.execute(&mut tx, net, d, &Message::FlowMod(fm));
                }
                netlog.abort(tx, net).unwrap();
            }
            // Traffic and reads: move counters and idle timers, stamp
            // nothing, change no verdict.
            _ => {
                let (a, b) = (rng.pick(&self.topo.hosts), rng.pick(&self.topo.hosts));
                let _ = net.inject(a.mac, Packet::ethernet(a.mac, b.mac));
                let _ = net.poll_events();
            }
        }
    }
}

fn assert_warm_is_cold(warm: &mut CheckState, checker: &Checker, net: &Network, ctx: &str) {
    let got = warm.check(checker, net);
    let want = checker.check(net);
    assert_eq!(got, want, "{ctx}");
    assert!(warm.last_reprobed() <= want.pairs_checked, "{ctx}");
}

fn gen_checker(rng: &mut Rng, hosts: usize) -> Checker {
    let all_pairs = hosts * (hosts - 1);
    Checker {
        invariants: match rng.gen_range(0..4u32) {
            0 => vec![Invariant::NoLoops],
            1 => vec![Invariant::NoBlackHoles, Invariant::AllPairsServiced],
            2 => vec![
                Invariant::NoBlackHoles,
                Invariant::NoLoops,
                Invariant::AllPairsServiced,
            ],
            _ => Checker::default().invariants,
        },
        // Sometimes a cap that ends mid-source.
        max_pairs: if rng.gen_bool(0.4) {
            rng.gen_range_inclusive(1..=all_pairs)
        } else {
            4096
        },
    }
}

/// Checks come after a seeded 1..=12 ops, not after each: what a switch
/// went through between two checks is then several flow-mods, more than
/// the network keeps described, or flow-mods with a port-mod, an expiry
/// or a flap among them.
fn run_sequence(seed: u64, topo: Topology, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let world = World::new(topo);
    let mut net = Network::new(&world.topo);
    let mut checker = gen_checker(&mut rng, world.topo.hosts.len());
    let mut warm = CheckState::new();
    let boot = warm.check(&checker, &net);
    assert_eq!(boot, checker.check(&net), "seed {seed} boot");
    assert_eq!(
        warm.last_reprobed(),
        boot.pairs_checked,
        "first check is a full scan"
    );
    let mut unchecked = rng.gen_range_inclusive(1..=12u32);
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        match rng.gen_range(0..120u32) {
            0..=2 => {
                // Fork, diverge both sides, check them against the one
                // state; sometimes the fork becomes the network.
                let mut fork = net.clone();
                for _ in 0..rng.gen_range(1..6u32) {
                    world.mutate(&mut rng, &mut fork);
                }
                for _ in 0..rng.gen_range(0..3u32) {
                    world.mutate(&mut rng, &mut net);
                }
                assert_warm_is_cold(&mut warm, &checker, &fork, &format!("{ctx} fork"));
                assert_warm_is_cold(&mut warm, &checker, &net, &format!("{ctx} trunk"));
                if rng.gen_bool(0.5) {
                    net = fork;
                }
            }
            3 => {
                // Another lineage altogether, then back.
                let stranger = Network::new(&world.topo);
                assert_warm_is_cold(&mut warm, &checker, &stranger, &format!("{ctx} stranger"));
            }
            4 => checker = gen_checker(&mut rng, world.topo.hosts.len()),
            5..=7 => {
                // The commit path's own shape: a transaction applies for
                // real, is checked where it stands, and rolls back.
                let mut netlog = NetLog::default();
                let mut tx = netlog.begin();
                for _ in 0..rng.gen_range(1..5u32) {
                    let d = world.dpid(&mut rng);
                    let fm = world.gen_flow_mod(&mut rng, d);
                    let _ = netlog.execute(&mut tx, &mut net, d, &Message::FlowMod(fm));
                }
                assert_warm_is_cold(&mut warm, &checker, &net, &format!("{ctx} mid-flight"));
                netlog.abort(tx, &mut net).unwrap();
            }
            _ => world.mutate(&mut rng, &mut net),
        }
        unchecked -= 1;
        if unchecked == 0 {
            assert_warm_is_cold(&mut warm, &checker, &net, &ctx);
            unchecked = rng.gen_range_inclusive(1..=12u32);
        }
    }
}

#[test]
fn warm_equals_cold_on_linear() {
    for seed in 0..12 {
        run_sequence(seed, Topology::linear(4, 2), 4000);
    }
}

#[test]
fn warm_equals_cold_on_star() {
    for seed in 100..112 {
        run_sequence(seed, Topology::star(3, 2), 4000);
    }
}

#[test]
fn warm_equals_cold_on_fat_tree() {
    for seed in 200..212 {
        run_sequence(seed, Topology::fat_tree(4), 1000);
    }
}

/// A network with shortest-path forwarding toward `dsts` on every switch.
fn routed(world: &World, dsts: impl Iterator<Item = usize>) -> Network {
    let mut net = Network::new(&world.topo);
    for i in dsts {
        world.route_host(&mut net, &world.topo.hosts[i]);
    }
    net
}

/// The switches a packet for `dst` visits from `src`'s attachment switch
/// under [`World::route_host`] forwarding.
fn route(world: &World, src: &HostSpec, dst: &HostSpec) -> Vec<DatapathId> {
    let mut at = src.attach.dpid;
    let mut path = vec![at];
    while at != dst.attach.dpid {
        let out = Endpoint::new(at, world.port_toward(at, dst));
        let link = world.topo.links.iter().find(|l| l.a == out || l.b == out);
        let link = link.expect("next hops follow links");
        at = if link.a == out {
            link.b.dpid
        } else {
            link.a.dpid
        };
        path.push(at);
    }
    path
}

#[test]
fn a_core_switch_change_reprobes_only_the_pairs_that_cross_it() {
    // fat_tree(4): 16 hosts, 240 pairs. One destination is routed from
    // everywhere; every other pair punts at its first switch.
    let world = World::new(Topology::fat_tree(4));
    let hosts = &world.topo.hosts;
    let dst = &hosts[4];
    let mut net = routed(&world, [4].into_iter());
    let checker = Checker::default();
    let mut warm = CheckState::new();
    let first = warm.check(&checker, &net);
    assert_eq!((first.pairs_checked, warm.last_reprobed()), (240, 240));
    assert_eq!((first.pairs_delivered, first.pairs_punted), (15, 225));

    // Nothing changed: nothing re-probed.
    assert_eq!(warm.check(&checker, &net), first);
    assert_eq!(warm.last_reprobed(), 0);

    // The core switch between another pod and the destination's, and the
    // sources whose route crosses it.
    let core = route(&world, &hosts[1], dst)[2];
    assert!(hosts.iter().all(|h| h.attach.dpid != core));
    let crossing = hosts
        .iter()
        .filter(|src| src.mac != dst.mac && route(&world, src, dst).contains(&core))
        .count();
    assert!(crossing > 0);

    assert!(
        crossing * 10 < 240,
        "{crossing} of 240 pairs cross {core:?}"
    );

    // Every check below is also held to the cold one.
    let mut check = |net: &Network| {
        let report = warm.check(&checker, net);
        assert_eq!(report, checker.check(net));
        (report, warm.last_reprobed())
    };
    let on_core = |net: &mut Network, msg: Message| {
        net.apply(core, &msg).unwrap();
    };
    let narrow = |priority: u16| {
        let none_crossing = Match::exact_eth(dst.mac, hosts[1].mac);
        Message::FlowMod(FlowMod::add(none_crossing).priority(priority))
    };

    // Rules there that the probe of no crossing pair can match stamp the
    // switch and re-probe nothing: another pair's MACs, and the TCP
    // 12-tuple a learning switch installs, which no probe matches at all.
    on_core(&mut net, narrow(9));
    assert_eq!(check(&net), (first.clone(), 0));
    let tcp = Packet::tcp(hosts[1].mac, dst.mac, hosts[1].ip, dst.ip, 4000, 80);
    let exact = Match::from_packet(&tcp, PortNo::Phys(1));
    on_core(
        &mut net,
        Message::FlowMod(FlowMod::add(exact).priority(u16::MAX)),
    );
    assert_eq!(check(&net), (first.clone(), 0));

    // One that drops a crossing pair re-probes that pair and no other.
    let hole = FlowMod::add(Match::exact_eth(hosts[1].mac, dst.mac)).priority(u16::MAX);
    on_core(&mut net, Message::FlowMod(hole.clone()));
    let (holed, reprobed) = check(&net);
    assert_eq!((holed.pairs_delivered, holed.violations.len()), (14, 1));
    assert_eq!(reprobed, 1);

    // A match any probe satisfies, and a change that is no flow-mod at
    // all, re-probe everything that crosses.
    on_core(
        &mut net,
        Message::FlowMod(FlowMod::add(Match::any()).priority(1)),
    );
    assert_eq!(check(&net), (holed.clone(), crossing));
    let pm = PortMod {
        port_no: PortNo::Phys(1),
        hw_addr: MacAddr::from_index(0),
        down: false,
    };
    on_core(&mut net, Message::PortMod(pm));
    assert_eq!(check(&net), (holed.clone(), crossing));

    // A network describes a switch's last four steps. Four narrow
    // flow-mods between two checks are read one by one; a fifth loses
    // the first, and with it the right to skip anything.
    for (steps, expect) in [(4, 0), (5, crossing)] {
        for i in 0..steps {
            on_core(&mut net, narrow(20 + i));
        }
        assert_eq!(check(&net), (holed.clone(), expect), "{steps} steps");
    }

    // A fork that heals the hole while the trunk moves on: the trunk's
    // own step is read from its chain; the stamp the state then holds is
    // one the fork never had, and the fork's one the trunk never had.
    let mut fork = net.clone();
    let mut heal = hole;
    heal.command = FlowModCommand::DeleteStrict;
    on_core(&mut fork, Message::FlowMod(heal));
    on_core(&mut net, narrow(30));
    assert_eq!(check(&net), (holed.clone(), 0));
    assert_eq!(check(&fork), (first, crossing));
    assert_eq!(check(&net), (holed, crossing));
}

#[test]
fn cache_fits_its_budget_at_default_pairs_on_fat_tree_8() {
    const BUDGET: usize = 64 * 1024;
    let world = World::new(Topology::fat_tree(8));
    let checker = Checker::default();

    // Empty tables: every pair punts at its first hop.
    let mut warm = CheckState::new();
    let empty = Network::new(&world.topo);
    assert_eq!(warm.check(&checker, &empty).pairs_checked, 4096);
    assert!(
        warm.footprint_bytes() <= BUDGET,
        "{}",
        warm.footprint_bytes()
    );

    // Every destination routed: every pair delivered over up to five
    // switches.
    let healthy = routed(&world, 0..128);
    let mut warm = CheckState::new();
    let report = warm.check(&checker, &healthy);
    assert_eq!((report.pairs_checked, report.pairs_delivered), (4096, 4096));
    assert!(
        warm.footprint_bytes() <= BUDGET,
        "{}",
        warm.footprint_bytes()
    );

    // Churn — floods that drag every walk across dozens of switches,
    // loops, failures — grows nothing but the violations being held for
    // the report, and leaves nothing behind once the network is healthy
    // again.
    let held = |report: &CheckReport| -> usize {
        let each = size_of::<u32>() + size_of::<Violation>();
        let paths = report.violations.iter().map(|v| match v {
            Violation::Loop { path, .. } => path.len() * size_of::<Endpoint>(),
            _ => 0,
        });
        report.violations.len() * each + paths.sum::<usize>()
    };
    let mut net = healthy.clone();
    let mut rng = Rng::seed_from_u64(8);
    let mut dirtiest = 0;
    for op in 0..150 {
        if op % 3 == 0 {
            world.route_host(&mut net, rng.pick(&world.topo.hosts));
        } else {
            world.mutate(&mut rng, &mut net);
        }
        let report = warm.check(&checker, &net);
        // (Equivalence has its own tests; a cold scan of 4 096 pairs per
        // op would be most of this one's time.)
        if op % 16 == 0 {
            assert_eq!(report, checker.check(&net));
        }
        dirtiest = dirtiest.max(report.violations.len());
        let bytes = warm.footprint_bytes() - held(&report);
        assert!(bytes <= BUDGET, "op {op}: {bytes}");
    }
    assert!(dirtiest > 100, "the churn was meant to break things");
    assert!(warm.check(&checker, &healthy).is_clean());
    assert!(
        warm.footprint_bytes() <= BUDGET,
        "{}",
        warm.footprint_bytes()
    );
}
