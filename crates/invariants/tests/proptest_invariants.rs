//! Property tests for the invariant checker: the probe agrees with the
//! real dataplane, checks are side-effect-free, and NetLog's commit gate
//! is sound (never lets a detectable violation through, and rolls back
//! what it refuses) on randomized topologies and rule sets.

use legosdn_invariants::{probe, Checker};
use legosdn_netlog::{NetLog, TxError};
use legosdn_netsim::{Network, Topology};
use legosdn_openflow::prelude::*;
use legosdn_testkit::forall;

/// Install destination-based forwarding along shortest paths for every
/// host (ground-truth-correct rules).
fn install_correct_routing(net: &mut Network, topo: &Topology) {
    // Controller-side BFS over the topology spec.
    for h in &topo.hosts {
        // Final hop.
        let fm =
            FlowMod::add(Match::eth_dst(h.mac)).action(Action::Output(PortNo::Phys(h.attach.port)));
        net.apply(h.attach.dpid, &Message::FlowMod(fm)).unwrap();
        // Other switches: BFS toward the attach switch.
        let dpids: Vec<DatapathId> = topo.switches.keys().copied().collect();
        for &d in &dpids {
            if d == h.attach.dpid {
                continue;
            }
            // BFS from d to h.attach.dpid over topo.links.
            let mut prev: std::collections::BTreeMap<DatapathId, (DatapathId, u16)> =
                Default::default();
            let mut q = std::collections::VecDeque::from([d]);
            let mut seen = std::collections::BTreeSet::from([d]);
            while let Some(cur) = q.pop_front() {
                for l in &topo.links {
                    let (from, to) = if l.a.dpid == cur {
                        (l.a, l.b)
                    } else if l.b.dpid == cur {
                        (l.b, l.a)
                    } else {
                        continue;
                    };
                    if seen.insert(to.dpid) {
                        prev.insert(to.dpid, (cur, from.port));
                        q.push_back(to.dpid);
                    }
                }
            }
            // Walk back from target to find d's out-port.
            let mut cur = h.attach.dpid;
            let mut out_port = None;
            while let Some(&(p, port)) = prev.get(&cur) {
                if p == d {
                    out_port = Some(port);
                    break;
                }
                cur = p;
            }
            if let Some(port) = out_port {
                let fm =
                    FlowMod::add(Match::eth_dst(h.mac)).action(Action::Output(PortNo::Phys(port)));
                net.apply(d, &Message::FlowMod(fm)).unwrap();
            }
        }
    }
}

/// On correctly-routed random topologies the checker reports clean and
/// all pairs delivered; and probing agrees with actually injecting.
#[test]
fn correct_routing_is_clean_and_probe_matches_dataplane() {
    forall(64, |rng| {
        let seed = rng.gen_range(0u64..500);
        let topo = Topology::random(5, 2, 1, seed);
        let mut net = Network::new(&topo);
        install_correct_routing(&mut net, &topo);
        let report = Checker::default().check(&net);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.pairs_delivered, report.pairs_checked);

        // Probe vs dataplane agreement on a few pairs.
        for (i, src) in topo.hosts.iter().enumerate().take(3) {
            let dst = &topo.hosts[(i + 1) % topo.hosts.len()];
            if src.mac == dst.mac {
                continue;
            }
            let pkt = Packet::ethernet(src.mac, dst.mac);
            let probe_says = probe(&net, src.mac, dst.mac, &pkt).is_delivered();
            let trace = net.inject(src.mac, pkt).unwrap();
            assert_eq!(probe_says, trace.delivered_to(dst.mac));
        }
    });
}

/// check() is observationally pure: flow counters and stats untouched.
#[test]
fn check_has_no_side_effects() {
    forall(64, |rng| {
        let seed = rng.gen_range(0u64..500);
        let topo = Topology::random(4, 1, 1, seed);
        let mut net = Network::new(&topo);
        install_correct_routing(&mut net, &topo);
        let lookups_before: Vec<u64> = net
            .switches()
            .map(|s| s.table().stats().lookup_count)
            .collect();
        let _ = Checker::default().check(&net);
        let lookups_after: Vec<u64> = net
            .switches()
            .map(|s| s.table().stats().lookup_count)
            .collect();
        assert_eq!(lookups_before, lookups_after);
    });
}

/// Every switch's rules, order-free, without counters or install times.
fn forwarding_state(net: &Network) -> Vec<Vec<String>> {
    net.switches()
        .map(|sw| {
            let mut rules: Vec<String> = sw
                .table()
                .iter()
                .map(|e| format!("{:?}|{}|{:?}", e.mat, e.priority, e.actions))
                .collect();
            rules.sort();
            rules
        })
        .collect()
}

/// Commit `bad` in one transaction through a guarded NetLog, which must
/// refuse it and leave the network exactly as it found it.
fn assert_gate_refuses(net: &mut Network, bad: &[(DatapathId, Message)], what: &str) {
    let baseline = forwarding_state(net);
    let mut netlog = NetLog::with_checker(Some(Checker::default()));
    let mut tx = netlog.begin();
    for (dpid, msg) in bad {
        netlog.execute(&mut tx, net, *dpid, msg).unwrap();
    }
    match netlog.commit(tx, net) {
        Err(TxError::Blocked(report)) => assert!(!report.is_clean()),
        other => panic!("{what} undetected: {other:?}"),
    }
    assert_eq!(forwarding_state(net), baseline, "{what} not rolled back");
}

/// Gate soundness: adding a top-priority drop rule to any switch on a
/// delivering path is refused at commit and rolled back.
#[test]
fn gate_catches_planted_blackhole() {
    forall(64, |rng| {
        let seed = rng.gen_range(0u64..500);
        let victim_idx = rng.gen_range(0usize..5);
        let topo = Topology::random(5, 1, 1, seed);
        let mut net = Network::new(&topo);
        install_correct_routing(&mut net, &topo);
        let dpids: Vec<DatapathId> = topo.switches.keys().copied().collect();
        let victim = dpids[victim_idx % dpids.len()];
        let bad = [(
            victim,
            Message::FlowMod(FlowMod::add(Match::any()).priority(u16::MAX)),
        )];
        // The victim switch hosts at least one host or forwards for one, so
        // some pair must die.
        assert_gate_refuses(&mut net, &bad, &format!("blackhole on {victim:?}"));
        assert!(Checker::default().check(&net).is_clean());
    });
}

/// Loop soundness: pointing two adjacent switches at each other with a
/// top-priority rule is always refused as a loop or black-hole.
#[test]
fn gate_catches_planted_loop() {
    forall(64, |rng| {
        let seed = rng.gen_range(0u64..500);
        let topo = Topology::random(4, 1, 1, seed);
        let mut net = Network::new(&topo);
        install_correct_routing(&mut net, &topo);
        let link = topo.links[0];
        let bad = [
            (
                link.a.dpid,
                Message::FlowMod(
                    FlowMod::add(Match::any())
                        .priority(u16::MAX)
                        .action(Action::Output(PortNo::Phys(link.a.port))),
                ),
            ),
            (
                link.b.dpid,
                Message::FlowMod(
                    FlowMod::add(Match::any())
                        .priority(u16::MAX)
                        .action(Action::Output(PortNo::Phys(link.b.port))),
                ),
            ),
        ];
        assert_gate_refuses(&mut net, &bad, "planted loop");
    });
}
