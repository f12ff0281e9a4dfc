//! The commit guard on directed cases (paper §3.3): a guarded NetLog
//! checks the network a state-altering transaction leaves behind, and a
//! violation comes back as `TxError::Blocked` with the transaction rolled
//! back, not merely withheld.

use legosdn_invariants::{Checker, Invariant};
use legosdn_netlog::{NetLog, TxError};
use legosdn_netsim::{Network, Topology};
use legosdn_openflow::prelude::*;

/// Two switches, a host on each, full L2 forwarding both ways.
fn delivered_net() -> (Network, Topology) {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    for h in &topo.hosts {
        let fm =
            FlowMod::add(Match::eth_dst(h.mac)).action(Action::Output(PortNo::Phys(h.attach.port)));
        net.apply(h.attach.dpid, &Message::FlowMod(fm)).unwrap();
        for (l, _) in net.links().map(|(l, up)| (*l, up)).collect::<Vec<_>>() {
            let (d, p) = if l.a.dpid != h.attach.dpid {
                (l.a.dpid, l.a.port)
            } else {
                (l.b.dpid, l.b.port)
            };
            let fm = FlowMod::add(Match::eth_dst(h.mac)).action(Action::Output(PortNo::Phys(p)));
            net.apply(d, &Message::FlowMod(fm)).unwrap();
        }
    }
    (net, topo)
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

fn drop_all() -> Message {
    Message::FlowMod(FlowMod::add(Match::any()).priority(u16::MAX))
}

fn guarded() -> NetLog {
    NetLog::with_checker(Some(Checker::default()))
}

#[test]
fn guarded_commit_blocks_a_black_hole_and_rolls_it_back() {
    let (mut net, topo) = delivered_net();
    let d1 = topo.hosts[0].attach.dpid;
    let baseline = forwarding_state(&net);
    let mut nl = guarded();
    let mut tx = nl.begin();
    nl.execute(&mut tx, &mut net, d1, &drop_all()).unwrap();
    assert_ne!(forwarding_state(&net), baseline, "applied before commit");
    match nl.commit(tx, &mut net) {
        Err(TxError::Blocked(report)) => {
            assert!(
                report.violations_of(Invariant::NoBlackHoles) >= 1,
                "{report:?}"
            );
        }
        other => panic!("expected Blocked, got {other:?}"),
    }
    assert_eq!(forwarding_state(&net), baseline, "rolled back");
    assert!(Checker::default().check(&net).is_clean());
    assert_eq!((nl.stats().committed, nl.stats().aborted), (0, 1));
}

#[test]
fn guarded_commit_passes_benign_commands() {
    let (mut net, topo) = delivered_net();
    let d1 = topo.hosts[0].attach.dpid;
    let benign = Message::FlowMod(
        FlowMod::add(Match::eth_dst(MacAddr::from_index(50)))
            .action(Action::Output(PortNo::Phys(1))),
    );
    let before = net.switch(d1).unwrap().table().len();
    let mut nl = guarded();
    let mut tx = nl.begin();
    nl.execute(&mut tx, &mut net, d1, &benign).unwrap();
    assert_eq!(nl.commit(tx, &mut net).unwrap().ops_applied, 1);
    assert_eq!(net.switch(d1).unwrap().table().len(), before + 1);
    assert_eq!((nl.stats().committed, nl.stats().aborted), (1, 0));
}

#[test]
fn a_rejected_state_altering_command_still_puts_the_commit_under_the_guard() {
    // A network already black-holed outside any transaction: whatever the
    // guard checks, it refuses.
    let (mut net, topo) = delivered_net();
    net.apply(topo.hosts[0].attach.dpid, &drop_all()).unwrap();
    let baseline = forwarding_state(&net);

    // The transaction's one flow-mod names a switch that does not exist:
    // nothing applies, and the commit is checked all the same.
    let mut nl = guarded();
    let mut tx = nl.begin();
    let missed = nl.execute(&mut tx, &mut net, DatapathId(99), &drop_all());
    assert!(matches!(missed, Err(TxError::Net(_))), "{missed:?}");
    assert!(matches!(nl.commit(tx, &mut net), Err(TxError::Blocked(_))));
    assert_eq!(forwarding_state(&net), baseline);

    // A packet-out alters no state, so its commit is not checked.
    let host = &topo.hosts[1];
    let packet_out = Message::PacketOut(PacketOut {
        buffer_id: BufferId::NONE,
        in_port: PortNo::None,
        actions: vec![Action::Output(PortNo::Phys(host.attach.port))],
        packet: Some(Packet::ethernet(MacAddr::from_index(5), host.mac)),
    });
    let mut tx = nl.begin();
    nl.execute(&mut tx, &mut net, host.attach.dpid, &packet_out)
        .unwrap();
    assert!(nl.commit(tx, &mut net).is_ok());

    // Without a guard nothing is checked.
    let mut plain = NetLog::default();
    let mut tx = plain.begin();
    let _ = plain.execute(&mut tx, &mut net, DatapathId(99), &drop_all());
    assert!(plain.commit(tx, &mut net).is_ok());
}
