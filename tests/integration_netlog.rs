//! Integration: NetLog transactions against a live network (E4, E9) —
//! all-or-nothing semantics, rollback fidelity including timeouts and the
//! counter-cache, and reads that see the transaction's own writes.

use legosdn::netlog::NetLog;
use legosdn::prelude::*;

fn setup() -> (Network, Topology) {
    let topo = Topology::linear(3, 1);
    (Network::new(&topo), topo)
}

fn add_flow(dst: u64, port: u16) -> Message {
    Message::FlowMod(
        FlowMod::add(Match::eth_dst(MacAddr::from_index(dst)))
            .action(Action::Output(PortNo::Phys(port))),
    )
}

fn total_flows(net: &Network) -> usize {
    net.switches().map(|s| s.table().len()).sum()
}

#[test]
fn committed_transaction_is_durable_across_switches() {
    let (mut net, _) = setup();
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    for d in 1..=3u64 {
        nl.execute(&mut tx, &mut net, DatapathId(d), &add_flow(100, 1))
            .unwrap();
    }
    nl.commit(tx, &mut net).unwrap();
    assert_eq!(total_flows(&net), 3);
}

#[test]
fn aborted_transaction_leaves_no_trace_anywhere() {
    let (mut net, _) = setup();
    // Pre-existing state that must survive untouched.
    net.apply(DatapathId(2), &add_flow(7, 1)).unwrap();
    let baseline: Vec<_> = net
        .switches()
        .map(|s| (s.dpid(), s.table().iter().cloned().collect::<Vec<_>>()))
        .collect();

    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    for d in 1..=3u64 {
        for i in 0..5u64 {
            nl.execute(&mut tx, &mut net, DatapathId(d), &add_flow(200 + i, 1))
                .unwrap();
        }
    }
    // And a delete of the pre-existing flow, mid-transaction.
    nl.execute(
        &mut tx,
        &mut net,
        DatapathId(2),
        &Message::FlowMod(FlowMod::delete(Match::eth_dst(MacAddr::from_index(7)))),
    )
    .unwrap();
    assert_eq!(total_flows(&net), 15, "adds applied, pre-existing deleted");

    let report = nl.abort(tx, &mut net).unwrap();
    assert_eq!(report.undo_failures, 0);

    let after: Vec<_> = net
        .switches()
        .map(|s| (s.dpid(), s.table().iter().cloned().collect::<Vec<_>>()))
        .collect();
    // Flow tables must be semantically identical to the baseline (installed
    // times shift, so compare match/priority/actions).
    for ((d1, before), (d2, now)) in baseline.iter().zip(&after) {
        assert_eq!(d1, d2);
        assert_eq!(before.len(), now.len(), "{d1:?}");
        for (b, n) in before.iter().zip(now) {
            assert_eq!(b.mat, n.mat);
            assert_eq!(b.priority, n.priority);
            assert_eq!(b.actions, n.actions);
        }
    }
}

#[test]
fn rollback_restores_traffic_continuity_with_counter_cache() {
    let (mut net, topo) = setup();
    let host = topo.hosts[0].clone();
    let dpid = host.attach.dpid;
    let dst = MacAddr::from_index(42);

    // A flow carrying real traffic.
    net.apply(
        dpid,
        &Message::FlowMod(
            FlowMod::add(Match::eth_dst(dst)).action(Action::Output(PortNo::Phys(1))),
        ),
    )
    .unwrap();
    for _ in 0..25 {
        net.inject(host.mac, Packet::ethernet(host.mac, dst))
            .unwrap();
    }

    // A buggy transaction flushes the table, then gets rolled back.
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    nl.execute(
        &mut tx,
        &mut net,
        dpid,
        &Message::FlowMod(FlowMod::delete(Match::any())),
    )
    .unwrap();
    nl.abort(tx, &mut net).unwrap();

    // Post-rollback traffic accrues on the restored entry.
    for _ in 0..5 {
        net.inject(host.mac, Packet::ethernet(host.mac, dst))
            .unwrap();
    }
    // Raw switch counters restarted, but NetLog-adjusted stats continue.
    let out = net
        .apply(
            dpid,
            &Message::StatsRequest(StatsRequest::Flow {
                mat: Match::any(),
                out_port: PortNo::None,
            }),
        )
        .unwrap();
    let mut reply = match &out.replies[0] {
        Message::StatsReply(sr) => sr.clone(),
        other => panic!("unexpected {other:?}"),
    };
    nl.adjust_stats(dpid, &mut reply);
    match reply {
        StatsReply::Flow(flows) => {
            assert_eq!(flows.len(), 1);
            assert_eq!(flows[0].packet_count, 30, "25 pre-delete + 5 post-restore");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn immediate_mode_reads_its_own_writes() {
    // What the paper's buffer prototype could not do (§4.1: "not
    // practical"): within a transaction, a stats read sees the
    // transaction's own installs.
    let (mut net, _) = setup();
    let stats_req = Message::StatsRequest(StatsRequest::Aggregate {
        mat: Match::any(),
        out_port: PortNo::None,
    });
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    nl.execute(&mut tx, &mut net, DatapathId(2), &add_flow(5, 1))
        .unwrap();
    let replies = nl
        .execute(&mut tx, &mut net, DatapathId(2), &stats_req)
        .unwrap();
    match replies.first() {
        Some(Message::StatsReply(StatsReply::Aggregate { flow_count, .. })) => {
            assert_eq!(*flow_count, 1, "the read sees its own write");
        }
        other => panic!("unexpected {other:?}"),
    }
    nl.commit(tx, &mut net).unwrap();
}

#[test]
fn partial_install_ambiguity_is_resolved_by_abort() {
    // §3.4: "When an application crashes after installing a few rules, it
    // is not clear whether the few rules issued were part of a larger set."
    // With NetLog the open transaction at crash time IS the answer: abort
    // rolls back exactly the partial prefix. E9: the app intended m rules
    // and crashed after r; executed as emitted, all r stay behind.
    for (m, r) in [(8, 3), (32, 16), (128, 100)] {
        let (mut mono, _) = setup();
        for i in 0..r {
            mono.apply(DatapathId(1 + i % 3), &add_flow(300 + i, 1))
                .unwrap();
        }
        assert_eq!(
            total_flows(&mono) as u64,
            r,
            "{r}/{m}: monolithic strands the prefix"
        );

        let (mut net, _) = setup();
        let mut nl = NetLog::default();
        let mut tx = nl.begin();
        for i in 0..r {
            nl.execute(
                &mut tx,
                &mut net,
                DatapathId(1 + i % 3),
                &add_flow(300 + i, 1),
            )
            .unwrap();
        }
        assert_eq!(
            total_flows(&net) as u64,
            r,
            "{r}/{m}: partial prefix visible pre-abort"
        );
        let report = nl.abort(tx, &mut net).unwrap();
        assert_eq!(
            report.undo_messages as u64, r,
            "{r}/{m}: one inverse per rule"
        );
        assert_eq!(total_flows(&net), 0, "{r}/{m}: no partial state survives");
        assert_eq!(nl.stats().aborted, 1);
    }
}

#[test]
fn abort_undoes_one_message_per_op_at_any_size_and_fan_out() {
    // E4: m adds spread over s switches, then aborted. Undo work is one
    // inverse per logged op whatever the fan-out, and nothing is left.
    let sizes = [1, 4, 16, 64, 256].map(|m| (m, 4));
    let fan_outs = [1, 8, 16].map(|s| (64, s));
    for (m, s) in sizes.into_iter().chain(fan_outs) {
        let topo = Topology::linear(s, 1);
        let mut net = Network::new(&topo);
        let mut nl = NetLog::default();
        let mut tx = nl.begin();
        for i in 0..m {
            let dpid = DatapathId(1 + i % s as u64);
            nl.execute(&mut tx, &mut net, dpid, &add_flow(1000 + i, 1))
                .unwrap();
        }
        let report = nl.abort(tx, &mut net).unwrap();
        assert_eq!(report.undo_messages as u64, m, "{m} ops on {s} switches");
        assert_eq!(report.undo_failures, 0);
        assert_eq!(total_flows(&net), 0, "{m} ops on {s} switches");
    }
}

#[test]
fn aborting_a_wildcard_delete_restores_every_entry() {
    // E4b: one delete-all wipes m installed flows; its abort puts all m back.
    for m in [1, 16, 128] {
        let topo = Topology::linear(1, 1);
        let mut net = Network::new(&topo);
        for i in 0..m {
            net.apply(DatapathId(1), &add_flow(1000 + i, 1)).unwrap();
        }
        let mut nl = NetLog::default();
        let mut tx = nl.begin();
        let wipe = Message::FlowMod(FlowMod::delete(Match::any()));
        nl.execute(&mut tx, &mut net, DatapathId(1), &wipe).unwrap();
        assert_eq!(total_flows(&net), 0);
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(total_flows(&net) as u64, m);
    }
}

#[test]
fn interleaved_transactions_roll_back_independently() {
    let (mut net, _) = setup();
    let mut nl = NetLog::default();
    let mut tx_keep = nl.begin();
    let mut tx_drop = nl.begin();
    nl.execute(&mut tx_keep, &mut net, DatapathId(1), &add_flow(1, 1))
        .unwrap();
    nl.execute(&mut tx_drop, &mut net, DatapathId(1), &add_flow(2, 1))
        .unwrap();
    nl.execute(&mut tx_keep, &mut net, DatapathId(2), &add_flow(1, 1))
        .unwrap();
    nl.execute(&mut tx_drop, &mut net, DatapathId(2), &add_flow(2, 1))
        .unwrap();
    nl.abort(tx_drop, &mut net).unwrap();
    nl.commit(tx_keep, &mut net).unwrap();
    // Only tx_keep's flows remain.
    for d in [1u64, 2] {
        let sw = net.switch(DatapathId(d)).unwrap();
        assert_eq!(sw.table().len(), 1);
        assert_eq!(
            sw.table().iter().next().unwrap().mat,
            Match::eth_dst(MacAddr::from_index(1))
        );
    }
}
