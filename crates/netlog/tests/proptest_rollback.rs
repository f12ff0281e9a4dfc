//! Property tests for NetLog's central theorem (paper §3.2): for *any*
//! sequence of state-altering control messages applied inside a
//! transaction on *any* pre-existing network state, aborting the
//! transaction restores the network's forwarding state exactly.
//!
//! And for its guard (§3.3): a guarded commit refuses exactly the
//! transactions a cold check of the network they leave behind rejects,
//! and a refused one is rolled back as an abort would.

use legosdn_invariants::{CheckReport, Checker};
use legosdn_netlog::{NetLog, TxError};
use legosdn_netsim::{Network, SimDuration, Topology};
use legosdn_obs::{Obs, RecordKind};
use legosdn_openflow::prelude::*;
use legosdn_testkit::{forall, Rng};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Semantic forwarding state of the whole network: per switch, the set of
/// (match, priority, actions, idle, send_flow_removed) entries plus port
/// admin state. Counters and install times are excluded — they are the
/// acknowledged-imperfect part, handled by the counter-cache.
fn forwarding_state(net: &Network) -> Vec<(u64, Vec<String>, Vec<bool>)> {
    net.switches()
        .map(|sw| {
            let mut entries: Vec<String> = sw
                .table()
                .iter()
                .map(|e| {
                    format!(
                        "{:?}|{}|{:?}|{}|{}",
                        e.mat, e.priority, e.actions, e.idle_timeout, e.send_flow_removed
                    )
                })
                .collect();
            entries.sort();
            let ports: Vec<bool> = sw.ports().map(|p| p.desc.config_down).collect();
            (sw.dpid().0, entries, ports)
        })
        .collect()
}

// ------------------------------------------------------------------
// strategies: operations over a fixed 3-switch network
// ------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Add {
        dpid: u64,
        dst: u64,
        priority: u16,
        port: u16,
        idle: u16,
    },
    AddOverwrite {
        dpid: u64,
        dst: u64,
        priority: u16,
        port: u16,
    },
    DeleteExact {
        dpid: u64,
        dst: u64,
        priority: u16,
    },
    DeleteWild {
        dpid: u64,
    },
    Modify {
        dpid: u64,
        dst: u64,
        priority: u16,
        port: u16,
    },
    PortUpDown {
        dpid: u64,
        port: u16,
        down: bool,
    },
}

fn arb_op(rng: &mut Rng) -> Op {
    let dpid = rng.gen_range_inclusive(1u64..=3);
    let dst = rng.gen_range(1u64..6); // small space to force collisions/overwrites
    let priority = *rng.pick(&[100u16, 200, 300]);
    match rng.gen_range(0u32..6) {
        0 => Op::Add {
            dpid,
            dst,
            priority,
            port: rng.gen_range(1u16..4),
            idle: rng.gen_range(0u16..30),
        },
        1 => Op::AddOverwrite {
            dpid,
            dst,
            priority,
            port: rng.gen_range(1u16..4),
        },
        2 => Op::DeleteExact {
            dpid,
            dst,
            priority,
        },
        3 => Op::DeleteWild { dpid },
        4 => Op::Modify {
            dpid,
            dst,
            priority,
            port: rng.gen_range(1u16..4),
        },
        _ => Op::PortUpDown {
            dpid,
            port: rng.gen_range(1u16..4),
            down: rng.gen_bool(0.5),
        },
    }
}

fn op_to_message(op: &Op, net: &Network) -> (DatapathId, Message) {
    let m = |dst: u64| Match::eth_dst(MacAddr::from_index(dst));
    match op {
        Op::Add {
            dpid,
            dst,
            priority,
            port,
            idle,
        } => (
            DatapathId(*dpid),
            Message::FlowMod(
                FlowMod::add(m(*dst))
                    .priority(*priority)
                    .idle_timeout(*idle)
                    .action(Action::Output(PortNo::Phys(*port)))
                    .notify_removed(),
            ),
        ),
        Op::AddOverwrite {
            dpid,
            dst,
            priority,
            port,
        } => (
            DatapathId(*dpid),
            Message::FlowMod(
                FlowMod::add(m(*dst))
                    .priority(*priority)
                    .action(Action::Output(PortNo::Phys(*port))),
            ),
        ),
        Op::DeleteExact {
            dpid,
            dst,
            priority,
        } => (
            DatapathId(*dpid),
            Message::FlowMod(FlowMod::delete_strict(m(*dst), *priority)),
        ),
        Op::DeleteWild { dpid } => (
            DatapathId(*dpid),
            Message::FlowMod(FlowMod::delete(Match::any())),
        ),
        Op::Modify {
            dpid,
            dst,
            priority,
            port,
        } => {
            let mut fm = FlowMod::add(m(*dst))
                .priority(*priority)
                .action(Action::Output(PortNo::Phys(*port)));
            fm.command = FlowModCommand::ModifyStrict;
            (DatapathId(*dpid), Message::FlowMod(fm))
        }
        Op::PortUpDown { dpid, port, down } => {
            let hw = net
                .switch(DatapathId(*dpid))
                .and_then(|s| s.port(*port))
                .map(|p| p.desc.hw_addr)
                .unwrap_or(MacAddr::from_index(0));
            (
                DatapathId(*dpid),
                Message::PortMod(PortMod {
                    port_no: PortNo::Phys(*port),
                    hw_addr: hw,
                    down: *down,
                }),
            )
        }
    }
}

/// Build a network with some pre-existing (non-transactional) state.
fn seeded_network(pre_ops: &[Op]) -> Network {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    for op in pre_ops {
        let (dpid, msg) = op_to_message(op, &net);
        let _ = net.apply(dpid, &msg);
    }
    // Age the state a little so remaining-timeout arithmetic is exercised.
    net.tick(SimDuration::from_secs(3));
    let _ = net.poll_events();
    net
}

/// THE rollback theorem: abort after arbitrary ops == never applied.
/// One engine runs every case, so each case after the first aborts on
/// the record the previous one finished with.
#[test]
fn abort_restores_forwarding_state() {
    let mut nl = NetLog::default();
    forall(256, |rng| {
        let pre = rng.gen_vec(0..10, arb_op);
        let tx_ops = rng.gen_vec(1..15, arb_op);
        let mut net = seeded_network(&pre);
        let baseline = forwarding_state(&net);

        let mut tx = nl.begin();
        for op in &tx_ops {
            let (dpid, msg) = op_to_message(op, &net);
            let _ = nl.execute(&mut tx, &mut net, dpid, &msg);
        }
        let report = nl.abort(tx, &mut net).unwrap();
        assert_eq!(report.undo_failures, 0, "undo must never fail");
        assert_eq!(forwarding_state(&net), baseline);
    });
}

/// Every flow entry's packet and byte counts, as NetLog reports them:
/// per switch, `(match, priority, packets, bytes)` in table order.
fn reported_counters(nl: &mut NetLog, net: &mut Network) -> Vec<Vec<(String, u16, u64, u64)>> {
    let dpids: Vec<DatapathId> = net.switches().map(|s| s.dpid()).collect();
    dpids
        .into_iter()
        .map(|dpid| {
            let all = Message::StatsRequest(StatsRequest::Flow {
                mat: Match::any(),
                out_port: PortNo::None,
            });
            let out = net.apply(dpid, &all).unwrap();
            let Some(Message::StatsReply(mut reply)) = out.replies.into_iter().next() else {
                panic!("no stats reply from {dpid:?}");
            };
            nl.adjust_stats(dpid, &mut reply);
            let StatsReply::Flow(flows) = reply else {
                panic!("not a flow stats reply");
            };
            let mut flows: Vec<_> = flows
                .iter()
                .map(|f| {
                    (
                        format!("{:?}", f.mat),
                        f.priority,
                        f.packet_count,
                        f.byte_count,
                    )
                })
                .collect();
            flows.sort();
            flows
        })
        .collect()
}

/// The counter-cache's promise (paper §3.2): after an abort, every flow
/// reports the counts it reported before the transaction, however often
/// the transaction deleted, overwrote or rewrote it. One engine runs
/// every case, carrying its counter-cache from case to case.
#[test]
fn abort_restores_reported_counters() {
    let mut nl = NetLog::default();
    forall(256, |rng| {
        let pre = rng.gen_vec(0..10, arb_op);
        let tx_ops = rng.gen_vec(1..15, arb_op);
        let mut net = seeded_network(&pre);
        let hosts = net.hosts().to_vec();
        for _ in 0..rng.gen_range(0..20usize) {
            let src = rng.pick(&hosts).mac;
            let dst = MacAddr::from_index(rng.gen_range(1u64..6));
            net.inject(src, Packet::ethernet(src, dst)).unwrap();
        }
        let before = reported_counters(&mut nl, &mut net);

        let mut tx = nl.begin();
        for op in &tx_ops {
            let (dpid, msg) = op_to_message(op, &net);
            let _ = nl.execute(&mut tx, &mut net, dpid, &msg);
        }
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(reported_counters(&mut nl, &mut net), before);
    });
}

/// Abort then replaying the same ops non-transactionally equals having
/// committed in the first place (rollback leaves no hidden residue).
#[test]
fn rollback_then_redo_equals_commit() {
    forall(256, |rng| {
        let tx_ops = rng.gen_vec(1..10, arb_op);
        // Path 1: apply in tx, commit.
        let mut net_commit = seeded_network(&[]);
        let mut nl = NetLog::default();
        let mut tx = nl.begin();
        for op in &tx_ops {
            let (dpid, msg) = op_to_message(op, &net_commit);
            let _ = nl.execute(&mut tx, &mut net_commit, dpid, &msg);
        }
        nl.commit(tx, &mut net_commit).unwrap();

        // Path 2: apply in tx, abort, then redo raw.
        let mut net_redo = seeded_network(&[]);
        let mut nl = NetLog::default();
        let mut tx = nl.begin();
        for op in &tx_ops {
            let (dpid, msg) = op_to_message(op, &net_redo);
            let _ = nl.execute(&mut tx, &mut net_redo, dpid, &msg);
        }
        nl.abort(tx, &mut net_redo).unwrap();
        for op in &tx_ops {
            let (dpid, msg) = op_to_message(op, &net_redo);
            let _ = net_redo.apply(dpid, &msg);
        }
        assert_eq!(forwarding_state(&net_commit), forwarding_state(&net_redo));
    });
}

/// The generator's middle priority: its ops override, overwrite and
/// delete routes installed here.
const ROUTE_PRIORITY: u16 = 200;

/// A seeded random topology with shortest-path forwarding toward every
/// host on every switch: a clean network the ops can break.
fn routed_network(seed: u64) -> Network {
    let topo = Topology::random(5, 2, 1, seed);
    let mut net = Network::new(&topo);
    for h in &topo.hosts {
        // BFS outward from the host's switch: the first link that reaches
        // a switch is that switch's way back.
        let mut toward = BTreeMap::from([(h.attach.dpid, h.attach.port)]);
        let mut queue = VecDeque::from([h.attach.dpid]);
        while let Some(cur) = queue.pop_front() {
            for l in &topo.links {
                let far = match (l.a.dpid == cur, l.b.dpid == cur) {
                    (true, _) => l.b,
                    (_, true) => l.a,
                    _ => continue,
                };
                if let Entry::Vacant(slot) = toward.entry(far.dpid) {
                    slot.insert(far.port);
                    queue.push_back(far.dpid);
                }
            }
        }
        for (dpid, port) in toward {
            let fm = FlowMod::add(Match::eth_dst(h.mac))
                .priority(ROUTE_PRIORITY)
                .action(Action::Output(PortNo::Phys(port)));
            net.apply(dpid, &Message::FlowMod(fm)).unwrap();
        }
    }
    net
}

/// The oracle: apply `msgs` to a scratch clone and check it cold.
fn cold(net: &Network, msgs: &[(DatapathId, Message)]) -> CheckReport {
    let mut scratch = net.clone();
    for (dpid, msg) in msgs {
        let _ = scratch.apply(*dpid, msg);
    }
    Checker::default().check(&scratch)
}

fn rollbacks(obs: &Obs) -> usize {
    obs.records()
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::TxnRollback { .. }))
        .count()
}

/// A guarded commit is blocked iff a cold check of what the transaction
/// leaves behind finds a violation, over a run of transactions that keeps
/// one guard warm. Blocked: the network is back at its baseline, the
/// abort is counted and journaled once. Committed: the network is clean.
#[test]
fn guarded_commit_blocks_exactly_what_a_cold_check_rejects() {
    let (mut blocked, mut committed) = (0, 0);
    forall(128, |rng| {
        let mut net = routed_network(rng.gen_range(0u64..500));
        assert!(Checker::default().check(&net).is_clean());
        let obs = Obs::new();
        let mut nl = NetLog::with_checker(Some(Checker::default()));
        nl.set_obs(obs.clone());
        for _ in 0..rng.gen_range(1..6usize) {
            let ops = rng.gen_vec(1..6, arb_op);
            let msgs: Vec<_> = ops.iter().map(|op| op_to_message(op, &net)).collect();
            let want = cold(&net, &msgs);
            let baseline = forwarding_state(&net);
            let (aborted, journaled) = (nl.stats().aborted, rollbacks(&obs));
            let mut tx = nl.begin();
            for (dpid, msg) in &msgs {
                let _ = nl.execute(&mut tx, &mut net, *dpid, msg);
            }
            match nl.commit(tx, &mut net) {
                Err(TxError::Blocked(report)) => {
                    blocked += 1;
                    assert_eq!(report, want, "the warm guard saw what a cold check sees");
                    assert_eq!(forwarding_state(&net), baseline, "rolled back");
                    assert_eq!(nl.stats().aborted, aborted + 1);
                    assert_eq!(rollbacks(&obs), journaled + 1);
                }
                Ok(_) => {
                    committed += 1;
                    assert!(want.is_clean(), "committed past {want:?}");
                    assert!(Checker::default().check(&net).is_clean());
                    assert_eq!(nl.stats().aborted, aborted);
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    });
    assert!(
        blocked > 20 && committed > 20,
        "{blocked} blocked, {committed} committed"
    );
}
