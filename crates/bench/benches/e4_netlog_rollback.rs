//! E4 — §3.2: NetLog rollback latency and fidelity.
//!
//! Rollback applies one inverse per logged operation, so abort latency is
//! linear in transaction size; the sweep covers transaction sizes and
//! switch fan-out, and the table verifies state equality after rollback
//! (the correctness half of the claim).

use legosdn::netlog::NetLog;
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, BenchmarkId, Criterion};
use legosdn_bench::print_table;
use std::time::Instant;

fn add_flow(i: u64, port: u16) -> Message {
    Message::FlowMod(
        FlowMod::add(Match::eth_dst(MacAddr::from_index(1000 + i)))
            .action(Action::Output(PortNo::Phys(port))),
    )
}

/// Build a tx of `m` adds spread over `s` switches, then abort. Returns
/// (abort us, undo messages, residual flows).
fn rollback_run(m: u64, s: usize) -> (f64, usize, usize) {
    let topo = Topology::linear(s, 1);
    let mut net = Network::new(&topo);
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    for i in 0..m {
        let dpid = DatapathId(1 + (i % s as u64));
        nl.execute(&mut tx, &mut net, dpid, &add_flow(i, 1))
            .unwrap();
    }
    let start = Instant::now();
    let report = nl.abort(tx, &mut net).unwrap();
    let us = start.elapsed().as_secs_f64() * 1e6;
    let residual = net.switches().map(|sw| sw.table().len()).sum();
    (us, report.undo_messages, residual)
}

/// Delete-heavy tx: delete `m` pre-installed flows then abort (restores
/// them all with remaining timeouts). Returns (abort us, restored flows).
fn delete_rollback_run(m: u64) -> (f64, usize) {
    let topo = Topology::linear(1, 1);
    let mut net = Network::new(&topo);
    for i in 0..m {
        net.apply(DatapathId(1), &add_flow(i, 1)).unwrap();
    }
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    nl.execute(
        &mut tx,
        &mut net,
        DatapathId(1),
        &Message::FlowMod(FlowMod::delete(Match::any())),
    )
    .unwrap();
    assert_eq!(net.switch(DatapathId(1)).unwrap().table().len(), 0);
    let start = Instant::now();
    nl.abort(tx, &mut net).unwrap();
    let us = start.elapsed().as_secs_f64() * 1e6;
    (us, net.switch(DatapathId(1)).unwrap().table().len())
}

fn summary() {
    let mut rows = Vec::new();
    for m in [1u64, 4, 16, 64, 256] {
        let (us, undos, residual) = rollback_run(m, 4);
        rows.push(vec![
            m.to_string(),
            "4".into(),
            format!("{us:.1}"),
            undos.to_string(),
            residual.to_string(),
        ]);
    }
    for s in [1usize, 8, 16] {
        let (us, undos, residual) = rollback_run(64, s);
        rows.push(vec![
            "64".into(),
            s.to_string(),
            format!("{us:.1}"),
            undos.to_string(),
            residual.to_string(),
        ]);
    }
    print_table(
        "E4: rollback latency vs transaction size / switch fan-out",
        &[
            "tx size",
            "switches",
            "abort us",
            "undo msgs",
            "residual flows",
        ],
        &rows,
    );

    let mut rows = Vec::new();
    for m in [1u64, 16, 128] {
        let (us, restored) = delete_rollback_run(m);
        rows.push(vec![
            m.to_string(),
            format!("{us:.1}"),
            restored.to_string(),
        ]);
    }
    print_table(
        "E4b: rolling back a wildcard delete restores every entry",
        &["flows deleted", "abort us", "flows restored"],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_netlog_rollback");
    for m in [4u64, 64, 256] {
        g.bench_with_input(BenchmarkId::new("abort_adds", m), &m, |b, &m| {
            b.iter(|| rollback_run(m, 4));
        });
    }
    g.bench_function("abort_wildcard_delete_128", |b| {
        b.iter(|| delete_rollback_run(128));
    });
    // The commit fast path for comparison: same tx, committed.
    g.bench_function("commit_adds_64", |b| {
        b.iter(|| {
            let topo = Topology::linear(4, 1);
            let mut net = Network::new(&topo);
            let mut nl = NetLog::default();
            let mut tx = nl.begin();
            for i in 0..64u64 {
                let dpid = DatapathId(1 + (i % 4));
                nl.execute(&mut tx, &mut net, dpid, &add_flow(i, 1))
                    .unwrap();
            }
            nl.commit(tx, &mut net).unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    summary();
    benches();
    legosdn_bench::harness::Criterion::default()
        .configure_from_args()
        .final_summary();
}
