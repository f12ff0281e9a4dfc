//! E9 — §3.4 atomic network updates: the partial-install problem.
//!
//! An app intends `m` rules but fails after `r`. Two treatments:
//! monolithic (partial rules stay — inconsistent) and NetLog (applied,
//! then rolled back — consistent, abort costs one inverse per rule). The
//! table reports residual rules for each and NetLog's abort cost.

use legosdn::netlog::NetLog;
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, BenchmarkId, Criterion};
use legosdn_bench::print_table;
use std::time::Instant;

fn rule(i: u64) -> Message {
    Message::FlowMod(
        FlowMod::add(Match::eth_dst(MacAddr::from_index(500 + i)))
            .action(Action::Output(PortNo::Phys(1))),
    )
}

/// Monolithic semantics: rules execute as emitted; the crash strands them.
fn monolithic_partial(m: u64, r: u64) -> usize {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    for i in 0..r.min(m) {
        net.apply(DatapathId(1 + i % 2), &rule(i)).unwrap();
    }
    // Crash here: remaining m-r rules never issued, installed ones remain.
    net.switches().map(|s| s.table().len()).sum()
}

/// NetLog: open tx, apply r of m, crash → abort. Returns (residual, us).
fn netlog_partial(m: u64, r: u64) -> (usize, f64) {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut nl = NetLog::default();
    let mut tx = nl.begin();
    for i in 0..r.min(m) {
        nl.execute(&mut tx, &mut net, DatapathId(1 + i % 2), &rule(i))
            .unwrap();
    }
    let start = Instant::now();
    nl.abort(tx, &mut net).unwrap();
    let us = start.elapsed().as_secs_f64() * 1e6;
    (net.switches().map(|s| s.table().len()).sum(), us)
}

fn summary() {
    let mut rows = Vec::new();
    for (m, r) in [(8u64, 3u64), (32, 16), (128, 100)] {
        let mono = monolithic_partial(m, r);
        let (residual, abort_us) = netlog_partial(m, r);
        rows.push(vec![
            format!("{r}/{m}"),
            mono.to_string(),
            residual.to_string(),
            format!("{abort_us:.1}"),
        ]);
    }
    print_table(
        "E9: app crashes after installing r of m rules",
        &["r/m", "mono residual", "netlog residual", "netlog abort us"],
        &rows,
    );
    eprintln!("NetLog pays one inverse per applied rule at abort (see E4), and reads");
    eprintln!("inside the transaction see its own writes.\n");
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_atomic_updates");
    for r in [16u64, 100] {
        g.bench_with_input(BenchmarkId::new("immediate_abort", r), &r, |b, &r| {
            b.iter(|| netlog_partial(r + 8, r));
        });
    }
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
