//! E16 — indexed flow-table scale (PR 9 tentpole).
//!
//! Two exhibits, recorded through the harness's `BENCH_<exhibit>.json`
//! writer:
//!
//! 1. **Lookup microbench.** A 4096-entry table (4000 exact TCP 5-tuples
//!    fronted by a 96-entry wildcard tail at lower priorities) is built
//!    identically into the two-tier indexed [`FlowTable`] and the retained
//!    [`LinearFlowTable`] reference. A seeded, zipf-skewed packet stream
//!    (90% hits on installed flows, 10% misses) is replayed through both;
//!    we record lookups/sec and the p99 latency of 64-lookup batches. The
//!    indexed table resolves hits with one deterministic hash probe plus a
//!    wildcard scan that stops at the first lower-ranked candidate, so the
//!    acceptance bar is ≥10x over the linear scan.
//! 2. **Fat-tree replay.** The trace-driven workload engine replays a
//!    flash-crowd stream over `Topology::fat_tree(30)` — 1125 switches —
//!    against a minimal reactive controller, exercising table churn
//!    (add/expire/lookup) at datacenter scale.

use legosdn::netsim::{FlowTable, LinearFlowTable};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, headline, Criterion};
use legosdn_bench::print_table;
use legosdn_bench::workloads::{flash_crowd, replay_reactive, skewed_index};
use legosdn_testkit::Rng;
use std::time::Instant;

const EXACT_FLOWS: usize = 4000;
const WILD_TAIL: usize = 96;
const STREAM_LEN: usize = 4096;
const BATCH: usize = 64;
const FAT_TREE_K: usize = 30; // (k/2)^2 + k^2 = 1125 switches
const REPLAY_EVENTS: usize = 10_000;

/// Distinct TCP 5-tuples; flow `i` is fully determined by `i`.
fn flow_packet(i: usize) -> (Packet, PortNo) {
    let i = i as u64;
    let pkt = Packet::tcp(
        MacAddr::from_index(1 + i % 97),
        MacAddr::from_index(200 + i % 89),
        Ipv4Addr::from_index(1 + (i % 97) as u32),
        Ipv4Addr::from_index(200 + (i % 89) as u32),
        1024 + (i % 613) as u16,
        80,
    );
    (pkt, PortNo::Phys(1 + (i % 7) as u16))
}

/// Install the same 4k-entry population into any table via its `apply`.
fn populate(mut apply: impl FnMut(&FlowMod)) {
    for i in 0..EXACT_FLOWS {
        let (pkt, in_port) = flow_packet(i);
        let fm =
            FlowMod::add(Match::from_packet(&pkt, in_port)).action(Action::Output(PortNo::Phys(2)));
        apply(&fm);
    }
    // A lower-priority wildcard tail: the rules reactive controllers leave
    // behind (per-destination, per-port). None of them shadow the exact
    // population, all of them sit in the wildcard tier.
    for i in 0..WILD_TAIL {
        let mut mat = Match::eth_dst(MacAddr::from_index(10_000 + i as u64));
        if i % 3 == 0 {
            mat.tp_dst = Some(80);
            mat.eth_type = Some(EtherType::Ipv4);
        }
        let fm = FlowMod::add(mat)
            .priority(10 + (i % 5) as u16)
            .action(Action::Output(PortNo::Phys(3)));
        apply(&fm);
    }
}

fn build_tables() -> (FlowTable, LinearFlowTable) {
    let mut indexed = FlowTable::default();
    let mut linear = LinearFlowTable::default();
    populate(|fm| {
        indexed.apply(fm, SimTime::ZERO).unwrap();
    });
    populate(|fm| {
        linear.apply(fm, SimTime::ZERO).unwrap();
    });
    (indexed, linear)
}

/// A seeded lookup stream: zipf-skewed hits on the installed flows plus
/// 10% misses (tuples never installed).
fn lookup_stream(seed: u64) -> Vec<(Packet, PortNo)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..STREAM_LEN)
        .map(|_| {
            if rng.gen_bool(0.9) {
                // Skew within a random window so hot flows dominate without
                // pinning a single bucket.
                let base = rng.gen_range(0..EXACT_FLOWS);
                let off = skewed_index(&mut rng, 64);
                flow_packet((base + off) % EXACT_FLOWS)
            } else {
                let (pkt, _) = flow_packet(rng.gen_range(0..EXACT_FLOWS));
                (pkt, PortNo::Phys(15)) // wrong in_port: guaranteed miss
            }
        })
        .collect()
}

struct LookupResult {
    lookups_per_sec: f64,
    p99_batch_ns: f64,
    hits: u64,
}

/// Replay `stream` `rounds` times through `lookup`, timing each
/// `BATCH`-lookup chunk.
fn time_lookups(
    stream: &[(Packet, PortNo)],
    rounds: usize,
    mut lookup: impl FnMut(&Packet, PortNo, SimTime) -> bool,
) -> LookupResult {
    let mut batch_ns = Vec::with_capacity(rounds * STREAM_LEN / BATCH);
    let mut hits = 0u64;
    let mut total = 0usize;
    let start = Instant::now();
    for r in 0..rounds {
        let now = SimTime::from_secs(r as u64);
        for chunk in stream.chunks(BATCH) {
            let t0 = Instant::now();
            for (pkt, in_port) in chunk {
                if lookup(pkt, *in_port, now) {
                    hits += 1;
                }
                total += 1;
            }
            batch_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    batch_ns.sort_by(f64::total_cmp);
    let p99_idx = ((batch_ns.len() as f64) * 0.99) as usize;
    LookupResult {
        lookups_per_sec: total as f64 / elapsed,
        p99_batch_ns: batch_ns[p99_idx.min(batch_ns.len() - 1)],
        hits,
    }
}

fn summary() {
    let (mut indexed, mut linear) = build_tables();
    let stream = lookup_stream(42);

    // Warm both implementations once, and check they agree while at it.
    for (pkt, in_port) in &stream {
        assert_eq!(
            indexed.peek(pkt, *in_port).cloned(),
            linear.peek(pkt, *in_port).cloned(),
            "indexed and linear disagree on the bench stream"
        );
    }

    let rounds = 20;
    let lin = time_lookups(&stream, 2, |p, ip, now| linear.lookup(p, ip, now).is_some());
    let idx = time_lookups(&stream, rounds, |p, ip, now| {
        indexed.lookup(p, ip, now).is_some()
    });
    let speedup = idx.lookups_per_sec / lin.lookups_per_sec;
    print_table(
        &format!(
            "E16: lookups over {EXACT_FLOWS} exact + {WILD_TAIL} wildcard entries \
             (skewed stream, 10% misses)"
        ),
        &["table", "lookups/s", "p99 ns/64-batch", "speedup"],
        &[
            vec![
                "linear".into(),
                format!("{:.0}", lin.lookups_per_sec),
                format!("{:.0}", lin.p99_batch_ns),
                "1.00".into(),
            ],
            vec![
                "indexed".into(),
                format!("{:.0}", idx.lookups_per_sec),
                format!("{:.0}", idx.p99_batch_ns),
                format!("{speedup:.2}"),
            ],
        ],
    );
    assert_eq!(
        idx.hits / rounds as u64,
        lin.hits / 2,
        "hit counts diverge between implementations"
    );

    // Datacenter-scale replay: 1125 switches, reactive exact-match rules.
    let topo = Topology::fat_tree(FAT_TREE_K);
    let n_switches = topo.switches.len();
    let mut net = Network::new(&topo);
    let w = flash_crowd(&topo, 11, REPLAY_EVENTS);
    let t0 = Instant::now();
    let stats = replay_reactive(&mut net, &w, 10, 1000);
    let replay_secs = t0.elapsed().as_secs_f64();
    let events_per_sec = stats.events as f64 / replay_secs;
    print_table(
        &format!("E16: flash-crowd replay over fat_tree({FAT_TREE_K}) = {n_switches} switches"),
        &["events", "packet-ins", "flow-mods", "delivered", "events/s"],
        &[vec![
            stats.events.to_string(),
            stats.packet_ins.to_string(),
            stats.flow_mods.to_string(),
            stats.delivered.to_string(),
            format!("{events_per_sec:.0}"),
        ]],
    );

    headline("linear_lookups_per_sec", lin.lookups_per_sec);
    headline("indexed_lookups_per_sec", idx.lookups_per_sec);
    headline("linear_p99_batch_ns", lin.p99_batch_ns);
    headline("indexed_p99_batch_ns", idx.p99_batch_ns);
    headline("speedup", speedup);
    headline("switches", n_switches as f64);
    headline("replay_events", stats.events as f64);
    headline("replay_packet_ins", stats.packet_ins as f64);
    headline("replay_flow_mods", stats.flow_mods as f64);
    headline("replay_delivered", stats.delivered as f64);
    headline("replay_events_per_sec", events_per_sec);
}

fn bench(c: &mut Criterion) {
    let (mut indexed, mut linear) = build_tables();
    let stream = lookup_stream(42);
    let mut g = c.benchmark_group("e16_table_scale");
    g.sample_size(10);
    g.bench_function("linear_4k_stream", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for (pkt, in_port) in &stream {
                hits += u32::from(linear.lookup(pkt, *in_port, SimTime::ZERO).is_some());
            }
            hits
        })
    });
    g.bench_function("indexed_4k_stream", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for (pkt, in_port) in &stream {
                hits += u32::from(indexed.lookup(pkt, *in_port, SimTime::ZERO).is_some());
            }
            hits
        })
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
