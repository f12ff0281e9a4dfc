//! The closed loop every run shares: one generator thread, one burst
//! outstanding. An op injects a burst of trace events, then runs
//! controller cycles until the network has nothing pending.

use crate::alloc;
use crate::spans::{self, Span};
use crate::trace_gen::{fnv_of, Fnv, TraceEvent};
use crate::workloads::{roster, Scale, Workload};
use legosdn::netsim::{FlowEntry, HostSpec, Network, SimDuration, Topology};
use legosdn::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Storm guard: an op that has not quiesced after this many cycles is
/// failed instead of hanging the run (a broadcast storm or a wedged
/// barrier would otherwise never return).
pub const QUIESCE_CAP: usize = 64;
/// Advance the clock one second per this many trace events, so idle
/// expiry runs.
const TICK_EVERY: usize = 256;

/// A controller the loop can drive.
pub trait Stack {
    /// Name of the span the loop opens around each cycle.
    const CYCLE_SPAN: &'static str;

    /// One cycle; returns the translated events it processed.
    fn cycle(&mut self, net: &mut Network) -> usize;
}

impl Stack for LegoSdnRuntime {
    const CYCLE_SPAN: &'static str = "core.run_cycle";

    fn cycle(&mut self, net: &mut Network) -> usize {
        self.run_cycle(net).events
    }
}

impl Stack for MonolithicController {
    const CYCLE_SPAN: &'static str = "controller.mono_cycle";

    fn cycle(&mut self, net: &mut Network) -> usize {
        self.run_cycle(net).events
    }
}

#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    pub wall_ns: u64,
    pub events: u64,
    pub cycles: u64,
    pub packets: u64,
    pub ops: u64,
    pub failed_ops: u64,
    /// Ops the dataplane served alone: no controller event.
    pub hit_bursts: u64,
    /// Completion time of every op that reached the controller.
    pub burst_ns: Vec<u64>,
}

/// Run cycles until no controller event is pending. `false`: still
/// pending after [`QUIESCE_CAP`] cycles.
fn quiesce<S: Stack>(stack: &mut S, net: &mut Network, stats: &mut LoopStats) -> bool {
    for _ in 0..QUIESCE_CAP {
        if net.peek_event().is_none() {
            return true;
        }
        let _span = spans::enter(S::CYCLE_SPAN);
        stats.events += stack.cycle(net) as u64;
        stats.cycles += 1;
    }
    net.peek_event().is_none()
}

/// Everything before the measured phase: handshake and discovery until
/// the network is quiet, then each of `hosts` broadcasts once, so every
/// switch on the spanning tree learns where it lives and the measured
/// phase is the steady state in which destinations are known.
pub fn warm_up<S: Stack>(stack: &mut S, net: &mut Network, hosts: &[HostSpec]) -> bool {
    let mut ok = quiesce(stack, net, &mut LoopStats::default());
    for h in hosts {
        let hello = Packet::ethernet(h.mac, MacAddr([0xff; 6]));
        ok &= net.inject(h.mac, hello).is_ok();
        ok &= quiesce(stack, net, &mut LoopStats::default());
    }
    ok
}

fn offer(net: &mut Network, burst: &[TraceEvent]) -> bool {
    let _span = spans::enter("netsim.inject");
    let mut ok = true;
    for ev in burst {
        ok &= match ev {
            TraceEvent::Inject { src, packet } => net.inject(*src, packet.clone()).is_ok(),
            TraceEvent::LinkState { link, up } => net.set_link_up(*link, *up).is_ok(),
        };
    }
    ok
}

/// Replay `trace` in bursts of `burst` events against a booted stack.
pub fn drive<S: Stack>(
    stack: &mut S,
    net: &mut Network,
    trace: &[TraceEvent],
    burst: usize,
) -> LoopStats {
    let n_ops = trace.len().div_ceil(burst);
    let mut stats = LoopStats {
        burst_ns: Vec::with_capacity(n_ops),
        ..LoopStats::default()
    };
    let mut since_tick = 0;
    let started = Instant::now();
    for (op, chunk) in trace.chunks(burst).enumerate() {
        spans::set_op(op as u32);
        stats.ops += 1;
        stats.packets += chunk.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _span = spans::enter("bench.op");
            let events_before = stats.events;
            let t0 = Instant::now();
            let mut ok = offer(net, chunk);
            ok &= quiesce(stack, net, &mut stats);
            let took = t0.elapsed().as_nanos() as u64;
            if stats.events > events_before {
                stats.burst_ns.push(took);
            } else {
                stats.hit_bursts += 1;
            }
            since_tick += chunk.len();
            if since_tick >= TICK_EVERY {
                since_tick -= TICK_EVERY;
                {
                    let _span = spans::enter("netsim.tick");
                    net.tick(SimDuration::from_secs(1));
                }
                ok &= quiesce(stack, net, &mut stats);
            }
            ok
        }));
        match outcome {
            Ok(true) => {}
            Ok(false) => stats.failed_ops += 1,
            Err(_) => {
                // The controller itself panicked: nothing after this op
                // can be trusted, so every remaining op fails with it.
                stats.failed_ops += (n_ops - op) as u64;
                break;
            }
        }
    }
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    stats
}

/// FNV over a table's `(match, priority, actions)` set, independent of
/// the order the table iterates in.
pub fn table_digest<'a>(entries: impl Iterator<Item = &'a FlowEntry>) -> u64 {
    let mut rules: Vec<u64> = entries
        .map(|e| fnv_of(&(&e.mat, e.priority, &e.actions)))
        .collect();
    rules.sort_unstable();
    fnv_of(&rules)
}

/// What the run left behind: every switch's rules plus the dataplane's
/// delivered/dropped counters. Cookies, timeouts and packet counters are
/// left out: they do not decide where a packet goes.
pub fn residue_digest(net: &Network) -> u64 {
    let mut h = Fnv::default();
    for sw in net.switches() {
        sw.dpid().hash(&mut h);
        table_digest(sw.table().iter()).hash(&mut h);
    }
    net.delivery_counters().hash(&mut h);
    h.finish()
}

#[derive(Clone, Copy, Debug, Default)]
pub struct TableTotals {
    pub lookups: u64,
    pub matched: u64,
    pub rules: u64,
}

pub fn table_totals(net: &Network) -> TableTotals {
    let mut t = TableTotals::default();
    for sw in net.switches() {
        let s = sw.table().stats();
        t.lookups += s.lookup_count;
        t.matched += s.matched_count;
        t.rules += u64::from(s.active_count);
    }
    t
}

/// Process CPU time so far (user + system, all threads, exited ones
/// included) in microseconds, from `/proc/self/stat`. Linux reports it in
/// ticks of 10 ms.
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after it.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut ticks = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) * 10_000
}

/// How long [`reference_work`] takes on this host in its ordinary mode;
/// the speed at which time-based end-to-end metrics are expressed.
pub const REFERENCE_NS: f64 = 27e6;

/// Fixed work of the kind the stack does (ordered-map inserts, lookups
/// and clones, small allocations, hashing), timed. The host switches
/// between two speeds a quarter apart, every few seconds to minutes:
/// identical rounds measured 949 to 1458 events/s across back-to-back
/// runs, with CPU time per event moving the same way. This kernel moves
/// with them (27 ms against 21 ms), so timing it beside each round tells
/// which speed the round ran at.
fn reference_work() -> u64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for rep in 0..40u64 {
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rep;
        let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for i in 0..2000 {
            map.insert(key(i), vec![i as u8; 24 + (i % 64) as usize]);
        }
        for i in 0..4000 {
            if let Some(v) = map.get(&key(i)) {
                acc = acc.wrapping_add(fnv_of(&v[..]));
            }
        }
        acc = acc.wrapping_add(map.clone().len() as u64);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Run `measured` with the reference work timed right before and right
/// after it. Returns its result and the host's slowdown around it: how
/// much longer than [`REFERENCE_NS`] the reference work took.
pub fn at_host_speed<T>(measured: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_work();
    let out = measured();
    let slowdown = (before + reference_work()) as f64 / 2.0 / REFERENCE_NS;
    (out, slowdown)
}

/// The inputs of one round: topology, seeded trace, fresh network.
pub fn scene(w: &Workload, scale: Scale, seed: u64) -> (Topology, Vec<TraceEvent>, Network) {
    let topo = scale.topology();
    let trace = w.trace.generate(&topo, seed, scale.trace_len(w));
    let net = Network::new(&topo);
    (topo, trace, net)
}

/// One fresh set-up plus one pass over the trace.
pub struct Round {
    pub setup_s: f64,
    pub stats: LoopStats,
    pub cpu_us: u64,
    pub allocs: u64,
    pub peak_bytes: usize,
    pub digest: u64,
    pub recoveries: u64,
    /// Warmed up, never crashed, and every app still `Running`.
    pub healthy: bool,
    pub tables: TableTotals,
    /// Loop spans, when the round was traced.
    pub spans: Vec<Span>,
    /// How much slower than [`REFERENCE_NS`] the host ran the reference
    /// work around this round's measured phase.
    pub slowdown: f64,
}

pub fn run_round(w: &Workload, scale: Scale, seed: u64, traced: bool) -> Round {
    alloc::reset();
    let t0 = Instant::now();
    let (topo, trace, mut net) = scene(w, scale, seed);
    let mut rt = LegoSdnRuntime::new((w.config)());
    let ids: Vec<AppId> = roster(w, &topo)
        .into_iter()
        .map(|app| rt.attach(app).expect("stock apps attach"))
        .collect();
    let warm = warm_up(&mut rt, &mut net, w.trace.destinations(&topo));
    let setup_s = t0.elapsed().as_secs_f64();

    if traced {
        spans::start();
    }
    let ((stats, cpu_us, allocs, peak_bytes), slowdown) = at_host_speed(|| {
        let allocs_before = alloc::counters().allocs;
        let cpu_before = cpu_us();
        let stats = drive(&mut rt, &mut net, &trace, w.burst);
        let cpu_us = cpu_us() - cpu_before;
        let heap = alloc::counters();
        (stats, cpu_us, heap.allocs - allocs_before, heap.peak_bytes)
    });
    let spans = if traced { spans::finish() } else { Vec::new() };

    let healthy = warm
        && !rt.is_crashed()
        && ids
            .iter()
            .all(|id| rt.app_status(*id) == Some(&AppStatus::Running));
    let recoveries = rt.stats().failstop_recoveries;
    rt.shutdown();
    Round {
        setup_s,
        stats,
        cpu_us,
        allocs,
        peak_bytes,
        digest: residue_digest(&net),
        recoveries,
        healthy,
        tables: table_totals(&net),
        spans,
        slowdown,
    }
}

/// The paper's baseline on the same roster and trace: its residue is what
/// every fault-free workload must reproduce.
pub struct Oracle {
    pub digest: u64,
    pub ns_per_event: f64,
    pub crashed: bool,
}

pub fn run_oracle(w: &Workload, scale: Scale, seed: u64) -> Oracle {
    let (topo, trace, mut net) = scene(w, scale, seed);
    let mut ctl = MonolithicController::new();
    for app in roster(w, &topo) {
        ctl.attach(app);
    }
    warm_up(&mut ctl, &mut net, w.trace.destinations(&topo));
    let stats = drive(&mut ctl, &mut net, &trace, w.burst);
    Oracle {
        digest: residue_digest(&net),
        ns_per_event: stats.wall_ns as f64 / stats.events.max(1) as f64,
        crashed: ctl.is_crashed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(port: u16) -> Message {
        Message::FlowMod(
            FlowMod::add(Match {
                tp_dst: Some(port),
                ..Match::default()
            })
            .action(Action::Output(PortNo::Phys(1))),
        )
    }

    #[test]
    fn residue_digest_ignores_table_iteration_order() {
        let topo = Topology::linear(2, 1);
        let dpid = DatapathId(1);
        let mut a = Network::new(&topo);
        let mut b = Network::new(&topo);
        for port in [80, 443, 8080] {
            a.apply(dpid, &rule(port)).unwrap();
        }
        for port in [8080, 80, 443] {
            b.apply(dpid, &rule(port)).unwrap();
        }
        let order = |n: &Network| -> Vec<Option<u16>> {
            let table = n.switch(dpid).unwrap().table();
            table.iter().map(|e| e.mat.tp_dst).collect()
        };
        assert_ne!(order(&a), order(&b), "the tables must iterate differently");
        assert_eq!(residue_digest(&a), residue_digest(&b));
        b.apply(dpid, &rule(22)).unwrap();
        assert_ne!(residue_digest(&a), residue_digest(&b));
    }

    /// A hub floods every packet-in, and a ring has a loop: the flood
    /// circles forever. The guard must turn that into a failed op.
    #[test]
    fn storm_guard_fails_the_op_instead_of_hanging() {
        let topo = Topology::ring(3, 1);
        let mut net = Network::new(&topo);
        let mut ctl = MonolithicController::new();
        ctl.attach(Box::new(Hub::new()));
        assert!(warm_up(&mut ctl, &mut net, &[]));
        let (src, dst) = (&topo.hosts[0], &topo.hosts[1]);
        let trace = [TraceEvent::Inject {
            src: src.mac,
            packet: Packet::tcp(src.mac, dst.mac, src.ip, dst.ip, 4000, 80),
        }];
        let stats = drive(&mut ctl, &mut net, &trace, 1);
        assert_eq!((stats.ops, stats.failed_ops), (1, 1));
        assert_eq!(stats.cycles, QUIESCE_CAP as u64);
        assert!(net.peek_event().is_some(), "the storm is still going");
    }

    #[test]
    fn cpu_time_advances() {
        let before = cpu_us();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_us() >= before + 20_000,
            "50 ms of spinning is at least 2 ticks"
        );
    }
}
