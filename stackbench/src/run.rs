//! What a run is made of: rounds of fixed work repeated until a budget is
//! spent, folded into the end-to-end metrics; the output checks; and the
//! traced phase that produces the per-layer metrics.

use crate::driver::{
    at_host_speed, drive, residue_digest, run_oracle, run_round, scene, warm_up, LoopStats, Oracle,
    Round,
};
use crate::metrics::{medians, Values};
use crate::probes;
use crate::spans::{self, Span, Totals};
use crate::staged::Staged;
use crate::stats::{median, percentile_us, quartiles, tail_percentile};
use crate::workloads::{Scale, Workload};
use legosdn::netsim::Network;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// When a workload stops starting rounds.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Rounds(usize),
}

impl Budget {
    fn spent(self, elapsed: Duration, rounds: usize) -> bool {
        match self {
            Budget::Seconds(s) => elapsed >= Duration::from_secs_f64(s),
            Budget::Rounds(n) => rounds >= n,
        }
    }
}

/// Ops attempted and failed, and every output check that did not hold.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// A run whose check fails counts all its ops failed.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }

    fn count(&mut self, stats: &LoopStats) {
        self.attempted += stats.ops;
        self.failed += stats.failed_ops;
    }
}

/// Hold the rounds of one workload and seed to the oracle and to each
/// other.
pub fn check_rounds(w: &Workload, rounds: &[Round], oracle: &Oracle, verdict: &mut Verdict) {
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        verdict.count(&r.stats);
        if !r.healthy {
            verdict.errors.push(format!(
                "{} round {i}: crashed, failed to boot, or an app is not Running",
                w.name
            ));
        }
        if r.digest != first.digest {
            verdict.errors.push(format!(
                "{} round {i}: residue differs between rounds of one trace",
                w.name
            ));
        }
        if r.recoveries != first.recoveries {
            verdict.errors.push(format!(
                "{} round {i}: recovery count differs between rounds",
                w.name
            ));
        }
    }
    if w.faulty {
        // The monolithic controller dies on the first poisoned packet, so
        // there is no fault-free residue to compare with.
        if first.recoveries == 0 {
            verdict
                .errors
                .push(format!("{}: the bug never fired", w.name));
        }
    } else if oracle.crashed || first.digest != oracle.digest {
        verdict.errors.push(format!(
            "{}: residue differs from the monolithic oracle's",
            w.name
        ));
    }
}

/// One end-to-end metric of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub value: f64,
    /// Quartiles over rounds, for the metrics that are medians of rounds.
    pub quartiles: Option<(f64, f64)>,
    /// Rounds, or bursts for the burst percentiles.
    pub samples: usize,
}

/// The burst times of `rounds` together, each at reference speed.
fn pooled_bursts<'a>(rounds: impl Iterator<Item = &'a Round>) -> Vec<u64> {
    rounds
        .flat_map(|r| {
            r.stats
                .burst_ns
                .iter()
                .map(|ns| (*ns as f64 / r.slowdown) as u64)
        })
        .collect()
}

/// Fold rounds into the end-to-end metrics: medians over rounds, burst
/// percentiles over the bursts of all rounds together. Every time is
/// divided by its round's host slowdown first, which expresses it at the
/// reference speed (see `driver::reference_work`).
pub fn end_to_end(rounds: &[Round]) -> BTreeMap<&'static str, Stat> {
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        Stat {
            value: median(&values),
            quartiles: Some(quartiles(&values)),
            samples: values.len(),
        }
    };
    let events = |r: &Round| r.stats.events.max(1) as f64;
    let mut bursts = pooled_bursts(rounds.iter());
    let mut burst_us = |p: f64| Stat {
        value: percentile_us(&mut bursts, p),
        quartiles: None,
        samples: bursts.len(),
    };
    BTreeMap::from([
        (
            "events_per_s",
            per_round(&|r| events(r) * r.slowdown / (r.stats.wall_ns as f64 / 1e9)),
        ),
        (
            "cpu_us_per_event",
            per_round(&|r| r.cpu_us as f64 / r.slowdown / events(r)),
        ),
        ("burst_p50_us", burst_us(50.0)),
        ("burst_p90_us", burst_us(90.0)),
        (
            "allocs_per_event",
            per_round(&|r| r.allocs as f64 / events(r)),
        ),
        ("peak_heap_mb", per_round(&|r| r.peak_bytes as f64 / 1e6)),
        ("setup_s", per_round(&|r| r.setup_s / r.slowdown)),
        ("host_slowdown", per_round(&|r| r.slowdown)),
    ])
}

/// End-to-end measurement, tracing off: rounds interleaved round-robin
/// across `workloads`, each until its own budget is spent.
pub fn measure(
    workloads: &[&Workload],
    scale: Scale,
    seed: u64,
    budget: Budget,
) -> Vec<(Vec<Round>, Verdict)> {
    let oracles: Vec<Oracle> = workloads
        .iter()
        .map(|w| run_oracle(w, scale, seed))
        .collect();
    let mut rounds: Vec<Vec<Round>> = workloads.iter().map(|_| Vec::new()).collect();
    let mut elapsed = vec![Duration::ZERO; workloads.len()];
    loop {
        let mut ran = false;
        for (i, w) in workloads.iter().enumerate() {
            if !rounds[i].is_empty() && budget.spent(elapsed[i], rounds[i].len()) {
                continue;
            }
            let t0 = Instant::now();
            rounds[i].push(run_round(w, scale, seed, false));
            elapsed[i] += t0.elapsed();
            ran = true;
        }
        if !ran {
            break;
        }
    }
    rounds
        .into_iter()
        .zip(workloads.iter().zip(&oracles))
        .map(|(rounds, (w, oracle))| {
            let mut verdict = Verdict::default();
            check_rounds(w, &rounds, oracle, &mut verdict);
            (rounds, verdict)
        })
        .collect()
}

/// A staged replay of one trace, with its spans.
struct StagedRun {
    staged: Staged,
    net: Network,
    stats: LoopStats,
    spans: Vec<Span>,
    slowdown: f64,
}

fn run_staged(w: &Workload, scale: Scale, seed: u64) -> StagedRun {
    let (topo, trace, mut net) = scene(w, scale, seed);
    let mut staged = Staged::new(w, &topo);
    warm_up(&mut staged, &mut net, w.trace.destinations(&topo));
    let ((stats, spans), slowdown) = at_host_speed(|| {
        spans::start();
        let stats = drive(&mut staged, &mut net, &trace, w.burst);
        (stats, spans::finish())
    });
    StagedRun {
        staged,
        net,
        stats,
        spans,
        slowdown,
    }
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Metrics from the loop spans around one traced round of the runtime.
/// Times are divided by the round's host slowdown, as end to end.
fn loop_metrics(traced: &Round, untraced: &Round, out: &mut Values) {
    let t = spans::totals(&traced.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ns_per = |total: u64, n: u64| per(total, n) / traced.slowdown;
    let s = &traced.stats;
    out.insert(
        "netsim.inject_ns_per_pkt",
        ns_per(get("netsim.inject").total_ns, s.packets),
    );
    out.insert(
        "core.run_cycle_ns_per_event",
        ns_per(get("core.run_cycle").total_ns, s.events),
    );
    let tick = get("netsim.tick");
    out.insert("netsim.tick_ns", ns_per(tick.total_ns, tick.count));
    out.insert("core.cycles_per_op", per(s.cycles, s.ops));
    out.insert("core.events_per_cycle", per(s.events, s.cycles));
    out.insert("netsim.hit_bursts", s.hit_bursts as f64);
    out.insert(
        "netsim.table_hit_ratio",
        100.0 * per(traced.tables.matched, traced.tables.lookups),
    );
    out.insert("netsim.rules_final", traced.tables.rules as f64);
    let rate = |r: &Round| r.stats.events as f64 * r.slowdown / r.stats.wall_ns.max(1) as f64;
    out.insert(
        "trace.overhead_pct",
        100.0 * (rate(untraced) - rate(traced)) / rate(untraced),
    );
}

/// The staged budget: each layer's self time per event, what the self
/// times sum to, and the per-call figures. Times are divided by the
/// replay's host slowdown.
fn staged_metrics(run: &StagedRun, untraced: &Round, out: &mut Values) {
    let t: BTreeMap<&'static str, Totals> = spans::totals(&run.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ns_per = |total: u64, n: u64| per(total, n) / run.slowdown;
    let events = run.stats.events;
    let c = &run.staged.counts;
    let apps = ["apps.on_event", "apps.snapshot", "apps.restore"];

    let total = get("bench.op").total_ns;
    let layers = [
        (
            "netsim.offer_ns_per_event",
            get("netsim.inject").self_ns + get("netsim.tick").self_ns,
        ),
        (
            "controller.translate_ns_per_event",
            get("controller.translate").self_ns,
        ),
        (
            "crashpad.self_ns_per_event",
            get("crashpad.dispatch").self_ns,
        ),
        (
            "apps.ns_per_event",
            apps.iter().map(|a| get(a).self_ns).sum(),
        ),
        ("netlog.tx_ns_per_event", get("netlog.tx").self_ns),
        (
            "invariants.check_ns_per_event",
            get("invariants.check").self_ns,
        ),
        (
            "staged.glue_ns_per_event",
            get("bench.op").self_ns + get("staged.cycle").self_ns,
        ),
    ];
    let sum: u64 = layers.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in layers {
        out.insert(name, ns_per(ns, events));
    }
    out.insert("staged.total_ns_per_event", ns_per(total, events));
    out.insert(
        "staged.sum_error_pct",
        100.0 * (sum as f64 - total as f64).abs() / total.max(1) as f64,
    );
    out.insert(
        "staged.checkpoint_check_share_pct",
        100.0
            * per(
                get("apps.snapshot").total_ns + get("invariants.check").total_ns,
                total,
            ),
    );
    out.insert(
        "core.orchestration_ns_per_event",
        per(untraced.stats.wall_ns, untraced.stats.events) / untraced.slowdown
            - ns_per(total, events),
    );

    out.insert(
        "crashpad.dispatch_ns_per_delivery",
        ns_per(get("crashpad.dispatch").total_ns, c.deliveries),
    );
    let on_event = get("apps.on_event");
    out.insert(
        "apps.on_event_ns_per_delivery",
        ns_per(on_event.total_ns, on_event.count),
    );
    let snapshot = get("apps.snapshot");
    out.insert(
        "apps.snapshot_ns",
        ns_per(snapshot.total_ns, snapshot.count),
    );
    out.insert("apps.snapshots_per_event", per(snapshot.count, events));
    out.insert(
        "netlog.tx_ns_per_tx",
        ns_per(get("netlog.tx").self_ns, c.txs),
    );
    out.insert("netlog.cmds_per_tx", per(c.commands, c.txs));
    out.insert(
        "invariants.check_ns_per_tx",
        ns_per(get("invariants.check").total_ns, c.checks),
    );
    out.insert(
        "crashpad.recover_us_p50",
        percentile_us(&mut c.recover_ns.clone(), 50.0) / run.slowdown,
    );
    out.insert("crashpad.recoveries", c.recoveries as f64);
    out.insert(
        "crashpad.events_replayed",
        run.staged.crashpad.stats().events_replayed as f64,
    );
}

/// The traced phase for one workload: per-layer metrics by name, the
/// verdict on every run it made, and the spans of its last iteration.
pub fn trace(
    w: &Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
) -> (Values, Verdict, Vec<Span>) {
    let started = Instant::now();
    let oracle = run_oracle(w, scale, seed);
    let mut verdict = Verdict::default();
    let mut once = Values::new();
    once.insert("controller.mono_ns_per_event", oracle.ns_per_event);

    let mut iterations: Vec<Values> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_spans = Vec::new();
    while iterations.is_empty() || !budget.spent(started.elapsed(), iterations.len()) {
        let untraced = run_round(w, scale, seed, false);
        let mut traced = run_round(w, scale, seed, true);
        let mut run = run_staged(w, scale, seed);
        verdict.count(&run.stats);
        let want = if w.faulty {
            untraced.digest
        } else {
            oracle.digest
        };
        if residue_digest(&run.net) != want || !run.staged.healthy() {
            verdict.errors.push(format!(
                "{}: staged replay left a different residue",
                w.name
            ));
        }
        let mut values = Values::new();
        loop_metrics(&traced, &untraced, &mut values);
        staged_metrics(&run, &untraced, &mut values);
        if iterations.is_empty() {
            // The probes replay what the first staged run recorded; they
            // and the mini-runs count against the budget like the rest.
            once.insert("apps.snapshot_bytes", run.staged.snapshot_bytes() as f64);
            probes::replay_probes(&run.staged, &run.net, &scale.topology(), &mut once);
            probes::config_deltas(scale, seed, &mut once);
            probes::obs_calls(&mut once);
        }
        iterations.push(values);
        last_spans = std::mem::take(&mut traced.spans);
        spans::append(&mut last_spans, std::mem::take(&mut run.spans));
        rounds.push(untraced);
        rounds.push(traced);
    }
    check_rounds(w, &rounds, &oracle, &mut verdict);

    // The highest percentile the untraced bursts support, by the rule.
    let mut bursts = pooled_bursts(rounds.iter().step_by(2));
    let pct = tail_percentile(bursts.len()).unwrap_or(50.0);
    once.insert("bench.burst_tail_pct", pct);
    once.insert("bench.burst_tail_us", percentile_us(&mut bursts, pct));
    let slowdowns: Vec<f64> = rounds.iter().map(|r| r.slowdown).collect();
    once.insert("bench.host_slowdown", median(&slowdowns));

    let mut values = medians(&iterations);
    values.append(&mut once);
    (values, verdict, last_spans)
}
