//! E11 — pipelined vs sequential event dispatch (PR 4 tentpole).
//!
//! Four isolated apps subscribe to the same event. Sequential dispatch
//! pays one blocking RPC round-trip per app — cost is the *sum* of app
//! processing times. Pipelined dispatch queues the event on every stub
//! before collecting any ack (`AppVisorProxy::queue_deliver` /
//! `collect_deliver`), so the stubs process concurrently and the cycle
//! costs roughly the *slowest* app. The determinism
//! integration test proves both modes leave identical network state;
//! this bench measures what the overlap buys. Results (and the
//! pipelined/sequential ratio) land in `BENCH_4.json`.
//!
//! The per-event app cost here is a fixed service wait (an app blocking
//! on an external lookup — policy server, path database), because that
//! is what overlap recovers regardless of host core count. Pure CPU
//! burn additionally overlaps on multi-core hosts, but a single-core
//! host serializes it in either mode, which would make the bench
//! measure the machine rather than the dispatch design.

use legosdn::controller::app::RestoreError;
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, Criterion};
use legosdn_bench::print_table;
use std::time::{Duration, Instant};

/// A Tick-subscribed app with a fixed per-event cost — a blocking
/// service wait plus a little hashing, the stand-in for real app work
/// (an external policy lookup, then folding the answer into local
/// state) that dominates dispatch time in loaded controllers.
struct TickWorker {
    name: String,
    acc: u64,
    wait: Duration,
}

impl TickWorker {
    fn new(id: usize, wait: Duration) -> Self {
        TickWorker {
            name: format!("tick-worker-{id}"),
            acc: 0,
            wait,
        }
    }
}

impl SdnApp for TickWorker {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::Tick]
    }

    fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
        // The external lookup: a fixed wait, identical in both dispatch
        // modes. Stubs wait on their own threads, so pipelined dispatch
        // overlaps these; sequential dispatch sums them.
        std::thread::sleep(self.wait);
        // Fold the "answer" into app state (FNV-1a) so deliveries have a
        // deterministic state effect for snapshot/restore to carry.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.acc;
        for i in 0..1024u32 {
            h ^= u64::from(i);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.acc = h;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.acc.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.acc = u64::from_le_bytes(arr);
        Ok(())
    }
}

const N_APPS: usize = 4;
const WAIT: Duration = Duration::from_micros(300); // per-event service wait

fn make_runtime(dispatch: DispatchMode) -> (LegoSdnRuntime, Network) {
    let topo = Topology::linear(2, 1);
    let net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig {
            mode: dispatch,
            ..DispatchConfig::default()
        },
        obs: ObsConfig::instance(Obs::new()),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 64, // keep checkpoint cost out of the timing
                history: 2,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    });
    for i in 0..N_APPS {
        rt.attach(Box::new(TickWorker::new(i, WAIT))).unwrap();
    }
    (rt, net)
}

/// Mean microseconds per `tick_apps` cycle over `n` cycles.
fn time_ticks(rt: &mut LegoSdnRuntime, net: &mut Network, n: u32) -> f64 {
    for _ in 0..20 {
        rt.tick_apps(net); // warm up stubs, caches, checkpoint stores
    }
    let start = Instant::now();
    for _ in 0..n {
        rt.tick_apps(net);
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

fn summary() {
    let n = 200u32;
    let (mut rt, mut net) = make_runtime(DispatchMode::Sequential);
    let seq_us = time_ticks(&mut rt, &mut net, n);
    rt.shutdown();
    let (mut rt, mut net) = make_runtime(DispatchMode::Pipelined);
    let pipe_us = time_ticks(&mut rt, &mut net, n);
    rt.shutdown();
    let ratio = seq_us / pipe_us;

    print_table(
        &format!("E11: tick_apps cycle, {N_APPS} isolated Tick subscribers"),
        &["dispatch mode", "mean us/cycle", "speedup"],
        &[
            vec!["sequential".into(), format!("{seq_us:.1}"), "1.00".into()],
            vec![
                "pipelined".into(),
                format!("{pipe_us:.1}"),
                format!("{ratio:.2}"),
            ],
        ],
    );

    // The exhibit record the ISSUE asks for: fanout-vs-sequential numbers
    // with the ratio, written explicitly (the harness's own JSON keys off
    // the executable name).
    let json = format!(
        "{{\n  \"exhibit\": \"pipelined_dispatch\",\n  \"apps\": {N_APPS},\n  \
         \"isolation\": \"channel\",\n  \"cycles\": {n},\n  \
         \"sequential_us_per_cycle\": {seq_us:.1},\n  \
         \"pipelined_us_per_cycle\": {pipe_us:.1},\n  \
         \"speedup\": {ratio:.2}\n}}\n"
    );
    match std::fs::write("BENCH_4.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_4.json (speedup {ratio:.2}x)"),
        Err(e) => eprintln!("could not write BENCH_4.json: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_dispatch_pipeline");
    g.sample_size(30);
    let (mut rt, mut net) = make_runtime(DispatchMode::Sequential);
    g.bench_function("sequential_tick", |b| b.iter(|| rt.tick_apps(&mut net)));
    rt.shutdown();
    let (mut rt, mut net) = make_runtime(DispatchMode::Pipelined);
    g.bench_function("pipelined_tick", |b| b.iter(|| rt.tick_apps(&mut net)));
    rt.shutdown();
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
