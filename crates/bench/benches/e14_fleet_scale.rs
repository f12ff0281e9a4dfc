//! E14 — stub-fleet scale under the readiness-polled transport (PR 7
//! tentpole).
//!
//! The blocking transport spends one proxy-facing thread *and* one stub
//! thread per app, so a 1000-app fleet costs ~1000 OS threads before a
//! single event moves. The polled transport hosts every stub on a fixed
//! pool of stub-host workers; its in-memory channels need no proxy-side
//! thread (sockets would add a poll pool of the same size), so the same
//! fleet runs on `io_threads` threads. This exhibit measures both sides
//! of that trade:
//!
//! 1. **Scale**: launch 1000 stubs under each mode, fan event rounds out
//!    to the whole fleet, record events/sec and the peak process thread
//!    count from `/proc/self/status`.
//! 2. **Regression guard**: the E12 windowed-burst workload (4 apps,
//!    8-event bursts, depth-8 window, interval-1 checkpoints) must not
//!    run more than ~3% slower under the polled transport — hosting
//!    may not tax the latency-sensitive path it replaced.
//!
//! Results (plus the polled fleet's obs snapshot) land in `BENCH_7.json`.

use legosdn::apps::Hub;
use legosdn::appvisor::{AppHandle, AppVisorProxy, IoMode, ProxyConfig, StubConfig, TransportKind};
use legosdn::controller::app::RestoreError;
use legosdn::controller::event::Event;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, Criterion};
use legosdn_bench::print_table;
use legosdn_bench::workloads::{self, fan_out};
use std::time::{Duration, Instant};

const FLEET_APPS: usize = 1000;
const FLEET_ROUNDS: u64 = 3;
const IO_THREADS: usize = 4; // 4 stub-host threads; channels need no poll pool

/// The process thread count (`Threads:` in `/proc/self/status`); 0 where
/// procfs is unavailable.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn fleet_proxy(io: IoMode, obs: Obs) -> AppVisorProxy {
    let mut proxy = AppVisorProxy::new(ProxyConfig {
        // A fan-out's deadline is shared across the whole fleet; size it
        // for 1000 apps on a loaded CI box.
        deliver_timeout: Duration::from_secs(30),
        rpc_timeout: Duration::from_secs(30),
        heartbeat_timeout: Duration::from_secs(60),
        stub: StubConfig {
            // Quiet heartbeats: measure event servicing, not idle chatter.
            heartbeat_period: Duration::from_secs(5),
            report_crashes: true,
        },
        io,
        ..ProxyConfig::default()
    });
    proxy.set_obs(obs);
    proxy
}

struct FleetRun {
    launch_s: f64,
    events_per_s: f64,
    peak_threads: usize,
    delivered: u64,
    reports: usize,
}

/// Launch `apps` stubs under `io`, fan `rounds` events to all of them,
/// and retire the fleet.
fn run_fleet(apps: usize, rounds: u64, io: IoMode, obs: Obs) -> FleetRun {
    let mut proxy = fleet_proxy(io, obs);
    let launch_start = Instant::now();
    let handles: Vec<AppHandle> = (0..apps)
        .map(|_| {
            proxy
                .launch_app(Box::new(Hub::new()), TransportKind::Channel)
                .expect("fleet launch")
        })
        .collect();
    let launch_s = launch_start.elapsed().as_secs_f64();
    let mut peak_threads = thread_count();

    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let mut delivered = 0u64;
    let fanout_start = Instant::now();
    for _ in 0..rounds {
        let results = fan_out(
            &mut proxy,
            &handles,
            &Event::SwitchUp(DatapathId(1)),
            &topo,
            &dev,
        );
        delivered += workloads::delivered(&results) as u64;
    }
    let fanout_s = fanout_start.elapsed().as_secs_f64();
    peak_threads = peak_threads.max(thread_count());
    let reports = proxy.shutdown().len();
    FleetRun {
        launch_s,
        events_per_s: delivered as f64 / fanout_s,
        peak_threads,
        delivered,
        reports,
    }
}

// ---- the E12 regression workload (see e12_event_window.rs) ----

struct PacketWorker {
    name: String,
    acc: u64,
}

impl PacketWorker {
    fn new(id: usize) -> Self {
        PacketWorker {
            name: format!("packet-worker-{id}"),
            acc: 0,
        }
    }
}

const EVENT_WAIT: Duration = Duration::from_micros(300);
const SNAPSHOT_WAIT: Duration = Duration::from_micros(450);
const N_APPS: usize = 4;
const BURST: usize = 8;

impl SdnApp for PacketWorker {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
        std::thread::sleep(EVENT_WAIT);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.acc.wrapping_add(1);
        for i in 0..256u32 {
            h ^= u64::from(i);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.acc = h;
    }

    fn snapshot(&self) -> Vec<u8> {
        std::thread::sleep(SNAPSHOT_WAIT);
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

fn make_runtime(io: IoMode) -> (LegoSdnRuntime, Network, Topology) {
    let topo = Topology::linear(2, 1);
    let net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig::pipelined().window(BURST),
        io: IoConfig {
            mode: io,
            ..IoConfig::default()
        },
        obs: ObsConfig::instance(Obs::new()),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 1,
                history: 2,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    });
    for i in 0..N_APPS {
        rt.attach(Box::new(PacketWorker::new(i))).unwrap();
    }
    (rt, net, topo)
}

fn inject_burst(net: &mut Network, topo: &Topology) {
    let a = topo.hosts[0].mac;
    for i in 0..BURST as u64 {
        let dst = MacAddr::from_index(40 + i);
        net.inject(a, Packet::ethernet(a, dst)).unwrap();
    }
}

/// Mean microseconds per burst cycle over `n` cycles under `io`.
fn time_e12_workload(io: IoMode, n: u32) -> f64 {
    let (mut rt, mut net, topo) = make_runtime(io);
    for _ in 0..3 {
        inject_burst(&mut net, &topo);
        rt.run_cycle(&mut net);
    }
    let start = Instant::now();
    for _ in 0..n {
        inject_burst(&mut net, &topo);
        rt.run_cycle(&mut net);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(n);
    rt.shutdown();
    us
}

fn summary() {
    let polled_obs = Obs::new();
    let polled = run_fleet(
        FLEET_APPS,
        FLEET_ROUNDS,
        IoMode::Polled {
            io_threads: IO_THREADS,
        },
        polled_obs.clone(),
    );
    let blocking = run_fleet(FLEET_APPS, FLEET_ROUNDS, IoMode::Blocking, Obs::new());

    let n = 40u32;
    let e12_blocking_us = time_e12_workload(IoMode::Blocking, n);
    let e12_polled_us = time_e12_workload(
        IoMode::Polled {
            io_threads: IO_THREADS,
        },
        n,
    );
    let regression_pct = (e12_polled_us - e12_blocking_us) / e12_blocking_us * 100.0;
    let budget_pct = 3.0;

    print_table(
        &format!("E14: {FLEET_APPS}-app fleet, {FLEET_ROUNDS} fan-out rounds"),
        &["io mode", "launch s", "events/s", "peak threads", "reports"],
        &[
            vec![
                format!("polled({IO_THREADS})"),
                format!("{:.2}", polled.launch_s),
                format!("{:.0}", polled.events_per_s),
                polled.peak_threads.to_string(),
                polled.reports.to_string(),
            ],
            vec![
                "blocking".into(),
                format!("{:.2}", blocking.launch_s),
                format!("{:.0}", blocking.events_per_s),
                blocking.peak_threads.to_string(),
                blocking.reports.to_string(),
            ],
        ],
    );
    print_table(
        "E14: E12 windowed-burst workload, blocking vs polled",
        &["io mode", "mean us/cycle", "regression %"],
        &[
            vec![
                "blocking".into(),
                format!("{e12_blocking_us:.1}"),
                "0.00".into(),
            ],
            vec![
                format!("polled({IO_THREADS})"),
                format!("{e12_polled_us:.1}"),
                format!("{regression_pct:.2}"),
            ],
        ],
    );

    let obs_json = polled_obs.json_snapshot();
    let json = format!(
        "{{\n  \"exhibit\": \"fleet_scale\",\n  \"fleet_apps\": {FLEET_APPS},\n  \
         \"fleet_rounds\": {FLEET_ROUNDS},\n  \"io_threads\": {IO_THREADS},\n  \
         \"polled_thread_budget\": {},\n  \
         \"polled_events_per_s\": {:.0},\n  \
         \"polled_peak_threads\": {},\n  \
         \"polled_launch_s\": {:.2},\n  \
         \"polled_deliveries\": {},\n  \
         \"blocking_events_per_s\": {:.0},\n  \
         \"blocking_peak_threads\": {},\n  \
         \"blocking_launch_s\": {:.2},\n  \
         \"e12_blocking_us_per_cycle\": {e12_blocking_us:.1},\n  \
         \"e12_polled_us_per_cycle\": {e12_polled_us:.1},\n  \
         \"e12_regression_pct\": {regression_pct:.2},\n  \
         \"e12_regression_budget_pct\": {budget_pct:.1},\n  \
         \"within_budget\": {},\n  \"obs\": {obs_json}\n}}\n",
        2 * IO_THREADS,
        polled.events_per_s,
        polled.peak_threads,
        polled.launch_s,
        polled.delivered,
        blocking.events_per_s,
        blocking.peak_threads,
        blocking.launch_s,
        regression_pct <= budget_pct,
    );
    match std::fs::write("BENCH_7.json", &json) {
        Ok(()) => eprintln!(
            "wrote BENCH_7.json (polled {} threads vs blocking {}, e12 regression {regression_pct:.2}%)",
            polled.peak_threads, blocking.peak_threads
        ),
        Err(e) => eprintln!("could not write BENCH_7.json: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    // A smaller fleet for the timed samples: the 1000-app exhibit runs
    // once in `summary`; here we time one fan-out round per mode.
    let mut g = c.benchmark_group("e14_fleet_scale");
    g.sample_size(10);
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    for (name, io) in [
        ("blocking_64app_round", IoMode::Blocking),
        (
            "polled_64app_round",
            IoMode::Polled {
                io_threads: IO_THREADS,
            },
        ),
    ] {
        let mut proxy = fleet_proxy(io, Obs::new());
        let handles: Vec<AppHandle> = (0..64)
            .map(|_| {
                proxy
                    .launch_app(Box::new(Hub::new()), TransportKind::Channel)
                    .expect("fleet launch")
            })
            .collect();
        g.bench_function(name, |b| {
            b.iter(|| {
                fan_out(
                    &mut proxy,
                    &handles,
                    &Event::SwitchUp(DatapathId(1)),
                    &topo,
                    &dev,
                )
            })
        });
        proxy.shutdown();
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
