//! E14 — stub-fleet scale on the stub-host pool.
//!
//! Every stub is hosted on a fixed pool of stub-host workers, and an
//! in-memory channel needs no proxy-side thread (sockets would add a poll
//! pool of the same size), so a 1000-app fleet runs on `io_threads`
//! threads, not 1000. This exhibit launches 1000 stubs, fans event rounds
//! out to the whole fleet, and records events/sec and the peak process
//! thread count from `/proc/self/status`; the timed sample is one fan-out
//! round over 64 stubs. What the pool costs a latency-sensitive windowed
//! workload is stackbench's `isolated_channel` row, not this exhibit's.

use legosdn::apps::Hub;
use legosdn::appvisor::{AppHandle, AppVisorProxy, IoMode, ProxyConfig, StubConfig, TransportKind};
use legosdn::controller::event::Event;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, headline, Criterion};
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

fn fleet_proxy(obs: Obs) -> AppVisorProxy {
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
        io: IoMode {
            io_threads: IO_THREADS,
        },
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

/// Launch `apps` stubs, fan `rounds` events to all of them, and retire
/// the fleet.
fn run_fleet(apps: usize, rounds: u64, obs: Obs) -> FleetRun {
    let mut proxy = fleet_proxy(obs);
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

fn summary() {
    // The global instance, so the harness's snapshot carries the fleet's
    // wire counters.
    let fleet = run_fleet(FLEET_APPS, FLEET_ROUNDS, Obs::global());
    print_table(
        &format!("E14: {FLEET_APPS}-app fleet, {FLEET_ROUNDS} fan-out rounds"),
        &[
            "io threads",
            "launch s",
            "events/s",
            "peak threads",
            "reports",
        ],
        &[vec![
            IO_THREADS.to_string(),
            format!("{:.2}", fleet.launch_s),
            format!("{:.0}", fleet.events_per_s),
            fleet.peak_threads.to_string(),
            fleet.reports.to_string(),
        ]],
    );
    headline("fleet_apps", FLEET_APPS as f64);
    headline("io_threads", IO_THREADS as f64);
    headline("events_per_s", fleet.events_per_s);
    headline("peak_threads", fleet.peak_threads as f64);
    headline("launch_s", fleet.launch_s);
    headline("deliveries", fleet.delivered as f64);
}

fn bench(c: &mut Criterion) {
    // A smaller fleet for the timed samples: the 1000-app exhibit runs
    // once in `summary`; here we time one fan-out round.
    let mut g = c.benchmark_group("e14_fleet_scale");
    g.sample_size(10);
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let mut proxy = fleet_proxy(Obs::new());
    let handles: Vec<AppHandle> = (0..64)
        .map(|_| {
            proxy
                .launch_app(Box::new(Hub::new()), TransportKind::Channel)
                .expect("fleet launch")
        })
        .collect();
    g.bench_function("fanout_64app_round", |b| {
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
