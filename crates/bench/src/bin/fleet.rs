//! `fleet` — stub-fleet scale smoke: many isolated apps on a bounded
//! thread budget.
//!
//! Launches `--apps N` AppVisor stubs directly against the proxy (no
//! network simulation — this exercises the isolation layer alone), fans
//! a few event rounds out to all of them, and reports throughput plus
//! the process thread count from `/proc/self/status`.
//!
//! The whole fleet is hosted on `--io-threads N` stub-host workers
//! (default 4) — the proxy blocks on each reply queue itself — and the
//! thread count stays flat no matter how many apps attach.
//! `scripts/check.sh` runs this with `--apps 1000 --max-threads 64`: the
//! smoke fails (exit 1) if the fleet ever needs more threads than that,
//! or if any app misses a delivery or its shutdown report.

use std::time::{Duration, Instant};

use legosdn::apps::Hub;
use legosdn::appvisor::{
    AppHandle, AppVisorProxy, DeliverOutcome, ProxyConfig, StubConfig, TransportKind,
};
use legosdn::controller::event::Event;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::openflow::DatapathId;
use legosdn_bench::args::{parse_or_exit, ArgWalker, IoArgs};
use legosdn_bench::print_table;
use legosdn_bench::workloads::fan_out;

struct FleetConfig {
    apps: usize,
    rounds: u64,
    io: IoArgs,
    max_threads: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            apps: 1000,
            rounds: 3,
            io: IoArgs::default(),
            max_threads: None,
        }
    }
}

const USAGE: &str = "usage: fleet [--apps N] [--rounds N] \
[--io-threads N] [--max-threads N]\n\
Launches N isolated stub apps against one AppVisor proxy, fans --rounds \
events out to all of them, and prints throughput plus the process thread \
count. The whole fleet is hosted on a fixed pool of --io-threads \
stub-host threads (default 4); --max-threads N \
makes the run fail (exit 1) if /proc/self/status ever reports more \
threads than N.";

fn parse_args(args: &[String]) -> Result<FleetConfig, String> {
    let mut cfg = FleetConfig::default();
    let mut it = ArgWalker::new(args);
    while let Some(flag) = it.next_flag() {
        if cfg.io.try_flag(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--apps" => {
                cfg.apps = it.parsed()?;
                if cfg.apps == 0 {
                    return Err("--apps must be at least 1".into());
                }
            }
            "--rounds" => {
                cfg.rounds = it.parsed()?;
                if cfg.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--max-threads" => cfg.max_threads = Some(it.parsed()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(cfg)
}

/// The process thread count, from the `Threads:` line of
/// `/proc/self/status`. Returns 0 on platforms without procfs (the
/// `--max-threads` check is then skipped rather than failed).
fn thread_count() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let cfg = parse_or_exit(USAGE, parse_args);

    let baseline_threads = thread_count();
    let mut proxy = AppVisorProxy::new(ProxyConfig {
        // Generous RPC deadlines: at 1000 apps a fan-out's shared deadline
        // covers the whole fleet, and the smoke must fail on *thread*
        // exhaustion, not on a slow CI machine.
        deliver_timeout: Duration::from_secs(30),
        rpc_timeout: Duration::from_secs(30),
        stub: StubConfig::default(),
        io: cfg.io.mode,
    });

    let launch_start = Instant::now();
    let handles: Vec<AppHandle> = (0..cfg.apps)
        .map(|_| {
            proxy
                .launch_app(Box::new(Hub::new()), TransportKind::Channel)
                .unwrap_or_else(|e| {
                    eprintln!("error: launch failed: {e}");
                    std::process::exit(1);
                })
        })
        .collect();
    let launch_s = launch_start.elapsed().as_secs_f64();
    let launched_threads = thread_count();

    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let mut delivered = 0u64;
    let mut failed = 0u64;
    let fanout_start = Instant::now();
    for _ in 0..cfg.rounds {
        let results = fan_out(
            &mut proxy,
            &handles,
            &Event::SwitchUp(DatapathId(1)),
            &topo,
            &dev,
        );
        for r in results {
            match r {
                Ok(DeliverOutcome::Commands(_)) => delivered += 1,
                other => {
                    failed += 1;
                    eprintln!("fleet: delivery failed: {other:?}");
                }
            }
        }
    }
    let fanout_s = fanout_start.elapsed().as_secs_f64();
    let events_per_s = delivered as f64 / fanout_s;
    let peak_threads = thread_count().max(launched_threads);

    let reports = proxy.shutdown();

    print_table(
        &format!(
            "fleet: {} apps x {} rounds, {} io threads",
            cfg.apps, cfg.rounds, cfg.io.mode.io_threads
        ),
        &["metric", "value"],
        &[
            vec!["launch s".into(), format!("{launch_s:.2}")],
            vec!["deliveries ok".into(), delivered.to_string()],
            vec!["deliveries failed".into(), failed.to_string()],
            vec!["events/s".into(), format!("{events_per_s:.0}")],
            vec!["baseline threads".into(), baseline_threads.to_string()],
            vec!["peak threads".into(), peak_threads.to_string()],
            vec!["shutdown reports".into(), reports.len().to_string()],
        ],
    );

    let mut ok = true;
    if failed > 0 {
        eprintln!("fleet: FAIL — {failed} deliveries did not complete");
        ok = false;
    }
    if reports.len() != cfg.apps {
        eprintln!(
            "fleet: FAIL — {} of {} stubs reported at shutdown",
            reports.len(),
            cfg.apps
        );
        ok = false;
    }
    if let Some(max) = cfg.max_threads {
        if peak_threads == 0 {
            eprintln!("fleet: no procfs; skipping the --max-threads check");
        } else if peak_threads > max {
            eprintln!("fleet: FAIL — peak thread count {peak_threads} exceeds --max-threads {max}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("fleet: ok ({delivered} deliveries, peak {peak_threads} threads)");
}
