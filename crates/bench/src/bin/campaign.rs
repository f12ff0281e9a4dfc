//! `campaign` — the repo's first serve-forever workload: a long-running
//! fault-campaign daemon with a live ops endpoint.
//!
//! Runs configurable fault campaigns (apps × fault kinds × policies)
//! indefinitely while `legosdn_obs::ObsServer` serves the live metrics,
//! JSON snapshot, and recovery timelines of exactly this campaign:
//!
//! ```sh
//! cargo run --release -p legosdn-bench --bin campaign -- --addr 127.0.0.1:9184
//! curl http://127.0.0.1:9184/metrics     # Prometheus text
//! curl http://127.0.0.1:9184/incidents   # recovery timelines
//! ```
//!
//! `--rounds 0` (the default) runs until the process is killed; a finite
//! `--rounds N` makes the daemon a smoke-testable batch job (used by
//! `scripts/check.sh`).

use std::net::SocketAddr;
use std::time::Duration;

use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;
use legosdn_bench::args::{parse_or_exit, ArgWalker, IoArgs};

struct CampaignConfig {
    /// Where the ops endpoint listens.
    addr: SocketAddr,
    /// Where to write the bound address for scripts (the `--addr ...:0`
    /// ephemeral-port dance).
    addr_file: Option<String>,
    rounds: u64,
    switches: usize,
    hosts_per_switch: usize,
    policy: CompromisePolicy,
    faults: Vec<BugEffect>,
    period: Duration,
    isolation: IsolationMode,
    io: IoArgs,
    trace_sample: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 9184)),
            addr_file: None,
            rounds: 0,
            switches: 3,
            hosts_per_switch: 1,
            policy: CompromisePolicy::Absolute,
            faults: vec![BugEffect::Crash, BugEffect::Blackhole],
            period: Duration::from_millis(20),
            isolation: IsolationMode::Local,
            io: IoArgs::default(),
            trace_sample: 1,
        }
    }
}

const USAGE: &str = "usage: campaign [--addr HOST:PORT] [--addr-file PATH] \
[--rounds N] \
[--switches N] [--hosts N] [--policy absolute|no-compromise|equivalence] \
[--faults crash,blackhole,loop,flush] [--period-ms MS] \
[--isolation local|channel|udp] \
[--io-threads N] [--trace-sample N]\n\
--rounds 0 (default) serves forever. --addr 127.0.0.1:0 picks an \
ephemeral port (written to --addr-file for scripts). Events fan out to \
isolated apps concurrently, up to 8 events of a cycle in flight on each \
stub's stream; in process they run one at a time (same network state \
either way, see DESIGN.md). \
Isolated stubs are hosted on a fixed pool of stub-host threads; \
--io-threads N sizes that pool (default 4; with at least as \
many threads as stubs, each stub has a thread of its own). \
--trace-sample N records a causal flight-recorder trace for every Nth \
event (default 1: every event; 0 disables tracing), served at /traces \
and /traces/<cycle>-<seq>.";

fn parse_fault(s: &str) -> Result<BugEffect, String> {
    match s {
        "crash" => Ok(BugEffect::Crash),
        "blackhole" => Ok(BugEffect::Blackhole),
        "loop" => Ok(BugEffect::ForwardingLoop),
        "flush" => Ok(BugEffect::FlushFlows),
        other => Err(format!("unknown fault kind: {other}")),
    }
}

/// The current flag's value: a count of at least one.
fn at_least_one(flag: &str, it: &mut ArgWalker) -> Result<usize, String> {
    match it.parsed()? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn parse_args(args: &[String]) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig::default();
    let mut it = ArgWalker::new(args);
    while let Some(flag) = it.next_flag() {
        if cfg.io.try_flag(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => cfg.addr = it.parsed()?,
            "--addr-file" => cfg.addr_file = Some(it.value()?),
            "--rounds" => cfg.rounds = it.parsed()?,
            "--switches" => {
                cfg.switches = it.parsed()?;
                if cfg.switches < 2 {
                    return Err("--switches must be at least 2".into());
                }
            }
            "--hosts" => cfg.hosts_per_switch = at_least_one(&flag, &mut it)?,
            "--policy" => {
                cfg.policy = match it.value()?.as_str() {
                    "absolute" => CompromisePolicy::Absolute,
                    "no-compromise" => CompromisePolicy::NoCompromise,
                    "equivalence" => CompromisePolicy::Equivalence,
                    other => return Err(format!("unknown policy: {other}")),
                }
            }
            "--faults" => {
                cfg.faults = it
                    .value()?
                    .split(',')
                    .map(parse_fault)
                    .collect::<Result<_, _>>()?;
                if cfg.faults.is_empty() {
                    return Err("--faults needs at least one kind".into());
                }
            }
            "--period-ms" => cfg.period = Duration::from_millis(it.parsed()?),
            "--isolation" => {
                let v = it.value()?;
                cfg.isolation = IsolationMode::parse(&v)
                    .ok_or_else(|| format!("unknown isolation mode: {v}"))?;
            }
            "--trace-sample" => cfg.trace_sample = it.parsed()?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(cfg)
}

/// Attach the campaign roster: one healthy app plus one faulty app per
/// configured fault kind (fail-stop kinds trigger on switch-down, the
/// byzantine kinds on a poisoned MAC).
fn attach_roster(rt: &mut LegoSdnRuntime, faults: &[BugEffect], poison: MacAddr) {
    rt.attach(Box::new(LearningSwitch::new()))
        .expect("attach learning switch");
    for &fault in faults {
        let app: Box<dyn SdnApp> = match fault {
            BugEffect::Crash => Box::new(FaultyApp::new(
                Box::new(ShortestPathRouter::new()),
                BugTrigger::OnEventKind(EventKind::SwitchDown),
                BugEffect::Crash,
            )),
            byzantine => Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnPacketToMac(poison),
                byzantine,
            )),
        };
        rt.attach(app).expect("attach faulty app");
    }
}

fn main() {
    let cfg = parse_or_exit(USAGE, parse_args);

    // Injected crashes are contained by design; silence their backtraces so
    // the daemon's stderr stays a readable status stream.
    std::panic::set_hook(Box::new(|_| {}));

    let topo = Topology::linear(cfg.switches, cfg.hosts_per_switch);
    let mut net = Network::new(&topo);
    // A private obs instance, wired at construction: the endpoint serves
    // exactly this campaign, not whatever else the process global may
    // have accumulated.
    let config = LegoSdnConfig {
        isolation: cfg.isolation,
        io: cfg.io.config(),
        obs: ObsConfig::instance(Obs::new()).trace_sample(cfg.trace_sample),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 2,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(cfg.policy),
            transform_direction: TransformDirection::Decompose,
        },
        checker: Some(Checker::new(vec![
            Invariant::NoBlackHoles,
            Invariant::NoLoops,
        ])),
        ..LegoSdnConfig::default()
    }
    .build()
    .unwrap_or_else(|e| {
        eprintln!("error: invalid config: {e}");
        std::process::exit(2);
    });
    let mut rt = LegoSdnRuntime::new(config);
    let obs = rt.obs();

    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    attach_roster(&mut rt, &cfg.faults, poison);
    rt.run_cycle(&mut net); // handshake + discovery

    let server = ObsServer::start(
        obs.clone(),
        ServeConfig {
            addr: cfg.addr,
            ..ServeConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind ops endpoint on {}: {e}", cfg.addr);
        std::process::exit(1);
    });
    if let Some(path) = &cfg.addr_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", server.local_addr())) {
            eprintln!("error: cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "campaign: serving /metrics /metrics.json /incidents /traces /rollups /healthz on http://{} \
         ({} switches, policy {}, {} fault app(s), {:?} isolation, \
         {} io thread(s), {})",
        server.local_addr(),
        cfg.switches,
        cfg.policy,
        cfg.faults.len(),
        cfg.isolation,
        cfg.io.mode.io_threads,
        if cfg.rounds == 0 {
            "until killed".to_string()
        } else {
            format!("{} rounds", cfg.rounds)
        },
    );

    let (a, b) = (topo.hosts[0].mac, topo.hosts[1 % topo.hosts.len()].mac);
    let bounce = DatapathId(cfg.switches as u64); // the last switch
    let mut round: u64 = 0;
    loop {
        round += 1;
        // Healthy traffic, then a byzantine poke, then a switch bounce (the
        // fail-stop trigger) — one full failure/recovery story per round.
        for _ in 0..4 {
            let _ = net.inject(a, Packet::ethernet(a, b));
            rt.run_cycle(&mut net);
        }
        let _ = net.inject(a, Packet::ethernet(a, poison));
        rt.run_cycle(&mut net);
        let _ = net.set_switch_up(bounce, false);
        rt.run_cycle(&mut net);
        let _ = net.set_switch_up(bounce, true);
        rt.run_cycle(&mut net);

        if round.is_multiple_of(50) || round == cfg.rounds {
            let stats = rt.stats();
            eprintln!(
                "campaign: round {round} cycles={} recoveries={} byzantine_blocked={} \
                 incidents={}",
                stats.cycles,
                stats.failstop_recoveries,
                stats.byzantine_blocked,
                obs.incidents().len(),
            );
        }
        if round == cfg.rounds {
            break;
        }
        std::thread::sleep(cfg.period);
    }

    let joined = server.shutdown();
    eprintln!(
        "campaign: done after {round} round(s); endpoint shut down ({joined} thread(s) joined)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<CampaignConfig, String> {
        parse_args(&s.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn dispatch_flags_build_the_section() {
        // `--isolation` is the one flag that shapes dispatch: the mode
        // it picks sets the window depth (one event in process, the stub
        // window behind stubs).
        for (name, mode) in [
            ("local", IsolationMode::Local),
            ("channel", IsolationMode::Channel),
            ("udp", IsolationMode::Udp),
        ] {
            assert_eq!(parse(&["--isolation", name]).unwrap().isolation, mode);
        }
        let err = parse(&["--isolation", "tcp"]).err().expect("tcp is gone");
        assert_eq!(err, "unknown isolation mode: tcp");
        let err = parse(&["--hosts", "0"])
            .err()
            .expect("a zero count is refused");
        assert_eq!(err, "--hosts must be at least 1");
    }

    #[test]
    fn endpoint_flags_parse_addr_and_file() {
        let cfg = parse(&["--addr", "127.0.0.1:0", "--addr-file", "/tmp/x"]).unwrap();
        assert_eq!(cfg.addr.port(), 0);
        assert_eq!(cfg.addr_file.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn unknown_flags_are_refused() {
        // `--dispatch`, `--transport`, `--push-to`, `--campaign`,
        // `--lookahead` and `--workers` selected paths that no longer
        // exist; `--window` set a depth the isolation mode now sets.
        for name in [
            "--mystery",
            "--dispatch",
            "--transport",
            "--push-to",
            "--campaign",
            "--lookahead",
            "--workers",
            "--window",
        ] {
            let err = parse(&[name, "x"]).err().expect("unknown flag accepted");
            assert_eq!(err, format!("unknown flag: {name}"));
        }
    }
}
