//! Observability end-to-end: run a small fault campaign with a live ops
//! endpoint attached, then read the story back the way an external
//! operator would — scraping `/metrics` and `/incidents` over a real TCP
//! socket instead of calling the exporters in-process.
//!
//! ```sh
//! cargo run --example observability
//! ```
//!
//! For a serve-forever campaign on a fixed port, see the `campaign` bin in
//! `crates/bench` (`cargo run -p legosdn-bench --bin campaign`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;

/// Fetch `path` from the endpoint and return the response body.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to ops endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: legosdn\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(raw)
}

fn main() {
    // Injected app crashes are contained by design; silence their default
    // backtraces so the report stays readable.
    std::panic::set_hook(Box::new(|_| {}));

    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    // Observability is wired at construction: the `obs` section's
    // `journal_capacity` gives this runtime a private obs instance whose
    // journal retains the last 1024 records.
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        obs: ObsConfig::journal_capacity(1024),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 2,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        checker: Some(Checker::new(vec![
            Invariant::NoBlackHoles,
            Invariant::NoLoops,
        ])),
        ..LegoSdnConfig::default()
    });

    // Serve this runtime's obs state on an ephemeral loopback port. A real
    // deployment would set `ServeConfig::addr` to a fixed port for its
    // scraper to target.
    let server = ObsServer::start(rt.obs(), ServeConfig::ephemeral()).expect("bind ops endpoint");
    let addr = server.local_addr();
    println!("ops endpoint live on http://{addr}");

    // A healthy learning switch, a router that crashes on switch-down (the
    // paper's running fail-stop example), and a hub that turns byzantine on
    // packets to a poisoned MAC.
    let poison = topo.hosts[2].mac;
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(ShortestPathRouter::new()),
        BugTrigger::OnEventKind(EventKind::SwitchDown),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Blackhole,
    )))
    .unwrap();
    rt.run_cycle(&mut net);

    // The campaign: healthy traffic, a byzantine poke, a switch bounce.
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for _ in 0..3 {
        for _ in 0..4 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        rt.run_cycle(&mut net);
        net.set_switch_up(DatapathId(2), false).unwrap();
        rt.run_cycle(&mut net);
        net.set_switch_up(DatapathId(2), true).unwrap();
        rt.run_cycle(&mut net);
    }

    println!("==== GET /metrics (Prometheus exposition, over TCP) ====");
    println!("{}", scrape(addr, "/metrics"));

    println!("==== GET /incidents (recovery timelines, over TCP) ====");
    println!("{}", scrape(addr, "/incidents"));

    println!(
        "runtime stats: recoveries={} byzantine_blocked={} cycles={}",
        rt.stats().failstop_recoveries,
        rt.stats().byzantine_blocked,
        rt.stats().cycles,
    );
    let joined = server.shutdown();
    println!("endpoint shut down cleanly ({joined} thread(s) joined)");
}
