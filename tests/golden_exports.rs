//! Golden exports: what an operator scrapes from the ops endpoint after
//! the obs-endpoint and trace-causality campaigns, byte for byte.
//!
//! Each scenario is the one its integration suite drives. The bodies of
//! `/incidents`, `/traces` and one `/traces/<id>` are compared with the
//! files under `tests/golden/`, with every wall-clock number masked: the
//! `*_ns` JSON fields and the microsecond figures of the incident text.
//! Everything else — step order, phases, outcomes, app names, journal
//! sequence numbers, trace ids — must not move. On a mismatch the masked
//! body is written under the test's target temp dir for diffing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::obs::TraceId;
use legosdn::prelude::*;

fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to ops endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body separator");
    assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
    body.to_string()
}

/// Replace every wall-clock number with `#`: a digit run that ends a
/// `"…_ns":` JSON field, or one followed by `us`.
fn mask(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            let c = text[i..].chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        let before = out.trim_end_matches(' ');
        let timed = text[i..].starts_with("us") || before.ends_with("_ns\":");
        out.push_str(if timed { "#" } else { &text[start..i] });
    }
    out
}

/// `None` when `body`, masked, equals `tests/golden/<name>`; otherwise
/// the masked body is written for diffing and its path returned.
fn check(name: &str, body: &str) -> Option<PathBuf> {
    let actual = mask(body);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    if std::fs::read_to_string(golden.join(name)).is_ok_and(|expected| expected == actual) {
        return None;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), &actual).unwrap();
    Some(dir.join(name))
}

/// Scrape the three bodies of `obs` with `episode` as the trace detail.
fn check_exports(prefix: &str, obs: &Obs, episode: TraceId) {
    let server = ObsServer::start(obs.clone(), ServeConfig::ephemeral()).expect("bind endpoint");
    let addr = server.local_addr();
    let differ: Vec<PathBuf> = [
        ("incidents.txt", "/incidents".to_string()),
        ("traces.json", "/traces".to_string()),
        ("trace.json", format!("/traces/{episode}")),
    ]
    .into_iter()
    .filter_map(|(file, path)| check(&format!("{prefix}.{file}"), &scrape(addr, &path)))
    .collect();
    server.shutdown();
    assert!(
        differ.is_empty(),
        "differs from tests/golden/; masked bodies: {differ:?}"
    );
}

/// `integration_obs_endpoint`'s campaign: a learning switch beside a
/// router that crashes on switch-down, two rounds.
#[test]
fn obs_endpoint_campaign_exports_are_golden() {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
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
        obs: ObsConfig::instance(Obs::new()),
        ..LegoSdnConfig::default()
    });
    let obs = rt.obs();
    let (src, dst, poison) = (topo.hosts[0].mac, topo.hosts[1].mac, topo.hosts[2].mac);
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(ShortestPathRouter::new()),
        BugTrigger::OnEventKind(EventKind::SwitchDown),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.run_cycle(&mut net);
    for _ in 0..2 {
        for _ in 0..3 {
            net.inject(src, Packet::ethernet(src, dst)).unwrap();
            rt.run_cycle(&mut net);
        }
        net.inject(src, Packet::ethernet(src, poison)).unwrap();
        rt.run_cycle(&mut net);
        net.set_switch_up(DatapathId(2), false).unwrap();
        rt.run_cycle(&mut net);
        net.set_switch_up(DatapathId(2), true).unwrap();
        rt.run_cycle(&mut net);
    }
    let episode = obs
        .traces()
        .into_iter()
        .find(|t| t.events.iter().any(|e| e.phase == "restore"))
        .expect("a trace holding the restore");
    check_exports("obs_endpoint", &obs, episode.id);
}

/// `integration_trace_causality`'s depth-8 campaign: four apps behind
/// channel stubs, a mid-burst switch bounce and a black-holing hub.
#[test]
fn trace_causality_campaign_exports_are_golden() {
    // Injected crashes are contained; a quiet hook keeps the stub's
    // answer well inside the delivery deadline on a loaded host.
    std::panic::set_hook(Box::new(|_| {}));
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        obs: ObsConfig::instance(Obs::new()),
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
    let obs = rt.obs();
    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(Hub::new())).unwrap();
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

    // The suite's seeded LCG, seed 0x5eed_0008.
    let mut state: u64 = 0x5eed_0008;
    let mut pick = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as usize
    };
    let bounce = DatapathId(3);
    for round in 0..4 {
        for _ in 0..3 {
            let src = topo.hosts[pick(topo.hosts.len())].mac;
            let dst = topo.hosts[pick(topo.hosts.len())].mac;
            let _ = net.inject(src, Packet::ethernet(src, dst));
        }
        let _ = net.set_switch_up(bounce, false);
        for _ in 0..2 {
            let src = topo.hosts[pick(2)].mac;
            let _ = net.inject(src, Packet::ethernet(src, poison));
        }
        rt.run_cycle(&mut net);
        let _ = net.set_switch_up(bounce, true);
        rt.run_cycle(&mut net);
        if round == 1 {
            rt.tick_apps(&mut net);
        }
    }
    rt.shutdown();

    let episode = obs
        .traces()
        .into_iter()
        .find(|t| {
            t.events.iter().any(|e| e.phase == "deliver_fail")
                && t.events.iter().any(|e| e.phase == "restore")
                && t.events
                    .iter()
                    .any(|e| e.phase == "commit" && e.outcome == "recovered")
        })
        .expect("a trace holding a full crash-recovery episode");
    check_exports("trace_causality", &obs, episode.id);
}
