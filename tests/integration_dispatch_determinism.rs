//! The dispatch engine must be observationally identical to the
//! sequential reference (`core/src/reference.rs`, reached through
//! `LegoSdnRuntime::oracle`): same final flow tables, same NetLog
//! transaction order, same recovery counts — for local sandboxes and
//! isolated stubs alike. The engine overlaps app *processing* only;
//! everything that touches the network stays serialized in attach order
//! (see DESIGN.md §9). The cross-event window must preserve the same
//! residue at every depth, including across crash-triggered
//! cancellation/re-send.

use legosdn::controller::app::{Ctx, RestoreError, SdnApp};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;

/// Everything one campaign run leaves behind that an operator could
/// observe: network state, transaction log, runtime counters.
#[derive(Debug, PartialEq)]
struct Residue {
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
    txlog: Vec<TxRecord>,
    stats: RuntimeStats,
    recoveries: usize,
    byzantine_blocked: usize,
    commands: usize,
}

/// The engine under `config`, or the sequential reference over the same
/// config and feed.
fn runtime(oracle: bool, config: LegoSdnConfig) -> LegoSdnRuntime {
    let config = config.build().expect("valid config");
    if oracle {
        LegoSdnRuntime::oracle(config)
    } else {
        LegoSdnRuntime::new(config)
    }
}

/// One fixed fault campaign — healthy traffic, a byzantine poke, a
/// fail-stop crash with recovery, more traffic, a tick — executed under
/// the engine, or (`oracle`) under the sequential reference.
fn run_campaign(oracle: bool, isolation: IsolationMode, depth: usize) -> Residue {
    run_campaign_io(oracle, isolation, depth, IoMode::default())
}

/// [`run_campaign`] with an explicit stub-host pool size.
fn run_campaign_io(oracle: bool, isolation: IsolationMode, depth: usize, io: IoMode) -> Residue {
    run_campaign_sharded(oracle, isolation, depth, io, 1)
}

/// [`run_campaign_io`] with an explicit worker-shard count.
fn run_campaign_sharded(
    oracle: bool,
    isolation: IsolationMode,
    depth: usize,
    io: IoMode,
    workers: usize,
) -> Residue {
    run_campaign_lookahead(oracle, isolation, depth, io, workers, 1)
}

/// [`run_campaign_sharded`] with an explicit cross-cycle lookahead.
fn run_campaign_lookahead(
    oracle: bool,
    isolation: IsolationMode,
    depth: usize,
    io: IoMode,
    workers: usize,
    lookahead: usize,
) -> Residue {
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(&topo);
    let mut rt = runtime(
        oracle,
        LegoSdnConfig {
            isolation,
            dispatch: DispatchConfig::default()
                .window(depth)
                .workers(workers)
                .lookahead(lookahead),
            io: IoConfig {
                mode: io,
                ..IoConfig::default()
            },
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
        },
    );

    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    // Roster: ≥4 apps, mixing healthy, fail-stop, and byzantine.
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

    rt.run_cycle(&mut net); // handshake + discovery
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    let bounce = DatapathId(3);
    let mut recoveries = 0;
    let mut byzantine_blocked = 0;
    let mut commands = 0;
    let mut absorb = |r: LegoCycleReport| {
        recoveries += r.recoveries;
        byzantine_blocked += r.byzantine_blocked;
        commands += r.commands;
    };
    for round in 0..3 {
        for _ in 0..3 {
            let _ = net.inject(a, Packet::ethernet(a, b));
            absorb(rt.run_cycle(&mut net));
        }
        // A multi-packet burst in one cycle with the poison mid-burst:
        // at depth > 1 the window must cancel and re-send across the
        // byzantine recovery without changing what lands.
        let _ = net.inject(a, Packet::ethernet(a, b));
        let _ = net.inject(a, Packet::ethernet(a, poison));
        let _ = net.inject(b, Packet::ethernet(b, a));
        absorb(rt.run_cycle(&mut net));
        let _ = net.set_switch_up(bounce, false);
        absorb(rt.run_cycle(&mut net));
        let _ = net.set_switch_up(bounce, true);
        absorb(rt.run_cycle(&mut net));
        if round == 1 {
            absorb(rt.tick_apps(&mut net));
        }
    }

    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let stats = rt.stats();
    rt.shutdown();
    Residue {
        flow_tables,
        txlog,
        stats,
        recoveries,
        byzantine_blocked,
        commands,
    }
}

fn assert_identical(isolation: IsolationMode) {
    let seq = run_campaign(true, isolation, 1);
    let pipe = run_campaign(false, isolation, 1);
    // The campaign must actually exercise the interesting paths, or this
    // test proves nothing.
    assert!(
        seq.recoveries > 0,
        "campaign produced no fail-stop recovery"
    );
    assert!(
        seq.byzantine_blocked > 0,
        "campaign produced no byzantine block"
    );
    assert!(seq.commands > 0, "campaign produced no network commands");
    assert!(!seq.txlog.is_empty(), "campaign produced no transactions");
    assert_eq!(
        seq.flow_tables, pipe.flow_tables,
        "{isolation:?}: flow tables diverge between the engine and the oracle"
    );
    assert_eq!(
        seq.txlog, pipe.txlog,
        "{isolation:?}: NetLog transaction order diverges between the engine and the oracle"
    );
    assert_eq!(
        seq.stats, pipe.stats,
        "{isolation:?}: runtime counters diverge between the engine and the oracle"
    );
    assert_eq!(
        (seq.recoveries, seq.byzantine_blocked, seq.commands),
        (pipe.recoveries, pipe.byzantine_blocked, pipe.commands),
        "{isolation:?}: per-cycle reports diverge between the engine and the oracle"
    );
}

#[test]
fn engine_matches_the_oracle_with_local_sandboxes() {
    assert_identical(IsolationMode::Local);
}

#[test]
fn engine_matches_the_oracle_with_isolated_stubs() {
    assert_identical(IsolationMode::Channel);
}

#[test]
fn engine_matches_the_oracle_across_repeated_runs() {
    // Stub scheduling varies run to run; determinism must not depend on
    // a lucky interleaving.
    let reference = run_campaign(true, IsolationMode::Channel, 1);
    for _ in 0..3 {
        let pipe = run_campaign(false, IsolationMode::Channel, 1);
        assert_eq!(reference.flow_tables, pipe.flow_tables);
        assert_eq!(reference.txlog, pipe.txlog);
        assert_eq!(reference.stats, pipe.stats);
    }
}

#[test]
fn windowed_dispatch_is_deterministic_across_depths() {
    for isolation in [IsolationMode::Local, IsolationMode::Channel] {
        let reference = run_campaign(true, isolation, 1);
        for depth in [1usize, 2, 8] {
            let win = run_campaign(false, isolation, depth);
            assert_eq!(
                reference.flow_tables, win.flow_tables,
                "{isolation:?} depth {depth}: flow tables diverge"
            );
            assert_eq!(
                reference.txlog, win.txlog,
                "{isolation:?} depth {depth}: NetLog transaction order diverges"
            );
            assert_eq!(
                reference.stats, win.stats,
                "{isolation:?} depth {depth}: runtime counters diverge"
            );
            assert_eq!(
                (
                    reference.recoveries,
                    reference.byzantine_blocked,
                    reference.commands
                ),
                (win.recoveries, win.byzantine_blocked, win.commands),
                "{isolation:?} depth {depth}: per-cycle reports diverge"
            );
        }
    }
}

#[test]
fn polled_transport_preserves_the_dispatch_residue() {
    // The size of the stub-host pool changes only *which thread* runs a
    // stub — one each at the default, shared at two — never what the
    // stub says. Every {pool size} × {window depth} combination must
    // leave the exact residue of the sequential reference.
    let reference = run_campaign(true, IsolationMode::Channel, 1);
    for io in [IoMode::default(), IoMode { io_threads: 2 }] {
        for depth in [1usize, 8] {
            let run = run_campaign_io(false, IsolationMode::Channel, depth, io);
            assert_eq!(
                reference.flow_tables, run.flow_tables,
                "{io:?} depth {depth}: flow tables diverge"
            );
            assert_eq!(
                reference.txlog, run.txlog,
                "{io:?} depth {depth}: NetLog transaction order diverges"
            );
            assert_eq!(
                reference.stats, run.stats,
                "{io:?} depth {depth}: runtime counters diverge"
            );
            assert_eq!(
                (
                    reference.recoveries,
                    reference.byzantine_blocked,
                    reference.commands
                ),
                (run.recoveries, run.byzantine_blocked, run.commands),
                "{io:?} depth {depth}: per-cycle reports diverge"
            );
        }
    }
}

#[test]
fn sharded_dispatch_preserves_the_residue_across_worker_counts() {
    // The tentpole determinism oracle (DESIGN.md §9): sharding the apps
    // across worker threads changes only *where* they run. For every
    // {worker count} × {pool size} × {window depth} combination the residue
    // — flow tables, NetLog transaction order, runtime counters, per-
    // cycle reports — must be bit-identical to the single-threaded
    // sequential reference.
    let reference = run_campaign(true, IsolationMode::Channel, 1);
    for workers in [1usize, 2, 4] {
        for io in [IoMode::default(), IoMode { io_threads: 2 }] {
            for depth in [1usize, 8] {
                let run = run_campaign_sharded(false, IsolationMode::Channel, depth, io, workers);
                assert_eq!(
                    reference.flow_tables, run.flow_tables,
                    "workers {workers} {io:?} depth {depth}: flow tables diverge"
                );
                assert_eq!(
                    reference.txlog, run.txlog,
                    "workers {workers} {io:?} depth {depth}: NetLog transaction order diverges"
                );
                assert_eq!(
                    reference.stats, run.stats,
                    "workers {workers} {io:?} depth {depth}: runtime counters diverge"
                );
                assert_eq!(
                    (
                        reference.recoveries,
                        reference.byzantine_blocked,
                        reference.commands
                    ),
                    (run.recoveries, run.byzantine_blocked, run.commands),
                    "workers {workers} {io:?} depth {depth}: per-cycle reports diverge"
                );
            }
        }
    }
}

#[test]
fn cross_cycle_lookahead_preserves_the_residue() {
    // Cross-cycle windowing (DESIGN.md §9) changes which run_cycle call
    // consumes an event — the send cursor runs ahead into raws enqueued by
    // this cycle's own commits — so the oracle for lookahead L is
    // *sequential dispatch at the same L*, not at L = 1. At every swept
    // {workers × depth} point the residue must be bit-identical to that
    // matching-lookahead sequential reference.
    for lookahead in [1usize, 2] {
        let reference = run_campaign_lookahead(
            true,
            IsolationMode::Channel,
            1,
            IoMode::default(),
            1,
            lookahead,
        );
        assert!(
            reference.recoveries > 0,
            "lookahead {lookahead}: campaign produced no recovery"
        );
        assert!(
            reference.byzantine_blocked > 0,
            "lookahead {lookahead}: campaign produced no byzantine block"
        );
        for workers in [1usize, 2, 4] {
            for depth in [1usize, 8] {
                let run = run_campaign_lookahead(
                    false,
                    IsolationMode::Channel,
                    depth,
                    IoMode::default(),
                    workers,
                    lookahead,
                );
                assert_eq!(
                    reference.flow_tables, run.flow_tables,
                    "workers {workers} depth {depth} lookahead {lookahead}: flow tables diverge"
                );
                assert_eq!(
                    reference.txlog, run.txlog,
                    "workers {workers} depth {depth} lookahead {lookahead}: NetLog order diverges"
                );
                assert_eq!(
                    reference.stats, run.stats,
                    "workers {workers} depth {depth} lookahead {lookahead}: counters diverge"
                );
                assert_eq!(
                    (
                        reference.recoveries,
                        reference.byzantine_blocked,
                        reference.commands
                    ),
                    (run.recoveries, run.byzantine_blocked, run.commands),
                    "workers {workers} depth {depth} lookahead {lookahead}: reports diverge"
                );
            }
        }
    }
}

#[test]
fn sharded_dispatch_is_stable_across_repeated_runs() {
    // Thread scheduling varies run to run; sharded determinism must not
    // depend on a lucky interleaving.
    let reference = run_campaign(true, IsolationMode::Local, 1);
    for _ in 0..3 {
        let run = run_campaign_sharded(false, IsolationMode::Local, 4, IoMode::default(), 4);
        assert_eq!(reference.flow_tables, run.flow_tables);
        assert_eq!(reference.txlog, run.txlog);
        assert_eq!(reference.stats, run.stats);
    }
}

/// Installs one uniquely-matched drop flow per packet-in, tagging the
/// match's `eth_src` with a synthetic per-delivery serial. No real packet
/// carries a synthetic source, so installs never suppress later
/// packet-ins — and same-priority flows keep insertion order, so the
/// ingress switch's table *is* the app's observed delivery order.
struct OrderProbe {
    count: u64,
}

const PROBE_TAG_BASE: u64 = 5000;

impl SdnApp for OrderProbe {
    fn name(&self) -> &str {
        "order-probe"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        if let Event::PacketIn(dpid, pi) = event {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            mat.eth_src = Some(MacAddr::from_index(PROBE_TAG_BASE + self.count));
            self.count += 1;
            ctx.send(*dpid, Message::FlowMod(FlowMod::add(mat)));
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.count.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(arr);
        Ok(())
    }
}

/// Deterministic xorshift64 — the test's only randomness source, so every
/// failure reproduces from its seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn per_app_delivery_order_equals_translation_order_under_random_crashes() {
    // Property: for a healthy app, windowed dispatch delivers each
    // cycle's events in translation order, no matter where a neighboring
    // app's crashes land in the burst. The probe's flow installs on the
    // ingress switch record the order it actually observed.
    for seed in [11u64, 47, 2026] {
        let mut rng = XorShift(seed);
        let topo = Topology::linear(2, 2);
        let mut net = Network::new(&topo);
        let poison = topo.hosts[topo.hosts.len() - 1].mac;
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            dispatch: DispatchConfig::default().window(8),
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
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(OrderProbe { count: 0 })).unwrap();
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net); // handshake + discovery

        let a = topo.hosts[0].mac;
        let ingress = DatapathId(1);
        let mut injected = Vec::new();
        for round in 0..3u64 {
            // A 6-packet burst with 1–2 poison packets at random slots.
            let poison_a = rng.next() % 6;
            let poison_b = rng.next() % 6;
            for slot in 0..6u64 {
                let dst = if slot == poison_a || slot == poison_b {
                    poison
                } else {
                    MacAddr::from_index(100 + round * 8 + slot)
                };
                let _ = net.inject(a, Packet::ethernet(a, dst));
                injected.push(dst);
            }
            let report = rt.run_cycle(&mut net);
            assert!(report.recoveries >= 1, "seed {seed}: no crash exercised");
        }
        assert!(!rt.is_crashed());

        // The probe installed one tagged flow per injected packet;
        // install order on the ingress switch must equal injection
        // (translation) order.
        let observed: Vec<MacAddr> = net
            .switch(ingress)
            .unwrap()
            .table()
            .iter()
            .filter(|entry| {
                entry
                    .mat
                    .eth_src
                    .is_some_and(|m| m >= MacAddr::from_index(PROBE_TAG_BASE))
            })
            .filter_map(|entry| entry.mat.eth_dst)
            .collect();
        assert_eq!(observed, injected, "seed {seed}: delivery order diverged");
        rt.shutdown();
    }
}

/// Everything the impure-raw burst leaves behind, cycle by cycle.
#[derive(Debug, PartialEq)]
struct BurstResidue {
    cycles: Vec<(usize, usize)>,
    stats: RuntimeStats,
    txlog: Vec<TxRecord>,
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
}

fn run_impure_burst(oracle: bool, depth: usize, workers: usize, lookahead: usize) -> BurstResidue {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let mut rt = runtime(
        oracle,
        LegoSdnConfig {
            dispatch: DispatchConfig::default()
                .window(depth)
                .workers(workers)
                .lookahead(lookahead),
            obs: ObsConfig::instance(Obs::new()),
            ..LegoSdnConfig::default()
        },
    );
    rt.attach(Box::new(Hub::new())).unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    let mut cycles = Vec::new();
    let mut settle = |rt: &mut LegoSdnRuntime, net: &mut Network| loop {
        let r = rt.run_cycle(net);
        if r.events == 0 {
            break;
        }
        cycles.push((r.events, r.commands));
    };
    settle(&mut rt, &mut net); // handshake + discovery
    net.set_link_up(0, false).unwrap();
    settle(&mut rt, &mut net);
    // One burst: a packet, a link coming back (its port-status raw probes
    // the network and drains the queue when translated), another packet.
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    let _ = net.inject(a, Packet::ethernet(a, b));
    net.set_link_up(0, true).unwrap();
    let _ = net.inject(b, Packet::ethernet(b, a));
    settle(&mut rt, &mut net);

    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let stats = rt.stats();
    rt.shutdown();
    BurstResidue {
        cycles,
        stats,
        txlog,
        flow_tables,
    }
}

#[test]
fn impure_raw_mid_burst_matches_the_oracle() {
    // A raw whose translation reads the network (a live PortStatus
    // re-probes the port and swallows whatever is queued) must be
    // translated where the sequential reference translates it: after
    // every event ahead of it in the burst has committed. Translating
    // the whole burst up front moves the probe ahead of the first
    // packet's follow-on packet-ins and changes which cycle sees them.
    for lookahead in [1usize, 2] {
        let oracle = run_impure_burst(true, 1, 1, lookahead);
        assert!(
            oracle.cycles.iter().any(|&(_, commands)| commands > 0),
            "lookahead {lookahead}: the burst produced no commands"
        );
        for depth in [1usize, 2, 8] {
            for workers in [1usize, 2] {
                let run = run_impure_burst(false, depth, workers, lookahead);
                assert_eq!(
                    oracle, run,
                    "depth {depth} workers {workers} lookahead {lookahead}: residue diverges"
                );
            }
        }
    }
}
