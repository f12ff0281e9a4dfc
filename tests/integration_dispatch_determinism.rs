//! The dispatch engine must be observationally identical to the
//! sequential reference (`core/src/reference.rs`, reached through
//! `LegoSdnRuntime::oracle`): same final flow tables, same NetLog
//! transaction order, same recovery counts — for local sandboxes and
//! isolated stubs alike. The engine overlaps app *processing* only;
//! everything that touches the network stays serialized in attach order
//! (see DESIGN.md §9). The window is one slot deep in process and
//! `STUB_WINDOW` deep behind stubs; every sweep runs bursts shorter
//! than, equal to and longer than `STUB_WINDOW`, so a stub window runs
//! partial, full and sliding, and the residue must hold across
//! crash-triggered cancellation/re-send in each.

use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::engine::STUB_WINDOW;
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;

/// Burst lengths every sweep runs: shorter than, equal to and longer than
/// the stub window, so it runs partial, full and sliding.
const BURSTS: [usize; 3] = [3, STUB_WINDOW, STUB_WINDOW + 5];

/// A burst shorter than the stub window: it runs partly full.
const SHORT: usize = BURSTS[0];

/// A burst longer than the stub window: it slides, and a mid-burst
/// failure cancels deliveries queued after the slide.
const LONG: usize = BURSTS[2];

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
    /// `appvisor/comm_failures`, summed over the apps: a lost or late
    /// stub frame, which no app in the campaign causes.
    comm_failures: u64,
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

/// One fixed fault campaign — healthy traffic, a `burst`-packet burst
/// with a byzantine poke in its middle, a fail-stop crash with recovery,
/// more traffic, a tick — executed under the engine, or (`oracle`) under
/// the sequential reference.
fn run_campaign(oracle: bool, isolation: IsolationMode, burst: usize) -> Residue {
    run_campaign_io(oracle, isolation, burst, IoMode::default())
}

/// [`run_campaign`] with an explicit stub-host pool size.
fn run_campaign_io(oracle: bool, isolation: IsolationMode, burst: usize, io: IoMode) -> Residue {
    run_campaign_with(oracle, isolation, burst, io, Extra::Nothing)
}

/// One more roster/config input for the campaign: each drives a decision
/// that the engine and the reference both settle per position.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Extra {
    /// The campaign as it is.
    Nothing,
    /// An order probe whose `max_commands` budget runs out in round 0's
    /// burst, mid-window behind stubs.
    CommandBudget,
    /// An order probe whose `max_events` budget runs out mid-window:
    /// behind stubs its selection suspends it while its earlier
    /// deliveries are still in flight.
    EventBudget,
    /// A learning switch under No-Compromise, with
    /// `shutdown_network_on_no_compromise` on, that crashes (and so dies,
    /// taking the network down) on a packet in the middle of round 2's
    /// burst. (An order probe's drop flows are byzantine under the
    /// campaign's checker, so one under No-Compromise would die of its
    /// first blocked commit instead.)
    FatalNoCompromise,
}

/// The order probe's command budget under [`Extra::CommandBudget`].
const PROBE_BUDGET: u64 = 4;

/// [`run_campaign_io`] with an [`Extra`] input.
fn run_campaign_with(
    oracle: bool,
    isolation: IsolationMode,
    burst: usize,
    io: IoMode,
    extra: Extra,
) -> Residue {
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(&topo);
    let fatal = MacAddr::from_index(0xfa7a1);
    let mut policies = PolicyTable::with_default(CompromisePolicy::Absolute);
    policies.set_app("learning-switch#buggy", CompromisePolicy::NoCompromise);
    let mut rt = runtime(
        oracle,
        LegoSdnConfig {
            isolation,
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
                policies,
                transform_direction: TransformDirection::Decompose,
            },
            checker: Some(Checker::new(vec![
                Invariant::NoBlackHoles,
                Invariant::NoLoops,
            ])),
            shutdown_network_on_no_compromise: extra == Extra::FatalNoCompromise,
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
    match extra {
        Extra::Nothing => {}
        Extra::CommandBudget | Extra::EventBudget => {
            let budget = Some(PROBE_BUDGET);
            let (max_events, max_commands) = if extra == Extra::EventBudget {
                (budget, None)
            } else {
                (None, budget)
            };
            let limits = ResourceLimits {
                max_events,
                max_commands,
            };
            rt.attach_with_limits(Box::new(OrderProbe { count: 0 }), limits)
                .unwrap();
        }
        Extra::FatalNoCompromise => {
            rt.attach(Box::new(FaultyApp::new(
                Box::new(LearningSwitch::new()),
                BugTrigger::OnPacketToMac(fatal),
                BugEffect::Crash,
            )))
            .unwrap();
        }
    }

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
        // behind stubs the window must cancel and re-send across the
        // byzantine recovery without changing what lands. The rest of
        // the burst goes to hosts nobody knows, so no packet hits a
        // table and every one is an event of the cycle's feed.
        for i in 0..burst {
            let stranger = MacAddr::from_index(0x5700 + round * 64 + i as u64);
            if i == burst / 2 {
                let _ = net.inject(a, Packet::ethernet(a, poison));
                if round == 2 && extra == Extra::FatalNoCompromise {
                    let _ = net.inject(a, Packet::ethernet(a, fatal));
                }
            } else if i == burst - 1 {
                let _ = net.inject(b, Packet::ethernet(b, stranger));
            } else {
                let _ = net.inject(a, Packet::ethernet(a, stranger));
            }
        }
        let report = rt.run_cycle(&mut net);
        assert!(
            report.events >= burst,
            "{extra:?} round {round}: a {burst}-packet burst translated {} events",
            report.events
        );
        absorb(report);
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
    let obs = rt.obs();
    let comm_failures = (rt.app_names().iter())
        .map(|name| obs.counter("appvisor", "comm_failures", name).get())
        .sum();
    rt.shutdown();
    Residue {
        flow_tables,
        txlog,
        stats,
        recoveries,
        byzantine_blocked,
        commands,
        comm_failures,
    }
}

/// Hold `run` to `reference`, field by field, naming the configuration.
fn assert_same(reference: &Residue, run: &Residue, what: &str) {
    assert_eq!(
        reference.flow_tables, run.flow_tables,
        "{what}: flow tables diverge between the engine and the oracle"
    );
    assert_eq!(
        reference.txlog, run.txlog,
        "{what}: NetLog transaction order diverges between the engine and the oracle"
    );
    assert_eq!(
        reference.stats, run.stats,
        "{what}: runtime counters diverge between the engine and the oracle"
    );
    assert_eq!(
        reference, run,
        "{what}: per-cycle reports or comm failures diverge between the engine and the oracle"
    );
}

fn assert_identical(isolation: IsolationMode) {
    let seq = run_campaign(true, isolation, SHORT);
    let pipe = run_campaign(false, isolation, SHORT);
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
    assert_same(&seq, &pipe, &format!("{isolation:?}"));
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
    let reference = run_campaign(true, IsolationMode::Channel, SHORT);
    for _ in 0..3 {
        let run = run_campaign(false, IsolationMode::Channel, SHORT);
        assert_same(&reference, &run, &format!("burst {SHORT}"));
    }
}

#[test]
fn engine_matches_the_oracle_in_repeated_sliding_runs() {
    // The same with the stub window full and sliding: deliveries in
    // flight to several stubs at once must not depend on a lucky
    // interleaving either.
    let reference = run_campaign(true, IsolationMode::Channel, LONG);
    for _ in 0..3 {
        let run = run_campaign(false, IsolationMode::Channel, LONG);
        assert_same(&reference, &run, &format!("burst {LONG}"));
    }
}

#[test]
fn engine_matches_the_oracle_across_burst_lengths() {
    // In process the window is one slot deep; behind stubs a burst
    // shorter than the window runs it partly full, one as long runs it
    // full and a longer one slides it.
    for isolation in [IsolationMode::Local, IsolationMode::Channel] {
        for burst in BURSTS {
            let reference = run_campaign(true, isolation, burst);
            let win = run_campaign(false, isolation, burst);
            assert_same(&reference, &win, &format!("{isolation:?} burst {burst}"));
        }
    }
}

#[test]
fn polled_transport_preserves_the_dispatch_residue() {
    // The size of the stub-host pool changes only *which thread* runs a
    // stub — one each at the default, shared at two — never what the
    // stub says. Every {pool size} × {burst length} combination must
    // leave the exact residue of the sequential reference.
    for burst in BURSTS {
        let reference = run_campaign(true, IsolationMode::Channel, burst);
        for io in [IoMode::default(), IoMode { io_threads: 2 }] {
            let run = run_campaign_io(false, IsolationMode::Channel, burst, io);
            assert_same(&reference, &run, &format!("{io:?} burst {burst}"));
        }
    }
}

#[test]
fn engine_preserves_the_residue_across_booked_suspensions_and_deaths() {
    // The decisions settled per position: a command or event budget
    // running out mid-window, and a No-Compromise death that takes the
    // network down with it.
    for extra in [
        Extra::CommandBudget,
        Extra::EventBudget,
        Extra::FatalNoCompromise,
    ] {
        for isolation in [IsolationMode::Local, IsolationMode::Channel] {
            for burst in BURSTS {
                let io = IoMode::default();
                let reference = run_campaign_with(true, isolation, burst, io, extra);
                let stats = reference.stats;
                match extra {
                    Extra::CommandBudget => assert!(
                        stats.apps_suspended > 0 && stats.commands_suppressed > 0,
                        "{isolation:?} burst {burst}: the budget never ran out: {stats:?}"
                    ),
                    Extra::EventBudget => assert!(
                        stats.apps_suspended > 0,
                        "{isolation:?} burst {burst}: the budget never ran out: {stats:?}"
                    ),
                    _ => assert!(
                        stats.apps_dead > 0,
                        "{isolation:?} burst {burst}: nothing died: {stats:?}"
                    ),
                }
                let run = run_campaign_with(false, isolation, burst, io, extra);
                assert_same(
                    &reference,
                    &run,
                    &format!("{extra:?} {isolation:?} burst {burst}"),
                );
            }
        }
    }
}

#[test]
fn udp_stubs_match_the_oracle_over_a_sliding_window() {
    // The paper's prototype transport with more deliveries in flight
    // than the window holds: every frame of the burst crosses loopback
    // UDP before its ack is read, and none is lost or late.
    let reference = run_campaign(true, IsolationMode::Udp, LONG);
    let run = run_campaign(false, IsolationMode::Udp, LONG);
    assert!(reference.recoveries > 0 && reference.byzantine_blocked > 0);
    assert_eq!(run.comm_failures, 0, "a UDP frame was lost or late");
    assert_same(&reference, &run, "Udp");
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

    fn snapshot(&self) -> Snapshot {
        self.count.to_le_bytes().to_vec().into()
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

/// What [`run_random_crashes`] leaves: the probe's observed delivery
/// order beside what was injected, and the campaign's residue.
#[derive(Debug, PartialEq)]
struct CrashResidue {
    observed: Vec<MacAddr>,
    injected: Vec<MacAddr>,
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
    txlog: Vec<TxRecord>,
    stats: RuntimeStats,
}

/// An order probe beside a hub that crashes on a poison packet, over
/// three `burst`-packet bursts with one or two poison packets at
/// `seed`-random slots.
fn run_random_crashes(
    oracle: bool,
    isolation: IsolationMode,
    burst: usize,
    seed: u64,
) -> CrashResidue {
    let mut rng = XorShift(seed);
    let topo = Topology::linear(2, 2);
    let mut net = Network::new(&topo);
    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    let mut rt = runtime(
        oracle,
        LegoSdnConfig {
            isolation,
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
        },
    );
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
        let len = burst as u64;
        let poison_a = rng.next() % len;
        let poison_b = rng.next() % len;
        for slot in 0..len {
            let dst = if slot == poison_a || slot == poison_b {
                poison
            } else {
                MacAddr::from_index(100 + round * 32 + slot)
            };
            let _ = net.inject(a, Packet::ethernet(a, dst));
            injected.push(dst);
        }
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1, "seed {seed}: no crash exercised");
    }
    assert!(!rt.is_crashed());

    // The probe installed one tagged flow per injected packet, in the
    // order it saw them.
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
    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let stats = rt.stats();
    rt.shutdown();
    CrashResidue {
        observed,
        injected,
        flow_tables,
        txlog,
        stats,
    }
}

#[test]
fn per_app_delivery_order_equals_translation_order_under_random_crashes() {
    // Property: for a healthy app, dispatch delivers each cycle's events
    // in translation order, no matter where a neighboring app's crashes
    // land in the burst or how deep the window runs. The probe's flow
    // installs on the ingress switch record the order it actually
    // observed, and the whole residue is the oracle's.
    for isolation in [IsolationMode::Local, IsolationMode::Channel] {
        for burst in BURSTS {
            for seed in [11u64, 47, 2026] {
                let run = run_random_crashes(false, isolation, burst, seed);
                let what = format!("{isolation:?} burst {burst} seed {seed}");
                assert_eq!(
                    run.observed, run.injected,
                    "{what}: delivery order diverged"
                );
                let reference = run_random_crashes(true, isolation, burst, seed);
                assert_eq!(reference, run, "{what}: residue diverges from the oracle");
            }
        }
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

fn run_impure_burst(oracle: bool, isolation: IsolationMode, burst: usize) -> BurstResidue {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let mut rt = runtime(
        oracle,
        LegoSdnConfig {
            isolation,
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
    // One burst: a packet, a link coming back mid-burst (its port-status
    // raw probes the network and drains the queue when translated), and
    // packets to hosts nobody knows around it, ending with a reply.
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for i in 0..burst {
        if i == burst / 2 {
            net.set_link_up(0, true).unwrap();
        } else if i == burst - 1 {
            let _ = net.inject(b, Packet::ethernet(b, a));
        } else if i == 0 {
            let _ = net.inject(a, Packet::ethernet(a, b));
        } else {
            let stranger = MacAddr::from_index(0x6100 + i as u64);
            let _ = net.inject(a, Packet::ethernet(a, stranger));
        }
    }
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
    for isolation in [IsolationMode::Local, IsolationMode::Channel] {
        for burst in BURSTS {
            let oracle = run_impure_burst(true, isolation, burst);
            assert!(
                oracle.cycles.iter().any(|&(_, commands)| commands > 0),
                "{isolation:?} burst {burst}: the burst produced no commands"
            );
            let run = run_impure_burst(false, isolation, burst);
            assert_eq!(oracle, run, "{isolation:?} burst {burst}: residue diverges");
        }
    }
}
