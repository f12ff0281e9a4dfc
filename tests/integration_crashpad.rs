//! Integration: Crash-Pad recovery policies end-to-end on a live network
//! (E3, E5, E7) — the availability/correctness trade-off of §3.3, the
//! equivalence transformation of switch-downs into link-downs, and the
//! checkpoint interval's snapshots-for-replay trade of §4.1/§5.

use legosdn::controller::app::Ctx;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::Sandbox;
use legosdn::crashpad::{
    CheckpointPolicy, CrashPad, CrashPadConfig, DispatchResult, FailureKind, PolicyTable,
    TransformDirection,
};
use legosdn::obs::RecordKind;
use legosdn::prelude::*;
use std::time::Duration;

/// Router variant that crashes on SwitchDown — the paper's canonical
/// "offending event" example.
fn brittle_router() -> Box<FaultyApp> {
    Box::new(FaultyApp::new(
        Box::new(ShortestPathRouter::new()),
        BugTrigger::OnEventKind(EventKind::SwitchDown),
        BugEffect::Crash,
    ))
}

fn runtime_with(policy: CompromisePolicy) -> LegoSdnRuntime {
    LegoSdnRuntime::new(LegoSdnConfig {
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy::default(),
            policies: PolicyTable::with_default(policy),
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    })
}

/// Bring up a 3-switch line, route traffic, then kill the middle switch.
fn run_scenario(policy: CompromisePolicy) -> (LegoSdnRuntime, Network, Topology) {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let mut rt = runtime_with(policy);
    rt.attach(brittle_router()).unwrap();
    rt.run_cycle(&mut net);
    // Teach the device manager where hosts live.
    for h in &topo.hosts {
        let peer = &topo.hosts
            [(topo.hosts.iter().position(|x| x.mac == h.mac).unwrap() + 1) % topo.hosts.len()];
        net.inject(h.mac, Packet::ethernet(h.mac, peer.mac))
            .unwrap();
        rt.run_cycle(&mut net);
    }
    // The poison: switch 2 goes down.
    net.set_switch_up(DatapathId(2), false).unwrap();
    rt.run_cycle(&mut net);
    (rt, net, topo)
}

/// Whether the router goes on handling events after the scenario's crash:
/// the availability half of E5's trade-off.
fn processes_a_later_event(rt: &mut LegoSdnRuntime, net: &mut Network, topo: &Topology) -> bool {
    let delivered = |rt: &LegoSdnRuntime| {
        rt.crashpad()
            .checkpoints
            .events_delivered("shortest-path-router#buggy")
    };
    let before = delivered(rt);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    rt.run_cycle(net);
    delivered(rt) > before
}

#[test]
fn absolute_compromise_survives_but_misses_the_event() {
    let (mut rt, mut net, topo) = run_scenario(CompromisePolicy::Absolute);
    let stats = rt.stats();
    assert!(stats.failstop_recoveries >= 1, "{stats:?}");
    assert_eq!(stats.apps_dead, 0);
    // The ticket trail says the event was ignored.
    assert!(rt
        .crashpad()
        .tickets
        .iter()
        .any(|t| t.recovery == legosdn::crashpad::RecoveryTaken::Ignored));
    assert!(processes_a_later_event(&mut rt, &mut net, &topo));
}

#[test]
fn no_compromise_sacrifices_the_app() {
    let (mut rt, mut net, topo) = run_scenario(CompromisePolicy::NoCompromise);
    assert_eq!(rt.stats().apps_dead, 1);
    assert!(rt
        .crashpad()
        .tickets
        .iter()
        .any(|t| t.recovery == legosdn::crashpad::RecoveryTaken::LetDie));
    assert!(!processes_a_later_event(&mut rt, &mut net, &topo));
    assert!(!rt.is_crashed(), "only the app dies, never the controller");
}

#[test]
fn equivalence_compromise_delivers_linkdowns_instead() {
    let (mut rt, mut net, topo) = run_scenario(CompromisePolicy::Equivalence);
    let stats = rt.stats();
    assert_eq!(stats.apps_dead, 0);
    assert!(rt
        .crashpad()
        .tickets
        .iter()
        .any(|t| t.recovery == legosdn::crashpad::RecoveryTaken::Transformed));
    // The router processed the equivalent link-downs: its route teardown
    // logic ran (observable through the checkpoint event counter including
    // the transformed events).
    let delivered = rt
        .crashpad()
        .checkpoints
        .events_delivered("shortest-path-router#buggy");
    assert!(delivered > 0);
    assert!(processes_a_later_event(&mut rt, &mut net, &topo));
}

#[test]
fn equivalence_keeps_routing_consistent_after_switch_loss() {
    // The functional payoff: after the transformed link-downs, the router's
    // internal route table dropped paths through the dead switch, so it
    // won't emit commands toward it.
    let (mut rt, mut net, topo) = run_scenario(CompromisePolicy::Equivalence);
    // Traffic between the endpoints of the line (1 and 3) now has no path;
    // the router should drop rather than route through the corpse.
    let (a, c) = (topo.hosts[0].mac, topo.hosts[2].mac);
    net.inject(a, Packet::ethernet(a, c)).unwrap();
    let report = rt.run_cycle(&mut net);
    // No crash loop: the event is processed (packet-in to the router).
    assert!(report.events > 0);
    assert!(!rt.is_crashed());
}

#[test]
fn per_app_policy_language_drives_outcomes() {
    let text = r"
        default absolute
        app shortest-path-router#buggy on switch-down use no-compromise
    ";
    let policies = PolicyTable::parse(text).unwrap();
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy::default(),
            policies,
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    });
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let id = rt.attach(brittle_router()).unwrap();
    rt.run_cycle(&mut net);
    net.set_switch_up(DatapathId(2), false).unwrap();
    rt.run_cycle(&mut net);
    assert_eq!(rt.app_status(id), Some(&AppStatus::Dead));
}

#[test]
fn checkpoint_interval_trades_snapshots_for_replay() {
    // Same crash scenario under interval 1 vs interval 8: fewer snapshots,
    // more replayed events at recovery.
    let run = |interval: u64| {
        let topo = Topology::linear(2, 1);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy {
                    interval,
                    history: 4,
                    ..CheckpointPolicy::default()
                },
                policies: PolicyTable::with_default(CompromisePolicy::Absolute),
                transform_direction: TransformDirection::Decompose,
            },
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(topo.hosts[1].mac),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        // 6 clean events, then the poison.
        for _ in 0..6 {
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(77)))
                .unwrap();
            rt.run_cycle(&mut net);
        }
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        let cp = &rt.crashpad().checkpoints;
        (cp.snapshots_taken, rt.stats().failstop_recoveries)
    };
    let (snaps_every, recovered_every) = run(1);
    let (snaps_sparse, recovered_sparse) = run(8);
    assert_eq!(recovered_every, 1);
    assert_eq!(recovered_sparse, 1);
    assert!(
        snaps_sparse < snaps_every,
        "interval-8 must checkpoint less: {snaps_sparse} vs {snaps_every}"
    );
}

/// A learning switch that has learned `macs` hosts, so its checkpoints
/// carry real state.
fn warmed_learning_switch(macs: u64) -> LearningSwitch {
    let mut app = LearningSwitch::new();
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    for i in 0..macs {
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(&packet_in(i + 1, i + 2, (i % 16) as u16 + 1), &mut ctx);
    }
    app
}

fn packet_in(src: u64, dst: u64, in_port: u16) -> Event {
    Event::PacketIn(
        DatapathId(1),
        PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(in_port),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(MacAddr::from_index(src), MacAddr::from_index(dst)),
        },
    )
}

fn every_nth(interval: u64) -> CrashPad {
    CrashPad::new(CrashPadConfig {
        checkpoints: CheckpointPolicy {
            interval,
            history: 4,
            ..CheckpointPolicy::default()
        },
        policies: PolicyTable::with_default(CompromisePolicy::Absolute),
        transform_direction: TransformDirection::Decompose,
    })
}

#[test]
fn checkpoint_every_n_snapshots_one_event_in_n_and_replays_the_rest() {
    // E3's sweep (§4.1, §5): checkpointing before every N-th event pays
    // 1/N of the snapshots and replays up to N - 1 events at recovery.
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let snapshot_len = warmed_learning_switch(500).snapshot().len() as u64;
    assert!(snapshot_len > 4000, "500 learned MACs: {snapshot_len} B");
    for interval in [1, 2, 5, 10, 25, 100] {
        let mut pad = every_nth(interval);
        let mut app = Sandbox::new(Box::new(warmed_learning_switch(500)));
        for i in 0..400 {
            let ev = packet_in(1, 2 + i % 64, 1);
            pad.dispatch(&mut app, "ls", &ev, &topo, &dev, SimTime::ZERO);
        }
        let cp = &pad.checkpoints;
        assert_eq!(cp.snapshots_taken, 400 / interval, "N={interval}");
        assert_eq!(cp.bytes_snapshotted, cp.snapshots_taken * snapshot_len);

        let mut pad = every_nth(interval);
        let poison = MacAddr::from_index(0xdead);
        let mut app = Sandbox::new(Box::new(FaultyApp::new(
            Box::new(warmed_learning_switch(500)),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )));
        for i in 0..interval - 1 {
            let ev = packet_in(1, 2 + i % 64, 1);
            pad.dispatch(&mut app, "f", &ev, &topo, &dev, SimTime::ZERO);
        }
        let result = pad.dispatch(
            &mut app,
            "f",
            &packet_in(1, 0xdead, 1),
            &topo,
            &dev,
            SimTime::ZERO,
        );
        assert!(
            matches!(result, DispatchResult::Recovered { .. }),
            "N={interval}: {result:?}"
        );
        assert_eq!(pad.stats().events_replayed, interval - 1, "N={interval}");
    }
}

#[test]
fn deterministic_crash_loop_generates_one_ticket_per_hit() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = runtime_with(CompromisePolicy::Absolute);
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.run_cycle(&mut net);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for _ in 0..7 {
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
    }
    assert_eq!(rt.crashpad().tickets.len(), 7);
    // Tickets carry distinct ids and the same diagnosis.
    let ids: std::collections::BTreeSet<u64> = rt.crashpad().tickets.iter().map(|t| t.id).collect();
    assert_eq!(ids.len(), 7);
}

/// Every instrument recovery bumps is resolved before the first event:
/// however many crashes the runtime survives, under whichever policy, in
/// a sandbox or behind a stub (whose restore and replay run through the
/// proxy's blocking calls), it looks nothing up by name once its apps
/// are attached.
#[test]
fn recovery_makes_no_by_name_lookups() {
    let policies = [
        CompromisePolicy::Absolute,
        CompromisePolicy::Equivalence,
        CompromisePolicy::NoCompromise,
    ];
    let isolations = [IsolationMode::Local, IsolationMode::Channel];
    for (isolation, policy) in isolations
        .into_iter()
        .flat_map(|i| policies.map(|p| (i, p)))
    {
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation,
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy::default(),
                policies: PolicyTable::with_default(policy),
                transform_direction: TransformDirection::Decompose,
            },
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        let topo = Topology::linear(3, 1);
        let mut net = Network::new(&topo);
        rt.attach(brittle_router()).unwrap();
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Crash,
        )))
        .unwrap();
        let lookups = obs.registry_lookups();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..3 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        net.set_switch_up(DatapathId(2), false).unwrap();
        rt.run_cycle(&mut net);
        assert!(
            rt.crashpad().tickets.len() >= 2,
            "{isolation:?} {policy}: the crashes were not recovered"
        );
        assert_eq!(
            obs.registry_lookups(),
            lookups,
            "{isolation:?} {policy}: a by-name lookup on the recovery path"
        );
        rt.shutdown();
    }
}

/// Attach `app` under `config` to a two-host line, send one packet from
/// host 0 to host 1, and return what Crash-Pad filed: each ticket's
/// failure, and each `TicketFiled` record's label, in order.
fn tickets_filed(
    config: LegoSdnConfig,
    app: Box<dyn SdnApp>,
) -> (Vec<FailureKind>, Vec<&'static str>) {
    let obs = Obs::new();
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        obs: ObsConfig::instance(obs.clone()),
        ..config
    });
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    rt.attach(app).unwrap();
    rt.run_cycle(&mut net);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    rt.run_cycle(&mut net);
    let failures = rt
        .crashpad()
        .tickets
        .iter()
        .map(|t| t.failure.clone())
        .collect();
    let labels = obs
        .records()
        .into_iter()
        .filter_map(|r| match r.kind {
            RecordKind::TicketFiled { failure } => Some(failure),
            _ => None,
        })
        .collect();
    rt.shutdown();
    (failures, labels)
}

fn hub_that(effect: BugEffect) -> Box<FaultyApp> {
    Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        effect,
    ))
}

#[test]
fn a_sandboxed_crash_files_a_fail_stop_ticket_with_its_panic() {
    let (failures, labels) = tickets_filed(LegoSdnConfig::default(), hub_that(BugEffect::Crash));
    assert!(
        matches!(&failures[..], [FailureKind::FailStop { panic_message }]
            if panic_message.contains("injected bug in hub#buggy")),
        "{failures:?}"
    );
    assert_eq!(labels, ["fail_stop"]);
}

#[test]
fn a_stub_that_dies_silently_files_a_comm_failure_ticket() {
    let config = LegoSdnConfig {
        isolation: IsolationMode::Channel,
        io: IoConfig::default().proxy(ProxyConfig {
            deliver_timeout: Duration::from_millis(50),
            stub: StubConfig {
                report_crashes: false,
            },
            ..ProxyConfig::default()
        }),
        ..LegoSdnConfig::default()
    };
    let (failures, labels) = tickets_filed(config, hub_that(BugEffect::Crash));
    // A loaded host can time a healthy delivery out too: look for the
    // crash's ticket, not for it alone.
    assert!(failures.contains(&FailureKind::CommFailure), "{failures:?}");
    assert!(labels.contains(&"comm_failure"), "{labels:?}");
}

#[test]
fn refused_output_files_a_byzantine_ticket() {
    let (failures, labels) =
        tickets_filed(LegoSdnConfig::default(), hub_that(BugEffect::Blackhole));
    assert!(
        matches!(&failures[..], [FailureKind::Byzantine { violations }] if *violations >= 1),
        "{failures:?}"
    );
    assert_eq!(labels, ["byzantine"]);
}
