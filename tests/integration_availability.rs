//! Integration: the paper's headline claim (E1, E6). An app crash kills the
//! monolithic stack; under LegoSDN the controller, the other apps, and the
//! network all keep working, through a seeded campaign of Table 2 bugs.

use legosdn::prelude::*;
use legosdn_testkit::Rng;

fn poisoned_flooder(poison: MacAddr) -> Box<FaultyApp> {
    Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Crash,
    ))
}

#[test]
fn monolithic_controller_dies_with_its_app() {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let poison = topo.hosts[2].mac;
    let mut ctl = MonolithicController::new();
    ctl.attach(poisoned_flooder(poison));
    ctl.attach(Box::new(LearningSwitch::new()));
    ctl.run_cycle(&mut net);
    assert!(!ctl.is_crashed());

    // Traffic to the poisoned destination kills the whole stack.
    let a = topo.hosts[0].mac;
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    let report = ctl.run_cycle(&mut net);
    assert!(report.crash.is_some());
    assert!(ctl.is_crashed());

    // Everything after is lost: no app sees events, no commands flow.
    let before = ctl.stats().commands_executed;
    net.inject(a, Packet::ethernet(a, topo.hosts[1].mac))
        .unwrap();
    ctl.run_cycle(&mut net);
    assert_eq!(ctl.stats().commands_executed, before);
    assert!(ctl.stats().events_lost_while_down > 0);
}

#[test]
fn legosdn_survives_the_same_bug() {
    let topo = Topology::linear(3, 1);
    let mut net = Network::new(&topo);
    let poison = topo.hosts[2].mac;
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(poisoned_flooder(poison)).unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);

    let a = topo.hosts[0].mac;
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.recoveries >= 1);
    assert!(!rt.is_crashed());

    // The controller keeps executing commands afterwards.
    let before = rt.stats().commands_executed;
    net.inject(a, Packet::ethernet(a, topo.hosts[1].mac))
        .unwrap();
    rt.run_cycle(&mut net);
    assert!(rt.stats().commands_executed > before);
}

/// `packets` packets round-robin over the hosts of a 3-switch line, every
/// `crash_every`-th one redirected to the poisoned third host, each
/// followed by one controller cycle. Returns the network's deliveries.
fn crash_workload(
    net: &mut Network,
    topo: &Topology,
    packets: usize,
    crash_every: usize,
    mut cycle: impl FnMut(&mut Network),
) -> u64 {
    let poison = topo.hosts[2].mac;
    let hosts = &topo.hosts;
    for i in 1..=packets {
        let src = hosts[(i - 1) % hosts.len()].mac;
        let dst = if i % crash_every == 0 {
            poison
        } else {
            hosts[i % hosts.len()].mac
        };
        net.inject(src, Packet::ethernet(src, dst)).unwrap();
        cycle(net);
    }
    net.delivery_counters().0
}

#[test]
fn network_availability_gap_is_measurable() {
    // The quantitative shape behind Figure 1 (E1): a poisoned hub beside a
    // learning switch, the crash rate swept from 1/3 to 1/10. Monolithic
    // dies at its first poisoned packet at every rate; LegoSDN dispatches
    // and delivers the whole workload.
    for crash_every in [3, 5, 10] {
        let topo = Topology::linear(3, 1);
        let poison = topo.hosts[2].mac;

        let mut net = Network::new(&topo);
        let mut ctl = MonolithicController::new();
        ctl.attach(poisoned_flooder(poison));
        ctl.attach(Box::new(LearningSwitch::new()));
        ctl.run_cycle(&mut net);
        let mono_delivered = crash_workload(&mut net, &topo, 30, crash_every, |n| {
            ctl.run_cycle(n);
        });

        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
        rt.attach(poisoned_flooder(poison)).unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let lego_delivered = crash_workload(&mut net, &topo, 30, crash_every, |n| {
            rt.run_cycle(n);
        });

        let rate = format!("crash rate 1/{crash_every}");
        assert!(ctl.is_crashed(), "{rate}");
        assert!(!rt.is_crashed(), "{rate}");
        let (mono_dispatches, lego_dispatches) = (ctl.stats().dispatches, rt.stats().dispatches);
        assert!(
            lego_dispatches >= 5 * mono_dispatches,
            "{rate}: LegoSDN dispatched {lego_dispatches}, monolithic {mono_dispatches}"
        );
        assert!(
            lego_delivered >= 5 * mono_delivered,
            "{rate}: LegoSDN delivered {lego_delivered}, monolithic {mono_delivered}"
        );
    }
}

#[test]
fn innocent_apps_keep_their_state_across_a_neighbors_crashes() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);

    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    // Several poisoned events: the faulty app crashes every time; the
    // learning switch keeps learning (its checkpoint event counter grows).
    for _ in 0..4 {
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        rt.run_cycle(&mut net);
    }
    assert!(rt.stats().failstop_recoveries >= 4);
    let ls_events = rt
        .crashpad()
        .checkpoints
        .events_delivered("learning-switch");
    assert!(ls_events >= 4, "learning switch starved: {ls_events}");
    // After learning both sides, traffic flows switch-locally.
    let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
    assert!(trace.delivered_to(b), "{trace:?}");
}

#[test]
fn byzantine_app_cannot_blackhole_the_network() {
    let topo = Topology::linear(2, 1);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);

    // Monolithic: the byzantine rule lands and traffic dies.
    let mut net = Network::new(&topo);
    let mut ctl = MonolithicController::new();
    ctl.attach(Box::new(FaultyApp::new(
        Box::new(LearningSwitch::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        BugEffect::Blackhole,
    )));
    ctl.run_cycle(&mut net);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    ctl.run_cycle(&mut net);
    let mono_blackholed = net.switches().any(|s| {
        s.table()
            .iter()
            .any(|e| e.priority == u16::MAX && e.actions.is_empty())
    });
    assert!(mono_blackholed, "monolithic installs the bad rule");

    // LegoSDN: the gate rejects it.
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(FaultyApp::new(
        Box::new(LearningSwitch::new()),
        BugTrigger::OnEventKind(EventKind::PacketIn),
        BugEffect::Blackhole,
    )))
    .unwrap();
    rt.run_cycle(&mut net);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    rt.run_cycle(&mut net);
    assert!(rt.stats().byzantine_blocked >= 1);
    let lego_blackholed = net.switches().any(|s| {
        s.table()
            .iter()
            .any(|e| e.priority == u16::MAX && e.actions.is_empty())
    });
    assert!(!lego_blackholed, "LegoSDN must keep the bad rule out");
}

/// The Table 2 app suite, each app carrying a bug drawn from `rng`: 16%
/// crash on packets to `poison` (the FlowScale rate, §2.1), 8% install a
/// blackhole on them, the rest never fire.
fn bugged_suite(rng: &mut Rng, poison: MacAddr) -> Vec<Box<dyn SdnApp>> {
    let apps: [Box<dyn SdnApp>; 5] = [
        Box::new(LearningSwitch::new()),
        Box::new(Hub::new()),
        Box::new(ShortestPathRouter::new()),
        Box::new(Firewall::new(vec![AclRule::deny_port(23)])),
        Box::new(StatsMonitor::new()),
    ];
    apps.into_iter()
        .map(|app| {
            let roll = rng.gen_f64();
            let (trigger, effect) = if roll < 0.16 {
                (BugTrigger::OnPacketToMac(poison), BugEffect::Crash)
            } else if roll < 0.24 {
                (BugTrigger::OnPacketToMac(poison), BugEffect::Blackhole)
            } else {
                (BugTrigger::Never, BugEffect::Crash)
            };
            Box::new(FaultyApp::new(app, trigger, effect)) as Box<dyn SdnApp>
        })
        .collect()
}

#[test]
fn seeded_fault_campaign_kills_monolithic_never_legosdn() {
    // E6: 50 seeded bug draws, 15 packets to the poisoned host each.
    // LegoSDN survives every draw with every app alive; the monolithic
    // controller dies on the draws whose crash bug fires.
    let (mut mono_deaths, mut byzantine_blocked) = (0, 0);
    for seed in 0..50 {
        let topo = Topology::linear(3, 1);
        let poison = topo.hosts[2].mac;

        let mut net = Network::new(&topo);
        let mut ctl = MonolithicController::new();
        for app in bugged_suite(&mut Rng::seed_from_u64(seed), poison) {
            ctl.attach(app);
        }
        ctl.run_cycle(&mut net);
        crash_workload(&mut net, &topo, 15, 1, |n| {
            ctl.run_cycle(n);
        });
        mono_deaths += u32::from(ctl.is_crashed());

        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
        for app in bugged_suite(&mut Rng::seed_from_u64(seed), poison) {
            rt.attach(app).unwrap();
        }
        rt.run_cycle(&mut net);
        crash_workload(&mut net, &topo, 15, 1, |n| {
            rt.run_cycle(n);
        });
        assert!(!rt.is_crashed(), "seed {seed}");
        assert_eq!(rt.stats().apps_dead, 0, "seed {seed}");
        byzantine_blocked += rt.stats().byzantine_blocked;
    }
    assert!(mono_deaths > 0, "no draw killed the monolithic controller");
    assert!(
        byzantine_blocked > 0,
        "no draw's blackhole reached the gate"
    );
}
