//! Integration: the §3.4 novel use cases and the §5 extensions (E8, E10) —
//! N-version voting, per-app resource limits, controller upgrades without
//! app restarts, hot-standby groups for non-deterministic bugs, and
//! STS-guided multi-event diagnosis.

use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::Sandbox;
use legosdn::nversion::NVersionApp;
use legosdn::prelude::*;
use legosdn::sts::{ddmin, AppReplayOracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn nversion_group_masks_a_buggy_version_in_the_runtime() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    let poison = topo.hosts[1].mac;
    let nv = NVersionApp::new(
        "hub-3v",
        vec![
            Box::new(Hub::new()),
            Box::new(Hub::new()),
            Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnPacketToMac(poison),
                BugEffect::Crash,
            )),
        ],
    );
    rt.attach(Box::new(nv)).unwrap();
    rt.run_cycle(&mut net);
    let a = topo.hosts[0].mac;
    // Poisoned packet: version 3 crashes *inside the group*, but the group
    // output (majority flood) still flows — no Crash-Pad recovery needed.
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert_eq!(report.recoveries, 0, "group masked the crash internally");
    assert!(report.commands > 0);
    assert!(!rt.is_crashed());
}

#[test]
fn resource_limited_app_cannot_starve_the_controller() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    // The rogue app gets a tight command budget; the good app is unlimited.
    let rogue = rt
        .attach_with_limits(
            Box::new(Hub::new()),
            ResourceLimits {
                max_events: None,
                max_commands: Some(3),
            },
        )
        .unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for _ in 0..6 {
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
    }
    assert!(matches!(
        rt.app_status(rogue),
        Some(AppStatus::Suspended(_))
    ));
    assert!(rt.stats().commands_suppressed > 0);
    // The learning switch is unaffected.
    let usage = rt.app_usage(rogue).unwrap();
    assert!(usage.commands_emitted <= 3);
}

#[test]
fn controller_upgrade_vs_monolithic_reboot() {
    // §3.4: monolithic upgrade loses app state; LegoSDN upgrade doesn't.
    let topo = Topology::linear(2, 1);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);

    // Monolithic: learn, reboot, verify amnesia.
    let mut net = Network::new(&topo);
    let mut ctl = MonolithicController::new();
    ctl.attach(Box::new(LearningSwitch::new()));
    ctl.run_cycle(&mut net);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    net.inject(b, Packet::ethernet(b, a)).unwrap();
    ctl.run_cycle(&mut net);
    ctl.reboot();
    assert_eq!(
        ctl.translator().topology.n_links(),
        0,
        "monolithic forgets the topology"
    );

    // LegoSDN: learn, upgrade, verify continuity.
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    net.inject(b, Packet::ethernet(b, a)).unwrap();
    rt.run_cycle(&mut net);
    let events_before = rt
        .crashpad()
        .checkpoints
        .events_delivered("learning-switch");
    rt.upgrade_controller(&mut net);
    assert!(
        rt.translator().topology.n_links() > 0,
        "LegoSDN re-handshakes inline"
    );
    assert_eq!(
        rt.crashpad()
            .checkpoints
            .events_delivered("learning-switch"),
        events_before,
        "apps were not restarted"
    );
    // Traffic continues immediately.
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.events > 0);
}

#[test]
fn majority_group_whose_versions_all_crash_is_recovered_by_crashpad() {
    // No version answers the poison, so the group fails as one app would:
    // Crash-Pad restores its pre-event checkpoint, which revives all three.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    let poison = topo.hosts[1].mac;
    let version = || -> Box<dyn SdnApp> {
        Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        ))
    };
    let nv = NVersionApp::new("hub-3v", vec![version(), version(), version()]);
    rt.attach(Box::new(nv)).unwrap();
    rt.run_cycle(&mut net);
    let a = topo.hosts[0].mac;
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.recoveries >= 1, "the silent group reached Crash-Pad");
    assert!(!rt.crashpad().tickets.is_empty());
    net.inject(a, Packet::ethernet(a, MacAddr::from_index(70)))
        .unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.commands > 0, "every version answers again");
}

/// A hub that crashes on a packet-in with probability 0.4, drawn from an
/// RNG that snapshots leave out: a non-deterministic bug (paper §5).
fn nondet_hub(seed: u64) -> Box<dyn SdnApp> {
    Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::WithProbability {
            per_mille: 400,
            seed,
        },
        BugEffect::Crash,
    ))
}

/// Whether `mirror` crashes on `event`; it is alive again after.
fn crashes(mirror: &mut Sandbox, event: &Event) -> bool {
    let state = mirror.capture().unwrap();
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let crashed = mirror
        .on_event(event, &mut Ctx::new(SimTime::ZERO, &topo, &dev))
        .is_err();
    mirror.revive(&state.flat()).unwrap();
    crashed
}

#[test]
fn standby_pair_survives_nondeterministic_bug_through_the_runtime() {
    // The §5 mechanism attached like any app. Diverging seeds make the
    // versions crash on different events: the group answers every event
    // one version survives, and reaches Crash-Pad only when both crash.
    const SEEDS: [u64; 2] = [7, 100_003];
    for isolation in [IsolationMode::Local, IsolationMode::Channel] {
        // Each version's bug on its own, to tell which events crash which:
        // every version sees every packet-in, so their RNGs stay in step.
        let mut mirrors = SEEDS.map(|seed| Sandbox::new(nondet_hub(seed)));
        let topo = Topology::linear(1, 2);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation,
            ..LegoSdnConfig::default()
        });
        let pair = NVersionApp::standby("hub-hs", SEEDS.map(nondet_hub).into());
        rt.attach(Box::new(pair)).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let packet_in = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(a, b),
            },
        );
        // Events by how many versions crashed, and events answered right
        // after a double crash.
        let (mut seen, mut answered_after_double) = ([0; 3], 0);
        let mut last = 0;
        for _ in 0..30 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            let report = rt.run_cycle(&mut net);
            assert_eq!(report.events, 1, "{isolation:?}");
            let crashed = mirrors
                .iter_mut()
                .map(|m| crashes(m, &packet_in))
                .filter(|&crashed| crashed)
                .count();
            seen[crashed] += 1;
            assert_eq!(
                report.recoveries,
                usize::from(crashed == 2),
                "{isolation:?}: {crashed} versions crashed"
            );
            assert_eq!(report.commands > 0, crashed < 2, "{isolation:?}");
            answered_after_double += usize::from(last == 2 && crashed < 2);
            last = crashed;
        }
        assert!(
            seen[1] > 0 && seen[2] > 0 && answered_after_double > 0,
            "{isolation:?}: the seeds gave crashes {seen:?}"
        );
    }
}

#[test]
fn sts_pinpoints_the_multi_event_trigger() {
    // §5: a crash caused by an accumulation of events. STS (ddmin) over the
    // history isolates the minimal causal sequence and thereby which
    // checkpoint to roll back to.
    use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};

    /// Crashes once it has seen 2 link-downs AND 1 switch-down.
    struct Accumulator {
        link_downs: u32,
        switch_downs: u32,
    }
    impl SdnApp for Accumulator {
        fn name(&self) -> &str {
            "accumulator"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            EventKind::ALL.to_vec()
        }
        fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
            match event {
                Event::LinkDown { .. } => self.link_downs += 1,
                Event::SwitchDown(_) => self.switch_downs += 1,
                _ => {}
            }
            if self.link_downs >= 2 && self.switch_downs >= 1 {
                panic!("cumulative failure");
            }
        }
        fn snapshot(&self) -> Snapshot {
            vec![self.link_downs as u8, self.switch_downs as u8].into()
        }
        fn restore(&mut self, b: &[u8]) -> Result<(), RestoreError> {
            if b.len() != 2 {
                return Err(RestoreError("len".into()));
            }
            self.link_downs = u32::from(b[0]);
            self.switch_downs = u32::from(b[1]);
            Ok(())
        }
    }

    // A noisy 40-event history with the three culprits scattered in it.
    let ep = |d: u64, p: u16| legosdn::netsim::Endpoint::new(DatapathId(d), p);
    let mut history = Vec::new();
    for i in 0..40u64 {
        history.push(Event::SwitchUp(DatapathId(i)));
        if i == 7 || i == 21 {
            history.push(Event::LinkDown {
                a: ep(1, 1),
                b: ep(2, 1),
            });
        }
        if i == 33 {
            history.push(Event::SwitchDown(DatapathId(9)));
        }
    }
    let mut oracle = AppReplayOracle::new(
        || {
            Box::new(Accumulator {
                link_downs: 0,
                switch_downs: 0,
            })
        },
        legosdn::controller::services::TopologyView::default(),
        legosdn::controller::services::DeviceView::default(),
    );
    let report = ddmin(&history, &mut oracle).unwrap();
    assert_eq!(
        report.minimal.len(),
        3,
        "exactly the culprits: {:?}",
        report.minimal
    );
    assert_eq!(
        report
            .minimal
            .iter()
            .filter(|e| matches!(e, Event::LinkDown { .. }))
            .count(),
        2
    );
    assert_eq!(
        report
            .minimal
            .iter()
            .filter(|e| matches!(e, Event::SwitchDown(_)))
            .count(),
        1
    );
}

#[test]
fn runtime_diagnose_pinpoints_crash_cause() {
    // The full §5 loop inside the runtime: an app with a poisoned-input
    // bug crashes, Crash-Pad recovers it, and diagnose() reproduces and
    // minimizes the cause from the checkpoint history.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    let poison = topo.hosts[1].mac;
    let id = rt
        .attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
    rt.run_cycle(&mut net);
    let a = topo.hosts[0].mac;
    // Clean traffic, then the poison (recovered via Absolute policy).
    for i in 0..5u64 {
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(40 + i)))
            .unwrap();
        rt.run_cycle(&mut net);
    }
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    rt.run_cycle(&mut net);
    assert!(rt.stats().failstop_recoveries >= 1);

    // Diagnose from the ticket's offending event.
    let offending = rt
        .crashpad()
        .tickets
        .iter()
        .last()
        .expect("ticket filed")
        .offending_event
        .clone();
    let diagnosis = rt
        .diagnose(id, &offending, net.now())
        .expect("reproducible");
    assert_eq!(diagnosis.minimal.len(), 1, "{:?}", diagnosis.minimal);
    assert!(matches!(&diagnosis.minimal[0], Event::PacketIn(_, pi)
        if pi.packet.eth_dst == poison));
    // The app still works after being used as a diagnosis testbed.
    net.inject(a, Packet::ethernet(a, MacAddr::from_index(70)))
        .unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.commands > 0);
}

#[test]
fn software_diversity_voting_rejects_byzantine_minority() {
    // §3.4 "Enabling Software and Data Diversity": the byzantine version's
    // output loses the vote; no recovery machinery even engages.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    let nv = NVersionApp::new(
        "diverse-ls",
        vec![
            Box::new(LearningSwitch::new()),
            Box::new(LearningSwitch::new()),
            Box::new(FaultyApp::new(
                Box::new(LearningSwitch::new()),
                BugTrigger::OnEventKind(EventKind::PacketIn),
                BugEffect::Blackhole,
            )),
        ],
    );
    rt.attach(Box::new(nv)).unwrap();
    rt.run_cycle(&mut net);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert_eq!(
        report.byzantine_blocked, 0,
        "vote filtered it before the gate"
    );
    for sw in net.switches() {
        assert!(sw.table().iter().all(|e| e.priority != u16::MAX));
    }
}

/// A hub that counts the events it handles into a shared counter.
struct CountingHub(Hub, Arc<AtomicU64>);

impl SdnApp for CountingHub {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        self.0.subscriptions()
    }
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.on_event(event, ctx);
    }
    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.0.restore(bytes)
    }
}

#[test]
fn every_version_of_a_group_answers_every_event() {
    // E10's cost model: a group runs each event through every version, so
    // a 3-version vote costs ~3 dispatches plus a ballot per event and a
    // standby pair ~2; healthy versions agree and never switch over.
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let handled = Arc::new(AtomicU64::new(0));
    let versions = |n| -> Vec<Box<dyn SdnApp>> {
        (0..n)
            .map(|_| Box::new(CountingHub(Hub::new(), handled.clone())) as Box<dyn SdnApp>)
            .collect()
    };
    let mut vote = NVersionApp::new("hub-3v", versions(3));
    let mut pair = NVersionApp::standby("hub-hs", versions(2));
    for i in 0..200 {
        let event = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2 + i % 64)),
            },
        );
        for (group, n) in [(&mut vote, 3), (&mut pair, 2)] {
            let before = handled.load(Ordering::Relaxed);
            let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
            group.on_event(&event, &mut ctx);
            assert!(!ctx.into_commands().is_empty(), "{}", group.name());
            assert_eq!(
                handled.load(Ordering::Relaxed) - before,
                n,
                "{}",
                group.name()
            );
        }
    }
    assert_eq!(vote.vote_stats().unanimous, 200);
    assert_eq!(pair.vote_stats().switchovers, 0);
    assert_eq!((vote.live_versions(), pair.live_versions()), (3, 2));
}
