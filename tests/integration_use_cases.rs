//! Integration: the §3.4 novel use cases and the §5 extensions (E10) —
//! N-version voting, per-app resource limits, controller upgrades without
//! app restarts, clone-based non-determinism handling, and STS-guided
//! multi-event diagnosis.

use legosdn::clone_runner::ClonePair;
use legosdn::controller::Sandbox;
use legosdn::crashpad::{DeliveryResult, RecoverableApp};
use legosdn::nversion::NVersionApp;
use legosdn::prelude::*;
use legosdn::sts::{ddmin, AppReplayOracle};

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
                max_commands: Some(3),
                ..ResourceLimits::default()
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
fn clone_pair_survives_nondeterministic_bug_under_crashpad() {
    // The §5 mechanism end-to-end: a ClonePair under Crash-Pad. The
    // non-deterministic bug (RNG excluded from snapshots, diverging seeds)
    // fires on the primary; the clone's output is promoted.
    let make = |seed| {
        Sandbox::new(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::WithProbability {
                per_mille: 400,
                seed,
            },
            BugEffect::Crash,
        )))
    };
    let mut pair = ClonePair::new(make(7), make(100_003));
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();
    let mut processed = 0;
    for i in 0..60u64 {
        let ev = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(i + 2)),
            },
        );
        match pair.deliver(&ev, &topo, &dev, SimTime::ZERO) {
            DeliveryResult::Ok(_) => processed += 1,
            _ => break,
        }
    }
    // With p=0.4 per replica per event, a lone app dies almost immediately;
    // the pair should absorb at least one failure or reach a double fault
    // far later than a single app's expectation (~2.5 events).
    assert!(
        pair.stats().switchovers > 0 || processed >= 3,
        "pair stats {:?}, processed {processed}",
        pair.stats()
    );
}

#[test]
fn sts_pinpoints_the_multi_event_trigger() {
    // §5: a crash caused by an accumulation of events. STS (ddmin) over the
    // history isolates the minimal causal sequence and thereby which
    // checkpoint to roll back to.
    use legosdn::controller::app::{Ctx, RestoreError, SdnApp};

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
        fn snapshot(&self) -> Vec<u8> {
            vec![self.link_downs as u8, self.switch_downs as u8]
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
