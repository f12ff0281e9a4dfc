//! Integration: AppVisor isolation end-to-end (E2) — real apps behind the
//! proxy over both transports, crash containment, comm-failure detection,
//! and checkpoint/restore through the RPC plane.

use legosdn::appvisor::{AppVisorProxy, DeliverOutcome, ProxyConfig, StubConfig, TransportKind};
use legosdn::prelude::*;
use std::time::Duration;

fn proxy(report_crashes: bool) -> AppVisorProxy {
    // A stub that reports its crashes answers every delivery, and a wait
    // ends the moment the answer arrives: a long deadline costs nothing
    // and a loaded box printing a panic backtrace cannot turn `Crashed`
    // into a timeout. Only a silent death waits the deadline out.
    let deliver_timeout = if report_crashes {
        Duration::from_secs(2)
    } else {
        Duration::from_millis(300)
    };
    AppVisorProxy::new(ProxyConfig {
        deliver_timeout,
        rpc_timeout: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_millis(100),
        stub: StubConfig {
            heartbeat_period: Duration::from_millis(10),
            report_crashes,
        },
        ..Default::default()
    })
}

fn packet_in_event(dst: u64) -> Event {
    Event::PacketIn(
        DatapathId(1),
        PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(1),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(dst)),
        },
    )
}

fn deliver_over(kind: TransportKind) {
    let mut p = proxy(true);
    let h = p.launch_app(Box::new(LearningSwitch::new()), kind).unwrap();
    assert_eq!(p.app_name(h).unwrap(), "learning-switch");
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();
    // Unknown destination → the app answers with a flood packet-out.
    match p
        .deliver(h, &packet_in_event(9), &topo, &dev, SimTime::ZERO)
        .unwrap()
    {
        DeliverOutcome::Commands(cmds) => {
            assert_eq!(cmds.len(), 1);
            assert!(matches!(cmds[0].msg, Message::PacketOut(_)));
        }
        other => panic!("unexpected {other:?}"),
    }
    let stats = p.wire_stats(h).unwrap();
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    let reports = p.shutdown();
    assert_eq!(reports[0].events_processed, 1);
}

#[test]
fn real_app_behind_channel_transport() {
    deliver_over(TransportKind::Channel);
}

#[test]
fn real_app_behind_udp_transport() {
    deliver_over(TransportKind::Udp);
}

#[test]
fn real_app_behind_tcp_transport() {
    deliver_over(TransportKind::Tcp);
}

#[test]
fn crash_containment_with_explicit_report() {
    let mut p = proxy(true);
    let h = p
        .launch_app(
            Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnPacketToMac(MacAddr::from_index(13)),
                BugEffect::Crash,
            )),
            TransportKind::Channel,
        )
        .unwrap();
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();

    // The paper's discipline: snapshot before every dispatch.
    let checkpoint = p.snapshot(h).unwrap();
    assert!(matches!(
        p.deliver(h, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
            .unwrap(),
        DeliverOutcome::Commands(_)
    ));
    let checkpoint2 = p.snapshot(h).unwrap();
    match p
        .deliver(h, &packet_in_event(13), &topo, &dev, SimTime::ZERO)
        .unwrap()
    {
        DeliverOutcome::Crashed { panic_message } => {
            assert!(panic_message.contains("injected bug"));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(!p.is_alive(h).unwrap());
    // Restore-and-retry reproduces (deterministic bug).
    assert!(p.restore(h, &checkpoint2).unwrap());
    assert!(matches!(
        p.deliver(h, &packet_in_event(13), &topo, &dev, SimTime::ZERO)
            .unwrap(),
        DeliverOutcome::Crashed { .. }
    ));
    // Restore to the pre-traffic checkpoint and ignore the poison: alive.
    assert!(p.restore(h, &checkpoint).unwrap());
    assert!(matches!(
        p.deliver(h, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
            .unwrap(),
        DeliverOutcome::Commands(_)
    ));
    let _ = p.shutdown();
}

#[test]
fn silent_death_detected_as_comm_failure_over_udp() {
    let mut p = proxy(false); // stub dies silently, like a real process
    let h = p
        .launch_app(
            Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnNthEvent(1),
                BugEffect::Crash,
            )),
            TransportKind::Udp,
        )
        .unwrap();
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();
    let outcome = p
        .deliver(h, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
        .unwrap();
    assert_eq!(outcome, DeliverOutcome::CommFailure);
    assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
    // Restore revives even a silent corpse. A FaultyApp snapshot nests the
    // inner app's, so use a freshly built FaultyApp's snapshot as donor.
    let donor = FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnNthEvent(1),
        BugEffect::Crash,
    );
    assert!(p.restore(h, &donor.snapshot()).unwrap());
    // The app is alive again, but the deterministic OnNthEvent(1) trigger
    // re-fires on its (restored) first event — silence again.
    let outcome = p
        .deliver(h, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
        .unwrap();
    assert_eq!(outcome, DeliverOutcome::CommFailure);
    let _ = p.shutdown();
}

#[test]
fn many_apps_one_proxy_independent_fault_domains() {
    let mut p = proxy(true);
    let crashy = p
        .launch_app(
            Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnEventKind(EventKind::PacketIn),
                BugEffect::Crash,
            )),
            TransportKind::Channel,
        )
        .unwrap();
    let healthy = p
        .launch_app(Box::new(LearningSwitch::new()), TransportKind::Channel)
        .unwrap();
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();

    assert!(matches!(
        p.deliver(crashy, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
            .unwrap(),
        DeliverOutcome::Crashed { .. }
    ));
    // The other app is untouched.
    assert!(p.is_alive(healthy).unwrap());
    assert!(matches!(
        p.deliver(healthy, &packet_in_event(2), &topo, &dev, SimTime::ZERO)
            .unwrap(),
        DeliverOutcome::Commands(_)
    ));
    let _ = p.shutdown();
}

#[test]
fn lossy_transport_degrades_to_comm_failures_not_hangs() {
    use legosdn::appvisor::{spawn_stub, ChannelTransport, FlakyTransport};
    // 40% frame loss in each direction: some deliveries ack, some time out
    // as comm failures; nothing hangs, panics, or poisons the proxy.
    let mut p = AppVisorProxy::new(ProxyConfig {
        deliver_timeout: Duration::from_millis(80),
        rpc_timeout: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_millis(200),
        stub: StubConfig {
            heartbeat_period: Duration::from_millis(10),
            report_crashes: true,
        },
        ..Default::default()
    });
    let (proxy_side, stub_side) = ChannelTransport::pair();
    let proxy_side = FlakyTransport::new(proxy_side, 400, 7);
    let stub_side = FlakyTransport::new(stub_side, 400, 8);
    let handle = spawn_stub(
        stub_side,
        Box::new(Hub::new()),
        StubConfig {
            heartbeat_period: Duration::from_millis(10),
            report_crashes: true,
        },
    );
    // Registration itself may need retries under loss: register_transport
    // waits for the Register frame; at 40% loss it may be eaten, in which
    // case we accept the failure and end the test (the stub exits when the
    // proxy side drops).
    let Ok(h) = p.register_transport(Box::new(proxy_side), Some(handle)) else {
        return;
    };
    let topo = legosdn::controller::services::TopologyView::default();
    let dev = legosdn::controller::services::DeviceView::default();
    let mut acked = 0;
    let mut failed = 0;
    for i in 0..30u64 {
        match p.deliver(h, &packet_in_event(i + 2), &topo, &dev, SimTime::ZERO) {
            Ok(DeliverOutcome::Commands(_)) => acked += 1,
            Ok(_) => failed += 1,
            Err(_) => failed += 1,
        }
    }
    assert_eq!(acked + failed, 30);
    assert!(failed > 0, "40% loss must surface as comm failures");
    let _ = p.shutdown();
}

#[test]
fn isolated_runtime_end_to_end_over_udp() {
    // The full LegoSDN runtime with every app behind UDP stubs — the exact
    // paper prototype shape — surviving a deterministic crash.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Udp,
        ..LegoSdnConfig::default()
    });
    let poison = topo.hosts[1].mac;
    rt.attach(Box::new(FaultyApp::new(
        Box::new(LearningSwitch::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.run_cycle(&mut net);
    let a = topo.hosts[0].mac;
    net.inject(a, Packet::ethernet(a, poison)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.recoveries >= 1, "{report:?}");
    // Clean traffic still works after recovery.
    net.inject(a, Packet::ethernet(a, MacAddr::from_index(50)))
        .unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(report.commands > 0, "{report:?}");
    rt.shutdown();
}
