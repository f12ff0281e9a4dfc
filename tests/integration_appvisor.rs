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
    use legosdn::appvisor::{FlakyTransport, QueueTransport, StubHost, Transport};
    // 40% frame loss in each direction: some deliveries ack, some time out
    // as comm failures; nothing hangs, panics, or poisons the proxy.
    let stub = StubConfig {
        heartbeat_period: Duration::from_millis(10),
        report_crashes: true,
    };
    let mut p = AppVisorProxy::new(ProxyConfig {
        deliver_timeout: Duration::from_millis(80),
        rpc_timeout: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_millis(200),
        stub: stub.clone(),
        ..Default::default()
    });
    // A relay between the proxy's channel and the stub's loses frames
    // both ways; it ends when either side hangs up.
    let (proxy_side, relay_near) = QueueTransport::pair();
    let (relay_far, stub_side) = QueueTransport::pair();
    std::thread::spawn(move || {
        let mut to_proxy = FlakyTransport::new(relay_near, 400, 8);
        let mut to_stub = FlakyTransport::new(relay_far, 400, 7);
        loop {
            let inbound = to_proxy.try_recv();
            let outbound = to_stub.try_recv();
            match (inbound, outbound) {
                (Err(_), _) | (_, Err(_)) => return,
                (Ok(None), Ok(None)) => std::thread::sleep(Duration::from_micros(200)),
                (Ok(request), Ok(reply)) => {
                    let sent = request.map(|f| to_stub.send_owned(f));
                    let answered = reply.map(|f| to_proxy.send_owned(f));
                    if matches!(sent, Some(Err(_))) || matches!(answered, Some(Err(_))) {
                        return;
                    }
                }
            }
        }
    });
    let host = StubHost::new(1);
    host.spawn(Box::new(Hub::new()), stub_side.into_duplex(), stub)
        .unwrap();
    // Registration itself may fall to the loss: register_transport waits
    // for the Register frame; if the relay ate it we accept the failure
    // and end the test.
    let Ok(h) = p.register_transport(Box::new(proxy_side)) else {
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

/// A hub whose next `snapshot` panics once the test arms it.
struct SnapshotBomb {
    inner: Hub,
    armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl SdnApp for SnapshotBomb {
    fn name(&self) -> &str {
        "snapshot-bomb"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        self.inner.subscriptions()
    }
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        self.inner.on_event(event, ctx);
    }
    fn snapshot(&self) -> Vec<u8> {
        let armed = self.armed.swap(false, std::sync::atomic::Ordering::SeqCst);
        assert!(!armed, "snapshot bomb went off");
        self.inner.snapshot()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), legosdn::controller::app::RestoreError> {
        self.inner.restore(bytes)
    }
}

#[test]
fn a_checkpoint_panic_on_a_shared_host_thread_is_recovered_as_a_crash() {
    // Two apps on one stub-host thread, a checkpoint before every event.
    // A panic inside one app's `snapshot` must cost that app one
    // fail-stop recovery — not the host thread, the neighbour, or the
    // controller.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        io: IoConfig::polled(1).proxy(ProxyConfig {
            deliver_timeout: Duration::from_millis(200),
            ..ProxyConfig::default()
        }),
        obs: ObsConfig::instance(Obs::new()),
        crashpad: legosdn::crashpad::CrashPadConfig {
            checkpoints: legosdn::crashpad::CheckpointPolicy {
                interval: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        ..LegoSdnConfig::default()
    });
    let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let bomb = rt
        .attach(Box::new(SnapshotBomb {
            inner: Hub::new(),
            armed: armed.clone(),
        }))
        .unwrap();
    let neighbour = rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net); // handshake + discovery
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    // One healthy packet first: recovery restores a checkpoint, and the
    // hub's first is taken before its first packet-in.
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    assert_eq!(rt.run_cycle(&mut net).recoveries, 0);

    armed.store(true, std::sync::atomic::Ordering::SeqCst);
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert!(
        !armed.load(std::sync::atomic::Ordering::SeqCst),
        "the bomb went off"
    );
    assert!(report.recoveries >= 1, "{report:?}");
    assert!(rt.stats().failstop_recoveries >= 1, "{:?}", rt.stats());
    assert!(!rt.is_crashed());
    assert_eq!(rt.app_status(bomb), Some(&AppStatus::Running));
    assert_eq!(rt.app_status(neighbour), Some(&AppStatus::Running));

    // Both are back in service: the next packet reaches both.
    let before = (
        rt.app_usage(bomb).unwrap(),
        rt.app_usage(neighbour).unwrap(),
    );
    net.inject(b, Packet::ethernet(b, a)).unwrap();
    let report = rt.run_cycle(&mut net);
    assert_eq!(report.recoveries, 0, "{report:?}");
    assert!(report.commands > 0, "{report:?}");
    assert!(rt.app_usage(bomb).unwrap().commands_emitted > before.0.commands_emitted);
    assert!(rt.app_usage(neighbour).unwrap().events_consumed > before.1.events_consumed);
    rt.shutdown();
}
