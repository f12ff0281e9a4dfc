//! What a thread of its own used to give a stub for free, the stub-host
//! pool must provide on purpose: a panic anywhere in app code — not only
//! in `on_event` — kills that app alone, never the host thread and the
//! stubs that share it, and never the controller thread that launches
//! it; and with a host thread per stub, an app that merely *stalls*
//! delays nobody else. A panic in a stub's own I/O retires that stub
//! alone.

use legosdn_appvisor::poll::PollWaker;
use legosdn_appvisor::{
    AppHandle, AppVisorProxy, DeliverOutcome, IoMode, ProxyConfig, ProxyError, QueueTransport,
    StubConfig, StubHost, Transport, TransportError, TransportKind,
};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_openflow::prelude::*;
use legosdn_testkit::within;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers every event with one command; panics in the one method named.
struct Hostile {
    panics_in: &'static str,
}

impl Hostile {
    fn boxed(panics_in: &'static str) -> Box<Hostile> {
        Box::new(Hostile { panics_in })
    }

    fn maybe_panic(&self, method: &str) {
        assert_ne!(self.panics_in, method, "hostile app panics in {method}");
    }
}

impl SdnApp for Hostile {
    fn name(&self) -> &str {
        self.maybe_panic("name");
        "hostile"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::SwitchUp]
    }
    fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
        ctx.send(DatapathId(1), Message::BarrierRequest);
    }
    fn snapshot(&self) -> Snapshot {
        self.maybe_panic("snapshot");
        Snapshot::default()
    }
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
        self.maybe_panic("restore");
        Ok(())
    }
}

/// A proxy whose stubs all share `io_threads` host threads. A crash
/// report ends a wait at once, so a reporting stub can have a long rpc
/// deadline; a silent one's is waited out. Either way a delivery to a
/// dead stub waits `deliver_timeout` out.
fn proxy(io_threads: usize, report_crashes: bool) -> AppVisorProxy {
    let rpc_ms = if report_crashes { 2_000 } else { 300 };
    AppVisorProxy::new(ProxyConfig {
        deliver_timeout: Duration::from_millis(150),
        rpc_timeout: Duration::from_millis(rpc_ms),
        stub: StubConfig { report_crashes },
        io: IoMode { io_threads },
    })
}

fn deliver(p: &mut AppVisorProxy, h: AppHandle) -> DeliverOutcome {
    let event = Event::SwitchUp(DatapathId(1));
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    p.deliver(h, &event, &topo, &dev, SimTime::ZERO).unwrap()
}

fn answers(p: &mut AppVisorProxy, h: AppHandle) -> bool {
    matches!(deliver(p, h), DeliverOutcome::Commands(_))
}

#[test]
fn a_panic_in_snapshot_kills_the_app_not_its_host_thread() {
    for report_crashes in [true, false] {
        let mut p = proxy(1, report_crashes);
        let bad = p
            .launch_app(Hostile::boxed("snapshot"), TransportKind::Channel)
            .unwrap();
        let good = p
            .launch_app(Hostile::boxed("nothing"), TransportKind::Channel)
            .unwrap();
        let asked = Instant::now();
        assert!(p.snapshot(bad).is_err());
        assert!(
            !report_crashes || asked.elapsed() < Duration::from_secs(1),
            "the crash report ends the wait, not the rpc deadline"
        );
        // The neighbour on the same host thread never noticed,
        assert!(answers(&mut p, good));
        assert!(p.snapshot(good).is_ok());
        // and the offender is a crashed app like any other: silent until
        // restored, alive after.
        assert_eq!(deliver(&mut p, bad), DeliverOutcome::CommFailure);
        assert!(p.restore(bad, &[]).unwrap());
        assert!(answers(&mut p, bad));
        let reports = p.shutdown();
        assert_eq!(reports.len(), 2, "both stubs lived to report");
        let contained: u64 = reports.iter().map(|r| r.crashes_contained).sum();
        assert_eq!(contained, 1);
    }
}

#[test]
fn a_panic_in_restore_kills_the_app_not_its_host_thread() {
    let mut p = proxy(1, true);
    let bad = p
        .launch_app(Hostile::boxed("restore"), TransportKind::Channel)
        .unwrap();
    let good = p
        .launch_app(Hostile::boxed("nothing"), TransportKind::Channel)
        .unwrap();
    assert!(answers(&mut p, bad));
    let asked = Instant::now();
    assert!(p.restore(bad, &[]).is_err());
    assert!(asked.elapsed() < Duration::from_secs(1));
    assert!(answers(&mut p, good));
    assert_eq!(deliver(&mut p, bad), DeliverOutcome::CommFailure);
    let reports = p.shutdown();
    assert_eq!(reports.len(), 2);
    let contained: u64 = reports.iter().map(|r| r.crashes_contained).sum();
    assert_eq!(contained, 1);
}

#[test]
fn a_panic_while_registering_fails_the_launch_not_the_controller() {
    // `name()` runs on the launching thread — this one.
    let mut p = proxy(1, true);
    let good = p
        .launch_app(Hostile::boxed("nothing"), TransportKind::Channel)
        .unwrap();
    for kind in [TransportKind::Channel, TransportKind::Udp] {
        match p.launch_app(Hostile::boxed("name"), kind) {
            Err(ProxyError::RegistrationFailed(why)) => {
                assert!(why.contains("hostile app panics in name"), "{why}");
            }
            other => panic!("{kind:?}: expected a failed registration, got {other:?}"),
        }
    }
    assert!(answers(&mut p, good));
    let later = p
        .launch_app(Hostile::boxed("nothing"), TransportKind::Channel)
        .unwrap();
    assert!(answers(&mut p, later));
    assert_eq!(p.handles().len(), 2, "the hostile app was never registered");
    assert_eq!(p.shutdown().len(), 2);

    // A stub that does not report crashes just hangs up.
    let mut p = proxy(1, false);
    assert!(p
        .launch_app(Hostile::boxed("name"), TransportKind::Channel)
        .is_err());
    assert!(p.handles().is_empty());
}

/// Tells the test it has entered `on_event`, then sits there until told
/// to go on.
struct Staller {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl SdnApp for Staller {
    fn name(&self) -> &str {
        "staller"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::SwitchUp]
    }
    fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
        self.entered.send(()).unwrap();
        let _ = self.release.recv_timeout(Duration::from_secs(10));
        ctx.send(DatapathId(1), Message::BarrierRequest);
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
        Ok(())
    }
}

#[test]
fn with_a_host_thread_each_a_stalled_app_delays_no_neighbour() {
    // Round-robin placement: two stubs on two threads never share one.
    // (On one thread the neighbour's delivery would wait behind the
    // stall and be booked a comm failure — DESIGN.md §11.)
    let mut p = proxy(2, true);
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let staller = p
        .launch_app(
            Box::new(Staller {
                entered: entered_tx,
                release: release_rx,
            }),
            TransportKind::Channel,
        )
        .unwrap();
    let good = p
        .launch_app(Hostile::boxed("nothing"), TransportKind::Channel)
        .unwrap();
    let event = Event::SwitchUp(DatapathId(1));
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let tag = p
        .queue_deliver(staller, &event, &topo, &dev, SimTime::ZERO)
        .unwrap()
        .expect("sent");
    entered.recv().unwrap();
    // The staller is inside `on_event` and stays there until released:
    // the neighbour's whole round trip happens during the stall.
    assert!(answers(&mut p, good));
    assert!(p.snapshot(good).is_ok());
    release.send(()).unwrap();
    assert!(matches!(
        p.collect_deliver(staller, tag).unwrap(),
        DeliverOutcome::Commands(_)
    ));
    assert_eq!(p.shutdown().len(), 2);
}

/// A stub's end of a channel whose `try_recv` — what the stub host's scan
/// calls — panics: a fault in the stub's own I/O, below its app's wall.
struct PanicsOnScan(QueueTransport);

impl Transport for PanicsOnScan {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.0.send(frame)
    }
    fn recv_until(&mut self, deadline: Instant) -> Result<Option<Vec<u8>>, TransportError> {
        self.0.recv_until(deadline)
    }
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        panic!("the stub's transport panics mid-scan");
    }
    fn set_waker(&mut self, waker: Arc<PollWaker>) {
        self.0.set_waker(waker);
    }
    fn has_waker(&self) -> bool {
        self.0.has_waker()
    }
}

#[test]
fn a_panic_in_a_stubs_scan_retires_that_stub_and_not_its_neighbour() {
    within(Duration::from_secs(10), || {
        // One host thread, a healthy stub first and the faulty one beside it.
        let host = StubHost::new(1);
        let mut p = proxy(1, true);
        let mut host_one = |stub_end: Box<dyn Transport>, proxy_end: QueueTransport| {
            host.spawn(Hostile::boxed("nothing"), stub_end, StubConfig::default())
                .unwrap();
            p.register_transport(Box::new(proxy_end)).unwrap()
        };
        let (proxy_end, stub_end) = QueueTransport::pair();
        let good = host_one(Box::new(stub_end), proxy_end);
        let (proxy_end, stub_end) = QueueTransport::pair();
        let bad = host_one(Box::new(PanicsOnScan(stub_end)), proxy_end);
        // The faulty stub is gone: its channel is dead, a comm failure.
        assert_eq!(deliver(&mut p, bad), DeliverOutcome::CommFailure);
        // Its neighbour on the same thread is served, again and again.
        for _ in 0..3 {
            assert!(answers(&mut p, good));
        }
        drop(p);
        let reports = host.shutdown();
        assert_eq!(reports.len(), 2, "the retired stub reported too");
    });
}
