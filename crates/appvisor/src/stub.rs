//! The AppVisor Stub: "a stand-alone application hosting an SDN-App"
//! (paper §4.1).
//!
//! The stub owns the app, registers it (name + subscriptions) with the
//! proxy, then serves the RPC protocol: deliver events to the app, return
//! its commands, and answer snapshot/restore requests. After `Register`
//! it speaks only when spoken to: every frame it sends answers one the
//! proxy sent.
//! `StubCore` is that protocol with the I/O hoisted out; a [`StubHost`]
//! drives many cores from a fixed pool of threads, and an
//! [`InlineStub`](crate::transport::InlineStub) drives one on the
//! caller's thread.
//!
//! **Fault containment substitution** (DESIGN.md §2): the paper runs the
//! stub in a separate JVM process; here stubs share host threads, and the
//! wall is the app's [`Sandbox`], through which *every* call into app code
//! goes — `on_event`, `snapshot`, `restore`, and the `name`/`subscriptions`
//! read at registration. A crashed app is dead in its sandbox: the stub
//! reports the crash (or, configurably, goes silent) and stops answering
//! deliveries, which is exactly the observable a separate dead process
//! would present to the proxy. A `RestoreRequest` revives it — the
//! CRIU-restore analogue.

use crate::poll::PollWaker;
use crate::rpc::{
    decode_frame, encode_frame, encode_frame_into, encode_snapshot_reply, RpcMessage,
};
use crate::transport::{Transport, TransportError};
use legosdn_controller::app::{Ctx, SdnApp};
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::{panic_text, Fault, Sandbox};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stub behaviour knobs.
#[derive(Clone, Debug)]
pub struct StubConfig {
    /// If true, a crash is reported with an explicit `Crashed` frame (fast
    /// detection). If false, the stub goes silent like a dead process and
    /// the proxy detects the crash when the delivery's deadline passes
    /// (a communication failure).
    pub report_crashes: bool,
}

impl Default for StubConfig {
    fn default() -> Self {
        StubConfig {
            report_crashes: true,
        }
    }
}

/// Statistics the stub reports when it exits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StubReport {
    pub events_processed: u64,
    pub crashes_contained: u64,
    pub restores: u64,
}

/// What [`StubCore::handle_frame`] asks its I/O driver to do next.
pub(crate) enum StubStep {
    /// Nothing to send; keep serving.
    Continue,
    /// Send this frame, then keep serving.
    Reply(Vec<u8>),
    /// `Shutdown` received: stop serving and surface the report.
    Shutdown,
}

/// The sans-io stub state machine: sandboxed app + report, with all I/O
/// hoisted out; [`StubHost`] drives many of them per thread.
pub(crate) struct StubCore {
    sandbox: Sandbox,
    config: StubConfig,
    /// The controller views as of the delivery frame tagged `.0` — the
    /// last one this stub took views from. They are the stub's state, not
    /// the app's: a dead app's stub keeps them in step all the same.
    views: Option<(u64, TopologyView, DeviceView)>,
    report: StubReport,
}

impl StubCore {
    /// Start a stub: read the app's name and subscriptions through its
    /// wall and frame the `Register` the proxy awaits. An app that panics
    /// naming itself is never served: `Err` holds its `Crashed` frame, or
    /// nothing from a stub that does not report crashes.
    pub(crate) fn start(
        app: Box<dyn SdnApp>,
        config: StubConfig,
    ) -> Result<(StubCore, Vec<u8>), Option<Vec<u8>>> {
        let mut core = StubCore {
            sandbox: Sandbox::new(app),
            config,
            views: None,
            report: StubReport::default(),
        };
        match core.sandbox.identity() {
            Ok((app_name, subscriptions)) => {
                let register = RpcMessage::Register {
                    app_name,
                    subscriptions,
                };
                Ok((core, encode_frame(&register)))
            }
            Err(fault) => match core.faulted(0, fault) {
                StubStep::Reply(crashed) => Err(Some(crashed)),
                _ => Err(None),
            },
        }
    }

    /// Answer request `seq`, whose call into the app faulted. A dead app
    /// says nothing (the proxy's timeout is its crash signal); one that
    /// just panicked is booked, and the proxy hears `Crashed` or — like a
    /// process that just died — nothing.
    fn faulted(&mut self, seq: u64, fault: Fault) -> StubStep {
        let Fault::Panicked(panic_message) = fault else {
            return StubStep::Continue;
        };
        self.report.crashes_contained += 1;
        if self.config.report_crashes {
            StubStep::Reply(encode_frame(&RpcMessage::Crashed { seq, panic_message }))
        } else {
            StubStep::Continue
        }
    }

    /// Run the app on `event` under the views just taken in, and write
    /// its `EventAck` into `frame`, the buffer the delivery arrived in: a
    /// buffer goes back and forth instead of one being made per reply.
    fn run_app(&mut self, seq: u64, event: &Event, now: SimTime, mut frame: Vec<u8>) -> StubStep {
        let (_, topology, devices) = self.views.as_ref().expect("set by the delivery frame");
        let mut ctx = Ctx::new(now, topology, devices);
        match self.sandbox.on_event(event, &mut ctx) {
            Ok(()) => {
                self.report.events_processed += 1;
                let ack = RpcMessage::EventAck {
                    seq,
                    commands: ctx.into_commands(),
                };
                encode_frame_into(&ack, &mut frame);
                StubStep::Reply(frame)
            }
            Err(fault) => self.faulted(seq, fault),
        }
    }

    /// Serve one proxy frame: deliver/snapshot/restore/shutdown. The
    /// frame is the stub's to keep: an ack is written back into it.
    pub(crate) fn handle_frame(&mut self, frame: Vec<u8>) -> StubStep {
        let Ok(msg) = decode_frame(&frame) else {
            return StubStep::Continue;
        };
        match msg {
            RpcMessage::EventDeliver {
                seq,
                event,
                topology,
                devices,
                now,
            } => {
                self.views = Some((seq, topology, devices));
                self.run_app(seq, &event, now, frame)
            }
            RpcMessage::EventDeliverDelta {
                seq,
                event,
                base,
                topology,
                devices,
                now,
            } => {
                match &mut self.views {
                    Some((held, t, d)) if *held == base => {
                        t.apply(topology);
                        d.apply(devices);
                        *held = seq;
                    }
                    // Cut against a frame this stub never took views
                    // from: one went missing. Applying it would hand the
                    // app views the proxy never built, so say nothing —
                    // the proxy times the delivery out as the comm
                    // failure a lost frame is, and resends views whole.
                    _ => return StubStep::Continue,
                }
                self.run_app(seq, &event, now, frame)
            }
            RpcMessage::SnapshotRequest { seq } => match self.sandbox.capture() {
                Ok(snapshot) => StubStep::Reply(encode_snapshot_reply(seq, &snapshot)),
                Err(fault) => self.faulted(seq, fault),
            },
            RpcMessage::RestoreRequest { seq, bytes } => {
                // Restore revives a dead app (the CRIU restart+restore).
                let ok = match self.sandbox.revive(&bytes) {
                    Ok(()) => true,
                    Err(Fault::Rejected(_)) => false,
                    Err(fault) => return self.faulted(seq, fault),
                };
                if ok {
                    self.report.restores += 1;
                }
                StubStep::Reply(encode_frame(&RpcMessage::RestoreAck { seq, ok }))
            }
            RpcMessage::Shutdown => StubStep::Shutdown,
            // Proxy-bound frames are ignored if echoed back.
            _ => StubStep::Continue,
        }
    }
}

// ---------------------------------------------------------------------
// Stub hosting: many cores per thread.
// ---------------------------------------------------------------------

struct HostedStub {
    core: StubCore,
    transport: Box<dyn Transport>,
}

struct HostWorker {
    waker: Arc<PollWaker>,
    inject: Arc<Mutex<Vec<HostedStub>>>,
    thread: Option<JoinHandle<Vec<StubReport>>>,
}

/// Hosts many [`StubCore`]s on a fixed pool of worker threads, each
/// scanning its stubs' transports with `try_recv` and sending their
/// replies ([`crate::poll`]). Each app's [`Sandbox`] walls off its panics
/// — a crashed app goes dead on its worker without disturbing neighbors —
/// and a 1000-app fleet costs `workers` threads, not 1000. Stubs are
/// placed round-robin, so up to `workers` stubs each get a thread of
/// their own; beyond that, an app that *stalls* (rather than panics)
/// holds up the stubs sharing its thread (DESIGN.md §11).
pub struct StubHost {
    workers: Vec<HostWorker>,
    next: AtomicUsize,
    stop: Arc<AtomicBool>,
}

impl StubHost {
    /// Start `workers` stub-hosting threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> StubHost {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|i| {
                let waker = PollWaker::new();
                let inject: Arc<Mutex<Vec<HostedStub>>> = Arc::new(Mutex::new(Vec::new()));
                let (w, queue, stop) = (waker.clone(), inject.clone(), stop.clone());
                let thread = std::thread::Builder::new()
                    .name(format!("appvisor-stubhost-{i}"))
                    .spawn(move || host_loop(&w, &queue, &stop))
                    .expect("spawn stub host worker");
                HostWorker {
                    waker,
                    inject,
                    thread: Some(thread),
                }
            })
            .collect();
        StubHost {
            workers,
            next: AtomicUsize::new(0),
            stop,
        }
    }

    /// Host `app` over the stub's end of a transport. Sends the
    /// `Register` frame synchronously (so the proxy can await it
    /// immediately after this returns), then hands the stub to a worker.
    /// This runs on the caller's thread — the controller's — so an app
    /// that panics while naming itself is contained here: it is never
    /// hosted, and the proxy hears `Crashed` where it expected `Register`
    /// (or, from a stub that does not report crashes, a hang-up).
    pub fn spawn(
        &self,
        app: Box<dyn SdnApp>,
        mut transport: Box<dyn Transport>,
        config: StubConfig,
    ) -> Result<(), TransportError> {
        let (core, register) = match StubCore::start(app, config) {
            Ok(started) => started,
            Err(crashed) => return crashed.map_or(Ok(()), |frame| transport.send(frame)),
        };
        transport.send(register)?;
        let worker = &self.workers[self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len()];
        transport.set_waker(worker.waker.clone());
        worker
            .inject
            .lock()
            .unwrap()
            .push(HostedStub { core, transport });
        worker.waker.wake();
        Ok(())
    }

    /// Stop the workers and return every stub's report. Each worker
    /// serves what is already queued on its stubs (the proxy's `Shutdown`
    /// frames among it) before it reports.
    pub fn shutdown(mut self) -> Vec<StubReport> {
        self.stop()
    }

    /// Stop and join every worker, and gather the reports they return.
    /// Stopping twice joins nothing and gathers nothing.
    fn stop(&mut self) -> Vec<StubReport> {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.waker.wake();
        }
        let threads = self.workers.iter_mut().filter_map(|w| w.thread.take());
        threads.flat_map(|t| t.join().unwrap_or_default()).collect()
    }
}

impl Drop for StubHost {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Park ceiling when any channel is a waker-less socket: nothing wakes
/// the host when a datagram lands, so it polls at this period. A worker
/// whose channels all have wakers parks until one rings it.
const HOST_PARK_SCAN: Duration = Duration::from_micros(100);

fn host_loop(
    waker: &PollWaker,
    inject: &Mutex<Vec<HostedStub>>,
    stop: &AtomicBool,
) -> Vec<StubReport> {
    let mut stubs: Vec<HostedStub> = Vec::new();
    let mut reports = Vec::new();
    loop {
        let seen = waker.current();
        stubs.append(&mut inject.lock().unwrap());
        // Read before the scan, so a stop is followed by one more: the
        // final drain, which serves every frame sent before the stop.
        let stopping = stop.load(Ordering::SeqCst);
        let mut activity = 0u64;
        stubs.retain_mut(|s| {
            // App code runs behind each stub's sandbox; what panics here
            // is the stub's own (its transport, its codec), and it retires
            // that stub alone: the proxy sees its channel go dead, a comm
            // failure, and the neighbours on this thread keep being served.
            let retired = catch_unwind(AssertUnwindSafe(|| drive_stub(s, &mut activity)))
                .unwrap_or_else(|payload| {
                    drop(panic_text(payload));
                    true
                });
            if retired {
                reports.push(s.core.report);
            }
            !retired
        });
        if stopping {
            reports.extend(stubs.iter().map(|s| s.core.report));
            return reports;
        }
        if activity == 0 {
            let socket = stubs.iter().any(|s| !s.transport.has_waker());
            waker.wait_past(seen, socket.then(|| Instant::now() + HOST_PARK_SCAN));
        }
    }
}

/// One scan of one hosted stub: drain and serve its queued frames.
/// Returns true when the stub retires (shutdown or transport loss).
fn drive_stub(s: &mut HostedStub, activity: &mut u64) -> bool {
    loop {
        match s.transport.try_recv() {
            Ok(Some(frame)) => {
                *activity += 1;
                match s.core.handle_frame(frame) {
                    StubStep::Continue => {}
                    StubStep::Reply(reply) => {
                        if s.transport.send(reply).is_err() {
                            return true;
                        }
                    }
                    StubStep::Shutdown => return true,
                }
            }
            Ok(None) => return false,
            Err(_) => return true,
        }
    }
}

#[cfg(test)]
mod stub_tests {
    use super::*;
    use crate::poll::QueueTransport;
    use crate::transport::tests::in_ms;
    use crate::transport::InlineStub;
    use legosdn_controller::app::{RestoreError, Snapshot};
    use legosdn_controller::event::{Event, EventKind};
    use legosdn_controller::services::{DeviceView, TopologyView};
    use legosdn_netsim::SimTime;
    use legosdn_openflow::prelude::*;

    /// Minimal app: counts events, crashes on demand.
    struct TestApp {
        count: u32,
        crash_on: Option<u32>,
    }

    impl SdnApp for TestApp {
        fn name(&self) -> &str {
            "test-app"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
            self.count += 1;
            if Some(self.count) == self.crash_on {
                panic!("test app crash at {}", self.count);
            }
            ctx.send(DatapathId(1), Message::BarrierRequest);
        }
        fn snapshot(&self) -> Snapshot {
            self.count.to_be_bytes().to_vec().into()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.count =
                u32::from_be_bytes(bytes.try_into().map_err(|_| RestoreError("len".into()))?);
            Ok(())
        }
    }

    fn deliver_frame(seq: u64) -> Vec<u8> {
        encode_frame(&RpcMessage::EventDeliver {
            seq,
            event: Event::SwitchUp(DatapathId(1)),
            topology: TopologyView::default(),
            devices: DeviceView::default(),
            now: SimTime::ZERO,
        })
    }

    /// A `TestApp` on a one-thread host, and the proxy's end of its
    /// channel.
    fn host_one(count: u32) -> (StubHost, QueueTransport) {
        let host = StubHost::new(1);
        let (proxy_side, stub_side) = QueueTransport::pair();
        let app = TestApp {
            count,
            crash_on: None,
        };
        host.spawn(Box::new(app), Box::new(stub_side), StubConfig::default())
            .unwrap();
        (host, proxy_side)
    }

    /// A `TestApp` behind an inline stub: each request is served inside
    /// `send`, so a reply not queued by then never comes.
    fn inline_one(crash_on: Option<u32>, config: StubConfig) -> InlineStub {
        InlineStub::new(Box::new(TestApp { count: 0, crash_on }), config)
    }

    /// Serve the `Shutdown` frame and hand back the one stub's report.
    fn retire(host: StubHost, proxy_side: &mut QueueTransport) -> StubReport {
        proxy_side
            .send(encode_frame(&RpcMessage::Shutdown))
            .unwrap();
        let reports = host.shutdown();
        assert_eq!(reports.len(), 1);
        reports[0]
    }

    fn recv_msg(t: &mut impl Transport) -> RpcMessage {
        let frame = t
            .recv_until(in_ms(2_000))
            .expect("transport alive")
            .expect("frame within deadline");
        decode_frame(&frame).expect("valid frame")
    }

    /// A deadline no inline test waits for: the inline stub's timeout
    /// verdict comes at once.
    fn far() -> Instant {
        in_ms(60_000)
    }

    #[test]
    fn stub_registers_then_serves_events() {
        let (host, mut proxy_side) = host_one(0);
        match recv_msg(&mut proxy_side) {
            RpcMessage::Register {
                app_name,
                subscriptions,
            } => {
                assert_eq!(app_name, "test-app");
                assert_eq!(subscriptions, vec![EventKind::SwitchUp]);
            }
            other => panic!("expected register, got {other:?}"),
        }
        proxy_side.send(deliver_frame(1)).unwrap();
        match recv_msg(&mut proxy_side) {
            RpcMessage::EventAck { seq, commands } => {
                assert_eq!(seq, 1);
                assert_eq!(commands.len(), 1);
            }
            other => panic!("expected ack, got {other:?}"),
        }
        let report = retire(host, &mut proxy_side);
        assert_eq!(report.events_processed, 1);
        assert_eq!(report.crashes_contained, 0);
    }

    #[test]
    fn crash_is_contained_and_reported() {
        let mut stub = inline_one(Some(2), StubConfig::default());
        let _ = recv_msg(&mut stub); // register
        stub.send(deliver_frame(1)).unwrap();
        let _ = recv_msg(&mut stub); // ack 1
        stub.send(deliver_frame(2)).unwrap();
        match recv_msg(&mut stub) {
            RpcMessage::Crashed { seq, panic_message } => {
                assert_eq!(seq, 2);
                assert!(panic_message.contains("test app crash"));
            }
            other => panic!("expected crashed, got {other:?}"),
        }
        // Dead stub ignores further events: nothing comes back.
        stub.send(deliver_frame(3)).unwrap();
        assert_eq!(stub.recv_until(far()), Ok(None));
        // ...until restored.
        stub.send(encode_frame(&RpcMessage::RestoreRequest {
            seq: 4,
            bytes: 1u32.to_be_bytes().to_vec(),
        }))
        .unwrap();
        match recv_msg(&mut stub) {
            RpcMessage::RestoreAck { seq, ok } => {
                assert_eq!(seq, 4);
                assert!(ok);
            }
            other => panic!("expected restore ack, got {other:?}"),
        }
        // Alive again: counts from the restored state (1), so event → 2 → crash again (deterministic bug).
        stub.send(deliver_frame(5)).unwrap();
        match recv_msg(&mut stub) {
            RpcMessage::Crashed { seq, .. } => assert_eq!(seq, 5),
            other => panic!("deterministic bug must re-crash, got {other:?}"),
        }
        let report = stub.core.as_ref().expect("still serving").report;
        assert_eq!(report.crashes_contained, 2);
        assert_eq!(report.restores, 1);
    }

    #[test]
    fn silent_crash_mode_goes_quiet() {
        let config = StubConfig {
            report_crashes: false,
        };
        let mut stub = inline_one(Some(1), config);
        let _ = recv_msg(&mut stub); // register
        stub.send(deliver_frame(1)).unwrap();
        // No Crashed frame and no ack: a timeout, at once.
        assert_eq!(stub.recv_until(far()), Ok(None));
        // Replies are FIFO, so the restore's ack coming next shows that
        // nothing was held back for delivery 1: the stub stayed silent.
        stub.send(encode_frame(&RpcMessage::RestoreRequest {
            seq: 2,
            bytes: 0u32.to_be_bytes().to_vec(),
        }))
        .unwrap();
        assert!(matches!(
            recv_msg(&mut stub),
            RpcMessage::RestoreAck { seq: 2, ok: true }
        ));
    }

    #[test]
    fn snapshot_request_roundtrips() {
        let (host, mut proxy_side) = host_one(7);
        let _ = recv_msg(&mut proxy_side);
        proxy_side
            .send(encode_frame(&RpcMessage::SnapshotRequest { seq: 1 }))
            .unwrap();
        match recv_msg(&mut proxy_side) {
            RpcMessage::SnapshotReply { seq, bytes } => {
                assert_eq!(seq, 1);
                assert_eq!(bytes, 7u32.to_be_bytes().to_vec());
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        retire(host, &mut proxy_side);
    }

    #[test]
    fn a_healthy_idle_stub_says_nothing_it_was_not_asked() {
        let (host, mut proxy_side) = host_one(0);
        // Long enough for a periodic sender at any sub-30 ms period to
        // have spoken three times.
        std::thread::sleep(Duration::from_millis(100));
        let register = proxy_side.try_recv().unwrap().expect("register frame");
        assert!(matches!(
            decode_frame(&register),
            Ok(RpcMessage::Register { .. })
        ));
        let unasked = proxy_side.try_recv().unwrap();
        assert!(
            unasked.is_none(),
            "an idle stub sent {:?}",
            unasked.map(|f| decode_frame(&f))
        );
        retire(host, &mut proxy_side);
    }

    /// The proxy's end of a hosted stub's channel, driven by hand.
    fn hosted(host: &StubHost, crash_on: Option<u32>) -> QueueTransport {
        let (proxy_side, stub_side) = QueueTransport::pair();
        host.spawn(
            Box::new(TestApp { count: 0, crash_on }),
            Box::new(stub_side),
            StubConfig::default(),
        )
        .unwrap();
        proxy_side
    }

    fn await_frame(proxy_side: &mut QueueTransport) -> RpcMessage {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(frame) = proxy_side.try_recv().unwrap() {
                return decode_frame(&frame).unwrap();
            }
            assert!(Instant::now() < deadline, "no frame within deadline");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn stub_host_serves_many_stubs_on_bounded_workers() {
        let host = StubHost::new(2);
        let n = 16;
        let mut channels: Vec<_> = (0..n).map(|_| hosted(&host, None)).collect();
        for channel in &mut channels {
            assert!(matches!(await_frame(channel), RpcMessage::Register { .. }));
            channel.send(deliver_frame(1)).unwrap();
        }
        for channel in &mut channels {
            match await_frame(channel) {
                RpcMessage::EventAck { seq, commands } => {
                    assert_eq!(seq, 1);
                    assert_eq!(commands.len(), 1);
                }
                other => panic!("expected ack, got {other:?}"),
            }
        }
        for channel in &mut channels {
            channel.send(encode_frame(&RpcMessage::Shutdown)).unwrap();
        }
        let reports = host.shutdown();
        assert_eq!(reports.len(), n);
        assert!(reports.iter().all(|r| r.events_processed == 1));
    }

    #[test]
    fn hosted_crash_is_contained_per_stub() {
        let host = StubHost::new(1);
        let mut crashy = hosted(&host, Some(1));
        let mut ok = hosted(&host, None);
        assert!(matches!(
            await_frame(&mut crashy),
            RpcMessage::Register { .. }
        ));
        assert!(matches!(await_frame(&mut ok), RpcMessage::Register { .. }));
        crashy.send(deliver_frame(1)).unwrap();
        match await_frame(&mut crashy) {
            RpcMessage::Crashed { seq, panic_message } => {
                assert_eq!(seq, 1);
                assert!(panic_message.contains("test app crash"));
            }
            other => panic!("expected crashed, got {other:?}"),
        }
        // The neighbor on the same worker is untouched.
        ok.send(deliver_frame(1)).unwrap();
        assert!(matches!(await_frame(&mut ok), RpcMessage::EventAck { .. }));
        // Restore revives the crashed one.
        crashy
            .send(encode_frame(&RpcMessage::RestoreRequest {
                seq: 2,
                bytes: 0u32.to_be_bytes().to_vec(),
            }))
            .unwrap();
        assert!(matches!(
            await_frame(&mut crashy),
            RpcMessage::RestoreAck { seq: 2, ok: true }
        ));
        for channel in [&mut crashy, &mut ok] {
            channel.send(encode_frame(&RpcMessage::Shutdown)).unwrap();
        }
        let reports = host.shutdown();
        assert_eq!(reports.len(), 2);
        let crashes: u64 = reports.iter().map(|r| r.crashes_contained).sum();
        let restores: u64 = reports.iter().map(|r| r.restores).sum();
        assert_eq!(crashes, 1);
        assert_eq!(restores, 1);
    }

    #[test]
    fn host_shutdown_disconnects_a_proxy_waiting_on_the_reply_queue() {
        // The in-memory path has no thread between stub host and proxy:
        // the host going away must itself end the proxy's wait.
        let host = StubHost::new(1);
        let (mut proxy_side, stub_side) = QueueTransport::pair();
        let app = TestApp {
            count: 0,
            crash_on: None,
        };
        host.spawn(Box::new(app), Box::new(stub_side), StubConfig::default())
            .unwrap();
        let register = proxy_side.recv_until(in_ms(2_000)).unwrap();
        assert!(matches!(
            decode_frame(&register.expect("register frame")),
            Ok(RpcMessage::Register { .. })
        ));
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let at = Instant::now();
            drop(host);
            at
        });
        let got = proxy_side.recv_until(in_ms(2_000));
        let woke = Instant::now();
        assert_eq!(got, Err(TransportError::Disconnected));
        // `drop(host)` joins its workers, so the close lies between `at`
        // and the join; the proxy must not have slept on past it.
        let stopped = stopper.join().unwrap();
        assert!(
            woke.saturating_duration_since(stopped) < Duration::from_millis(50),
            "shutdown took {:?} to reach the proxy",
            woke.saturating_duration_since(stopped)
        );
    }
}
