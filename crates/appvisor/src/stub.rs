//! The AppVisor Stub: "a stand-alone application hosting an SDN-App"
//! (paper §4.1).
//!
//! The stub owns the app, registers it (name + subscriptions) with the
//! proxy, then serves the RPC protocol: deliver events to the app, return
//! its commands, answer snapshot/restore requests, and emit heartbeats.
//! `StubCore` is that protocol with the I/O hoisted out; a [`StubHost`]
//! drives many cores from a fixed pool of threads.
//!
//! **Fault containment substitution** (DESIGN.md §2): the paper runs the
//! stub in a separate JVM process; here stubs share host threads, and the
//! wall is `catch_unwind` around *every* call into app code — `on_event`,
//! `snapshot`, `restore`, and the `name`/`subscriptions` read at
//! registration. A crashed app leaves the stub in the `dead` state: it
//! stops processing events and (configurably) stops heart-beating, which
//! is exactly the observable a separate dead process would present to the
//! proxy. A `RestoreRequest` revives it — the CRIU-restore analogue.

use crate::poll::{Duplex, FrameSink, FrameSource, PollWaker};
use crate::rpc::{decode_frame, encode_frame, encode_frame_sized, RpcMessage};
use crate::transport::TransportError;
use legosdn_controller::app::{Ctx, SdnApp};
use legosdn_controller::event::Event;
use legosdn_controller::monolithic::panic_text;
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
    /// Heartbeat period (wall clock — the RPC plane is real I/O).
    pub heartbeat_period: Duration,
    /// If true, a crash is reported with an explicit `Crashed` frame (fast
    /// detection). If false, the stub goes silent like a dead process and
    /// the proxy must detect the crash from communication failure /
    /// heartbeat loss — the paper's primary mechanism.
    pub report_crashes: bool,
}

impl Default for StubConfig {
    fn default() -> Self {
        StubConfig {
            heartbeat_period: Duration::from_millis(20),
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
    pub heartbeats_sent: u64,
}

/// What [`StubCore::handle_frame`] asks its I/O driver to do next.
enum StubStep {
    /// Nothing to send; keep serving.
    Continue,
    /// Send this frame, then keep serving.
    Reply(Vec<u8>),
    /// `Shutdown` received: stop serving and surface the report.
    Shutdown,
}

/// The sans-io stub state machine: app + liveness state + report, with
/// all I/O hoisted out; [`StubHost`] drives many of them per thread.
struct StubCore {
    app: Box<dyn SdnApp>,
    config: StubConfig,
    dead: bool,
    /// The controller views as of the delivery frame tagged `.0` — the
    /// last one this stub took views from. They are the stub's state, not
    /// the app's: a dead app's stub keeps them in step all the same.
    views: Option<(u64, TopologyView, DeviceView)>,
    hb_seq: u64,
    last_heartbeat: Instant,
    /// Buffer size the next `EventAck` is written into: the last one's
    /// length rounded up, so a steady-state reply is one allocation.
    ack_capacity: usize,
    report: StubReport,
}

impl StubCore {
    fn new(app: Box<dyn SdnApp>, config: StubConfig) -> StubCore {
        StubCore {
            app,
            config,
            dead: false,
            views: None,
            hb_seq: 0,
            last_heartbeat: Instant::now(),
            ack_capacity: 0,
            report: StubReport::default(),
        }
    }

    /// The `Register` frame that must open the conversation, or the
    /// panic text if the app crashed while being asked who it is.
    fn register_frame(&self) -> Result<Vec<u8>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            encode_frame(&RpcMessage::Register {
                app_name: self.app.name().to_string(),
                subscriptions: self.app.subscriptions(),
            })
        }))
        .map_err(|payload| panic_text(&*payload))
    }

    /// Book a panic out of app code while serving request `seq`: the app
    /// is dead until restored, and the proxy hears `Crashed` or — like a
    /// process that just died — nothing.
    fn crashed(&mut self, seq: u64, payload: &(dyn std::any::Any + Send)) -> StubStep {
        self.report.crashes_contained += 1;
        self.dead = true;
        if self.config.report_crashes {
            StubStep::Reply(encode_frame(&RpcMessage::Crashed {
                seq,
                panic_message: panic_text(payload),
            }))
        } else {
            StubStep::Continue
        }
    }

    /// A heartbeat frame when one is due (and the app is alive — a dead
    /// process doesn't beat).
    fn heartbeat_if_due(&mut self) -> Option<Vec<u8>> {
        if self.dead || self.last_heartbeat.elapsed() < self.config.heartbeat_period {
            return None;
        }
        self.hb_seq += 1;
        self.report.heartbeats_sent += 1;
        self.last_heartbeat = Instant::now();
        Some(encode_frame(&RpcMessage::Heartbeat { seq: self.hb_seq }))
    }

    /// Time until the next heartbeat is due: zero if overdue, a full
    /// period for a dead stub (it has nothing to schedule, so it must not
    /// shorten the host's park).
    fn heartbeat_due_in(&self) -> Duration {
        if self.dead {
            return self.config.heartbeat_period;
        }
        self.config
            .heartbeat_period
            .saturating_sub(self.last_heartbeat.elapsed())
    }

    /// Run the app on `event` under the views just taken in, containing
    /// a panic as a crash.
    fn run_app(&mut self, seq: u64, event: &Event, now: SimTime) -> StubStep {
        if self.dead {
            // A dead process can't answer. (The proxy's delivery
            // timeout is its comm-failure crash signal.)
            return StubStep::Continue;
        }
        let (_, topology, devices) = self.views.as_ref().expect("set by the delivery frame");
        let mut ctx = Ctx::new(now, topology, devices);
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.app.on_event(event, &mut ctx);
        }));
        match result {
            Ok(()) => {
                self.report.events_processed += 1;
                let ack = RpcMessage::EventAck {
                    seq,
                    commands: ctx.into_commands(),
                };
                let frame = encode_frame_sized(&ack, self.ack_capacity);
                self.ack_capacity = frame.len().next_power_of_two();
                StubStep::Reply(frame)
            }
            Err(payload) => self.crashed(seq, &*payload),
        }
    }

    /// Serve one proxy frame: deliver/snapshot/restore/shutdown.
    fn handle_frame(&mut self, frame: &[u8]) -> StubStep {
        let Ok(msg) = decode_frame(frame) else {
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
                self.run_app(seq, &event, now)
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
                self.run_app(seq, &event, now)
            }
            RpcMessage::SnapshotRequest { seq } => {
                if self.dead {
                    return StubStep::Continue;
                }
                match catch_unwind(AssertUnwindSafe(|| self.app.snapshot())) {
                    Ok(bytes) => {
                        StubStep::Reply(encode_frame(&RpcMessage::SnapshotReply { seq, bytes }))
                    }
                    Err(payload) => self.crashed(seq, &*payload),
                }
            }
            RpcMessage::RestoreRequest { seq, bytes } => {
                // Restore revives a dead app (the CRIU restart+restore).
                let ok = match catch_unwind(AssertUnwindSafe(|| self.app.restore(&bytes))) {
                    Ok(restored) => restored.is_ok(),
                    Err(payload) => return self.crashed(seq, &*payload),
                };
                if ok {
                    self.dead = false;
                    self.report.restores += 1;
                    self.last_heartbeat = Instant::now();
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
    sink: Box<dyn FrameSink>,
    source: Box<dyn FrameSource>,
}

struct HostWorker {
    waker: Arc<PollWaker>,
    inject: Arc<Mutex<Vec<HostedStub>>>,
    thread: Option<JoinHandle<()>>,
}

/// Hosts many [`StubCore`]s on a fixed pool of worker threads, each
/// driving its stubs' frames and heartbeats through split non-blocking
/// transports ([`crate::poll`]). `catch_unwind` walls off app panics — a
/// crashed app goes `dead` on its worker without disturbing neighbors —
/// and a 1000-app fleet costs `workers` threads, not 1000. Stubs are
/// placed round-robin, so up to `workers` stubs each get a thread of
/// their own; beyond that, an app that *stalls* (rather than panics)
/// holds up the stubs sharing its thread (DESIGN.md §11).
pub struct StubHost {
    workers: Vec<HostWorker>,
    next: AtomicUsize,
    spawned: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    reports: Arc<Mutex<Vec<StubReport>>>,
}

impl StubHost {
    /// Start `workers` stub-hosting threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> StubHost {
        let stop = Arc::new(AtomicBool::new(false));
        let reports: Arc<Mutex<Vec<StubReport>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..workers.max(1))
            .map(|i| {
                let waker = PollWaker::new();
                let inject: Arc<Mutex<Vec<HostedStub>>> = Arc::new(Mutex::new(Vec::new()));
                let thread = {
                    let waker = waker.clone();
                    let inject = inject.clone();
                    let stop = stop.clone();
                    let reports = reports.clone();
                    std::thread::Builder::new()
                        .name(format!("appvisor-stubhost-{i}"))
                        .spawn(move || host_loop(&waker, &inject, &stop, &reports))
                        .expect("spawn stub host worker")
                };
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
            spawned: Arc::new(AtomicUsize::new(0)),
            stop,
            reports,
        }
    }

    /// Host `app` over the stub side of a split transport. Sends the
    /// `Register` frame synchronously (so the proxy can await it
    /// immediately after this returns), then hands the stub to a worker.
    /// This runs on the caller's thread — the controller's — so an app
    /// that panics while naming itself is contained here: it is never
    /// hosted, and the proxy hears `Crashed` where it expected `Register`
    /// (or, from a stub that does not report crashes, a hang-up).
    pub fn spawn(
        &self,
        app: Box<dyn SdnApp>,
        transport: Duplex,
        config: StubConfig,
    ) -> Result<(), TransportError> {
        let core = StubCore::new(app, config);
        let Duplex {
            mut sink,
            mut source,
        } = transport;
        let register = match core.register_frame() {
            Ok(frame) => frame,
            Err(panic_message) if core.config.report_crashes => {
                let crashed = RpcMessage::Crashed {
                    seq: 0,
                    panic_message,
                };
                return sink.send_owned(encode_frame(&crashed));
            }
            Err(_) => return Ok(()),
        };
        sink.send_owned(register)?;
        let worker = &self.workers[self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len()];
        source.set_waker(worker.waker.clone());
        self.spawned.fetch_add(1, Ordering::SeqCst);
        worker
            .inject
            .lock()
            .unwrap()
            .push(HostedStub { core, sink, source });
        worker.waker.wake();
        Ok(())
    }

    /// Wait up to `grace` for all hosted stubs to retire (a stub retires
    /// when it serves `Shutdown` or its transport disconnects), then stop
    /// the workers and return every stub's report. Stubs still live at
    /// the deadline are cut off and report whatever they had.
    pub fn shutdown(mut self, grace: Duration) -> Vec<StubReport> {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if self.reports.lock().unwrap().len() >= self.spawned.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.waker.wake();
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
        std::mem::take(&mut *self.reports.lock().unwrap())
    }
}

impl Drop for StubHost {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.waker.wake();
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// Floor for the host park interval so an overdue heartbeat cannot spin
/// the scan loop.
const HOST_PARK_MIN: Duration = Duration::from_micros(50);
/// Park ceiling when every source has a waker (sends end the park early).
const HOST_PARK_MAX: Duration = Duration::from_millis(5);
/// Park ceiling when any source is a waker-less socket.
const HOST_PARK_SCAN: Duration = Duration::from_micros(100);

fn host_loop(
    waker: &Arc<PollWaker>,
    inject: &Arc<Mutex<Vec<HostedStub>>>,
    stop: &Arc<AtomicBool>,
    reports: &Arc<Mutex<Vec<StubReport>>>,
) {
    let mut stubs: Vec<HostedStub> = Vec::new();
    loop {
        let seen = waker.current();
        {
            let mut pending = inject.lock().unwrap();
            stubs.append(&mut pending);
        }
        if stop.load(Ordering::SeqCst) {
            let mut out = reports.lock().unwrap();
            for s in stubs.drain(..) {
                out.push(s.core.report);
            }
            return;
        }
        let mut activity = 0u64;
        stubs.retain_mut(|s| {
            let retired = drive_stub(s, &mut activity);
            if retired {
                reports.lock().unwrap().push(s.core.report);
            }
            !retired
        });
        if activity == 0 {
            let mut park = if stubs.iter().all(|s| s.source.has_waker()) {
                HOST_PARK_MAX
            } else {
                HOST_PARK_SCAN
            };
            for s in &stubs {
                park = park.min(s.core.heartbeat_due_in());
            }
            waker.wait_past(seen, park.max(HOST_PARK_MIN));
        }
    }
}

/// One scan of one hosted stub: heartbeat if due, then drain and serve
/// its queued frames. Returns true when the stub retires (shutdown or
/// transport loss).
fn drive_stub(s: &mut HostedStub, activity: &mut u64) -> bool {
    if let Some(hb) = s.core.heartbeat_if_due() {
        if s.sink.send_owned(hb).is_err() {
            return true;
        }
    }
    loop {
        match s.source.try_recv() {
            Ok(Some(frame)) => {
                *activity += 1;
                match s.core.handle_frame(&frame) {
                    StubStep::Continue => {}
                    StubStep::Reply(reply) => {
                        if s.sink.send_owned(reply).is_err() {
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
    use crate::transport::Transport;
    use legosdn_controller::app::RestoreError;
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
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_be_bytes().to_vec()
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
    fn host_one(
        count: u32,
        crash_on: Option<u32>,
        config: StubConfig,
    ) -> (StubHost, QueueTransport) {
        let host = StubHost::new(1);
        let (proxy_side, stub_side) = QueueTransport::pair();
        host.spawn(
            Box::new(TestApp { count, crash_on }),
            stub_side.into_duplex(),
            config,
        )
        .unwrap();
        (host, proxy_side)
    }

    /// Serve the `Shutdown` frame and hand back the one stub's report.
    fn retire(host: StubHost, proxy_side: &mut QueueTransport) -> StubReport {
        proxy_side
            .send(&encode_frame(&RpcMessage::Shutdown))
            .unwrap();
        let reports = host.shutdown(Duration::from_secs(2));
        assert_eq!(reports.len(), 1);
        reports[0]
    }

    fn recv_msg(t: &mut QueueTransport) -> RpcMessage {
        loop {
            let frame = t
                .recv_timeout(Duration::from_secs(2))
                .expect("transport alive")
                .expect("frame within deadline");
            let msg = decode_frame(&frame).expect("valid frame");
            if !matches!(msg, RpcMessage::Heartbeat { .. }) {
                return msg;
            }
        }
    }

    #[test]
    fn stub_registers_then_serves_events() {
        let (host, mut proxy_side) = host_one(0, None, StubConfig::default());
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
        proxy_side.send(&deliver_frame(1)).unwrap();
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
        let (host, mut proxy_side) = host_one(0, Some(2), StubConfig::default());
        let _ = recv_msg(&mut proxy_side); // register
        proxy_side.send(&deliver_frame(1)).unwrap();
        let _ = recv_msg(&mut proxy_side); // ack 1
        proxy_side.send(&deliver_frame(2)).unwrap();
        match recv_msg(&mut proxy_side) {
            RpcMessage::Crashed { seq, panic_message } => {
                assert_eq!(seq, 2);
                assert!(panic_message.contains("test app crash"));
            }
            other => panic!("expected crashed, got {other:?}"),
        }
        // Dead stub ignores further events: at most heartbeats come back.
        proxy_side.send(&deliver_frame(3)).unwrap();
        let _ = proxy_side.recv_timeout(Duration::from_millis(100)).unwrap();
        // ...until restored.
        proxy_side
            .send(&encode_frame(&RpcMessage::RestoreRequest {
                seq: 4,
                bytes: 1u32.to_be_bytes().to_vec(),
            }))
            .unwrap();
        match recv_msg(&mut proxy_side) {
            RpcMessage::RestoreAck { seq, ok } => {
                assert_eq!(seq, 4);
                assert!(ok);
            }
            other => panic!("expected restore ack, got {other:?}"),
        }
        // Alive again: counts from the restored state (1), so event → 2 → crash again (deterministic bug).
        proxy_side.send(&deliver_frame(5)).unwrap();
        match recv_msg(&mut proxy_side) {
            RpcMessage::Crashed { seq, .. } => assert_eq!(seq, 5),
            other => panic!("deterministic bug must re-crash, got {other:?}"),
        }
        let report = retire(host, &mut proxy_side);
        assert_eq!(report.crashes_contained, 2);
        assert_eq!(report.restores, 1);
    }

    #[test]
    fn silent_crash_mode_goes_quiet() {
        let config = StubConfig {
            heartbeat_period: Duration::from_millis(10),
            report_crashes: false,
        };
        let (_host, mut proxy_side) = host_one(0, Some(1), config);
        let _ = recv_msg(&mut proxy_side); // register
        proxy_side.send(&deliver_frame(1)).unwrap();
        // No Crashed frame, no ack, and heartbeats stop: silence.
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut last_non_heartbeat = None;
        while Instant::now() < deadline {
            if let Ok(Some(frame)) = proxy_side.recv_timeout(Duration::from_millis(20)) {
                let msg = decode_frame(&frame).unwrap();
                if !matches!(msg, RpcMessage::Heartbeat { .. }) {
                    last_non_heartbeat = Some(msg);
                }
            }
        }
        assert!(last_non_heartbeat.is_none(), "got {last_non_heartbeat:?}");
        proxy_side
            .send(&encode_frame(&RpcMessage::Shutdown))
            .unwrap();
    }

    #[test]
    fn snapshot_request_roundtrips() {
        let (host, mut proxy_side) = host_one(7, None, StubConfig::default());
        let _ = recv_msg(&mut proxy_side);
        proxy_side
            .send(&encode_frame(&RpcMessage::SnapshotRequest { seq: 1 }))
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
    fn heartbeats_flow() {
        let config = StubConfig {
            heartbeat_period: Duration::from_millis(5),
            report_crashes: true,
        };
        let (_host, mut proxy_side) = host_one(0, None, config);
        let _ = proxy_side.recv_timeout(Duration::from_secs(1)); // register
        let mut beats = 0;
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline && beats < 3 {
            if let Ok(Some(frame)) = proxy_side.recv_timeout(Duration::from_millis(50)) {
                if matches!(decode_frame(&frame), Ok(RpcMessage::Heartbeat { .. })) {
                    beats += 1;
                }
            }
        }
        assert!(beats >= 3, "expected heartbeats, got {beats}");
        proxy_side
            .send(&encode_frame(&RpcMessage::Shutdown))
            .unwrap();
    }

    /// Proxy-side view of a hosted stub: a raw duplex driven by hand.
    fn hosted(
        host: &StubHost,
        crash_on: Option<u32>,
    ) -> (
        Box<dyn crate::poll::FrameSink>,
        Box<dyn crate::poll::FrameSource>,
    ) {
        let (proxy_dx, stub_dx) = crate::poll::queue_duplex_pair();
        host.spawn(
            Box::new(TestApp { count: 0, crash_on }),
            stub_dx,
            StubConfig::default(),
        )
        .unwrap();
        (proxy_dx.sink, proxy_dx.source)
    }

    fn await_frame(source: &mut Box<dyn crate::poll::FrameSource>) -> RpcMessage {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(frame) = source.try_recv().unwrap() {
                let msg = decode_frame(&frame).unwrap();
                if !matches!(msg, RpcMessage::Heartbeat { .. }) {
                    return msg;
                }
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
        for (sink, source) in &mut channels {
            assert!(matches!(await_frame(source), RpcMessage::Register { .. }));
            sink.send(&deliver_frame(1)).unwrap();
        }
        for (_, source) in &mut channels {
            match await_frame(source) {
                RpcMessage::EventAck { seq, commands } => {
                    assert_eq!(seq, 1);
                    assert_eq!(commands.len(), 1);
                }
                other => panic!("expected ack, got {other:?}"),
            }
        }
        for (sink, _) in &mut channels {
            sink.send(&encode_frame(&RpcMessage::Shutdown)).unwrap();
        }
        let reports = host.shutdown(Duration::from_secs(2));
        assert_eq!(reports.len(), n);
        assert!(reports.iter().all(|r| r.events_processed == 1));
    }

    #[test]
    fn hosted_crash_is_contained_per_stub() {
        let host = StubHost::new(1);
        let (mut crashy_sink, mut crashy_source) = hosted(&host, Some(1));
        let (mut ok_sink, mut ok_source) = hosted(&host, None);
        assert!(matches!(
            await_frame(&mut crashy_source),
            RpcMessage::Register { .. }
        ));
        assert!(matches!(
            await_frame(&mut ok_source),
            RpcMessage::Register { .. }
        ));
        crashy_sink.send(&deliver_frame(1)).unwrap();
        match await_frame(&mut crashy_source) {
            RpcMessage::Crashed { seq, panic_message } => {
                assert_eq!(seq, 1);
                assert!(panic_message.contains("test app crash"));
            }
            other => panic!("expected crashed, got {other:?}"),
        }
        // The neighbor on the same worker is untouched.
        ok_sink.send(&deliver_frame(1)).unwrap();
        assert!(matches!(
            await_frame(&mut ok_source),
            RpcMessage::EventAck { .. }
        ));
        // Restore revives the crashed one.
        crashy_sink
            .send(&encode_frame(&RpcMessage::RestoreRequest {
                seq: 2,
                bytes: 0u32.to_be_bytes().to_vec(),
            }))
            .unwrap();
        assert!(matches!(
            await_frame(&mut crashy_source),
            RpcMessage::RestoreAck { seq: 2, ok: true }
        ));
        for sink in [&mut crashy_sink, &mut ok_sink] {
            sink.send(&encode_frame(&RpcMessage::Shutdown)).unwrap();
        }
        let reports = host.shutdown(Duration::from_secs(2));
        assert_eq!(reports.len(), 2);
        let crashes: u64 = reports.iter().map(|r| r.crashes_contained).sum();
        let restores: u64 = reports.iter().map(|r| r.restores).sum();
        assert_eq!(crashes, 1);
        assert_eq!(restores, 1);
    }

    #[test]
    fn host_shutdown_disconnects_a_proxy_waiting_on_the_reply_queue() {
        // The polled in-memory path has no thread between stub host and
        // proxy: the host going away must itself end the proxy's wait.
        let host = StubHost::new(1);
        let (mut proxy_side, stub_side) = crate::poll::QueueTransport::pair();
        let quiet = StubConfig {
            heartbeat_period: Duration::from_secs(60),
            report_crashes: true,
        };
        let app = TestApp {
            count: 0,
            crash_on: None,
        };
        host.spawn(Box::new(app), stub_side.into_duplex(), quiet)
            .unwrap();
        let register = proxy_side.recv_timeout(Duration::from_secs(2)).unwrap();
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
        let got = proxy_side.recv_timeout(Duration::from_secs(2));
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

    #[test]
    fn hosted_stubs_heartbeat() {
        let host = StubHost::new(1);
        let (proxy_dx, stub_dx) = crate::poll::queue_duplex_pair();
        host.spawn(
            Box::new(TestApp {
                count: 0,
                crash_on: None,
            }),
            stub_dx,
            StubConfig {
                heartbeat_period: Duration::from_millis(5),
                report_crashes: true,
            },
        )
        .unwrap();
        let mut source = proxy_dx.source;
        let mut beats = 0;
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline && beats < 3 {
            if let Ok(Some(frame)) = source.try_recv() {
                if matches!(decode_frame(&frame), Ok(RpcMessage::Heartbeat { .. })) {
                    beats += 1;
                }
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(beats >= 3, "expected hosted heartbeats, got {beats}");
        let _ = host.shutdown(Duration::from_millis(50));
    }
}
