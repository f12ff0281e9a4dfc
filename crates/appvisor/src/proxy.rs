//! The AppVisor Proxy: the controller-side half of the isolation layer
//! (paper §4.1).
//!
//! "The proxy dispatches the messages it receives from the controller to
//! the stub [...] maintains the per-application subscriptions in a table
//! [...] uses communication failures with the stub to detect that the
//! SDN-App has crashed."
//!
//! The proxy is deliberately runtime-agnostic: it queues tagged per-app
//! requests (deliver / snapshot) and collects their replies later or at
//! once, restores an app from a checkpoint, and detects a crash from the
//! delivery's reply — a `Crashed` report, or none by the deadline;
//! the LegoSDN runtime (crate `legosdn`) supplies the dispatch policy and
//! Crash-Pad supplies recovery.

use crate::poll::{QueueTransport, UdpTransport};
use crate::rpc::{decode_frame, encode_deliver, encode_deliver_delta, encode_frame, RpcMessage};
use crate::stub::{StubConfig, StubHost, StubReport};
use crate::transport::{Transport, TransportError};
use legosdn_controller::app::SdnApp;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::sandbox::DeliverOutcome;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_obs::{AppId, Counter, Histogram, Obs, RecordKind};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many slots the dispatch window holds when the apps live behind
/// AppVisor stubs (`Channel`, `Udp`): each stub's RPC queue carries up to
/// this many deliveries, so a stub works on later events while the
/// engine commits earlier ones (paper §5: stubs "can handle multiple
/// events in parallel"). In process the window is one slot deep: a local
/// sandbox runs inline at commit, so a deeper window overlaps nothing and
/// only pins more view generations (DESIGN.md §9). The in-memory queues
/// are sized for it.
pub const STUB_WINDOW: usize = 8;

/// Which transport carries the proxy⇄stub RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory channels (fast path).
    Channel,
    /// UDP loopback (the paper-prototype configuration).
    Udp,
}

/// How many threads service stub channels. Every stub is hosted on a
/// fixed [`StubHost`] pool, so the thread count is a deployment constant,
/// not a function of fleet size. The proxy needs no thread of its own:
/// it blocks on its end of each channel — the reply queue
/// ([`QueueTransport`]) or its own socket ([`UdpTransport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoMode {
    /// Stub-host workers, clamped to at least 1: a fleet of either
    /// transport runs on `io_threads` threads. Stubs are placed
    /// round-robin, so with at least as many threads as stubs each stub
    /// has a thread of its own and a stalled app delays no neighbour
    /// (DESIGN.md §11).
    pub io_threads: usize,
}

impl Default for IoMode {
    fn default() -> Self {
        IoMode { io_threads: 4 }
    }
}

/// Proxy behaviour knobs.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// How long to wait for an event ack before declaring comm failure.
    pub deliver_timeout: Duration,
    /// How long to wait for snapshot/restore acks.
    pub rpc_timeout: Duration,
    /// Stub-side settings used when the proxy spawns the stub itself.
    pub stub: StubConfig,
    /// Size of the stub-host pool; see [`IoMode`].
    pub io: IoMode,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            deliver_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_millis(500),
            stub: StubConfig::default(),
            io: IoMode::default(),
        }
    }
}

/// Handle to a registered app.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppHandle(pub usize);

/// Proxy-level failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ProxyError {
    UnknownApp,
    Transport(TransportError),
    Timeout,
    RegistrationFailed(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::UnknownApp => write!(f, "unknown app handle"),
            ProxyError::Transport(e) => write!(f, "transport failure: {e}"),
            ProxyError::Timeout => write!(f, "rpc timeout"),
            ProxyError::RegistrationFailed(s) => write!(f, "registration failed: {s}"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// Per-app wire counters (the serialization-overhead evidence for E2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppWireStats {
    pub events_delivered: u64,
    pub crashes_detected: u64,
    pub comm_failures: u64,
    pub restores: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

/// What the stub on the far side holds of the controller's views, as far
/// as this proxy knows.
enum Shipped {
    /// No delivery frame sent yet.
    Never,
    /// A comm failure since the last delivery frame: the stub may have
    /// missed any of them, so what it holds is unknown.
    Lost,
    /// Delivery frame `seq` put these views on the wire.
    At {
        seq: u64,
        topology: TopologyView,
        devices: DeviceView,
    },
}

/// An app's metric handles, resolved once when its slot is created so a
/// frame costs atomic adds, not registry lookups.
struct SlotMetrics {
    /// The id this app's records carry.
    app: AppId,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    events_delivered: Arc<Counter>,
    comm_failures: Arc<Counter>,
    crashes_detected: Arc<Counter>,
    view_resyncs: Arc<Counter>,
    restores: Arc<Counter>,
    /// Proxy-wide (unlabelled): delivery frames that carried full views.
    view_full_frames: Arc<Counter>,
    /// Proxy-wide (unlabelled): delivery frames that carried a diff.
    view_delta_frames: Arc<Counter>,
}

impl SlotMetrics {
    fn resolve(obs: &Obs, app: &str) -> SlotMetrics {
        let counter = |name| obs.counter("appvisor", name, app);
        SlotMetrics {
            app: obs.attach_app(app),
            bytes_sent: counter("bytes_sent"),
            bytes_received: counter("bytes_received"),
            events_delivered: counter("events_delivered"),
            comm_failures: counter("comm_failures"),
            crashes_detected: counter("crashes_detected"),
            view_resyncs: counter("view_resyncs"),
            restores: counter("restores"),
            view_full_frames: obs.counter("appvisor", "view_full_frames", ""),
            view_delta_frames: obs.counter("appvisor", "view_delta_frames", ""),
        }
    }
}

/// The proxy's blocking-call timers, resolved once per [`Obs`] instance
/// so a replayed delivery or a restore costs an atomic add, not a
/// registry lookup.
struct ProxyMetrics {
    deliver: Arc<Histogram>,
    snapshot: Arc<Histogram>,
    restore: Arc<Histogram>,
}

impl ProxyMetrics {
    fn resolve(obs: &Obs) -> ProxyMetrics {
        let timer = |name| obs.histogram("appvisor", name, "");
        ProxyMetrics {
            deliver: timer("deliver"),
            snapshot: timer("snapshot"),
            restore: timer("restore"),
        }
    }
}

struct AppSlot {
    name: String,
    subscriptions: Vec<EventKind>,
    transport: Box<dyn Transport>,
    next_seq: u64,
    alive: bool,
    stats: AppWireStats,
    metrics: SlotMetrics,
    shipped: Shipped,
    /// Buffer size a delta frame is written into: the longest delta frame
    /// or ack so far, rounded up to a power of two. A buffer the stub
    /// wrote its ack into is reusable for the next delta frame.
    delta_capacity: usize,
    /// Decoded acks kept for the next delivery frames: only those no
    /// larger than `delta_capacity`, so the acks to ~27 KB first-contact
    /// frames are not hoarded, and at most [`STUB_WINDOW`] of them. Every
    /// delivery frame takes one if there is one, and every ack gives at
    /// most one back.
    spare: Vec<Vec<u8>>,
    /// Tagged replies that arrived while a *different* tag was being
    /// collected (multi-event in-flight queue; also absorbs datagram
    /// reordering on the UDP transport). Consulted before the transport
    /// on every tagged collect, which first drops the replies below its
    /// tag.
    inbox: VecDeque<RpcMessage>,
}

/// What a blocking call returns when its request could not be sent: the
/// send was booked as a comm failure, and the channel is taken as gone.
const UNSENT: ProxyError = ProxyError::Transport(TransportError::Disconnected);

/// The tag of a stub→proxy reply, if the message carries one.
fn reply_seq(msg: &RpcMessage) -> Option<u64> {
    match msg {
        RpcMessage::EventAck { seq, .. }
        | RpcMessage::Crashed { seq, .. }
        | RpcMessage::SnapshotReply { seq, .. }
        | RpcMessage::RestoreAck { seq, .. } => Some(*seq),
        _ => None,
    }
}

/// The AppVisor proxy.
pub struct AppVisorProxy {
    config: ProxyConfig,
    apps: Vec<AppSlot>,
    obs: Obs,
    metrics: ProxyMetrics,
    /// The pool hosting every launched stub, created on the first launch.
    stub_host: Option<StubHost>,
}

impl AppVisorProxy {
    /// An empty proxy, reporting to an [`Obs::disabled`] instance until
    /// [`AppVisorProxy::set_obs`] hands it one.
    #[must_use]
    pub fn new(config: ProxyConfig) -> Self {
        let obs = Obs::disabled();
        AppVisorProxy {
            config,
            apps: Vec::new(),
            metrics: ProxyMetrics::resolve(&obs),
            obs,
            stub_host: None,
        }
    }

    /// Report metrics and journal records to `obs`.
    pub fn set_obs(&mut self, obs: Obs) {
        for slot in &mut self.apps {
            slot.metrics = SlotMetrics::resolve(&obs, &slot.name);
        }
        self.metrics = ProxyMetrics::resolve(&obs);
        self.obs = obs;
    }

    /// Host `app` behind a stub on the shared worker pool, over the chosen
    /// transport, and register it. The stub host scans one end of the
    /// channel; the slot keeps the other and blocks on it, so everything
    /// above this seam sees one [`Transport`].
    pub fn launch_app(
        &mut self,
        app: Box<dyn SdnApp>,
        transport: TransportKind,
    ) -> Result<AppHandle, ProxyError> {
        let (proxy_side, stub_side): (Box<dyn Transport>, Box<dyn Transport>) = match transport {
            TransportKind::Channel => {
                let (proxy_side, stub_side) = QueueTransport::pair();
                (Box::new(proxy_side), Box::new(stub_side))
            }
            TransportKind::Udp => {
                let (proxy_side, stub_side) = UdpTransport::pair()
                    .map_err(|e| ProxyError::Transport(TransportError::Io(e.to_string())))?;
                (Box::new(proxy_side), Box::new(stub_side))
            }
        };
        let io_threads = self.config.io.io_threads;
        let host = self
            .stub_host
            .get_or_insert_with(|| StubHost::new(io_threads));
        host.spawn(app, stub_side, self.config.stub.clone())
            .map_err(ProxyError::Transport)?;
        self.register_transport(proxy_side)
    }

    /// Register an app over an already-connected transport (the far end
    /// must be a stub: [`StubHost::spawn`] or an
    /// [`InlineStub`](crate::transport::InlineStub)). Waits for the
    /// `Register` frame; a stub whose app panicked while naming itself
    /// sends `Crashed` in its place.
    pub fn register_transport(
        &mut self,
        mut transport: Box<dyn Transport>,
    ) -> Result<AppHandle, ProxyError> {
        let deadline = Instant::now() + self.config.rpc_timeout;
        loop {
            let frame = transport
                .recv_until(deadline)
                .map_err(ProxyError::Transport)?
                .ok_or_else(|| ProxyError::RegistrationFailed("no register frame".into()))?;
            match decode_frame(&frame) {
                Ok(RpcMessage::Register {
                    app_name,
                    subscriptions,
                }) => {
                    self.apps.push(AppSlot {
                        metrics: SlotMetrics::resolve(&self.obs, &app_name),
                        name: app_name,
                        subscriptions,
                        transport,
                        next_seq: 0,
                        alive: true,
                        stats: AppWireStats::default(),
                        shipped: Shipped::Never,
                        delta_capacity: 0,
                        spare: Vec::with_capacity(STUB_WINDOW),
                        inbox: VecDeque::new(),
                    });
                    return Ok(AppHandle(self.apps.len() - 1));
                }
                Ok(RpcMessage::Crashed { panic_message, .. }) => {
                    return Err(ProxyError::RegistrationFailed(panic_message));
                }
                // A stray frame: wait on for the same deadline.
                _ => {}
            }
        }
    }

    /// Registered app handles.
    #[must_use]
    pub fn handles(&self) -> Vec<AppHandle> {
        (0..self.apps.len()).map(AppHandle).collect()
    }

    /// An app's registered name.
    pub fn app_name(&self, h: AppHandle) -> Result<&str, ProxyError> {
        self.apps
            .get(h.0)
            .map(|s| s.name.as_str())
            .ok_or(ProxyError::UnknownApp)
    }

    /// An app's registered subscriptions.
    pub fn subscriptions(&self, h: AppHandle) -> Result<&[EventKind], ProxyError> {
        self.apps
            .get(h.0)
            .map(|s| s.subscriptions.as_slice())
            .ok_or(ProxyError::UnknownApp)
    }

    /// Is the app believed alive?
    pub fn is_alive(&self, h: AppHandle) -> Result<bool, ProxyError> {
        self.apps
            .get(h.0)
            .map(|s| s.alive)
            .ok_or(ProxyError::UnknownApp)
    }

    /// Wire counters for an app.
    pub fn wire_stats(&self, h: AppHandle) -> Result<AppWireStats, ProxyError> {
        self.apps
            .get(h.0)
            .map(|s| s.stats)
            .ok_or(ProxyError::UnknownApp)
    }

    /// Deliver an event to an isolated app and wait for its commands: a
    /// queued delivery, collected at once.
    pub fn deliver(
        &mut self,
        h: AppHandle,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> Result<DeliverOutcome, ProxyError> {
        let _span = self.metrics.deliver.start();
        match self.queue_deliver(h, event, topology, devices, now)? {
            Some(seq) => self.collect_deliver(h, seq),
            None => Ok(DeliverOutcome::CommFailure),
        }
    }

    /// Take a checkpoint of the app's state ("the proxy creates a
    /// checkpoint of an SDN-App process prior to dispatching every
    /// message"): a queued snapshot request, collected at once.
    pub fn snapshot(&mut self, h: AppHandle) -> Result<Vec<u8>, ProxyError> {
        let _span = self.metrics.snapshot.start();
        match self.queue_snapshot(h)? {
            Some(seq) => self.collect_snapshot(h, seq),
            None => Err(UNSENT),
        }
    }

    /// Restore the app from a checkpoint, reviving it if it was dead (the
    /// CRIU restore analogue).
    pub fn restore(&mut self, h: AppHandle, bytes: &[u8]) -> Result<bool, ProxyError> {
        let _span = self.metrics.restore.start();
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let bytes = bytes.to_vec();
        let seq = request(slot, |seq| RpcMessage::RestoreRequest { seq, bytes }).ok_or(UNSENT)?;
        match await_tag(slot, seq, Instant::now() + self.config.rpc_timeout) {
            // Awaiting the restore's tag, the newest, dropped every
            // older reply: the in-flight queue starts clean.
            Ok(Some(RpcMessage::RestoreAck { ok, .. })) => {
                if ok {
                    slot.alive = true;
                    slot.stats.restores += 1;
                    slot.metrics.restores.inc();
                }
                Ok(ok)
            }
            Ok(_) => Err(ProxyError::Timeout),
            Err(e) => Err(ProxyError::Transport(e)),
        }
    }

    // ------------------------------------------------------------------
    // Tagged in-flight queue (the dispatch window): queue_* pushes a
    // request without awaiting the reply, collect_* awaits a specific
    // tag. Stubs are independent ("SDN-Apps [...] can handle multiple
    // events in parallel", paper §5): queueing one event on many stubs
    // before collecting any overlaps their processing, and a stub
    // processes its own queue in order, so event k+1 can be on its
    // thread while the proxy is still gathering event k from its peers.
    // ------------------------------------------------------------------

    /// Queue one event delivery on an app's RPC stream without awaiting
    /// the ack. `Ok(Some(tag))` is the handle for
    /// [`AppVisorProxy::collect_deliver`]; `Ok(None)` means the send
    /// itself failed (recorded as a comm failure, the slot marked dead) —
    /// classify the delivery as [`DeliverOutcome::CommFailure`] without
    /// collecting.
    pub fn queue_deliver(
        &mut self,
        h: AppHandle,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> Result<Option<u64>, ProxyError> {
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let tag = deliver_frame(slot, event, topology, devices, now);
        Ok(queued(slot, tag, &self.obs, "send"))
    }

    /// Queue a snapshot request without awaiting the reply. Interleaved
    /// between two queued deliveries it captures the state *between*
    /// those events — exactly the pre-event checkpoint the sequential
    /// protocol takes, collected lazily via
    /// [`AppVisorProxy::collect_snapshot`].
    pub fn queue_snapshot(&mut self, h: AppHandle) -> Result<Option<u64>, ProxyError> {
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let tag = request(slot, |seq| RpcMessage::SnapshotRequest { seq });
        Ok(queued(slot, tag, &self.obs, "snap_send"))
    }

    /// Collect the outcome of a queued delivery. The timeout window opens
    /// *now*, not at send time: a queued stub is legitimately busy with
    /// the deliveries ahead of this one.
    pub fn collect_deliver(
        &mut self,
        h: AppHandle,
        seq: u64,
    ) -> Result<DeliverOutcome, ProxyError> {
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let reply = await_tag(slot, seq, Instant::now() + self.config.deliver_timeout);
        Ok(settle_delivery(slot, reply, &self.obs))
    }

    /// Collect the bytes of a queued snapshot request.
    pub fn collect_snapshot(&mut self, h: AppHandle, seq: u64) -> Result<Vec<u8>, ProxyError> {
        let deadline = Instant::now() + self.config.rpc_timeout;
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let (reply, outcome) = match await_tag(slot, seq, deadline) {
            Ok(Some(RpcMessage::SnapshotReply { bytes, .. })) => (Ok(bytes), "ok"),
            Ok(Some(_) | None) => (Err(ProxyError::Timeout), "timeout"),
            Err(e) => return Err(ProxyError::Transport(e)),
        };
        self.obs.emit(
            Some(slot.metrics.app),
            RecordKind::Step("snap_collect", outcome),
        );
        reply
    }

    /// Shut all stubs down and collect their reports: the host pool
    /// serves the `Shutdown` frames, and whatever was queued before them,
    /// as it stops.
    pub fn shutdown(mut self) -> Vec<StubReport> {
        for slot in &mut self.apps {
            let _ = slot.transport.send(encode_frame(&RpcMessage::Shutdown));
        }
        let reports = self.stub_host.take().map(StubHost::shutdown);
        reports.unwrap_or_default()
    }
}

/// Mark a slot failed with `outcome`, a crash or a comm failure, and
/// count it. A `Crashed` report keeps the views shipped: the stub takes a
/// frame's views before it asks whether its app is dead, so it holds that
/// frame's and, in order, every later one's (DESIGN.md §14). After a comm
/// failure the stub may have missed a delivery frame, so the views are
/// forgotten and the next delivery carries them whole.
fn mark_failed(slot: &mut AppSlot, outcome: &DeliverOutcome) {
    slot.alive = false;
    if let DeliverOutcome::Crashed { .. } = outcome {
        slot.stats.crashes_detected += 1;
        slot.metrics.crashes_detected.inc();
    } else {
        slot.shipped = Shipped::Lost;
        slot.stats.comm_failures += 1;
        slot.metrics.comm_failures.inc();
    }
}

/// Account and push one encoded request frame. A failed send marks the
/// slot failed and counts one comm failure: the stub can answer nothing
/// it was never sent.
fn send_frame(slot: &mut AppSlot, frame: Vec<u8>) -> Option<()> {
    slot.stats.bytes_sent += frame.len() as u64;
    slot.metrics.bytes_sent.add(frame.len() as u64);
    let sent = slot.transport.send(frame).ok();
    if sent.is_none() {
        mark_failed(slot, &DeliverOutcome::CommFailure);
    }
    sent
}

/// Tag, build, account and send one request, and return its tag; `None`
/// when the send failed. [`deliver_frame`] does the same for deliveries.
fn request(slot: &mut AppSlot, build: impl FnOnce(u64) -> RpcMessage) -> Option<u64> {
    slot.next_seq += 1;
    let seq = slot.next_seq;
    send_frame(slot, encode_frame(&build(seq)))?;
    Some(seq)
}

/// Account one received frame.
fn received(slot: &mut AppSlot, frame: &[u8]) {
    slot.stats.bytes_received += frame.len() as u64;
    slot.metrics.bytes_received.add(frame.len() as u64);
}

/// The one delivery-frame builder: tag, build, account and send the
/// frame that delivers `event` under these views, and return its tag.
/// A stub known to hold the views of the previous delivery frame gets the
/// diff against them; otherwise (first contact, or a comm failure since)
/// the views travel whole. A failed send leaves the shipped views forgotten.
fn deliver_frame(
    slot: &mut AppSlot,
    event: &Event,
    topology: &TopologyView,
    devices: &DeviceView,
    now: SimTime,
) -> Option<u64> {
    slot.next_seq += 1;
    let seq = slot.next_seq;
    let frame = match std::mem::replace(&mut slot.shipped, Shipped::Lost) {
        Shipped::At {
            seq: base,
            topology: held,
            devices: held_devices,
        } => {
            slot.metrics.view_delta_frames.inc();
            let mut frame = slot
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(slot.delta_capacity));
            encode_deliver_delta(
                seq,
                event,
                base,
                &held.diff(topology),
                &held_devices.diff(devices),
                now,
                &mut frame,
            );
            grow_delta_capacity(slot, &frame);
            frame
        }
        unknown => {
            slot.metrics.view_full_frames.inc();
            if matches!(unknown, Shipped::Lost) {
                slot.metrics.view_resyncs.inc();
            }
            let mut frame = slot.spare.pop().unwrap_or_default();
            encode_deliver(seq, event, topology, devices, now, &mut frame);
            frame
        }
    };
    send_frame(slot, frame)?;
    slot.shipped = Shipped::At {
        seq,
        topology: topology.clone(),
        devices: devices.clone(),
    };
    Some(seq)
}

/// Grow the slot's delta-frame capacity to cover `frame`, a delta frame
/// or an ack.
fn grow_delta_capacity(slot: &mut AppSlot, frame: &[u8]) {
    slot.delta_capacity = slot.delta_capacity.max(frame.len().next_power_of_two());
}

/// Trace a queued request's send as `phase`, `queued` or `send_failed`.
fn queued(slot: &AppSlot, tag: Option<u64>, obs: &Obs, phase: &'static str) -> Option<u64> {
    let outcome = if tag.is_some() {
        "queued"
    } else {
        "send_failed"
    };
    obs.emit(Some(slot.metrics.app), RecordKind::Step(phase, outcome));
    tag
}

/// Classify the reply to a delivery frame and book it on the slot. Any
/// reply but an ack or a crash report is a comm failure: none by the
/// deadline (`Ok(None)`), a stray frame, or a transport error.
fn settle_delivery(
    slot: &mut AppSlot,
    reply: Result<Option<RpcMessage>, TransportError>,
    obs: &Obs,
) -> DeliverOutcome {
    let outcome = match reply {
        Ok(Some(RpcMessage::EventAck { commands, .. })) => {
            slot.stats.events_delivered += 1;
            slot.metrics.events_delivered.inc();
            DeliverOutcome::Commands(commands)
        }
        Ok(Some(RpcMessage::Crashed { panic_message, .. })) => {
            DeliverOutcome::Crashed { panic_message }
        }
        _ => DeliverOutcome::CommFailure,
    };
    if !matches!(outcome, DeliverOutcome::Commands(_)) {
        mark_failed(slot, &outcome);
    }
    obs.emit(
        Some(slot.metrics.app),
        RecordKind::Step("collect", outcome.label()),
    );
    outcome
}

/// Await the reply tagged `seq`: inbox first, then the transport.
/// Later tags' replies are stashed in the inbox; a reply below `seq` is
/// stale — collected, abandoned by a cancelled window slot, or
/// pre-restore — and is dropped, from the inbox too. Tags are collected
/// in ascending order, so no such reply is ever awaited again.
/// `Ok(None)` is the transport's verdict that `deadline` passed first.
fn await_tag(
    slot: &mut AppSlot,
    seq: u64,
    deadline: Instant,
) -> Result<Option<RpcMessage>, TransportError> {
    slot.inbox
        .retain(|m| reply_seq(m).is_some_and(|s| s >= seq));
    if let Some(pos) = slot.inbox.iter().position(|m| reply_seq(m) == Some(seq)) {
        return Ok(slot.inbox.remove(pos));
    }
    while let Some(frame) = slot.transport.recv_until(deadline)? {
        received(slot, &frame);
        let msg = decode_frame(&frame);
        if let Ok(RpcMessage::EventAck { .. }) = msg {
            grow_delta_capacity(slot, &frame);
            if frame.capacity() <= slot.delta_capacity && slot.spare.len() < STUB_WINDOW {
                slot.spare.push(frame);
            }
        }
        let Ok(msg) = msg else {
            continue;
        };
        match reply_seq(&msg) {
            Some(s) if s == seq => return Ok(Some(msg)),
            // A later tag's reply outran ours (UDP datagrams can
            // reorder) or sits ahead of a reply we collect later:
            // keep it for that collect.
            Some(s) if s > seq => slot.inbox.push_back(msg),
            // Below the tag we are waiting on: stale.
            _ => {}
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InlineStub;
    use legosdn_controller::app::{Command, Ctx, RestoreError, Snapshot};
    use legosdn_openflow::prelude::*;
    use legosdn_testkit::within;

    struct TestApp {
        count: u32,
        crash_on_count: Option<u32>,
    }

    impl SdnApp for TestApp {
        fn name(&self) -> &str {
            "proxy-test-app"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::PacketIn, EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
            self.count += 1;
            if Some(self.count) == self.crash_on_count {
                panic!("proxy test crash");
            }
            ctx.send(DatapathId(self.count as u64), Message::BarrierRequest);
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

    fn proxy() -> AppVisorProxy {
        AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(300),
            rpc_timeout: Duration::from_secs(1),
            ..Default::default()
        })
    }

    fn deliver(p: &mut AppVisorProxy, h: AppHandle) -> DeliverOutcome {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        p.deliver(
            h,
            &Event::SwitchUp(DatapathId(1)),
            &topo,
            &dev,
            SimTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn launch_register_deliver_channel() {
        let mut p = proxy();
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        assert_eq!(p.app_name(h).unwrap(), "proxy-test-app");
        assert_eq!(p.subscriptions(h).unwrap().len(), 2);
        match deliver(&mut p, h) {
            DeliverOutcome::Commands(cmds) => {
                assert_eq!(cmds.len(), 1);
                assert_eq!(cmds[0].dpid, DatapathId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = p.wire_stats(h).unwrap();
        assert_eq!(stats.events_delivered, 1);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
        let reports = p.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].events_processed, 1);
    }

    #[test]
    fn launch_register_deliver_udp() {
        let mut p = proxy();
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Udp,
            )
            .unwrap();
        match deliver(&mut p, h) {
            DeliverOutcome::Commands(cmds) => assert_eq!(cmds.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let reports = p.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].events_processed, 1);
    }

    #[test]
    fn crash_detected_and_recovered_via_checkpoint() {
        let mut p = proxy();
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: Some(2),
                }),
                TransportKind::Channel,
            )
            .unwrap();
        // Checkpoint before each event (the paper's discipline).
        let checkpoint = p.snapshot(h).unwrap();
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Commands(_)));
        let checkpoint2 = p.snapshot(h).unwrap();
        match deliver(&mut p, h) {
            DeliverOutcome::Crashed { panic_message } => {
                assert!(panic_message.contains("proxy test crash"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!p.is_alive(h).unwrap());
        // Restore to the pre-crash checkpoint: alive again, same state.
        assert!(p.restore(h, &checkpoint2).unwrap());
        assert!(p.is_alive(h).unwrap());
        // Replaying the same (deterministic) event crashes again.
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Crashed { .. }));
        // Restoring the earlier checkpoint shifts the crash point.
        assert!(p.restore(h, &checkpoint).unwrap());
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Commands(_)));
        let _ = p.shutdown();
    }

    #[test]
    fn comm_failure_on_silent_crash() {
        // An inline stub serves the delivery inside the proxy's send: no
        // reply queued then is the timeout, with no deadline waited out.
        let mut p = proxy();
        let app = TestApp {
            count: 0,
            crash_on_count: Some(1),
        };
        let dead_process = StubConfig {
            report_crashes: false,
        };
        let h = p
            .register_transport(Box::new(InlineStub::new(Box::new(app), dead_process)))
            .unwrap();
        assert_eq!(deliver(&mut p, h), DeliverOutcome::CommFailure);
        assert!(!p.is_alive(h).unwrap());
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
        let _ = p.shutdown();
    }

    /// Joins a rendezvous inside `on_event`, so a delivery only ever
    /// completes while every other party is at the rendezvous too.
    struct RendezvousApp(Arc<std::sync::Barrier>);

    impl SdnApp for RendezvousApp {
        fn name(&self) -> &str {
            "rendezvous-app"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::SwitchUp]
        }
        fn on_event(&mut self, _event: &Event, ctx: &mut Ctx<'_>) {
            self.0.wait();
            ctx.send(DatapathId(1), Message::BarrierRequest);
        }
        fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
        fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
            Ok(())
        }
    }

    /// Queue one event on every handle before collecting any — how the
    /// dispatch window fans an event out.
    fn queue_all_then_collect(
        p: &mut AppVisorProxy,
        handles: &[AppHandle],
    ) -> Vec<Result<DeliverOutcome, ProxyError>> {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let event = Event::SwitchUp(DatapathId(1));
        let tags: Vec<_> = handles
            .iter()
            .map(|&h| p.queue_deliver(h, &event, &topo, &dev, SimTime::ZERO))
            .collect();
        handles
            .iter()
            .zip(tags)
            .map(|(&h, tag)| match tag? {
                Some(seq) => p.collect_deliver(h, seq),
                None => Ok(DeliverOutcome::CommFailure),
            })
            .collect()
    }

    /// One blocking round trip to each stub, then long enough idle for
    /// their hosts to park: only a ring can start the next request. Under
    /// [`within`], a ring that never comes fails the test, not hangs it.
    fn park_hosts(p: &mut AppVisorProxy, handles: &[AppHandle]) {
        for &h in handles {
            p.snapshot(h).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn fanout_delivers_to_all_in_parallel() {
        within(Duration::from_secs(5), || {
            // Four stubs that each finish the event only once all four
            // are inside it: queueing before collecting must overlap them
            // (one delivery at a time would time out at the rendezvous).
            let mut p = proxy();
            let rendezvous = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<AppHandle> = (0..4)
                .map(|_| {
                    p.launch_app(
                        Box::new(RendezvousApp(Arc::clone(&rendezvous))),
                        TransportKind::Channel,
                    )
                    .unwrap()
                })
                .collect();
            park_hosts(&mut p, &handles);
            for r in queue_all_then_collect(&mut p, &handles) {
                assert!(
                    matches!(&r, Ok(DeliverOutcome::Commands(c)) if c.len() == 1),
                    "{r:?}"
                );
            }
            let _ = p.shutdown();

            // Mixed with a crasher and a bogus handle.
            let mut p = proxy();
            let mut all: Vec<AppHandle> = [None, None, Some(1)]
                .into_iter()
                .map(|crash_on_count| {
                    p.launch_app(
                        Box::new(TestApp {
                            count: 0,
                            crash_on_count,
                        }),
                        TransportKind::Channel,
                    )
                    .unwrap()
                })
                .collect();
            all.push(AppHandle(99));
            let results = queue_all_then_collect(&mut p, &all);
            assert!(matches!(&results[2], Ok(DeliverOutcome::Crashed { .. })));
            assert!(matches!(&results[3], Err(ProxyError::UnknownApp)));
            // Healthy apps unaffected by their neighbor's crash.
            for r in &results[..2] {
                assert!(matches!(r, Ok(DeliverOutcome::Commands(_))), "{r:?}");
            }
            let _ = p.shutdown();
        });
    }

    #[test]
    fn work_between_queue_and_collect_overlaps_the_stub() {
        within(Duration::from_secs(5), || {
            // The dispatch window runs local sandboxes and commits between
            // queueing a delivery and collecting it. The stub must be
            // inside the event while the caller is free: the app only
            // finishes once this thread, having returned from
            // `queue_deliver`, meets it at the rendezvous.
            let mut p = proxy();
            let rendezvous = Arc::new(std::sync::Barrier::new(2));
            let h = p
                .launch_app(
                    Box::new(RendezvousApp(Arc::clone(&rendezvous))),
                    TransportKind::Channel,
                )
                .unwrap();
            park_hosts(&mut p, &[h]);
            let topo = TopologyView::default();
            let dev = DeviceView::default();
            let seq = p
                .queue_deliver(
                    h,
                    &Event::SwitchUp(DatapathId(7)),
                    &topo,
                    &dev,
                    SimTime::ZERO,
                )
                .unwrap()
                .expect("send succeeded");
            rendezvous.wait();
            let outcome = p.collect_deliver(h, seq);
            assert!(
                matches!(&outcome, Ok(DeliverOutcome::Commands(c)) if c.len() == 1),
                "{outcome:?}"
            );
            let _ = p.shutdown();
        });
    }

    #[test]
    fn expired_deadline_is_one_timeout_classification() {
        // A zero deliver timeout means the deadline has already passed when
        // the proxy waits: the transport's verdict is a timeout without a
        // read, and the proxy books exactly one CommFailure — one
        // comm_failures increment.
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::ZERO,
            rpc_timeout: Duration::from_secs(1),
            ..Default::default()
        });
        let obs = legosdn_obs::Obs::new();
        p.set_obs(obs.clone());
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        assert_eq!(deliver(&mut p, h), DeliverOutcome::CommFailure);
        let stats = p.wire_stats(h).unwrap();
        assert_eq!(stats.comm_failures, 1, "exactly one classification");
        assert_eq!(stats.events_delivered, 0);
        assert_eq!(
            obs.counter("appvisor", "comm_failures", "proxy-test-app")
                .get(),
            1
        );
        let _ = p.shutdown();

        // The same with the reply already queued when the proxy looks: the
        // deadline is tested before the queue is read, so a passed deadline
        // is a timeout whatever has arrived.
        let (proxy_side, mut stub_side) = QueueTransport::pair();
        stub_side
            .send(encode_frame(&RpcMessage::Register {
                app_name: "expired".into(),
                subscriptions: vec![EventKind::SwitchUp],
            }))
            .unwrap();
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::ZERO,
            rpc_timeout: Duration::from_secs(1),
            ..Default::default()
        });
        let h = p.register_transport(Box::new(proxy_side)).unwrap();
        let (topo, dev) = (TopologyView::default(), DeviceView::default());
        let ev = Event::SwitchUp(DatapathId(1));
        let seq = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .expect("send succeeded");
        stub_side
            .send(encode_frame(&RpcMessage::EventAck {
                seq,
                commands: vec![],
            }))
            .unwrap();
        assert_eq!(
            p.collect_deliver(h, seq).unwrap(),
            DeliverOutcome::CommFailure
        );
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
    }

    #[test]
    fn expired_rpc_deadline_times_out_snapshot_and_restore() {
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(300),
            rpc_timeout: Duration::ZERO,
            ..Default::default()
        });
        // Registration also runs on rpc_timeout: launch under a sane one,
        // then zero it.
        p.config.rpc_timeout = Duration::from_secs(1);
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        p.config.rpc_timeout = Duration::ZERO;
        assert_eq!(p.snapshot(h).unwrap_err(), ProxyError::Timeout);
        assert_eq!(p.restore(h, &[]).unwrap_err(), ProxyError::Timeout);
        let _ = p.shutdown();
    }

    #[test]
    fn tagged_queue_interleaves_deliveries_and_snapshots_in_order() {
        // The windowed dispatch pattern: [deliver k, snapshot, deliver
        // k+1] queued up front, collected in order. The snapshot queued
        // between the deliveries must capture the state *between* them.
        let mut p = proxy();
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let ev = Event::SwitchUp(DatapathId(1));
        let d1 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        let s1 = p.queue_snapshot(h).unwrap().unwrap();
        let d2 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        assert!(d1 < s1 && s1 < d2, "tags are the per-slot send order");
        assert!(matches!(
            p.collect_deliver(h, d1).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        let between = p.collect_snapshot(h, s1).unwrap();
        assert_eq!(between, 1u32.to_be_bytes().to_vec(), "one event seen");
        assert!(matches!(
            p.collect_deliver(h, d2).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        assert_eq!(p.wire_stats(h).unwrap().events_delivered, 2);
        let _ = p.shutdown();
    }

    #[test]
    fn out_of_order_replies_park_in_the_inbox() {
        // Hand-run the stub side so replies can be sent out of tag order
        // (as UDP datagram reordering would): the collect for the earlier
        // tag must stash the later reply, and the later collect must find
        // it in the inbox without touching the transport.
        let (proxy_side, mut stub_side) = QueueTransport::pair();
        stub_side
            .send(encode_frame(&RpcMessage::Register {
                app_name: "manual".into(),
                subscriptions: vec![EventKind::PacketIn],
            }))
            .unwrap();
        let mut p = proxy();
        let h = p.register_transport(Box::new(proxy_side)).unwrap();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let ev = Event::SwitchUp(DatapathId(1));
        let d1 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        let d2 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        // Reply to d2 first, then d1.
        stub_side
            .send(encode_frame(&RpcMessage::EventAck {
                seq: d2,
                commands: vec![],
            }))
            .unwrap();
        stub_side
            .send(encode_frame(&RpcMessage::Crashed {
                seq: d1,
                panic_message: "late".into(),
            }))
            .unwrap();
        assert!(matches!(
            p.collect_deliver(h, d1).unwrap(),
            DeliverOutcome::Crashed { .. }
        ));
        assert!(matches!(
            p.collect_deliver(h, d2).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        assert_eq!(p.wire_stats(h).unwrap().crashes_detected, 1);
    }

    #[test]
    fn abandoned_replies_do_not_pile_up_in_the_inbox() {
        // A reply stashed for a tag that is never collected (its window
        // slot was cancelled) is stale once a later tag is collected.
        let (proxy_side, mut stub_side) = QueueTransport::pair();
        stub_side
            .send(encode_frame(&RpcMessage::Register {
                app_name: "manual".into(),
                subscriptions: vec![EventKind::SwitchUp],
            }))
            .unwrap();
        let mut p = proxy();
        let h = p.register_transport(Box::new(proxy_side)).unwrap();
        let (topo, dev) = (TopologyView::default(), DeviceView::default());
        let ev = Event::SwitchUp(DatapathId(1));
        let mut queue = || {
            p.queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
                .unwrap()
                .unwrap()
        };
        let (d1, d2, d3) = (queue(), queue(), queue());
        let ack = |seq: u64, n: u64| {
            encode_frame(&RpcMessage::EventAck {
                seq,
                commands: vec![Command {
                    dpid: DatapathId(n),
                    msg: Message::BarrierRequest,
                }],
            })
        };
        stub_side.send(ack(d2, 2)).unwrap();
        stub_side.send(ack(d1, 1)).unwrap();
        assert!(matches!(
            p.collect_deliver(h, d1).unwrap(),
            DeliverOutcome::Commands(c) if c[0].dpid == DatapathId(1)
        ));
        assert_eq!(p.apps[h.0].inbox.len(), 1, "d2's reply is stashed");
        stub_side.send(ack(d3, 3)).unwrap();
        assert!(matches!(
            p.collect_deliver(h, d3).unwrap(),
            DeliverOutcome::Commands(c) if c[0].dpid == DatapathId(3)
        ));
        assert!(p.apps[h.0].inbox.is_empty(), "d2's reply is dropped");
    }

    #[test]
    fn a_failed_blocking_send_is_a_booked_comm_failure() {
        // The stub side goes away after registering: every blocking call's
        // send fails, and each is booked on the slot like a queued send's.
        let (proxy_side, mut stub_side) = QueueTransport::pair();
        stub_side
            .send(encode_frame(&RpcMessage::Register {
                app_name: "gone".into(),
                subscriptions: vec![EventKind::PacketIn],
            }))
            .unwrap();
        let mut p = proxy();
        let h = p.register_transport(Box::new(proxy_side)).unwrap();
        drop(stub_side);
        assert_eq!(deliver(&mut p, h), DeliverOutcome::CommFailure);
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
        assert!(!p.is_alive(h).unwrap());
        assert!(p.snapshot(h).is_err());
        assert!(p.restore(h, &[]).is_err());
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 3);
    }

    /// A transport whose next `recv_until` fails with an I/O error once
    /// `fail` is set.
    struct FailNextRecv {
        inner: QueueTransport,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Transport for FailNextRecv {
        fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
            self.inner.send(frame)
        }
        fn recv_until(&mut self, deadline: Instant) -> Result<Option<Vec<u8>>, TransportError> {
            if self.fail.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(TransportError::Io("injected".into()));
            }
            self.inner.recv_until(deadline)
        }
        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            self.inner.try_recv()
        }
    }

    /// Register on `p` an app whose stub end is driven by hand: the
    /// handle, that end, and the `fail` flag of the [`FailNextRecv`] it
    /// sits behind.
    fn hand_driven_failing_app(
        p: &mut AppVisorProxy,
    ) -> (
        AppHandle,
        QueueTransport,
        Arc<std::sync::atomic::AtomicBool>,
    ) {
        let (proxy_side, mut stub_side) = QueueTransport::pair();
        stub_side
            .send(encode_frame(&RpcMessage::Register {
                app_name: "io-error".into(),
                subscriptions: vec![EventKind::SwitchUp],
            }))
            .unwrap();
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = p
            .register_transport(Box::new(FailNextRecv {
                inner: proxy_side,
                fail: Arc::clone(&fail),
            }))
            .unwrap();
        (h, stub_side, fail)
    }

    #[test]
    fn a_reply_read_error_is_a_booked_comm_failure() {
        let obs = Obs::new();
        let mut p = proxy();
        p.set_obs(obs.clone());
        let (h, mut stub_side, fail) = hand_driven_failing_app(&mut p);
        let resyncs = obs.counter("appvisor", "view_resyncs", "io-error");
        let (topo, dev) = (TopologyView::default(), DeviceView::default());
        let ev = Event::SwitchUp(DatapathId(1));
        let queue = |p: &mut AppVisorProxy| {
            p.queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
                .unwrap()
                .unwrap()
        };
        // One acked delivery: the stub holds the views it was shipped.
        let d1 = queue(&mut p);
        stub_side
            .send(encode_frame(&RpcMessage::EventAck {
                seq: d1,
                commands: vec![],
            }))
            .unwrap();
        assert!(matches!(
            p.collect_deliver(h, d1).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        // The next reply cannot be read.
        let d2 = queue(&mut p);
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(p.collect_deliver(h, d2), Ok(DeliverOutcome::CommFailure));
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
        assert!(!p.is_alive(h).unwrap());
        // Whether frame d2 arrived is unknown: the next one carries the
        // views whole.
        assert_eq!(resyncs.get(), 0);
        queue(&mut p);
        assert_eq!(resyncs.get(), 1);
    }

    #[test]
    fn resyncs_keep_the_spare_list_within_the_window() {
        // A flapping app: each round ships the views whole, then loses a
        // delta frame whose ack arrives but is not read until the next
        // round. Acks come back in fresh buffers, as over UDP; each one
        // read is a buffer the proxy may keep for a later frame.
        let mut p = proxy();
        let (h, mut stub_side, fail) = hand_driven_failing_app(&mut p);
        let (topo, dev) = (TopologyView::default(), DeviceView::default());
        let ev = Event::SwitchUp(DatapathId(1));
        let mut queue_acked = |p: &mut AppVisorProxy| {
            let seq = p
                .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
                .unwrap()
                .unwrap();
            let ack = RpcMessage::EventAck {
                seq,
                commands: vec![],
            };
            stub_side.send(encode_frame(&ack)).unwrap();
            seq
        };
        for round in 0..4 * STUB_WINDOW {
            let whole = queue_acked(&mut p);
            assert!(matches!(
                p.collect_deliver(h, whole).unwrap(),
                DeliverOutcome::Commands(_)
            ));
            let lost = queue_acked(&mut p);
            fail.store(true, std::sync::atomic::Ordering::SeqCst);
            assert_eq!(p.collect_deliver(h, lost), Ok(DeliverOutcome::CommFailure));
            let kept = p.apps[h.0].spare.len();
            assert!(kept <= STUB_WINDOW, "round {round}: {kept} buffers kept");
        }
        assert_eq!(
            p.wire_stats(h).unwrap().comm_failures,
            4 * STUB_WINDOW as u64
        );
    }

    #[test]
    fn cancelled_tags_are_dropped_and_restore_resets_the_queue() {
        // Crash mid-window: collect the crash, cancel the queued
        // follow-ups, restore, and the stream must be clean for re-sends.
        let mut p = proxy();
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: Some(2),
                }),
                TransportKind::Channel,
            )
            .unwrap();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let ev = Event::SwitchUp(DatapathId(1));
        let checkpoint = p.snapshot(h).unwrap();
        let tags: Vec<u64> = (0..3)
            .map(|_| {
                p.queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
                    .unwrap()
                    .unwrap()
            })
            .collect();
        assert!(matches!(
            p.collect_deliver(h, tags[0]).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        assert!(matches!(
            p.collect_deliver(h, tags[1]).unwrap(),
            DeliverOutcome::Crashed { .. }
        ));
        assert!(!p.is_alive(h).unwrap());
        // The dead stub silently dropped tags[2]; never collect it.
        assert!(p.restore(h, &checkpoint).unwrap());
        assert!(p.is_alive(h).unwrap());
        // Fresh delivery on the cleaned stream works (count restored to
        // 0, so the crash-on-2 bug is one event away again).
        let d = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        assert!(matches!(
            p.collect_deliver(h, d).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        let _ = p.shutdown();
    }

    #[test]
    fn unknown_handle_errors() {
        let mut p = proxy();
        assert_eq!(
            p.app_name(AppHandle(9)).unwrap_err(),
            ProxyError::UnknownApp
        );
        assert!(p.snapshot(AppHandle(9)).is_err());
    }

    fn polled_proxy(io_threads: usize) -> AppVisorProxy {
        AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_secs(1),
            io: IoMode { io_threads },
            ..Default::default()
        })
    }

    #[test]
    fn polled_launch_deliver_crash_restore_roundtrip() {
        // The full proxy protocol — deliver, snapshot, crash detection,
        // restore, replay — over the multiplexed path.
        let mut p = polled_proxy(2);
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: Some(2),
                }),
                TransportKind::Channel,
            )
            .unwrap();
        assert_eq!(p.app_name(h).unwrap(), "proxy-test-app");
        let checkpoint = p.snapshot(h).unwrap();
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Commands(_)));
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Crashed { .. }));
        assert!(!p.is_alive(h).unwrap());
        assert!(p.restore(h, &checkpoint).unwrap());
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Commands(_)));
        let reports = p.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].crashes_contained, 1);
        assert_eq!(reports[0].restores, 1);
    }

    #[test]
    fn polled_launch_works_over_sockets() {
        // A socket app on a one-thread stub-host pool: the proxy's own
        // timed `recv` picks up the reply.
        let mut p = polled_proxy(1);
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Udp,
            )
            .unwrap();
        match deliver(&mut p, h) {
            DeliverOutcome::Commands(cmds) => assert_eq!(cmds.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let reports = p.shutdown();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn a_udp_launch_starts_no_thread_but_the_stub_host() {
        // The proxy blocks on its own socket: a socket launch costs the
        // stub-host pool and nothing else.
        let extra_threads = || {
            std::fs::read_dir("/proc/self/task")
                .expect("linux procfs")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                // The kernel keeps 15 bytes of a thread's name.
                .filter(|comm| {
                    comm.starts_with("appvisor-") && !comm.starts_with("appvisor-stubho")
                })
                .map(|comm| comm.trim_end().to_string())
                .collect::<Vec<_>>()
        };
        let mut p = polled_proxy(1);
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Udp,
            )
            .unwrap();
        assert!(matches!(deliver(&mut p, h), DeliverOutcome::Commands(_)));
        assert_eq!(extra_threads(), Vec::<String>::new());
        assert_eq!(p.shutdown().len(), 1);
    }

    #[test]
    fn polled_tagged_queue_interleaves_like_blocking() {
        // The windowed-dispatch machinery (queue/collect with tags,
        // inbox stashing) on a pool smaller than the default.
        let mut p = polled_proxy(2);
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let ev = Event::SwitchUp(DatapathId(1));
        let d1 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        let s1 = p.queue_snapshot(h).unwrap().unwrap();
        let d2 = p
            .queue_deliver(h, &ev, &topo, &dev, SimTime::ZERO)
            .unwrap()
            .unwrap();
        assert!(matches!(
            p.collect_deliver(h, d1).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        assert_eq!(
            p.collect_snapshot(h, s1).unwrap(),
            1u32.to_be_bytes().to_vec()
        );
        assert!(matches!(
            p.collect_deliver(h, d2).unwrap(),
            DeliverOutcome::Commands(_)
        ));
        let _ = p.shutdown();
    }

    #[test]
    fn polled_fleet_shares_the_io_pool() {
        // Many apps, one small pool: a fan-out still reaches everyone and
        // shutdown retires every hosted stub.
        let mut p = polled_proxy(2);
        let handles: Vec<AppHandle> = (0..24)
            .map(|_| {
                p.launch_app(
                    Box::new(TestApp {
                        count: 0,
                        crash_on_count: None,
                    }),
                    TransportKind::Channel,
                )
                .unwrap()
            })
            .collect();
        for r in queue_all_then_collect(&mut p, &handles) {
            assert!(matches!(&r, Ok(DeliverOutcome::Commands(_))), "{r:?}");
        }
        let reports = p.shutdown();
        assert_eq!(reports.len(), 24);
        assert!(reports.iter().all(|r| r.events_processed == 1));
    }
}
