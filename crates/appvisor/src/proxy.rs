//! The AppVisor Proxy: the controller-side half of the isolation layer
//! (paper §4.1).
//!
//! "The proxy dispatches the messages it receives from the controller to
//! the stub [...] maintains the per-application subscriptions in a table
//! [...] uses communication failures with the stub to detect that the
//! SDN-App has crashed."
//!
//! The proxy is deliberately runtime-agnostic: it exposes blocking
//! per-app RPCs (deliver / snapshot / restore) and heartbeat accounting;
//! the LegoSDN runtime (crate `legosdn`) supplies the dispatch policy and
//! Crash-Pad supplies recovery.

use crate::poll::{
    tcp_duplex_pair, udp_duplex_pair, Duplex, PolledTransport, Poller, QueueTransport,
};
use crate::rpc::{decode_frame, encode_deliver, encode_deliver_delta, encode_frame, RpcMessage};
use crate::stub::{StubConfig, StubHost, StubReport};
use crate::transport::{Transport, TransportError};
use legosdn_controller::app::{Command, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_obs::{Counter, Obs, RecordKind};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport carries the proxy⇄stub RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory channels (fast path).
    Channel,
    /// UDP loopback (the paper-prototype configuration).
    Udp,
    /// TCP loopback with length framing (reliable-stream alternative).
    Tcp,
}

/// How many threads service stub channels. Every stub is hosted on a
/// fixed [`StubHost`] pool and every socket channel multiplexed onto a
/// matching pool of poll workers ([`crate::poll::Poller`]), so the thread
/// count is a deployment constant, not a function of fleet size.
/// In-memory channels need no poll worker — the proxy blocks on the reply
/// queue itself ([`crate::poll::QueueTransport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoMode {
    /// Workers per pool, clamped to at least 1. A `Channel` fleet runs on
    /// `io_threads` stub-host threads; the first `Udp`/`Tcp` launch adds
    /// `io_threads` poll threads. Stubs are placed round-robin, so with
    /// at least as many threads as stubs each stub has a thread of its
    /// own and a stalled app delays no neighbour (DESIGN.md §11).
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
    /// Heartbeat staleness threshold.
    pub heartbeat_timeout: Duration,
    /// Stub-side settings used when the proxy spawns the stub itself.
    pub stub: StubConfig,
    /// Size of the stub-host and poll pools; see [`IoMode`].
    pub io: IoMode,
    /// Which runtime worker shard owns this proxy (0 when the runtime is
    /// unsharded). Tags the poll threads' names and poller metric
    /// labels so one shard's I/O is attributable; the proxy's behaviour
    /// is otherwise identical.
    pub worker: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            deliver_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(100),
            stub: StubConfig::default(),
            io: IoMode::default(),
            worker: 0,
        }
    }
}

/// Handle to a registered app.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppHandle(pub usize);

/// Result of delivering an event to an isolated app.
#[derive(Clone, Debug, PartialEq)]
pub enum DeliverOutcome {
    /// The app processed the event; here are its commands.
    Commands(Vec<Command>),
    /// The stub reported the app crashed on this event.
    Crashed { panic_message: String },
    /// No response within the deadline — a communication failure, the
    /// paper's primary crash signal.
    CommFailure,
}

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

/// Time remaining before `deadline`, or `None` once it has passed.
///
/// Every proxy recv loop gates on this so an expired deadline is
/// classified as a timeout exactly once, up front — we never hand a
/// zero-duration timeout to `recv_timeout`.
fn time_left(deadline: Instant) -> Option<Duration> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    (!remaining.is_zero()).then_some(remaining)
}

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
    /// A failure since the last delivery frame: the stub may have missed
    /// any of them, so what it holds is unknown.
    Lost,
    /// Delivery frame `seq` put these views on the wire.
    At {
        seq: u64,
        topology: TopologyView,
        devices: DeviceView,
    },
}

/// Why a slot is being marked failed; picks the counter that moves.
enum Failure {
    Comm,
    Crash,
    HeartbeatMiss,
}

/// An app's metric handles, resolved once when its slot is created so a
/// frame costs atomic adds, not registry lookups.
struct SlotMetrics {
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    events_delivered: Arc<Counter>,
    comm_failures: Arc<Counter>,
    crashes_detected: Arc<Counter>,
    heartbeat_misses: Arc<Counter>,
    view_resyncs: Arc<Counter>,
    /// Proxy-wide (unlabelled): delivery frames that carried full views.
    view_full_frames: Arc<Counter>,
    /// Proxy-wide (unlabelled): delivery frames that carried a diff.
    view_delta_frames: Arc<Counter>,
}

impl SlotMetrics {
    fn resolve(obs: &Obs, app: &str) -> SlotMetrics {
        let counter = |name| obs.counter("appvisor", name, app);
        SlotMetrics {
            bytes_sent: counter("bytes_sent"),
            bytes_received: counter("bytes_received"),
            events_delivered: counter("events_delivered"),
            comm_failures: counter("comm_failures"),
            crashes_detected: counter("crashes_detected"),
            heartbeat_misses: counter("heartbeat_misses"),
            view_resyncs: counter("view_resyncs"),
            view_full_frames: obs.counter("appvisor", "view_full_frames", ""),
            view_delta_frames: obs.counter("appvisor", "view_delta_frames", ""),
        }
    }
}

struct AppSlot {
    name: String,
    subscriptions: Vec<EventKind>,
    transport: Box<dyn Transport>,
    next_seq: u64,
    last_heartbeat: Instant,
    alive: bool,
    stats: AppWireStats,
    metrics: SlotMetrics,
    shipped: Shipped,
    /// Buffer size the next delta frame is written into: the last one's
    /// length rounded up, so a steady-state delivery is one allocation.
    delta_capacity: usize,
    /// Tagged replies that arrived while a *different* tag was being
    /// collected (multi-event in-flight queue; also absorbs datagram
    /// reordering on the UDP transport). Consulted before the transport
    /// on every tagged collect.
    inbox: VecDeque<RpcMessage>,
    /// Tags whose replies will never be collected — the window cancelled
    /// them after an earlier failure. Replies matching these are dropped
    /// on sight; the set is pruned as later tags match (replies are
    /// FIFO per stub, so an entry below a matched tag is unreachable).
    cancelled: BTreeSet<u64>,
}

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
    /// Proxy-side poll workers for socket channels, created on the first
    /// `Udp`/`Tcp` launch (so `set_obs` has already run, and a fleet of
    /// in-memory channels never starts them).
    poller: Option<Poller>,
    /// The pool hosting every launched stub, created on the first launch.
    stub_host: Option<StubHost>,
}

impl AppVisorProxy {
    /// An empty proxy, reporting to [`Obs::global`].
    #[must_use]
    pub fn new(config: ProxyConfig) -> Self {
        AppVisorProxy {
            config,
            apps: Vec::new(),
            obs: Obs::global(),
            poller: None,
            stub_host: None,
        }
    }

    /// Report metrics and journal records to `obs` instead of the global
    /// instance.
    pub fn set_obs(&mut self, obs: Obs) {
        for slot in &mut self.apps {
            slot.metrics = SlotMetrics::resolve(&obs, &slot.name);
        }
        self.obs = obs;
    }

    /// Host `app` behind a stub on the shared worker pool, over the chosen
    /// transport, and register it. The slot gets a blocking facade, so
    /// everything above this seam sees one [`Transport`]: an in-memory
    /// channel's facade is the reply queue itself; a socket's source goes
    /// to the poller, which is the job it exists for (no readiness signal
    /// without epoll).
    pub fn launch_app(
        &mut self,
        app: Box<dyn SdnApp>,
        transport: TransportKind,
    ) -> Result<AppHandle, ProxyError> {
        let io_err = |e: std::io::Error| ProxyError::Transport(TransportError::Io(e.to_string()));
        let io_threads = self.config.io.io_threads;
        let (proxy_side, stub_dx): (Box<dyn Transport>, Duplex) = match transport {
            TransportKind::Channel => {
                let (proxy_side, stub_side) = QueueTransport::pair();
                (Box::new(proxy_side), stub_side.into_duplex())
            }
            TransportKind::Udp | TransportKind::Tcp => {
                let (proxy_dx, stub_dx) = if transport == TransportKind::Udp {
                    udp_duplex_pair().map_err(io_err)?
                } else {
                    tcp_duplex_pair().map_err(io_err)?
                };
                let obs = self.obs.clone();
                let worker = self.config.worker;
                let poller = self
                    .poller
                    .get_or_insert_with(|| Poller::for_worker(io_threads, obs, worker));
                let queue = poller.register(proxy_dx.source);
                (
                    Box::new(PolledTransport::new(proxy_dx.sink, queue)),
                    stub_dx,
                )
            }
        };
        let host = self
            .stub_host
            .get_or_insert_with(|| StubHost::new(io_threads));
        host.spawn(app, stub_dx, self.config.stub.clone())
            .map_err(ProxyError::Transport)?;
        self.register_transport(proxy_side)
    }

    /// Register an app over an already-connected transport (the far end
    /// must be a stub: [`StubHost::spawn`]). Waits for the `Register`
    /// frame; a stub whose app panicked while naming itself sends
    /// `Crashed` in its place.
    pub fn register_transport(
        &mut self,
        mut transport: Box<dyn Transport>,
    ) -> Result<AppHandle, ProxyError> {
        let deadline = Instant::now() + self.config.rpc_timeout;
        loop {
            let Some(remaining) = time_left(deadline) else {
                return Err(ProxyError::RegistrationFailed("no register frame".into()));
            };
            match transport.recv_timeout(remaining) {
                Ok(Some(frame)) => match decode_frame(&frame) {
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
                            last_heartbeat: Instant::now(),
                            alive: true,
                            stats: AppWireStats::default(),
                            shipped: Shipped::Never,
                            delta_capacity: 0,
                            inbox: VecDeque::new(),
                            cancelled: BTreeSet::new(),
                        });
                        return Ok(AppHandle(self.apps.len() - 1));
                    }
                    Ok(RpcMessage::Crashed { panic_message, .. }) => {
                        return Err(ProxyError::RegistrationFailed(panic_message));
                    }
                    _ => {}
                },
                Ok(None) => {}
                Err(e) => return Err(ProxyError::Transport(e)),
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

    /// Deliver an event to an isolated app and wait for its commands.
    pub fn deliver(
        &mut self,
        h: AppHandle,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> Result<DeliverOutcome, ProxyError> {
        let _span = self.obs.span("appvisor.deliver");
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        self.obs.trace_event("send", &slot.name, "rpc");
        let seq =
            deliver_frame(slot, event, topology, devices, now).map_err(ProxyError::Transport)?;
        let deadline = Instant::now() + self.config.deliver_timeout;
        let reply = await_tag(slot, seq, deadline);
        settle_delivery(slot, reply, &self.obs)
    }

    /// Take a checkpoint of the app's state ("the proxy creates a
    /// checkpoint of an SDN-App process prior to dispatching every
    /// message").
    pub fn snapshot(&mut self, h: AppHandle) -> Result<Vec<u8>, ProxyError> {
        let _span = self.obs.span("appvisor.snapshot");
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        slot.next_seq += 1;
        let seq = slot.next_seq;
        send_frame(slot, encode_frame(&RpcMessage::SnapshotRequest { seq }))
            .map_err(ProxyError::Transport)?;
        let deadline = Instant::now() + self.config.rpc_timeout;
        match await_tag(slot, seq, deadline) {
            Ok(Some(RpcMessage::SnapshotReply { bytes, .. })) => Ok(bytes),
            Ok(_) => Err(ProxyError::Timeout),
            Err(e) => Err(ProxyError::Transport(e)),
        }
    }

    /// Restore the app from a checkpoint, reviving it if it was dead (the
    /// CRIU restore analogue).
    pub fn restore(&mut self, h: AppHandle, bytes: &[u8]) -> Result<bool, ProxyError> {
        let _span = self.obs.span("appvisor.restore");
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        slot.next_seq += 1;
        let seq = slot.next_seq;
        let bytes = bytes.to_vec();
        send_frame(
            slot,
            encode_frame(&RpcMessage::RestoreRequest { seq, bytes }),
        )
        .map_err(ProxyError::Transport)?;
        let deadline = Instant::now() + self.config.rpc_timeout;
        match await_tag(slot, seq, deadline) {
            Ok(Some(RpcMessage::RestoreAck { ok, .. })) => {
                // Anything stashed or cancelled predates this restore and
                // can never be collected: the in-flight queue starts clean.
                slot.inbox.clear();
                slot.cancelled.clear();
                if ok {
                    slot.alive = true;
                    slot.stats.restores += 1;
                    slot.last_heartbeat = Instant::now();
                    self.obs.counter("appvisor", "restores", &slot.name).inc();
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
        let sent = deliver_frame(slot, event, topology, devices, now);
        Ok(queued(slot, sent, &self.obs, "send"))
    }

    /// Queue a snapshot request without awaiting the reply. Interleaved
    /// between two queued deliveries it captures the state *between*
    /// those events — exactly the pre-event checkpoint the sequential
    /// protocol takes, collected lazily via
    /// [`AppVisorProxy::collect_snapshot`].
    pub fn queue_snapshot(&mut self, h: AppHandle) -> Result<Option<u64>, ProxyError> {
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        slot.next_seq += 1;
        let seq = slot.next_seq;
        let sent =
            send_frame(slot, encode_frame(&RpcMessage::SnapshotRequest { seq })).map(|()| seq);
        Ok(queued(slot, sent, &self.obs, "snap_send"))
    }

    /// Collect the outcome of a queued delivery. The timeout window opens
    /// *now*, not at send time: a queued stub is legitimately busy with
    /// the deliveries ahead of this one.
    pub fn collect_deliver(
        &mut self,
        h: AppHandle,
        seq: u64,
    ) -> Result<DeliverOutcome, ProxyError> {
        let deadline = Instant::now() + self.config.deliver_timeout;
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        let reply = await_tag(slot, seq, deadline);
        settle_delivery(slot, reply, &self.obs)
    }

    /// Collect the bytes of a queued snapshot request.
    pub fn collect_snapshot(&mut self, h: AppHandle, seq: u64) -> Result<Vec<u8>, ProxyError> {
        let deadline = Instant::now() + self.config.rpc_timeout;
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        match await_tag(slot, seq, deadline) {
            Ok(Some(RpcMessage::SnapshotReply { bytes, .. })) => {
                self.obs.trace_event("snap_collect", &slot.name, "ok");
                Ok(bytes)
            }
            Ok(Some(_) | None) => {
                self.obs.trace_event("snap_collect", &slot.name, "timeout");
                Err(ProxyError::Timeout)
            }
            Err(e) => Err(ProxyError::Transport(e)),
        }
    }

    /// Drop queued-but-uncollected tags after a failure: their replies —
    /// if any ever arrive; a dead stub drops the requests silently — are
    /// discarded on sight, and any already stashed in the inbox are
    /// purged. Must cover every tag of the app's cancelled window slots
    /// before the app is restored and the window refills.
    pub fn cancel_pending(&mut self, h: AppHandle, seqs: &[u64]) -> Result<(), ProxyError> {
        let slot = self.apps.get_mut(h.0).ok_or(ProxyError::UnknownApp)?;
        slot.cancelled.extend(seqs.iter().copied());
        let AppSlot {
            inbox, cancelled, ..
        } = slot;
        inbox.retain(|m| reply_seq(m).is_none_or(|s| !cancelled.contains(&s)));
        Ok(())
    }

    /// Drain pending heartbeats (non-blocking-ish) and return the apps whose
    /// heartbeat is stale — the paper's background crash detector.
    pub fn check_liveness(&mut self) -> Vec<AppHandle> {
        let _span = self.obs.span("appvisor.check_liveness");
        let threshold = self.config.heartbeat_timeout;
        let mut stale = Vec::new();
        for (i, slot) in self.apps.iter_mut().enumerate() {
            // Drain whatever is already queued, without blocking: a sweep
            // must not stall the control loop, however many apps it covers.
            while let Ok(Some(frame)) = slot.transport.try_recv() {
                received(slot, &frame);
                if matches!(decode_frame(&frame), Ok(RpcMessage::Heartbeat { .. })) {
                    slot.last_heartbeat = Instant::now();
                }
            }
            if slot.alive && slot.last_heartbeat.elapsed() > threshold {
                mark_failed(slot, Failure::HeartbeatMiss);
                self.obs.record(RecordKind::HeartbeatMiss {
                    app: slot.name.clone(),
                });
                stale.push(AppHandle(i));
            }
        }
        stale
    }

    /// Shut all stubs down and collect their reports: the stubs get a
    /// grace period to serve their `Shutdown` frames before the host and
    /// poller pools stop.
    pub fn shutdown(mut self) -> Vec<StubReport> {
        for slot in &mut self.apps {
            let _ = slot
                .transport
                .send_owned(encode_frame(&RpcMessage::Shutdown));
        }
        let reports = self
            .stub_host
            .take()
            .map(|host| host.shutdown(Duration::from_secs(2)))
            .unwrap_or_default();
        if let Some(mut poller) = self.poller.take() {
            poller.shutdown();
        }
        reports
    }
}

/// Mark a slot failed. Whatever the reason, the stub may have missed a
/// delivery frame, so the views it was shipped are forgotten and the next
/// delivery carries them whole.
fn mark_failed(slot: &mut AppSlot, why: Failure) {
    slot.alive = false;
    slot.shipped = Shipped::Lost;
    match why {
        Failure::Comm => {
            slot.stats.comm_failures += 1;
            slot.metrics.comm_failures.inc();
        }
        Failure::Crash => {
            slot.stats.crashes_detected += 1;
            slot.metrics.crashes_detected.inc();
        }
        Failure::HeartbeatMiss => slot.metrics.heartbeat_misses.inc(),
    }
}

/// Account and push one encoded request frame.
fn send_frame(slot: &mut AppSlot, frame: Vec<u8>) -> Result<(), TransportError> {
    slot.stats.bytes_sent += frame.len() as u64;
    slot.metrics.bytes_sent.add(frame.len() as u64);
    slot.transport.send_owned(frame)
}

/// Account one received frame.
fn received(slot: &mut AppSlot, frame: &[u8]) {
    slot.stats.bytes_received += frame.len() as u64;
    slot.metrics.bytes_received.add(frame.len() as u64);
}

/// The one delivery-frame builder: tag, build, account and send the
/// frame that delivers `event` under these views, and return its tag.
/// A stub known to hold the views of the previous delivery frame gets the
/// diff against them; otherwise (first contact, or any failure since) the
/// views travel whole. A failed send leaves the shipped views forgotten.
fn deliver_frame(
    slot: &mut AppSlot,
    event: &Event,
    topology: &TopologyView,
    devices: &DeviceView,
    now: SimTime,
) -> Result<u64, TransportError> {
    slot.next_seq += 1;
    let seq = slot.next_seq;
    let frame = match std::mem::replace(&mut slot.shipped, Shipped::Lost) {
        Shipped::At {
            seq: base,
            topology: held,
            devices: held_devices,
        } => {
            slot.metrics.view_delta_frames.inc();
            let frame = encode_deliver_delta(
                seq,
                event,
                base,
                &held.diff(topology),
                &held_devices.diff(devices),
                now,
                slot.delta_capacity,
            );
            slot.delta_capacity = frame.len().next_power_of_two();
            frame
        }
        unknown => {
            slot.metrics.view_full_frames.inc();
            if matches!(unknown, Shipped::Lost) {
                slot.metrics.view_resyncs.inc();
            }
            encode_deliver(seq, event, topology, devices, now, 0)
        }
    };
    send_frame(slot, frame)?;
    slot.shipped = Shipped::At {
        seq,
        topology: topology.clone(),
        devices: devices.clone(),
    };
    Ok(seq)
}

/// The tag of a queued request, or `None` (slot marked failed) when the
/// send itself failed; traced as `phase` either way.
fn queued(
    slot: &mut AppSlot,
    sent: Result<u64, TransportError>,
    obs: &Obs,
    phase: &str,
) -> Option<u64> {
    let tag = sent.map_err(|_| mark_failed(slot, Failure::Comm)).ok();
    let outcome = if tag.is_some() {
        "queued"
    } else {
        "send_failed"
    };
    obs.trace_event(phase, &slot.name, outcome);
    tag
}

/// Classify the reply to a delivery frame (`Ok(None)`: the deadline
/// passed) and book it on the slot.
fn settle_delivery(
    slot: &mut AppSlot,
    reply: Result<Option<RpcMessage>, TransportError>,
    obs: &Obs,
) -> Result<DeliverOutcome, ProxyError> {
    match reply {
        Ok(Some(RpcMessage::EventAck { commands, .. })) => {
            slot.stats.events_delivered += 1;
            slot.last_heartbeat = Instant::now();
            slot.metrics.events_delivered.inc();
            obs.trace_event("collect", &slot.name, "ok");
            Ok(DeliverOutcome::Commands(commands))
        }
        Ok(Some(RpcMessage::Crashed { panic_message, .. })) => {
            mark_failed(slot, Failure::Crash);
            obs.trace_event("collect", &slot.name, "crashed");
            Ok(DeliverOutcome::Crashed { panic_message })
        }
        Ok(Some(_)) | Ok(None) | Err(TransportError::Disconnected) => {
            mark_failed(slot, Failure::Comm);
            obs.trace_event("collect", &slot.name, "comm_failure");
            Ok(DeliverOutcome::CommFailure)
        }
        Err(e) => Err(ProxyError::Transport(e)),
    }
}

/// Await the reply tagged `seq`: inbox first, then the transport.
/// Later tags' replies are stashed in the inbox, cancelled and stale
/// tags are dropped, and the cancelled set is pruned below a matched tag
/// (FIFO replies make those unreachable). `Ok(None)` is a timeout.
fn await_tag(
    slot: &mut AppSlot,
    seq: u64,
    deadline: Instant,
) -> Result<Option<RpcMessage>, TransportError> {
    if let Some(pos) = slot.inbox.iter().position(|m| reply_seq(m) == Some(seq)) {
        let msg = slot.inbox.remove(pos).expect("position is in range");
        slot.cancelled = slot.cancelled.split_off(&seq);
        return Ok(Some(msg));
    }
    loop {
        let Some(remaining) = time_left(deadline) else {
            return Ok(None);
        };
        match slot.transport.recv_timeout(remaining) {
            Ok(Some(frame)) => {
                received(slot, &frame);
                let Ok(msg) = decode_frame(&frame) else {
                    continue;
                };
                if matches!(msg, RpcMessage::Heartbeat { .. }) {
                    slot.last_heartbeat = Instant::now();
                    continue;
                }
                match reply_seq(&msg) {
                    Some(s) if s == seq => {
                        slot.cancelled = slot.cancelled.split_off(&seq);
                        return Ok(Some(msg));
                    }
                    Some(s) if slot.cancelled.contains(&s) => {}
                    // A later tag's reply outran ours (UDP datagrams can
                    // reorder) or sits ahead of a reply we collect later:
                    // keep it for that collect.
                    Some(s) if s > seq => slot.inbox.push_back(msg),
                    // Below the tag we are waiting on: already collected
                    // or pre-restore — stale either way.
                    _ => {}
                }
            }
            Ok(None) => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_controller::app::{Ctx, RestoreError};
    use legosdn_openflow::prelude::*;

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
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_be_bytes().to_vec()
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
            heartbeat_timeout: Duration::from_millis(100),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: true,
            },
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
        p.shutdown();
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
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(100),
            rpc_timeout: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_millis(50),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: false, // dead process mode
            },
            ..Default::default()
        });
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: Some(1),
                }),
                TransportKind::Channel,
            )
            .unwrap();
        assert_eq!(deliver(&mut p, h), DeliverOutcome::CommFailure);
        assert!(!p.is_alive(h).unwrap());
        assert_eq!(p.wire_stats(h).unwrap().comm_failures, 1);
        let _ = p.shutdown();
    }

    #[test]
    fn heartbeat_staleness_detects_silent_death() {
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(200),
            rpc_timeout: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_millis(60),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: false,
            },
            ..Default::default()
        });
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: Some(1),
                }),
                TransportKind::Channel,
            )
            .unwrap();
        // Healthy: heartbeats keep it alive.
        std::thread::sleep(Duration::from_millis(80));
        assert!(p.check_liveness().is_empty());
        // Kill it silently (comm failure on the event), then wait out the
        // heartbeat threshold.
        let _ = deliver(&mut p, h); // CommFailure marks it dead already
        let stale = p.check_liveness();
        assert!(stale.is_empty(), "already marked dead, not re-reported");
        let _ = p.shutdown();
    }

    #[test]
    fn heartbeat_detector_fires_without_delivery() {
        // Crash the app via a delivery on a second proxy-app, then observe
        // staleness on the first... simpler: stop heartbeats by crashing
        // through delivery is the only kill switch we have; instead verify
        // the detector's arithmetic by shrinking the threshold below the
        // heartbeat period.
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(200),
            rpc_timeout: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_millis(1),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(500), // slower than threshold
                report_crashes: true,
            },
            ..Default::default()
        });
        let h = p
            .launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Channel,
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let stale = p.check_liveness();
        assert_eq!(stale, vec![h], "no heartbeat within 1ms threshold");
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
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
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

    #[test]
    fn fanout_delivers_to_all_in_parallel() {
        // Four stubs that each finish the event only once all four are
        // inside it: queueing before collecting must overlap them (one
        // delivery at a time would time out at the rendezvous).
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
    }

    #[test]
    fn work_between_queue_and_collect_overlaps_the_stub() {
        // The dispatch window runs local sandboxes and commits between
        // queueing a delivery and collecting it. The stub must be inside
        // the event while the caller is free: the app only finishes once
        // this thread, having returned from `queue_deliver`, meets it at
        // the rendezvous.
        let mut p = proxy();
        let rendezvous = Arc::new(std::sync::Barrier::new(2));
        let h = p
            .launch_app(
                Box::new(RendezvousApp(Arc::clone(&rendezvous))),
                TransportKind::Channel,
            )
            .unwrap();
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
    }

    #[test]
    fn expired_deadline_is_one_timeout_classification() {
        // A zero deliver timeout means the deadline has already passed when
        // the recv loop starts: it must short-circuit to exactly one
        // CommFailure — one comm_failures increment, no heartbeat-miss
        // double count — without issuing a zero-duration recv.
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::ZERO,
            rpc_timeout: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(10),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: true,
            },
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
        assert_eq!(
            obs.counter("appvisor", "heartbeat_misses", "proxy-test-app")
                .get(),
            0,
            "timeout must not also count as a heartbeat miss"
        );
        let _ = p.shutdown();
    }

    #[test]
    fn expired_rpc_deadline_times_out_snapshot_and_restore() {
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(300),
            rpc_timeout: Duration::ZERO,
            heartbeat_timeout: Duration::from_secs(10),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: true,
            },
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
            .send(&encode_frame(&RpcMessage::Register {
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
            .send(&encode_frame(&RpcMessage::EventAck {
                seq: d2,
                commands: vec![],
            }))
            .unwrap();
        stub_side
            .send(&encode_frame(&RpcMessage::Crashed {
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
        p.cancel_pending(h, &tags[2..]).unwrap();
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
            heartbeat_timeout: Duration::from_millis(100),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(10),
                report_crashes: true,
            },
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
        for kind in [TransportKind::Udp, TransportKind::Tcp] {
            let mut p = polled_proxy(1);
            let h = p
                .launch_app(
                    Box::new(TestApp {
                        count: 0,
                        crash_on_count: None,
                    }),
                    kind,
                )
                .unwrap();
            match deliver(&mut p, h) {
                DeliverOutcome::Commands(cmds) => assert_eq!(cmds.len(), 1),
                other => panic!("unexpected {other:?} over {kind:?}"),
            }
            let reports = p.shutdown();
            assert_eq!(reports.len(), 1, "over {kind:?}");
        }
    }

    #[test]
    fn only_polled_socket_launches_start_the_poller() {
        // An in-memory channel's proxy side blocks on the reply queue
        // itself; the `appvisor-poll-*` threads exist for sockets.
        let app = || {
            Box::new(TestApp {
                count: 0,
                crash_on_count: None,
            })
        };
        // Shard 41 names its poll threads `appvisor-poll-w41-*`, which no
        // other test in this process does; the kernel keeps 15 bytes.
        let poll_threads = || {
            std::fs::read_dir("/proc/self/task")
                .expect("linux procfs")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == "appvisor-poll-w")
                .count()
        };
        let obs = Obs::new();
        let mut p = polled_proxy(1);
        p.config.worker = 41;
        p.set_obs(obs.clone());
        let wakeups = obs.counter("appvisor", "poller_wakeups", "w41.0");
        let channel = p.launch_app(app(), TransportKind::Channel).unwrap();
        assert!(matches!(
            deliver(&mut p, channel),
            DeliverOutcome::Commands(_)
        ));
        assert_eq!(poll_threads(), 0, "a Channel launch started poll threads");
        assert_eq!(wakeups.get(), 0);
        let udp = p.launch_app(app(), TransportKind::Udp).unwrap();
        assert_eq!(poll_threads(), 1, "a Udp launch needs the poller");
        assert!(matches!(deliver(&mut p, udp), DeliverOutcome::Commands(_)));
        assert!(wakeups.get() > 0, "socket scans are still counted");
        assert_eq!(p.shutdown().len(), 2);
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

    #[test]
    fn liveness_sweep_is_sub_millisecond_across_many_socket_apps() {
        // Regression for a 1µs recv_timeout in check_liveness that cost a
        // millisecond of blocking per socket app, so a 16-app sweep cost
        // ≥16ms. The try_recv drain must keep a sweep under a millisecond
        // regardless of app count.
        let mut p = AppVisorProxy::new(ProxyConfig {
            deliver_timeout: Duration::from_millis(300),
            rpc_timeout: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(10),
            stub: StubConfig {
                heartbeat_period: Duration::from_millis(50),
                report_crashes: true,
            },
            ..Default::default()
        });
        for _ in 0..16 {
            p.launch_app(
                Box::new(TestApp {
                    count: 0,
                    crash_on_count: None,
                }),
                TransportKind::Udp,
            )
            .unwrap();
        }
        // Best of several sweeps, so scheduler noise cannot fail the
        // assertion: the old code floor was 16ms on *every* sweep.
        let best = (0..5)
            .map(|_| {
                let start = Instant::now();
                let stale = p.check_liveness();
                assert!(stale.is_empty());
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            best < Duration::from_millis(1),
            "liveness sweep took {best:?}; the non-blocking drain is broken"
        );
        let _ = p.shutdown();
    }
}
