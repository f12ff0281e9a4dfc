//! The stub I/O model (DESIGN.md §11): every [`Transport`] the proxy
//! drives is implemented here, and *all* stub channels are served from a
//! small fixed pool of threads — a thread per stub would cap the fleet at
//! hundreds of apps:
//!
//! - a transport is split into a non-blocking [`FrameSink`] /
//!   [`FrameSource`] pair ([`Duplex`]);
//! - stub-side, [`crate::stub::StubHost`] level-scans the sources of the
//!   stubs it hosts, so 1000 apps need a handful of threads, not 1000;
//! - proxy-side, an in-memory channel needs no thread at all: a
//!   [`QueueTransport`] is a blocking [`Transport`] straight over the
//!   queue the stub host writes its replies into, so a reply crosses one
//!   thread boundary (stub host → proxy) and wakes the proxy only if it
//!   is asleep on that queue;
//! - sockets have no such queue to sleep on, so a [`Poller`] owns their
//!   proxy-side sources: each worker scans its sockets with `try_recv`
//!   and demultiplexes complete frames into per-slot [`FrameQueue`]s, and
//!   a [`PolledTransport`] wraps one sink + one such queue.
//!
//! Both facades implement the blocking [`Transport`] trait, which is all
//! that anything above the proxy seam — the tagged `inbox`/`cancelled`
//! machinery, windowed dispatch in `core/runtime.rs`, the determinism
//! oracle — ever sees.
//!
//! There is no epoll in `std`, so readiness is a level-triggered scan:
//! an in-memory queue read by a scanning worker carries that worker's
//! [`PollWaker`] (a generation-counted condvar) and wakes it on every
//! send — the latency of that path is a condvar signal, not a poll
//! interval. Sockets have no waker, so their workers park briefly between
//! empty scans; the park is bounded and amortized across every source on
//! the worker.
//!
//! Every signal here is **park-aware** (`ParkLock`): a producer issues
//! the condvar notify — a futex syscall in std whether or not anyone
//! waits — only when the consumer has recorded, under the same mutex,
//! that it is asleep.

use crate::transport::{Transport, TransportError};
use legosdn_obs::Obs;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a non-blocking sink retries a `WouldBlock` send before
/// declaring the transport wedged. Loopback buffers drain in microseconds;
/// a full second means the far end is gone or livelocked.
const SINK_RETRY: Duration = Duration::from_secs(1);

/// Park interval for workers whose sources all carry wakers (in-memory
/// queues): the waker ends the park early on traffic, so this only bounds
/// how often an idle worker rescans.
const PARK_WAKERED: Duration = Duration::from_millis(5);

/// Park interval when any source is a socket (no readiness signal
/// available without epoll): bounds the added latency of the polled
/// socket path.
const PARK_SCANNED: Duration = Duration::from_micros(100);

/// A value behind a mutex and condvar that know whether the value's one
/// consumer is asleep.
///
/// The consumer sets `parked` under the mutex immediately before the
/// condvar wait releases it, and clears it on the way out. A producer
/// changes the value under the same mutex and notifies only if it found
/// `parked` set — taking the flag, so a burst of updates behind one
/// sleeper costs one notify. No wakeup is lost: a consumer that is not
/// parked either holds the mutex or has yet to take it, and in both cases
/// looks at the value again before it sleeps.
///
/// One consumer at a time (every user here has exactly one: a worker on
/// its own waker, a proxy on its own slot); any number of producers.
struct ParkLock<T> {
    state: Mutex<ParkState<T>>,
    cv: Condvar,
}

struct ParkState<T> {
    value: T,
    parked: bool,
}

impl<T> ParkLock<T> {
    fn new(value: T) -> ParkLock<T> {
        ParkLock {
            state: Mutex::new(ParkState {
                value,
                parked: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Every critical section below is a queue push/pop, a counter bump
    /// or a flag store — valid at every step — so a poisoned guard (some
    /// holder's closure panicked) is taken over rather than propagated:
    /// `close` runs from `Drop`, where a second panic would abort.
    fn lock(&self) -> MutexGuard<'_, ParkState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Producer side: change the value, then wake the consumer if it is
    /// parked.
    fn update<R>(&self, change: impl FnOnce(&mut T) -> R) -> R {
        let (out, wake) = {
            let mut state = self.lock();
            let out = change(&mut state.value);
            (out, std::mem::take(&mut state.parked))
        };
        if wake {
            self.cv.notify_all();
        }
        out
    }

    /// Consumer side, non-blocking: look at (or take from) the value.
    fn peek<R>(&self, look: impl FnOnce(&mut T) -> R) -> R {
        look(&mut self.lock().value)
    }

    /// Consumer side: park until `ready` yields something or `timeout`
    /// elapses. `ready` runs under the mutex, first before any wait.
    fn wait<R>(&self, timeout: Duration, mut ready: impl FnMut(&mut T) -> Option<R>) -> Option<R> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(out) = ready(&mut state.value) {
                return Some(out);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            state.parked = true;
            state = self
                .cv
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.parked = false;
        }
    }
}

/// A generation-counted condvar: the readiness signal for sources that
/// can produce one (in-memory queues). `wake` is cheap and never blocks
/// behind the worker; a worker that reads the generation *before*
/// scanning and waits for it to move afterwards cannot miss a wakeup
/// that raced its scan.
pub struct PollWaker {
    generation: ParkLock<u64>,
}

impl PollWaker {
    pub(crate) fn new() -> Arc<PollWaker> {
        Arc::new(PollWaker {
            generation: ParkLock::new(0),
        })
    }

    /// Signal that a source may have become ready.
    pub fn wake(&self) {
        self.generation.update(|generation| *generation += 1);
    }

    /// The generation to pass to [`PollWaker::wait_past`]. Read this
    /// *before* scanning sources.
    pub(crate) fn current(&self) -> u64 {
        self.generation.peek(|generation| *generation)
    }

    /// Park until the generation moves past `seen` or `timeout` elapses.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) {
        let _ = self
            .generation
            .wait(timeout, |generation| (*generation != seen).then_some(()));
    }
}

/// The write half of a split transport. Must not block indefinitely:
/// implementations bound `WouldBlock` retries by [`SINK_RETRY`].
pub trait FrameSink: Send {
    /// Send one frame.
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Send one frame the caller is done with. A sink that queues frames
    /// in memory keeps the buffer instead of copying it; a socket writes
    /// the bytes out either way.
    fn send_owned(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.send(&bytes)
    }
}

/// The read half of a split transport, drained by a poll worker.
pub trait FrameSource: Send {
    /// Pop one complete frame if available, never blocking.
    /// `Err(Disconnected)` is terminal: the worker drops the source.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Install the owning worker's waker, if this source can signal
    /// readiness (in-memory queues can; sockets cannot without epoll).
    fn set_waker(&mut self, _waker: Arc<PollWaker>) {}

    /// Does this source signal readiness via a waker? Workers whose
    /// sources all say yes park long between scans; any `false` forces
    /// the short scan interval.
    fn has_waker(&self) -> bool {
        false
    }
}

/// One direction's sink + the other direction's source: half of a split
/// bidirectional transport.
pub struct Duplex {
    pub sink: Box<dyn FrameSink>,
    pub source: Box<dyn FrameSource>,
}

// ---------------------------------------------------------------------
// In-memory frame queues: one direction of a queue duplex, or the
// per-slot target a poll worker demultiplexes a socket into.
// ---------------------------------------------------------------------

struct Frames {
    queue: VecDeque<Vec<u8>>,
    closed: bool,
}

impl Frames {
    /// The next frame; the end of the stream once the queue has drained;
    /// `None` while it is merely empty.
    fn pop(&mut self) -> Option<Result<Vec<u8>, TransportError>> {
        match self.queue.pop_front() {
            Some(frame) => Some(Ok(frame)),
            None => self.closed.then_some(Err(TransportError::Disconnected)),
        }
    }
}

/// A FIFO of frames between one producer side and one consumer. The
/// consumer either blocks on the queue itself ([`QueueTransport`],
/// [`PolledTransport`]: `pop_wait` parks on the queue's condvar, not on a
/// socket, so the proxy's recv loops work unchanged) or scans it from a
/// worker whose [`PollWaker`] the queue then carries. Queued frames drain
/// before a close is reported, and a close wakes a parked consumer.
pub struct FrameQueue {
    frames: ParkLock<Frames>,
    /// The scanning worker to wake, for a queue read with `try_pop` from
    /// a scan loop. A source belongs to one worker for its whole life.
    waker: OnceLock<Arc<PollWaker>>,
}

impl FrameQueue {
    fn new() -> Arc<FrameQueue> {
        Arc::new(FrameQueue {
            frames: ParkLock::new(Frames {
                queue: VecDeque::new(),
                closed: false,
            }),
            waker: OnceLock::new(),
        })
    }

    fn wake_scanner(&self) {
        if let Some(waker) = self.waker.get() {
            waker.wake();
        }
    }

    fn push(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.frames.update(|frames| {
            if frames.closed {
                return Err(TransportError::Disconnected);
            }
            frames.queue.push_back(frame);
            Ok(())
        })?;
        self.wake_scanner();
        Ok(())
    }

    fn close(&self) {
        self.frames.update(|frames| frames.closed = true);
        self.wake_scanner();
    }

    fn try_pop(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.frames.peek(Frames::pop).transpose()
    }

    fn pop_wait(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        self.frames.wait(timeout, Frames::pop).transpose()
    }
}

struct QueueSink {
    shared: Arc<FrameQueue>,
}

impl FrameSink for QueueSink {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.shared.push(bytes.to_vec())
    }

    fn send_owned(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.shared.push(bytes)
    }
}

impl Drop for QueueSink {
    fn drop(&mut self) {
        self.shared.close();
    }
}

struct QueueSource {
    shared: Arc<FrameQueue>,
}

impl FrameSource for QueueSource {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.shared.try_pop()
    }

    fn set_waker(&mut self, waker: Arc<PollWaker>) {
        // First registration wins; see `FrameQueue::waker`.
        let _ = self.shared.waker.set(waker);
    }

    fn has_waker(&self) -> bool {
        true
    }
}

impl Drop for QueueSource {
    fn drop(&mut self) {
        self.shared.close();
    }
}

/// One side of an in-memory duplex as a blocking [`Transport`]: sends
/// move the frame into the far side's queue, receives park on this
/// side's own queue. No thread sits in between — the far side's send is
/// what wakes a parked `recv_timeout`, and only then; dropping or closing
/// the far side wakes it too, as [`TransportError::Disconnected`].
pub struct QueueTransport {
    sink: QueueSink,
    source: QueueSource,
}

impl QueueTransport {
    /// A connected pair: frames sent on one side arrive on the other.
    #[must_use]
    pub fn pair() -> (QueueTransport, QueueTransport) {
        let ab = FrameQueue::new(); // a → b
        let ba = FrameQueue::new(); // b → a
        let side = |out: &Arc<FrameQueue>, inn: &Arc<FrameQueue>| QueueTransport {
            sink: QueueSink {
                shared: out.clone(),
            },
            source: QueueSource {
                shared: inn.clone(),
            },
        };
        (side(&ab, &ba), side(&ba, &ab))
    }

    /// This side as a non-blocking sink/source pair, for a scanning
    /// worker ([`crate::stub::StubHost`], [`Poller`]) to drive.
    #[must_use]
    pub fn into_duplex(self) -> Duplex {
        Duplex {
            sink: Box::new(self.sink),
            source: Box::new(self.source),
        }
    }
}

impl Transport for QueueTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.sink.send(bytes)
    }

    fn send_owned(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.sink.send_owned(bytes)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        self.source.shared.pop_wait(timeout)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.source.shared.try_pop()
    }
}

/// A connected pair of in-memory duplexes: frames written to one side's
/// sink pop out of the other side's source, waking its worker.
#[must_use]
pub fn queue_duplex_pair() -> (Duplex, Duplex) {
    let (a, b) = QueueTransport::pair();
    (a.into_duplex(), b.into_duplex())
}

// ---------------------------------------------------------------------
// Socket duplexes. `try_clone` shares the underlying file description,
// so O_NONBLOCK set for the source applies to the sink clone as well —
// sinks therefore handle WouldBlock with a bounded retry loop.
// ---------------------------------------------------------------------

fn retry_park(deadline: Instant) -> Result<(), TransportError> {
    if Instant::now() >= deadline {
        return Err(TransportError::Io("non-blocking send stalled".into()));
    }
    std::thread::sleep(Duration::from_micros(50));
    Ok(())
}

struct UdpSink {
    socket: UdpSocket,
}

impl FrameSink for UdpSink {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if bytes.len() > crate::transport::MAX_DATAGRAM {
            return Err(TransportError::Io(format!(
                "frame of {} bytes exceeds datagram limit {}",
                bytes.len(),
                crate::transport::MAX_DATAGRAM
            )));
        }
        let deadline = Instant::now() + SINK_RETRY;
        loop {
            match self.socket.send(bytes) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == ErrorKind::WouldBlock => retry_park(deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }
}

struct UdpSource {
    socket: UdpSocket,
    buf: Vec<u8>,
}

impl FrameSource for UdpSource {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.socket.recv(&mut self.buf) {
            Ok(n) => Ok(Some(self.buf[..n].to_vec())),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(TransportError::Io(e.to_string())),
        }
    }
}

/// A connected pair of non-blocking UDP loopback duplexes.
pub fn udp_duplex_pair() -> std::io::Result<(Duplex, Duplex)> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.connect(b.local_addr()?)?;
    b.connect(a.local_addr()?)?;
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    let duplex = |socket: UdpSocket| -> std::io::Result<Duplex> {
        Ok(Duplex {
            sink: Box::new(UdpSink {
                socket: socket.try_clone()?,
            }),
            source: Box::new(UdpSource {
                socket,
                buf: vec![0u8; crate::transport::MAX_DATAGRAM],
            }),
        })
    };
    Ok((duplex(a)?, duplex(b)?))
}

struct TcpSink {
    stream: TcpStream,
    /// Staging buffer so header + payload go down the nonblocking stream
    /// as one resumable write.
    staged: Vec<u8>,
}

impl FrameSink for TcpSink {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.staged.clear();
        self.staged
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.staged.extend_from_slice(bytes);
        let deadline = Instant::now() + SINK_RETRY;
        let mut written = 0usize;
        while written < self.staged.len() {
            match self.stream.write(&self.staged[written..]) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => retry_park(deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::BrokenPipe
                        || e.kind() == ErrorKind::ConnectionReset =>
                {
                    return Err(TransportError::Disconnected)
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        Ok(())
    }
}

struct TcpSource {
    stream: TcpStream,
    framer: crate::transport::TcpFramer,
}

impl FrameSource for TcpSource {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(frame) = self.framer.take() {
            return Ok(Some(frame));
        }
        self.framer.compact();
        let mut chunk = [0u8; 16 * 1024];
        let mut res = Ok(());
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    res = Err(TransportError::Disconnected);
                    break;
                }
                Ok(n) => self.framer.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    break
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                    res = Err(TransportError::Disconnected);
                    break;
                }
                Err(e) => {
                    res = Err(TransportError::Io(e.to_string()));
                    break;
                }
            }
        }
        // Deliver buffered frames before surfacing a terminal error.
        if let Some(frame) = self.framer.take() {
            return Ok(Some(frame));
        }
        res.map(|()| None)
    }
}

/// A connected pair of non-blocking TCP loopback duplexes with `u32 LE`
/// length framing.
pub fn tcp_duplex_pair() -> std::io::Result<(Duplex, Duplex)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let client = TcpStream::connect(addr)?;
    let (server, _) = listener.accept()?;
    let duplex = |stream: TcpStream| -> std::io::Result<Duplex> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Duplex {
            sink: Box::new(TcpSink {
                stream: stream.try_clone()?,
                staged: Vec::new(),
            }),
            source: Box::new(TcpSource {
                stream,
                framer: crate::transport::TcpFramer::default(),
            }),
        })
    };
    Ok((duplex(client)?, duplex(server)?))
}

// ---------------------------------------------------------------------
// Blocking facade over a poller-owned source.
// ---------------------------------------------------------------------

/// Blocking [`Transport`] facade over a split transport whose source is
/// owned by a [`Poller`]: sends go straight down the sink; receives park
/// on the [`FrameQueue`] the poll worker fills.
pub struct PolledTransport {
    sink: Box<dyn FrameSink>,
    queue: Arc<FrameQueue>,
}

impl PolledTransport {
    #[must_use]
    pub fn new(sink: Box<dyn FrameSink>, queue: Arc<FrameQueue>) -> Self {
        PolledTransport { sink, queue }
    }
}

impl Transport for PolledTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.sink.send(bytes)
    }

    fn send_owned(&mut self, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.sink.send_owned(bytes)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        self.queue.pop_wait(timeout)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.queue.try_pop()
    }
}

// ---------------------------------------------------------------------
// The poller.
// ---------------------------------------------------------------------

struct Registration {
    source: Box<dyn FrameSource>,
    queue: Arc<FrameQueue>,
}

struct Worker {
    waker: Arc<PollWaker>,
    inject: Arc<Mutex<Vec<Registration>>>,
    thread: Option<JoinHandle<()>>,
}

/// A fixed pool of I/O threads level-scanning registered sources and
/// demultiplexing their frames into per-slot queues. Registrations are
/// spread round-robin; a worker's scan cost is amortized across all its
/// sources, so the thread count is a deployment constant, not a function
/// of fleet size.
pub struct Poller {
    workers: Vec<Worker>,
    next: AtomicUsize,
    stop: Arc<AtomicBool>,
}

impl Poller {
    /// Start `io_threads` poll workers (clamped to at least 1) reporting
    /// wakeup/ready-set metrics to `obs`.
    #[must_use]
    pub fn new(io_threads: usize, obs: Obs) -> Poller {
        Poller::for_worker(io_threads, obs, 0)
    }

    /// [`Poller::new`] tagged with the runtime worker shard that owns it:
    /// shard 0 keeps the historical `appvisor-poll-{i}` thread names and
    /// `w{i}` metric labels; shard *s* > 0 gets `appvisor-poll-w{s}-{i}`
    /// threads and `w{s}.{i}` labels so per-shard I/O is attributable.
    #[must_use]
    pub fn for_worker(io_threads: usize, obs: Obs, shard: usize) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..io_threads.max(1))
            .map(|i| {
                let waker = PollWaker::new();
                let inject: Arc<Mutex<Vec<Registration>>> = Arc::new(Mutex::new(Vec::new()));
                let (thread_name, label) = if shard == 0 {
                    (format!("appvisor-poll-{i}"), format!("w{i}"))
                } else {
                    (
                        format!("appvisor-poll-w{shard}-{i}"),
                        format!("w{shard}.{i}"),
                    )
                };
                let thread = {
                    let waker = waker.clone();
                    let inject = inject.clone();
                    let stop = stop.clone();
                    let obs = obs.clone();
                    std::thread::Builder::new()
                        .name(thread_name)
                        .spawn(move || worker_loop(&waker, &inject, &stop, &obs, &label))
                        .expect("spawn poll worker")
                };
                Worker {
                    waker,
                    inject,
                    thread: Some(thread),
                }
            })
            .collect();
        Poller {
            workers,
            next: AtomicUsize::new(0),
            stop,
        }
    }

    /// Hand a source to a poll worker (round-robin) and get back the slot
    /// queue its frames will land in.
    pub fn register(&self, mut source: Box<dyn FrameSource>) -> Arc<FrameQueue> {
        let queue = FrameQueue::new();
        let worker = &self.workers[self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len()];
        source.set_waker(worker.waker.clone());
        worker.inject.lock().unwrap().push(Registration {
            source,
            queue: queue.clone(),
        });
        worker.waker.wake();
        queue
    }

    /// Stop and join all workers. Undelivered frames still queued in
    /// slot queues remain poppable; sources are dropped.
    pub fn shutdown(&mut self) {
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

impl Drop for Poller {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    waker: &Arc<PollWaker>,
    inject: &Arc<Mutex<Vec<Registration>>>,
    stop: &Arc<AtomicBool>,
    obs: &Obs,
    label: &str,
) {
    let wakeups = obs.counter("appvisor", "poller_wakeups", label);
    let ready_hist = obs.histogram("appvisor", "poller_ready_set", label);
    let mut sources: Vec<Registration> = Vec::new();
    loop {
        // Read the generation BEFORE scanning: a send racing the scan
        // bumps it, so the post-scan park returns immediately instead of
        // sleeping on a frame that already arrived.
        let seen = waker.current();
        {
            let mut pending = inject.lock().unwrap();
            sources.append(&mut pending);
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Counted before demuxing, so the metric is never behind the
        // frames a consumer can already see.
        wakeups.inc();
        let mut ready = 0u64;
        sources.retain_mut(|reg| loop {
            match reg.source.try_recv() {
                Ok(Some(frame)) => {
                    ready += 1;
                    // Only this worker closes the slot queue, below.
                    let _ = reg.queue.push(frame);
                }
                Ok(None) => return true,
                Err(_) => {
                    reg.queue.close();
                    return false;
                }
            }
        });
        ready_hist.observe(ready);
        if ready == 0 {
            let park = if sources.iter().all(|r| r.source.has_waker()) {
                PARK_WAKERED
            } else {
                PARK_SCANNED
            };
            waker.wait_past(seen, park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wrap a duplex pair into blocking transports backed by a poller on
    /// each side, so the transport conformance suite runs unchanged over
    /// the polled path.
    fn polled_pair(
        poller_a: &Poller,
        poller_b: &Poller,
        (a, b): (Duplex, Duplex),
    ) -> (PolledTransport, PolledTransport) {
        let qa = poller_a.register(a.source);
        let qb = poller_b.register(b.source);
        (
            PolledTransport::new(a.sink, qa),
            PolledTransport::new(b.sink, qb),
        )
    }

    fn conformance(pair: (Duplex, Duplex)) {
        let pa = Poller::new(1, Obs::new());
        let pb = Poller::new(1, Obs::new());
        let (a, b) = polled_pair(&pa, &pb, pair);
        crate::transport::tests::exercise(a, b);
    }

    #[test]
    fn polled_queue_transport_conforms() {
        conformance(queue_duplex_pair());
    }

    #[test]
    fn direct_queue_transport_conforms() {
        let (a, b) = QueueTransport::pair();
        crate::transport::tests::exercise(a, b);
    }

    #[test]
    fn polled_udp_transport_conforms() {
        conformance(udp_duplex_pair().expect("loopback sockets"));
    }

    #[test]
    fn polled_tcp_transport_conforms() {
        conformance(tcp_duplex_pair().expect("loopback sockets"));
    }

    #[test]
    fn polled_tcp_carries_large_frames() {
        let pa = Poller::new(1, Obs::new());
        let pb = Poller::new(1, Obs::new());
        let (mut a, mut b) = polled_pair(&pa, &pb, tcp_duplex_pair().unwrap());
        let big = vec![0xcdu8; 1_000_000];
        a.send(&big).unwrap();
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got, big);
    }

    #[test]
    fn polled_disconnect_reaches_the_slot_queue() {
        let p = Poller::new(1, Obs::new());
        let (a, b) = queue_duplex_pair();
        let qa = p.register(a.source);
        let mut ta = PolledTransport::new(a.sink, qa);
        // Far end sends one frame then hangs up: the frame must drain
        // before the disconnect is reported.
        let mut sink_b = b.sink;
        sink_b.send(b"last words").unwrap();
        drop(sink_b);
        drop(b.source);
        assert_eq!(
            ta.recv_timeout(Duration::from_secs(1)).unwrap().unwrap(),
            b"last words"
        );
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            match ta.recv_timeout(Duration::from_millis(10)) {
                Err(TransportError::Disconnected) => break,
                Ok(None) => assert!(Instant::now() < deadline, "disconnect never surfaced"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn polled_ordering_across_many_sources_on_one_worker() {
        // One worker multiplexes many sources; per-source FIFO order must
        // survive the demux.
        let p = Poller::new(1, Obs::new());
        let n_sources = 32;
        let per_source = 50u32;
        let mut far_sinks = Vec::new();
        let mut transports = Vec::new();
        for _ in 0..n_sources {
            let (a, b) = queue_duplex_pair();
            let q = p.register(a.source);
            transports.push(PolledTransport::new(a.sink, q));
            far_sinks.push(b.sink);
            // b.source intentionally dropped: we only push toward the poller.
        }
        for i in 0..per_source {
            for sink in &mut far_sinks {
                sink.send(&i.to_le_bytes()).unwrap();
            }
        }
        for t in &mut transports {
            for i in 0..per_source {
                let got = t.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
                assert_eq!(got, i.to_le_bytes());
            }
        }
    }

    #[test]
    fn poller_reports_wakeup_metrics() {
        let obs = Obs::new();
        let p = Poller::new(1, obs.clone());
        let (a, b) = queue_duplex_pair();
        let q = p.register(a.source);
        let mut t = PolledTransport::new(a.sink, q);
        let mut sink_b = b.sink;
        sink_b.send(b"ping").unwrap();
        assert!(t.recv_timeout(Duration::from_secs(1)).unwrap().is_some());
        assert!(
            obs.counter("appvisor", "poller_wakeups", "w0").get() > 0,
            "worker scans are counted"
        );
    }

    #[test]
    fn direct_disconnect_wakes_a_waiting_receiver_at_once() {
        // The far side vanishes while this side is parked on a 2 s
        // deadline: the close itself must end the park.
        let (mut a, b) = QueueTransport::pair();
        let parked = Arc::new(std::sync::Barrier::new(2));
        let dropper = {
            let parked = parked.clone();
            std::thread::spawn(move || {
                parked.wait();
                // Let the receiver get from the barrier into its park.
                std::thread::sleep(Duration::from_millis(20));
                let at = Instant::now();
                drop(b);
                at
            })
        };
        parked.wait();
        let got = a.recv_timeout(Duration::from_secs(2));
        let woke = Instant::now();
        assert_eq!(got, Err(TransportError::Disconnected));
        let dropped = dropper.join().unwrap();
        assert!(
            woke.saturating_duration_since(dropped) < Duration::from_millis(50),
            "disconnect took {:?} to surface",
            woke.saturating_duration_since(dropped)
        );
    }

    #[test]
    fn direct_queued_frames_drain_before_the_disconnect() {
        let (mut a, mut b) = QueueTransport::pair();
        b.send(b"last words").unwrap();
        drop(b);
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)).unwrap().unwrap(),
            b"last words"
        );
        assert_eq!(a.try_recv(), Err(TransportError::Disconnected));
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)),
            Err(TransportError::Disconnected)
        );
        assert_eq!(a.send(b"anyone?"), Err(TransportError::Disconnected));
    }

    const STRESS_FRAMES: u64 = 200_000;

    /// One producer, one consumer that parks whenever it finds nothing:
    /// every `recv_timeout(2 s)` must return the next frame before its
    /// deadline. A producer that skipped a notify the consumer needed
    /// shows up as a park that ran the full 2 s.
    fn lost_wake_stress(mut tx: impl Transport + 'static, mut rx: impl Transport) {
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let producer = {
            let consumed = consumed.clone();
            std::thread::spawn(move || {
                for i in 0..STRESS_FRAMES {
                    // Every few frames let the consumer catch up, so the
                    // next send races it between "found nothing" and
                    // "parked" — tens of thousands of times a run.
                    if i % 7 == 0 {
                        while consumed.load(Ordering::SeqCst) < i {
                            std::thread::yield_now();
                        }
                    }
                    tx.send_owned(i.to_le_bytes().to_vec()).unwrap();
                }
                tx // keep the far side open until the consumer is done
            })
        };
        for i in 0..STRESS_FRAMES {
            // A park that runs out its deadline re-checks the queue on
            // the way out, so a lost wakeup reads as a late frame, not a
            // missing one: time the call as well.
            let start = Instant::now();
            let frame = rx
                .recv_timeout(Duration::from_secs(2))
                .expect("transport alive");
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "frame {i} waited out its deadline: a wakeup was lost"
            );
            assert_eq!(frame.expect("within the deadline"), i.to_le_bytes());
            consumed.store(i + 1, Ordering::SeqCst);
        }
        drop(producer.join().unwrap());
    }

    #[test]
    fn lost_wake_stress_direct_queue() {
        let (a, b) = QueueTransport::pair();
        lost_wake_stress(a, b);
    }

    #[test]
    fn lost_wake_stress_slot_queue_behind_a_poller() {
        // Producer → queue source → poll worker (parks on its waker) →
        // slot queue → consumer (parks on the slot queue): both hops.
        let p = Poller::new(1, Obs::new());
        let (tx, b) = QueueTransport::pair();
        let b = b.into_duplex();
        let rx = PolledTransport::new(b.sink, p.register(b.source));
        lost_wake_stress(tx, rx);
    }

    #[test]
    fn lost_wake_stress_poll_waker() {
        // The worker protocol: read the generation, look for work, park
        // past the generation read. Work is a counter bumped before the
        // wake; a park that runs out its 2 s lost that wake.
        let waker = PollWaker::new();
        let produced = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let producer = {
            let (waker, produced, consumed) = (waker.clone(), produced.clone(), consumed.clone());
            std::thread::spawn(move || {
                for i in 0..STRESS_FRAMES {
                    // As in `lost_wake_stress`: race the consumer's park.
                    if i % 7 == 0 {
                        while consumed.load(Ordering::SeqCst) < i {
                            std::thread::yield_now();
                        }
                    }
                    produced.fetch_add(1, Ordering::SeqCst);
                    waker.wake();
                }
            })
        };
        let mut taken = 0;
        while taken < STRESS_FRAMES {
            let seen = waker.current();
            let available = produced.load(Ordering::SeqCst);
            if available > taken {
                taken = available;
                consumed.store(taken, Ordering::SeqCst);
                continue;
            }
            let start = Instant::now();
            waker.wait_past(seen, Duration::from_secs(2));
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "parked through a wake after {taken} items"
            );
        }
        producer.join().unwrap();
    }

    #[test]
    fn waker_wait_past_does_not_miss_a_racing_wake() {
        let w = PollWaker::new();
        let seen = w.current();
        w.wake(); // races "between scan and park"
        let start = Instant::now();
        w.wait_past(seen, Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "pre-park wake must end the park immediately"
        );
    }
}
