//! The stub I/O model (DESIGN.md §11): the two [`Transport`]s, one type
//! per medium used at both ends of a channel, and the readiness signal
//! that lets a stub host sleep. *All* stub channels are served from a
//! small fixed pool of threads — a thread per stub would cap the fleet at
//! hundreds of apps:
//!
//! - stub-side, [`crate::stub::StubHost`] level-scans the transports of
//!   the stubs it hosts with `try_recv`, so 1000 apps need a handful of
//!   threads, not 1000;
//! - proxy-side, no thread sits in between: the proxy blocks on its own
//!   end until the request's deadline. A [`QueueTransport`] parks on the
//!   queue the stub host writes its replies into; a [`UdpTransport`]
//!   blocks in a timed `recv` on its own socket. Either way a reply
//!   crosses one thread boundary (stub host → proxy).
//!
//! There is no epoll in `std`, so the stub host's readiness is a
//! level-triggered scan: an in-memory queue read by a scanning worker
//! carries that worker's [`PollWaker`] (a generation-counted condvar).
//! The end that writes into it rings that waker only when it will wait:
//! a send rings when the sender holds no unread frame, and a
//! `recv_until` that finds nothing rings before it parks. An unread
//! reply proves the host is ahead, and the sender reads it before it
//! can need the new frame's reply, so a window of sends behind unread
//! replies costs a stub's worker one wake per batch the proxy drains,
//! not one per frame. A worker that hosts every stub is woken by the
//! proxy's wait on any of them; with a worker per stub, a stub's frames
//! wait for the proxy's wait on that stub (DESIGN.md §11 measures both).
//! A worker whose channels all carry its waker parks until it is rung,
//! with no timer behind the rule. Sockets have no waker, so a worker
//! hosting one parks briefly between empty scans.
//!
//! Every signal here is **park-aware** (`ParkLock`): a producer issues
//! the condvar notify — a futex syscall in std whether or not anyone
//! waits — only when the consumer has recorded, under the same mutex,
//! that it is asleep.

use crate::proxy::STUB_WINDOW;
use crate::transport::{Transport, TransportError, MAX_DATAGRAM};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long a non-blocking socket retries a `WouldBlock` send before
/// declaring the transport wedged. Loopback buffers drain in microseconds;
/// a full second means the far end is gone or livelocked.
const SEND_RETRY: Duration = Duration::from_secs(1);

/// Frames a queue holds without growing: a proxy keeps up to
/// [`STUB_WINDOW`] slots in flight per stub, each at most a snapshot
/// request and a delivery, and the replies come back one per request.
/// Sized up front, a queue allocates the same however far the host lags.
const QUEUE_FRAMES: usize = 2 * STUB_WINDOW;

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
/// One consumer at a time (every user here has exactly one: a stub-host
/// worker on its own waker, one end of a channel on its inbound queue);
/// any number of producers.
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

    /// Consumer side: park until `ready` yields something or `deadline`,
    /// if there is one, passes. `ready` runs under the mutex, and only
    /// before the deadline: `None` means it has passed.
    fn wait<R>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let mut state = self.lock();
        loop {
            let left = match deadline {
                Some(deadline) => Some(time_to(deadline)?),
                None => None,
            };
            if let Some(out) = ready(&mut state.value) {
                return Some(out);
            }
            state.parked = true;
            state = match left {
                Some(left) => {
                    let woken = self.cv.wait_timeout(state, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
            state.parked = false;
        }
    }
}

/// The time left before `deadline`; `None` once it has come.
fn time_to(deadline: Instant) -> Option<Duration> {
    let left = deadline.checked_duration_since(Instant::now())?;
    (!left.is_zero()).then_some(left)
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

    /// Park until the generation moves past `seen` or `deadline`, if
    /// there is one, passes.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Option<Instant>) {
        let moved = |generation: &mut u64| (*generation != seen).then_some(());
        let _ = self.generation.wait(deadline, moved);
    }
}

// ---------------------------------------------------------------------
// In-memory channels.
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

/// One direction of a [`QueueTransport`]: a FIFO of frames between the
/// sending end and the one receiving end. The receiver either blocks on
/// the queue itself (parks on the queue's condvar until a deadline — the
/// proxy's end) or scans it from a stub-host worker whose [`PollWaker`]
/// the queue then carries. Queued frames drain before a close is
/// reported, and a close wakes a parked receiver.
struct FrameQueue {
    frames: ParkLock<Frames>,
    /// The scanning worker to wake, for a queue read with `try_recv` from
    /// a scan loop. A stub belongs to one worker for its whole life.
    waker: OnceLock<Arc<PollWaker>>,
}

impl FrameQueue {
    fn new() -> Arc<FrameQueue> {
        Arc::new(FrameQueue {
            frames: ParkLock::new(Frames {
                queue: VecDeque::with_capacity(QUEUE_FRAMES),
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
        })
    }

    /// Does a frame wait here unread?
    fn holds_unread(&self) -> bool {
        self.frames.peek(|frames| !frames.queue.is_empty())
    }

    fn close(&self) {
        self.frames.update(|frames| frames.closed = true);
        self.wake_scanner();
    }
}

/// One end of an in-memory channel: sends move the frame into the far
/// end's queue, receives park on this end's own queue. No thread sits in
/// between — the far end's send is what wakes a parked `recv_until`,
/// and only then; dropping the far end wakes it too, as
/// [`TransportError::Disconnected`].
///
/// A far end scanned by a stub-host worker is rung only when this end
/// will wait for it (the module doc's wake rule): by a send while this
/// end holds no unread frame, and by a `recv_until` about to park.
pub struct QueueTransport {
    out: Arc<FrameQueue>,
    inbound: Arc<FrameQueue>,
}

impl QueueTransport {
    /// A connected pair: frames sent on one end arrive on the other.
    #[must_use]
    pub fn pair() -> (QueueTransport, QueueTransport) {
        let ab = FrameQueue::new(); // a → b
        let ba = FrameQueue::new(); // b → a
        let end = |out: &Arc<FrameQueue>, inbound: &Arc<FrameQueue>| QueueTransport {
            out: out.clone(),
            inbound: inbound.clone(),
        };
        (end(&ab, &ba), end(&ba, &ab))
    }
}

impl Transport for QueueTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.out.push(frame)?;
        // An unread frame here proves the far end is ahead, and this end
        // reads it in `recv_until` — which rings if it must wait — before
        // it can need this frame's reply.
        if self.out.waker.get().is_some() && !self.inbound.holds_unread() {
            self.out.wake_scanner();
        }
        Ok(())
    }

    fn recv_until(&mut self, deadline: Instant) -> Result<Option<Vec<u8>>, TransportError> {
        if time_to(deadline).is_none() {
            return Ok(None);
        }
        if let Some(frame) = self.inbound.frames.peek(Frames::pop) {
            return frame.map(Some);
        }
        // About to wait: the far end must be serving what this end sent.
        self.out.wake_scanner();
        let frame = self.inbound.frames.wait(Some(deadline), Frames::pop);
        frame.transpose()
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inbound.frames.peek(Frames::pop).transpose()
    }

    fn set_waker(&mut self, waker: Arc<PollWaker>) {
        // First registration wins; see `FrameQueue::waker`.
        let _ = self.inbound.waker.set(waker);
    }

    fn has_waker(&self) -> bool {
        true
    }
}

impl Drop for QueueTransport {
    fn drop(&mut self) {
        self.out.close();
        self.inbound.close();
    }
}

// ---------------------------------------------------------------------
// UDP loopback: the paper's prototype transport.
// ---------------------------------------------------------------------

fn io_error(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

/// One end of a connected UDP loopback pair — "the proxy and stub
/// communicate with each other using UDP" (paper §4.1). The proxy blocks
/// in [`Transport::recv_until`], a timed `recv` on this socket; the
/// stub host scans with [`Transport::try_recv`]. The socket switches
/// between blocking and non-blocking only when the kind of read changes,
/// so a steady stream of either kind costs no mode switch.
pub struct UdpTransport {
    socket: UdpSocket,
    /// Receive buffer, one datagram long.
    buf: Vec<u8>,
    nonblocking: bool,
}

impl UdpTransport {
    /// A connected pair of loopback sockets: datagrams sent on one end
    /// arrive on the other.
    pub fn pair() -> std::io::Result<(UdpTransport, UdpTransport)> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        let b = UdpSocket::bind("127.0.0.1:0")?;
        a.connect(b.local_addr()?)?;
        b.connect(a.local_addr()?)?;
        let end = |socket| UdpTransport {
            socket,
            buf: vec![0u8; MAX_DATAGRAM],
            nonblocking: false,
        };
        Ok((end(a), end(b)))
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> Result<(), TransportError> {
        if self.nonblocking != nonblocking {
            self.socket.set_nonblocking(nonblocking).map_err(io_error)?;
            self.nonblocking = nonblocking;
        }
        Ok(())
    }

    /// One `recv` in the socket's current mode; nothing yet is `None`.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.socket.recv(&mut self.buf) {
            Ok(n) => Ok(Some(self.buf[..n].to_vec())),
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => Ok(None),
                _ => Err(io_error(e)),
            },
        }
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        if frame.len() > MAX_DATAGRAM {
            return Err(TransportError::Io(format!(
                "frame of {} bytes exceeds datagram limit {MAX_DATAGRAM}",
                frame.len()
            )));
        }
        // A non-blocking end can find the send buffer full: retry, bounded.
        let deadline = Instant::now() + SEND_RETRY;
        loop {
            match self.socket.send(&frame) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Io("non-blocking send stalled".into()));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        }
    }

    fn recv_until(&mut self, deadline: Instant) -> Result<Option<Vec<u8>>, TransportError> {
        // Re-armed with the time left (never zero, which `set_read_timeout`
        // rejects) until the deadline: a timed `recv` can end early.
        while let Some(left) = time_to(deadline) {
            self.set_nonblocking(false)?;
            self.socket.set_read_timeout(Some(left)).map_err(io_error)?;
            if let Some(frame) = self.recv()? {
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.set_nonblocking(true)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::in_ms;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn direct_queue_transport_conforms() {
        let (a, b) = QueueTransport::pair();
        crate::transport::tests::exercise(a, b);
    }

    #[test]
    fn polled_udp_transport_conforms() {
        let (a, b) = UdpTransport::pair().expect("loopback sockets");
        crate::transport::tests::exercise(a, b);
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
        let got = a.recv_until(in_ms(2_000));
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
        b.send(b"last words".to_vec()).unwrap();
        drop(b);
        assert_eq!(a.recv_until(in_ms(1_000)).unwrap().unwrap(), b"last words");
        assert_eq!(a.try_recv(), Err(TransportError::Disconnected));
        assert_eq!(
            a.recv_until(in_ms(1_000)),
            Err(TransportError::Disconnected)
        );
        assert_eq!(
            a.send(b"anyone?".to_vec()),
            Err(TransportError::Disconnected)
        );
    }

    const STRESS_FRAMES: u64 = 200_000;

    /// One producer, one consumer that parks whenever it finds nothing:
    /// every `recv_until` 2 s out must return the next frame before its
    /// deadline. A producer that skipped a notify the consumer needed
    /// shows up as a park that ran the full 2 s: a timeout.
    fn lost_wake_stress(mut tx: impl Transport + 'static, mut rx: impl Transport) {
        let consumed = Arc::new(AtomicU64::new(0));
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
                    tx.send(i.to_le_bytes().to_vec()).unwrap();
                }
                tx // keep the far side open until the consumer is done
            })
        };
        for i in 0..STRESS_FRAMES {
            let frame = rx.recv_until(in_ms(2_000)).expect("transport alive");
            let frame = frame.unwrap_or_else(|| panic!("frame {i} timed out: a wakeup was lost"));
            assert_eq!(frame, i.to_le_bytes());
            consumed.store(i + 1, Ordering::SeqCst);
        }
        drop(producer.join().unwrap());
    }

    #[test]
    fn lost_wake_stress_direct_queue() {
        let (a, b) = QueueTransport::pair();
        lost_wake_stress(a, b);
    }

    /// A channel end read the way a stub-host worker reads it: read the
    /// waker's generation, scan with `try_recv`, and only if the scan
    /// found nothing park past that generation.
    struct ScannedEnd {
        end: QueueTransport,
        waker: Arc<PollWaker>,
    }

    impl Transport for ScannedEnd {
        fn send(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
            self.end.send(frame)
        }

        fn recv_until(&mut self, deadline: Instant) -> Result<Option<Vec<u8>>, TransportError> {
            loop {
                let seen = self.waker.current();
                if let Some(frame) = self.end.try_recv()? {
                    return Ok(Some(frame));
                }
                // A wake for a frame an earlier scan already took ends
                // the park early; scan again until the deadline.
                if time_to(deadline).is_none() {
                    return Ok(None);
                }
                self.waker.wait_past(seen, Some(deadline));
            }
        }

        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            self.end.try_recv()
        }
    }

    /// A channel whose second end is scanned through the returned waker,
    /// as a stub host scans a stub's end.
    fn scanned_pair() -> (QueueTransport, ScannedEnd) {
        let (near, mut end) = QueueTransport::pair();
        let waker = PollWaker::new();
        end.set_waker(waker.clone());
        (near, ScannedEnd { end, waker })
    }

    #[test]
    fn lost_wake_stress_queue_scanned_by_a_host_worker() {
        // Every channel request reaches its stub this way: the proxy's
        // send pushes into the queue, and the queue rings the host
        // worker's waker. This producer never reads, so it holds no
        // unread frame and every send rings; a send that skipped the ring
        // parks the worker until its deadline.
        let (tx, scanned) = scanned_pair();
        lost_wake_stress(tx, scanned);
    }

    #[test]
    fn a_send_rings_the_scanner_only_when_nothing_waits_unread() {
        let (mut near, mut far) = scanned_pair();
        let g = far.waker.current();
        // Nothing unread here: the far end must be rung to serve this.
        near.send(b"first".to_vec()).unwrap();
        assert_eq!(
            far.waker.current(),
            g + 1,
            "a send with nothing unread rings"
        );
        far.send(b"reply".to_vec()).unwrap();
        // A reply waits unread: the far end is ahead, and this end reads
        // the reply before it can need the next one.
        near.send(b"second".to_vec()).unwrap();
        assert_eq!(
            far.waker.current(),
            g + 1,
            "a send behind an unread frame stays quiet"
        );
        // A deadline already passed reads nothing and rings nothing.
        assert_eq!(near.recv_until(Instant::now()), Ok(None));
        assert_eq!(far.waker.current(), g + 1);
        // A queued frame is taken without a ring.
        assert_eq!(near.recv_until(in_ms(1_000)).unwrap().unwrap(), b"reply");
        assert_eq!(far.waker.current(), g + 1);
        // Finding nothing, `recv_until` rings before it waits.
        assert_eq!(near.recv_until(in_ms(1)), Ok(None));
        assert_eq!(far.waker.current(), g + 2, "an empty recv_until rings");
        // And the ring comes before the park: a host that serves only
        // once rung answers within the wait.
        let seen = far.waker.current();
        let host = std::thread::spawn(move || {
            far.waker.wait_past(seen, Some(in_ms(2_000)));
            let frames = [far.try_recv(), far.try_recv()];
            far.send(b"served".to_vec()).unwrap();
            (far, frames)
        });
        let started = Instant::now();
        let got = near.recv_until(in_ms(2_000)).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(&b"served"[..]),
            "the ring came after the park"
        );
        assert!(started.elapsed() < Duration::from_secs(1));
        let (_far, frames) = host.join().unwrap();
        assert_eq!(
            frames,
            [Ok(Some(b"first".to_vec())), Ok(Some(b"second".to_vec()))]
        );
    }

    #[test]
    fn lost_wake_stress_windowed_requests_to_a_scanned_echo() {
        // The proxy's shape behind the stub window: up to eight requests
        // in flight, so most sends find a reply unread and do not ring.
        // Only `recv_until` rings the echo's host loop then; a wait that
        // skipped its ring strands the echo in its park and shows up
        // here as a frame that timed out.
        const IN_FLIGHT: u64 = 8;
        let (mut near, mut far) = scanned_pair();
        let echo = std::thread::spawn(move || loop {
            match far.recv_until(in_ms(2_000)) {
                Ok(Some(frame)) => {
                    if far.send(frame).is_err() {
                        return;
                    }
                }
                Ok(None) => {}
                Err(_) => return,
            }
        });
        let (mut sent, mut got) = (0u64, 0u64);
        while got < STRESS_FRAMES {
            while sent < STRESS_FRAMES && sent - got < IN_FLIGHT {
                near.send(sent.to_le_bytes().to_vec()).unwrap();
                sent += 1;
            }
            let frame = near.recv_until(in_ms(2_000)).expect("echo alive");
            let frame = frame.unwrap_or_else(|| panic!("frame {got} timed out: a ring was lost"));
            assert_eq!(frame, got.to_le_bytes());
            got += 1;
        }
        drop(near);
        echo.join().unwrap();
    }

    #[test]
    fn lost_wake_stress_poll_waker() {
        // The worker protocol: read the generation, look for work, park
        // past the generation read. Work is a counter bumped before the
        // wake; a park that runs out its 2 s lost that wake.
        let waker = PollWaker::new();
        let produced = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
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
            waker.wait_past(seen, Some(in_ms(2_000)));
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
        w.wait_past(seen, Some(in_ms(5_000)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "pre-park wake must end the park immediately"
        );
    }
}
