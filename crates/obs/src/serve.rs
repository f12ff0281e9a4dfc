//! Ops endpoint: a minimal, std-only, blocking HTTP/1.1 responder over
//! one live [`Obs`] instance.
//!
//! The paper's operability story (Crash-Pad problem tickets, §5) assumes
//! operators can *watch* failures and recoveries as they happen.
//! [`ObsServer`] is the watching machinery. It is GET-only: `/metrics`,
//! `/metrics.json`, `/incidents`, `/traces`, `/traces/<id>`, `/rollups`
//! and `/healthz`, each answered from the request head alone — a declared
//! body is never read, let alone buffered.
//!
//! Resource behaviour is deliberately bounded: a fixed worker pool drains
//! a bounded connection queue (overload answers `503` instead of queueing
//! without limit), every connection gets read/write deadlines, request
//! heads are capped at [`ServeConfig::max_request_bytes`] (`431` beyond
//! it), and responses close the connection (no keep-alive state to leak).
//! Shutdown is an atomic flag plus a self-connect to wake the blocking
//! `accept`, then a join of every thread — a hung scrape cannot wedge
//! process exit past its I/O deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::rollup::{RollupConfig, RollupTracker};
use crate::trace::TraceId;
use crate::Obs;

/// Endpoint knobs. The defaults suit a localhost scraper.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port (tests).
    pub addr: SocketAddr,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Queued-but-unserved connection limit; beyond it clients get `503`.
    pub backlog: usize,
    /// Per-connection read *and* write deadline.
    pub io_timeout: Duration,
    /// Maximum bytes of request head we will buffer before answering `431`.
    pub max_request_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 9184)),
            workers: 2,
            backlog: 32,
            io_timeout: Duration::from_secs(2),
            max_request_bytes: 8 * 1024,
        }
    }
}

impl ServeConfig {
    /// Config bound to an ephemeral loopback port — the test default.
    #[must_use]
    pub fn ephemeral() -> Self {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ..ServeConfig::default()
        }
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }
}

/// What the workers answer from: the instance being served plus the
/// time-windowed rollups, sampled lazily on `/rollups` GETs.
struct Routes {
    obs: Obs,
    rollups: RollupTracker,
}

impl Routes {
    fn route(&self, method: &str, path: &str) -> Response {
        if method != "GET" {
            return Response::text(405, "method not allowed; use GET\n");
        }
        if let Some(id) = path.strip_prefix("/traces/") {
            return self.trace_detail(id);
        }
        match path {
            "/metrics" => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: self.obs.prometheus(),
            },
            "/metrics.json" => Response::json(self.obs.json_snapshot()),
            "/incidents" => Response {
                status: 200,
                content_type: "text/plain; charset=utf-8",
                body: incidents_report(&self.obs),
            },
            "/traces" => Response::json(crate::trace::list_json(
                &self.obs.traces(),
                self.obs.traces_dropped(),
            )),
            "/rollups" => Response::json(self.rollups.json_for(&self.obs)),
            "/healthz" => Response::text(200, "ok\n"),
            _ => Response::text(404, "not found\n"),
        }
    }

    /// `GET /traces/<cycle>-<seq>`: the trace's causal story plus any
    /// journal-reconstructed incidents that overlap it.
    fn trace_detail(&self, id_str: &str) -> Response {
        let Some(id) = TraceId::parse(id_str) else {
            return Response::text(404, "bad trace id; expected <cycle>-<seq>\n");
        };
        let Some(trace) = self.obs.trace(id) else {
            return Response::text(404, "no such trace (evicted or never recorded)\n");
        };
        Response::json(trace.to_json(&self.obs.incidents()))
    }
}

/// A running ops endpoint. Dropping it (or calling [`ObsServer::shutdown`])
/// stops the accept loop and joins every thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `config.addr` and start serving `obs`. Returns once the
    /// listener is live, so [`ObsServer::local_addr`] is immediately
    /// scrapable. The only failure is the bind.
    pub fn start(obs: Obs, config: ServeConfig) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<TcpStream>(config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let routes = Arc::new(Routes {
            obs: obs.clone(),
            rollups: RollupTracker::new(RollupConfig::default()),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let routes = Arc::clone(&routes);
                let cfg = config.clone();
                std::thread::Builder::new()
                    .name(format!("obsd-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &routes, &cfg))
                    .expect("spawn obsd worker")
            })
            .collect();

        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("obsd-accept".into())
            .spawn(move || {
                // `tx` lives here: when the accept loop exits the sender
                // drops, the channel disconnects, and the workers drain
                // what is queued and exit.
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    obs.counter("obsd", "connections_total", "").inc();
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            obs.counter("obsd", "overload_total", "").inc();
                            respond_best_effort(stream, &Response::text(503, "overloaded\n"));
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
            .expect("spawn obsd accept loop");

        Ok(ObsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the queue, and join every thread. Returns the
    /// number of threads joined cleanly — `workers + 1` when nothing
    /// panicked or leaked.
    pub fn shutdown(mut self) -> usize {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> usize {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the flag makes it exit before queueing
        // this connection.
        let _ = TcpStream::connect(self.addr);
        let mut joined = 0;
        if let Some(h) = self.accept_thread.take() {
            joined += usize::from(h.join().is_ok());
        }
        for h in self.workers.drain(..) {
            joined += usize::from(h.join().is_ok());
        }
        joined
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, routes: &Routes, cfg: &ServeConfig) {
    loop {
        // Hold the lock only while waiting, never while serving.
        let conn = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match conn {
            Ok(stream) => handle_connection(stream, routes, cfg),
            Err(_) => return, // accept loop gone: graceful exit
        }
    }
}

fn handle_connection(mut stream: TcpStream, routes: &Routes, cfg: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    let obs = &routes.obs;
    let _span = obs.span("obsd.handle");
    let resp = read_head(&mut stream, cfg.max_request_bytes)
        .and_then(|head| {
            let (method, path) = request_line(&head).ok_or(400u16)?;
            Ok(routes.route(method, path))
        })
        .unwrap_or_else(|status| Response::text(status, "bad request\n"));
    obs.counter("obsd", "http_requests_total", &resp.status.to_string())
        .inc();
    respond_best_effort(stream, &resp);
}

/// Read up to the blank line ending the request head and return the head.
/// Whatever follows it — a declared body — is neither parsed nor waited
/// for, so at most `cap` plus one chunk is ever buffered. `Err` carries
/// the HTTP status to answer with (`408` timeout, `431` oversized head,
/// `400` otherwise).
fn read_head(stream: &mut impl Read, cap: usize) -> Result<String, u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() >= cap {
            return Err(431);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(400),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(408)
            }
            Err(_) => return Err(400),
        }
    };
    buf.truncate(end);
    String::from_utf8(buf).map_err(|_| 400)
}

/// `(method, path)` of the request line, query string stripped.
fn request_line(head: &str) -> Option<(&str, &str)> {
    let mut parts = head.lines().next()?.split_whitespace();
    let (method, target) = (parts.next()?, parts.next()?);
    Some((method, target.split('?').next().unwrap_or(target)))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The `/incidents` body: a count header followed by each rendered
/// recovery timeline.
fn incidents_report(obs: &Obs) -> String {
    let incidents = obs.incidents();
    let mut out = format!("{} incident(s) reconstructed\n", incidents.len());
    for inc in &incidents {
        out.push('\n');
        out.push_str(&inc.render());
    }
    out
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Write a full `Connection: close` response; errors are swallowed — the
/// client hanging up mid-write must not take a worker down.
fn respond_best_effort(mut stream: TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    let allow = if resp.status == 405 {
        "Allow: GET\r\n"
    } else {
        ""
    };
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(allow.as_bytes()))
        .and_then(|()| stream.write_all(b"\r\n"))
        .and_then(|()| stream.write_all(resp.body.as_bytes()))
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordKind;

    /// Raw-TCP fetch returning `(status, body)`.
    fn fetch(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to endpoint");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        fetch(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn server() -> (Obs, ObsServer) {
        let obs = Obs::new();
        let srv = ObsServer::start(obs.clone(), ServeConfig::ephemeral()).unwrap();
        (obs, srv)
    }

    #[test]
    fn serves_all_routes() {
        let (obs, srv) = server();
        obs.counter("core", "events", "").add(5);
        obs.record(RecordKind::AppCrash {
            app: "a".into(),
            detail: "p".into(),
        });
        let addr = srv.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("legosdn_core_events 5"));

        let (status, body) = get(addr, "/metrics.json");
        assert_eq!(status, 200);
        assert!(body.contains("\"incidents\""));

        let (status, body) = get(addr, "/incidents");
        assert_eq!(status, 200);
        assert!(body.contains("1 incident(s) reconstructed"));
        assert!(body.contains("incident app=a"));

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        srv.shutdown();
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let (_obs, srv) = server();
        let addr = srv.local_addr();
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(
            fetch(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").0,
            405
        );
        srv.shutdown();
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let (_obs, srv) = server();
        assert_eq!(get(srv.local_addr(), "/healthz?probe=1").0, 200);
        srv.shutdown();
    }

    #[test]
    fn oversized_request_head_is_rejected() {
        let obs = Obs::new();
        let cfg = ServeConfig {
            max_request_bytes: 256,
            ..ServeConfig::ephemeral()
        };
        let srv = ObsServer::start(obs, cfg).unwrap();
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(4096)
        );
        assert_eq!(fetch(srv.local_addr(), &huge).0, 431);
        srv.shutdown();
    }

    /// The server is GET-only: a request that declares a body is answered
    /// from its head, at once — not after waiting out the I/O deadline for
    /// bytes that will never be looked at — and the connection closes
    /// (`fetch` reads to EOF).
    #[test]
    fn declared_body_is_never_waited_for() {
        let (_obs, srv) = server();
        let addr = srv.local_addr();
        let begun = std::time::Instant::now();
        let post = "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 4294967296\r\n\r\n";
        assert_eq!(fetch(addr, post).0, 405);
        // A GET that declares more body than it sends: nothing to wait for.
        let get_with_body = "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\nhello";
        assert_eq!(fetch(addr, get_with_body), (200, "ok\n".to_string()));
        assert!(
            begun.elapsed() < ServeConfig::default().io_timeout,
            "answered from the head, not after a body-read deadline: {:?}",
            begun.elapsed()
        );
        // Both workers are free again: the next scrape succeeds.
        assert_eq!(get(addr, "/metrics").0, 200);
        srv.shutdown();
    }

    #[test]
    fn read_head_stops_at_the_blank_line_whatever_length_is_declared() {
        let cap = ServeConfig::default().max_request_bytes;
        let head = "POST /metrics HTTP/1.1\r\nContent-Length: 4294967296";
        let mut wire =
            std::io::Cursor::new([head.as_bytes(), b"\r\n\r\n", &vec![b'b'; 1 << 20]].concat());
        assert_eq!(read_head(&mut wire, cap).as_deref(), Ok(head));
        assert_eq!(request_line(head), Some(("POST", "/metrics")));
        // One chunk was consumed; the megabyte behind it was never read,
        // so worker memory is independent of the declared length.
        assert!(wire.position() <= 1024, "read {} bytes", wire.position());
    }

    #[test]
    fn full_backlog_answers_503_and_the_endpoint_recovers() {
        let obs = Obs::new();
        let cfg = ServeConfig {
            workers: 1,
            backlog: 1,
            ..ServeConfig::ephemeral()
        };
        let srv = ObsServer::start(obs.clone(), cfg).unwrap();
        let addr = srv.local_addr();
        // Four silent connections against room for two (one pinning the
        // worker, one queued): at least two are turned away at accept.
        let mut conns: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let overloads = obs.counter("obsd", "overload_total", "");
        let begun = std::time::Instant::now();
        while overloads.get() < 2 {
            assert!(begun.elapsed() < Duration::from_secs(5), "no overload seen");
            std::thread::yield_now();
        }
        // Half-close: the admitted ones now read EOF and answer 400, so
        // every connection ends without waiting out a deadline.
        let mut statuses = Vec::new();
        for c in &mut conns {
            let _ = c.shutdown(std::net::Shutdown::Write);
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut raw = String::new();
            c.read_to_string(&mut raw).unwrap();
            statuses.push(raw.split_whitespace().nth(1).map(str::to_owned));
        }
        let count = |s: &str| statuses.iter().filter(|x| x.as_deref() == Some(s)).count();
        assert_eq!(count("503") as u64, overloads.get(), "{statuses:?}");
        assert_eq!(count("503") + count("400"), 4, "{statuses:?}");
        assert_eq!(get(addr, "/healthz").0, 200);
        srv.shutdown();
    }

    #[test]
    fn own_request_counter_increases_between_scrapes() {
        let (_obs, srv) = server();
        let addr = srv.local_addr();
        let first = get(addr, "/metrics").1;
        let second = get(addr, "/metrics").1;
        let count = |body: &str| {
            body.lines()
                .find(|l| l.starts_with("legosdn_obsd_http_requests_total{label=\"200\"}"))
                .and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        };
        let (a, b) = (count(&first), count(&second));
        assert!(b > a, "strictly increasing: {a:?} then {b:?}");
        srv.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads_and_closes_listener() {
        let obs = Obs::new();
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::ephemeral()
        };
        let srv = ObsServer::start(obs, cfg).unwrap();
        let addr = srv.local_addr();
        assert_eq!(get(addr, "/healthz").0, 200);
        let joined = srv.shutdown();
        assert_eq!(joined, 4, "accept loop + 3 workers, none leaked");
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener closed after shutdown"
        );
    }

    #[test]
    fn drop_also_shuts_down() {
        let (_obs, srv) = server();
        let addr = srv.local_addr();
        drop(srv);
        assert!(TcpStream::connect(addr).is_err());
    }
}
