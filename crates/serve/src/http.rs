//! Dependency-free HTTP/1.1 front-end over the micro-batching engine.
//!
//! The network layer the ROADMAP's serving milestone calls for: a
//! [`TcpListener`] acceptor thread blocked in `accept()` (a connection is
//! handed on the moment it arrives) feeding a bounded connection queue, a
//! small pool of connection workers speaking enough HTTP/1.1 (persistent
//! connections, `Content-Length` bodies) for real clients, and the wire
//! endpoints:
//!
//! * `POST /v1/recover` — a [`rntrajrec::wire::RecoverRequest`] JSON body
//!   (raw GPS points + target length) is feature-extracted through the
//!   shared [`QueryContext`] and dispatched into the [`RecoveryEngine`];
//!   the response streams back the recovered `(segment, rate)` sequence,
//!   **bit-identical** to in-process engine dispatch (integration-tested
//!   in `tests/http_roundtrip.rs`).
//! * `POST /v2/recover` — the same payload plus an `options` object (a
//!   client-shortened deadline); `POST /v2/recover/stream` answers with
//!   one chunked JSON event per decode step and exactly one terminal
//!   event. All three share one admission prologue (`admit`).
//! * `GET /healthz` — liveness + live queue gauges.
//! * `GET /metrics` — Prometheus text format (passes
//!   `rntrajrec_obs::promlint`): queue depth, in-flight batches,
//!   admission-control shed counts, p50/p99 recover latency, build
//!   info + uptime, thread-pool dispatch counters, the kernel-layer
//!   matmul counter, and real histogram buckets per phase (queue wait,
//!   encoder, decoder, serialize, end-to-end) plus batch size/occupancy.
//! * `GET /debug/trace?last=N` — Chrome trace-event JSON (load it in
//!   `chrome://tracing` or Perfetto) for the last `N` completed traced
//!   requests: one process lane per request, spans from socket read to
//!   kernel with per-span matmul counts.
//! * `GET /v1/example` — an optional server-provided example request body
//!   (lets smoke tests post a valid request without hand-built fixtures);
//!   `?city=NAME` selects a shard on multi-city servers.
//! * `POST /admin/reload` — `{"city": "...", "path": "..."}` hot-swaps one
//!   shard's model from a versioned artifact with zero downtime (see
//!   [`crate::shard`]); a corrupt or mismatched artifact is refused with
//!   the old model still serving.
//!
//! Every recover route resolves its request to a [`CityShard`] first: a
//! single-shard server routes unconditionally (byte-for-byte the
//! pre-shard behaviour), a multi-city server answers `404` for
//! trajectories outside every shard and `422` for trajectories that
//! straddle two.
//!
//! # Request tracing
//!
//! When tracing is enabled (`rntrajrec_obs::set_enabled`, on by default
//! in `serve_http`), each recover request (`POST /v1/recover`,
//! `/v2/recover`, `/v2/recover/stream`) is minted a request id at accept
//! and its lifecycle recorded as a span tree:
//! `http.read → parse → queue.wait → batch.assemble →
//! encoder.fused → decoder.step[i] → serialize → http.write` under one
//! `request` root. Spans produced by the engine worker for a fused batch
//! carry *all* member request ids. The root span is recorded after the
//! response bytes are written, so a request visible in `/debug/trace` is
//! always complete.
//!
//! # Admission control
//!
//! Three load-shedding gates, each explicit — a saturated server answers
//! quickly rather than queueing without bound or dropping silently:
//!
//! 1. **Connection backlog** — accepted connections the workers have not
//!    picked up yet are bounded (64); beyond that the acceptor answers
//!    `503` + `Retry-After` and closes.
//! 2. **Engine queue** — [`RecoveryEngine::submit`] against the
//!    engine's bounded queue ([`EngineConfig::queue_capacity`]); an
//!    [`EngineError::Overloaded`] maps to `429` + `Retry-After`.
//! 3. **Deadline budget** — each request gets
//!    [`HttpConfig::deadline`] from read-complete to answer; a request
//!    that misses it is answered `503` + `Retry-After` and its handle is
//!    dropped, so the engine cuts the member at its next decode step. The
//!    engine has no deadline of its own: this budget is the only one.
//!
//! # Graceful drain
//!
//! [`HttpServer::shutdown`] stops the acceptor (no new connections): it
//! sets the shutdown flag and wakes the blocked `accept()` with one
//! connection to the server's own address, which the acceptor drops
//! uncounted because it checks the flag first after every accept. It then
//! lets every connection worker finish its in-flight request, closes
//! persistent connections at the next request boundary, and joins all
//! threads. Engine workers drain their queue when the last engine handle
//! drops — `serve_http` wires this to `SIGTERM`.
//!
//! [`EngineConfig::queue_capacity`]: crate::EngineConfig::queue_capacity

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rntrajrec::wire::{v2, ErrorBody, RecoverRequest, RecoverResponse};
use rntrajrec_models::SampleInput;
use rntrajrec_nn::kernels;
use rntrajrec_obs::metrics::{self, Exposition, Histogram, Kind};
use serde_json::json;

use crate::shard::{CityShard, RouteError, ShardRouter};
use crate::{
    EngineError, EngineStats, QueryContext, Recovered, RecoveryEngine, RecoveryHandle, StepWait,
    SubmitOptions,
};

pub mod client;

/// Network-layer knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port — see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Connection-handler threads. Size it at least as large as the
    /// engine's `max_batch` if concurrent HTTP clients should be able to
    /// fill a whole micro-batch.
    pub connection_workers: usize,
    /// Per-request completion budget; an engine result missing it maps to
    /// `503` + `Retry-After`.
    pub deadline: Duration,
    /// A connection that has started a request but not delivered all of
    /// it within this budget gets `408` and is closed — a slow or stalled
    /// client must not pin a connection worker (the pool is small).
    pub request_read_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            connection_workers: 4,
            deadline: Duration::from_secs(5),
            request_read_timeout: Duration::from_secs(10),
        }
    }
}

/// Accepted-but-unhandled connections the acceptor may hold before
/// shedding with `503`.
const CONNECTION_BACKLOG: usize = 64;
/// A persistent connection idle (no request in progress) this long is
/// closed; its worker returns to the pool.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Header-section cap (request line + headers).
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Request bodies larger than this (1 MiB) are refused with `413`.
const MAX_BODY_BYTES: usize = 1 << 20;
/// `Retry-After` (seconds) on `429`/`503` while the engine has no
/// drain-rate estimate.
const RETRY_AFTER_FALLBACK_SECS: u64 = 1;
/// Socket read poll interval: bounds shutdown/idle/stall responsiveness.
const READ_TIMEOUT: Duration = Duration::from_millis(250);
/// Budget for [`HttpServer::drain`]'s wake connection to the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);
/// Acceptor pause after an `accept()` failure that is not `EINTR`.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Ring capacity of the latency sample backing the `/metrics` quantile
/// summary: the most recent completed recover requests.
const LATENCY_RING: usize = 1024;

#[derive(Default)]
struct HttpCounters {
    connections: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed_backlog: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    /// Completed recover-route latencies (ms), most recent [`LATENCY_RING`].
    latencies_ms: Mutex<VecDeque<f64>>,
}

impl HttpCounters {
    fn record_status(&self, status: u16) {
        let c = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn record_latency(&self, ms: f64) {
        let mut ring = self.latencies_ms.lock().unwrap();
        if ring.len() >= LATENCY_RING {
            ring.pop_front();
        }
        ring.push_back(ms);
    }
}

/// Adaptive `Retry-After` hint: how long until the queue ahead of a
/// retrying client has drained, at the engine's observed completion
/// rate.
///
/// `ceil(queue_depth / drain_rate)`, clamped to `[1, 60]` seconds. When
/// the engine has no drain-rate estimate yet (no completions in the
/// sample window, rate ≤ 0, or not finite), falls back to
/// [`RETRY_AFTER_FALLBACK_SECS`] — a cold server should not tell clients
/// to wait a minute. Pinned by the `retry_after` unit tests.
fn adaptive_retry_after(queue_depth: usize, drain_rate_per_sec: f64) -> u64 {
    if !drain_rate_per_sec.is_finite() || drain_rate_per_sec <= 0.0 {
        return RETRY_AFTER_FALLBACK_SECS;
    }
    let secs = (queue_depth as f64 / drain_rate_per_sec).ceil();
    (secs as u64).clamp(1, 60)
}

/// Per-shard `Retry-After`: the hint reflects the queue the retrying
/// client would actually land in.
fn retry_after_for(shard: &CityShard) -> u64 {
    adaptive_retry_after(
        shard.engine().queue_depth(),
        shard.engine().drain_rate_per_sec(),
    )
}

/// `Retry-After` when no shard has been resolved yet (connection-backlog
/// sheds): the worst shard's hint, so a retrying client never comes back
/// before the busiest queue could have drained.
fn retry_after_value(state: &ServerState) -> u64 {
    state
        .router
        .shards()
        .iter()
        .map(retry_after_for)
        .max()
        .unwrap_or(RETRY_AFTER_FALLBACK_SECS)
}

struct ServerState {
    router: Arc<ShardRouter>,
    deadline: Duration,
    request_read_timeout: Duration,
    counters: HttpCounters,
    shutdown: AtomicBool,
    /// Server start, backing `rntrajrec_uptime_seconds`.
    started: Instant,
}

/// Timing captured at the socket for one traced recover request:
/// the request id (minted when the request finished arriving) and the
/// read-phase endpoints, recorded as `http.read` once the response is
/// written.
struct TraceCtx {
    id: rntrajrec_obs::RequestId,
    read_start_ns: u64,
    read_end_ns: u64,
}

/// The running HTTP front-end. Dropping it (or calling
/// [`HttpServer::shutdown`]) drains gracefully.
pub struct HttpServer {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind and start serving a **single city**: the pre-shard
    /// constructor, kept as a thin wrapper over
    /// [`HttpServer::start_router`] with a one-shard router named
    /// `"default"`. The engine and query context must be built over the
    /// same road network.
    ///
    /// `example` is an optional pre-serialized valid `/v1/recover` body
    /// served at `GET /v1/example` (smoke tests post it back).
    pub fn start(
        engine: Arc<RecoveryEngine>,
        ctx: Arc<QueryContext>,
        config: HttpConfig,
        example: Option<String>,
    ) -> std::io::Result<Self> {
        let router = ShardRouter::single(CityShard::new("default", engine, ctx, example));
        Self::start_router(Arc::new(router), config)
    }

    /// Bind and start serving a [`ShardRouter`]: every recover route
    /// resolves its request to a city shard by bounding box (404 outside
    /// every shard, 422 straddling two), `POST /admin/reload` hot-swaps
    /// one shard's model from a versioned artifact, and `/metrics`
    /// carries per-shard `{city="…"}` labels.
    pub fn start_router(router: Arc<ShardRouter>, config: HttpConfig) -> std::io::Result<Self> {
        assert!(config.connection_workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            router,
            deadline: config.deadline,
            request_read_timeout: config.request_read_timeout,
            counters: HttpCounters::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(CONNECTION_BACKLOG);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("rntrajrec-http-accept".to_string())
                .spawn(move || acceptor_loop(&listener, &conn_tx, &state))
                .expect("spawn http acceptor")
        };

        let workers = (0..config.connection_workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("rntrajrec-http-{i}"))
                    .spawn(move || worker_loop(&conn_rx, &state))
                    .expect("spawn http worker")
            })
            .collect();

        Ok(Self {
            local_addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful drain: stop accepting, finish in-flight requests, close
    /// persistent connections at the next request boundary, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            // The acceptor is blocked in `accept()`: wake it with a
            // throw-away connection to ourselves. Failure is ignored — a
            // listener that refuses the connect has no blocked acceptor.
            let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT);
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Where [`HttpServer::drain`] connects to wake the acceptor: the bound
/// address, or loopback on the bound port when bound to the wildcard
/// (`0.0.0.0` / `::` are not connectable everywhere).
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn acceptor_loop(
    listener: &TcpListener,
    conn_tx: &mpsc::SyncSender<TcpStream>,
    state: &ServerState,
) {
    while !state.shutdown.load(Ordering::SeqCst) {
        let accepted = listener.accept();
        // Checked first after every accept: drain's wake connection (or a
        // client racing it) is dropped before the connection counter and
        // the chaos point see it.
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                state.counters.connections.fetch_add(1, Ordering::Relaxed);
                // Chaos: an accept-time fault closes the connection
                // before it reaches the worker pool (a delay stalls the
                // acceptor — downstream of it, the backlog gate sheds).
                if rntrajrec_chaos::point("http.accept").is_err() {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(mut stream)) => {
                        // Backlog gate: answer fast and shed rather than
                        // letting connections pile up unbounded.
                        state.counters.shed_backlog.fetch_add(1, Ordering::Relaxed);
                        let answer = Answer::error(503, "connection backlog full")
                            .header("Retry-After", retry_after_value(state));
                        state.counters.record_status(answer.status);
                        let _ = write_response(&mut stream, &answer, false);
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A real accept failure (`EMFILE`, `ENFILE`, `ENOBUFS`) repeats
            // at once: back off instead of spinning. The loop condition
            // re-checks the flag, so a drain during the back-off is seen
            // even if its wake connection could not be made.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    // conn_tx drops here; workers exit once the backlog is drained.
}

fn worker_loop(conn_rx: &Mutex<mpsc::Receiver<TcpStream>>, state: &ServerState) {
    loop {
        // Hold the lock only for the pop — connections are handled
        // concurrently across workers.
        let stream = match conn_rx.lock().unwrap().recv() {
            Ok(s) => s,
            Err(_) => return, // acceptor gone and backlog drained
        };
        handle_connection(stream, state);
    }
}

/// One parsed request off the wire.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

enum ReadOutcome {
    Request(Request),
    /// Idle read timeout with nothing read: poll the shutdown flag and
    /// keep the connection.
    Idle,
    /// Peer closed cleanly between requests.
    Closed,
    /// A started request stalled past the read budget: answer 408 and
    /// close (a slow client must not pin a connection worker).
    TimedOut,
    /// Peer closed mid-request or sent garbage: answer 400 (if given a
    /// reason) and close.
    Malformed(&'static str),
    /// `Content-Length` over the cap: answer 413 and close.
    BodyTooLarge,
    /// `Transfer-Encoding` present: answer 501 and close.
    Unsupported,
    /// Socket error: just close.
    Broken,
}

impl ReadOutcome {
    /// The typed answer a failed read gets before the connection closes
    /// (`None`: nothing to say, or nobody left to say it to).
    fn refusal(&self, state: &ServerState) -> Option<Answer> {
        Some(match self {
            ReadOutcome::TimedOut => {
                let ms = state.request_read_timeout.as_secs_f64() * 1000.0;
                Answer::error(408, format!("request not received within {ms:.0} ms"))
            }
            ReadOutcome::Malformed(reason) => Answer::error(400, *reason),
            ReadOutcome::BodyTooLarge => {
                Answer::error(413, format!("request body exceeds {MAX_BODY_BYTES} bytes"))
            }
            ReadOutcome::Unsupported => Answer::error(501, "transfer encodings are not supported"),
            _ => return None,
        })
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle_since = Instant::now();
    loop {
        // Read-phase start for the span: the call below returns `Idle`
        // (resetting this) until bytes begin arriving, so the span start
        // precedes the first byte by at most one poll tick.
        let read_started = Instant::now();
        // Chaos: a read-phase fault drops the connection mid-read (the
        // client sees a reset, exactly like a real socket failure).
        if rntrajrec_chaos::point("http.read").is_err() {
            break;
        }
        match read_request(&mut stream, &mut buf, state) {
            ReadOutcome::Request(req) => {
                // Request id minted at the HTTP edge: recover requests
                // get a trace context carrying the read-phase endpoints.
                let traced = rntrajrec_obs::enabled() && RecoverRoute::of(&req).is_some();
                let trace = traced.then(|| TraceCtx {
                    id: rntrajrec_obs::next_request_id(),
                    read_start_ns: rntrajrec_obs::instant_ns(read_started),
                    read_end_ns: rntrajrec_obs::now_ns(),
                });
                let keep = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
                let ok = dispatch(&mut stream, state, &req, keep, trace);
                if !ok || !keep {
                    break;
                }
                idle_since = Instant::now();
            }
            ReadOutcome::Idle => {
                // Drain closes idle persistent connections immediately;
                // otherwise they are bounded by the idle budget so they
                // cannot hold a pool slot forever.
                if state.shutdown.load(Ordering::SeqCst) || idle_since.elapsed() >= IDLE_TIMEOUT {
                    break;
                }
            }
            // Everything else ends the connection, after a typed refusal
            // where the peer can still read one.
            failed => {
                if let Some(answer) = failed.refusal(state) {
                    state.counters.record_status(answer.status);
                    let _ = write_response(&mut stream, &answer, false);
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Read one request. `buf` carries bytes already read past the previous
/// request (pipelining / keep-alive).
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>, state: &ServerState) -> ReadOutcome {
    // Stall budget for the whole request read. `Idle` returns reset it:
    // it only starts counting once bytes begin arriving (within one
    // `READ_TIMEOUT` poll tick).
    let started = Instant::now();
    // One socket read into `buf`; `Err` is the outcome that ends the
    // request read instead. `buf` is empty only between requests.
    let read_more = |stream: &mut TcpStream, buf: &mut Vec<u8>, eof: &'static str| {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => Err(ReadOutcome::Closed),
            Ok(0) => Err(ReadOutcome::Malformed(eof)),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.is_empty() {
                    return Err(ReadOutcome::Idle);
                }
                // Mid-request stall: keep waiting, bounded by the read
                // budget, unless draining.
                if state.shutdown.load(Ordering::SeqCst) {
                    return Err(ReadOutcome::Broken);
                }
                if started.elapsed() >= state.request_read_timeout {
                    return Err(ReadOutcome::TimedOut);
                }
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(_) => Err(ReadOutcome::Broken),
        }
    };
    let header_end = loop {
        if let Some(pos) = find_crlf2(buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return ReadOutcome::Malformed("header section too large");
        }
        if let Err(outcome) = read_more(stream, buf, "connection closed mid-request") {
            return outcome;
        }
    };

    let head = match std::str::from_utf8(&buf[..header_end]) {
        Ok(h) => h.to_string(),
        Err(_) => return ReadOutcome::Malformed("non-UTF-8 header section"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReadOutcome::Malformed("malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Malformed("unsupported HTTP version");
    }

    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1"; // 1.1 default; 1.0 must opt in
    let mut expect_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            // RFC 9112 §6.3: `1*DIGIT` (`usize::from_str` would also take a
            // sign), and repeats must agree.
            "content-length" => match value.parse::<usize>() {
                Ok(n)
                    if value.bytes().all(|b| b.is_ascii_digit())
                        && content_length.is_none_or(|prev| prev == n) =>
                {
                    content_length = Some(n)
                }
                _ => return ReadOutcome::Malformed("invalid Content-Length"),
            },
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => return ReadOutcome::Unsupported,
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            _ => {}
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::BodyTooLarge;
    }
    if expect_continue && content_length > 0 {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        if let Err(outcome) = read_more(stream, buf, "connection closed mid-body") {
            return outcome;
        }
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    // Keep any pipelined bytes for the next request.
    buf.drain(..body_start + content_length);
    ReadOutcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The route part of a request target (everything before `?`).
fn route_of(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

/// Raw query parameter lookup (`?city=porto`) on a request target.
fn query_param<'a>(path: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = path.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// A buffered response: everything on the wire except the connection's
/// keep-alive decision. The reason phrase follows from the status
/// ([`reason`]).
struct Answer {
    status: u16,
    content_type: &'static str,
    body: String,
    headers: Vec<(&'static str, String)>,
}

impl Answer {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    /// The typed JSON error body every non-2xx answer carries.
    fn error(status: u16, msg: impl Into<String>) -> Self {
        Self::json(status, ErrorBody::new(status, msg).to_json())
    }

    fn header(mut self, name: &'static str, value: impl ToString) -> Self {
        self.headers.push((name, value.to_string()));
        self
    }
}

/// Reason phrase of every status this server answers with.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The three recover routes: one admission prologue ([`admit`]), differing
/// only in the request parser, the engine's streaming flag and how the
/// result is waited for.
#[derive(Clone, Copy, PartialEq)]
enum RecoverRoute {
    /// `POST /v1/recover` — frozen wire format.
    V1,
    /// `POST /v2/recover` — v1 plus the `options` object.
    V2,
    /// `POST /v2/recover/stream` — chunked per-step events.
    Stream,
}

impl RecoverRoute {
    fn of(req: &Request) -> Option<Self> {
        match (req.method.as_str(), route_of(&req.path)) {
            ("POST", "/v1/recover") => Some(Self::V1),
            ("POST", "/v2/recover") => Some(Self::V2),
            ("POST", "/v2/recover/stream") => Some(Self::Stream),
            _ => None,
        }
    }
}

/// A request past all three stages of [`admit`]: routed to its shard and
/// queued in that shard's engine. `budget` counts from `t0`.
struct Admitted<'a> {
    shard: &'a CityShard,
    handle: RecoveryHandle,
    t0: Instant,
    budget: Duration,
}

/// Route and answer one request. Returns `false` when the connection must
/// close (write failure).
fn dispatch(
    stream: &mut TcpStream,
    state: &ServerState,
    req: &Request,
    keep_alive: bool,
    trace: Option<TraceCtx>,
) -> bool {
    static E2E_SECONDS: OnceLock<Arc<Histogram>> = OnceLock::new();

    let t0 = Instant::now();
    let route = RecoverRoute::of(req);
    // Attribute HTTP-side spans (parse, serialize) to this request; the
    // scope drops — flushing them to the global store — before the root
    // span is recorded below.
    let req_scope = trace
        .as_ref()
        .map(|t| rntrajrec_obs::request_scope(&[t.id]));
    // Everything fallible happens before the first response byte, so a
    // refusal on the streaming route is still a plain buffered answer.
    // `Err` is an answer to write, `Ok` a stream to run.
    let outcome = match route {
        None => Err(answer_plain(state, req)),
        Some(route) => match admit(state, route, &req.body, trace.as_ref(), t0) {
            Ok(admitted) if route != RecoverRoute::Stream => Err(wait_and_answer(state, admitted)),
            other => other,
        },
    };
    drop(req_scope);

    // End-to-end time of a buffered answer stops when it is ready to
    // write; a stream's when its last chunk is out.
    let write_start_ns = trace.as_ref().map(|_| rntrajrec_obs::now_ns());
    let (ok, e2e) = match outcome {
        Err(answer) => {
            let ready = t0.elapsed();
            state.counters.record_status(answer.status);
            // Chaos: a write-phase fault drops the connection with the
            // response unsent — the client-side retry policy is what
            // recovers from this.
            let ok = rntrajrec_chaos::point("http.write").is_ok()
                && write_response(stream, &answer, keep_alive).is_ok();
            (ok, ready)
        }
        Ok(admitted) => {
            let ok = stream_steps(stream, state, admitted, keep_alive);
            (ok, t0.elapsed())
        }
    };
    if route.is_some() {
        E2E_SECONDS
            .get_or_init(|| metrics::phase_seconds("e2e"))
            .observe_duration(e2e);
    }
    if let (Some(t), Some(write_start_ns)) = (&trace, write_start_ns) {
        // The engine flushed its batch spans before delivering the
        // result, and the request scope above flushed the HTTP-side
        // phases — recording the root last means a request visible in
        // `/debug/trace` always has its full tree in the store.
        let end_ns = rntrajrec_obs::now_ns();
        rntrajrec_obs::record("http.read", &[t.id], t.read_start_ns, t.read_end_ns);
        rntrajrec_obs::record("http.write", &[t.id], write_start_ns, end_ns);
        rntrajrec_obs::record(rntrajrec_obs::ROOT_SPAN, &[t.id], t.read_start_ns, end_ns);
    }
    ok
}

/// Every route that is not a recover `POST`: health, metrics, examples,
/// reload, traces, and the 404/405 fallbacks.
fn answer_plain(state: &ServerState, req: &Request) -> Answer {
    let not_allowed = |m: &'static str| Answer::error(405, format!("use {m}")).header("Allow", m);
    match (req.method.as_str(), route_of(&req.path)) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => Answer {
            content_type: "text/plain; version=0.0.4",
            ..Answer::json(200, render_metrics(state))
        },
        ("GET", "/v1/example") => {
            // `?city=NAME` picks a shard; a single-shard server keeps the
            // pre-shard behaviour of serving its one example unqualified.
            let shard = match query_param(&req.path, "city") {
                Some(name) => match state.router.by_name(name) {
                    Some(shard) => shard,
                    None => return Answer::error(404, "unknown city"),
                },
                None if state.router.is_single() => &state.router.shards()[0],
                None => return Answer::error(400, "multi-city server: specify ?city=NAME"),
            };
            match shard.example() {
                Some(body) => Answer::json(200, body.to_string()),
                None => Answer::error(404, "no example configured"),
            }
        }
        ("POST", "/admin/reload") => admin_reload(state, &req.body),
        ("GET", "/debug/trace") => {
            // Chrome trace-event JSON for the last N completed requests
            // (default 16) — load in chrome://tracing or Perfetto.
            let last = query_param(&req.path, "last").and_then(|v| v.parse().ok());
            let spans = rntrajrec_obs::completed_requests(last.unwrap_or(16));
            Answer::json(200, rntrajrec_obs::chrome::chrome_trace(&spans))
        }
        (_, "/healthz" | "/metrics" | "/v1/example" | "/debug/trace") => not_allowed("GET"),
        (_, "/v1/recover" | "/v2/recover" | "/v2/recover/stream" | "/admin/reload") => {
            not_allowed("POST")
        }
        _ => Answer::error(404, format!("no route for {}", req.path)),
    }
}

/// `GET /healthz`. Top-level gauges aggregate across shards (a
/// single-shard server reads exactly as before); the per-shard breakdown
/// carries each city's queue and live model version.
fn healthz(state: &ServerState) -> Answer {
    let shards = state.router.shards();
    let per_shard: Vec<_> = shards
        .iter()
        .map(|s| {
            let info = s.info();
            json!({
                "city": s.name(),
                "queue_depth": s.engine().queue_depth(),
                "in_flight_batches": s.engine().in_flight_batches(),
                "model_version": info.model_version,
                "reloads": info.reloads,
            })
        })
        .collect();
    let queue_depth: usize = shards.iter().map(|s| s.engine().queue_depth()).sum();
    let in_flight: usize = shards.iter().map(|s| s.engine().in_flight_batches()).sum();
    let body = json!({
        "status": "ok",
        "queue_depth": queue_depth,
        "in_flight_batches": in_flight,
        "draining": state.shutdown.load(Ordering::SeqCst),
        "shards": per_shard,
    });
    Answer::json(
        200,
        serde_json::to_string(&body).expect("health serializes"),
    )
}

/// Map a shard-resolution failure to its typed answer: `404` for a
/// trajectory outside every shard, `422` for one straddling two shards
/// (well-formed, but no single road network can serve it).
fn route_answer(e: RouteError) -> Answer {
    let status = match e {
        RouteError::UnknownRegion { .. } => 404,
        RouteError::Straddles { .. } => 422,
    };
    Answer::error(status, e.to_string())
}

/// `POST /admin/reload {"city": "...", "path": "..."}` — zero-downtime
/// hot swap of one shard's model from a versioned artifact on disk.
///
/// Validation happens entirely before the swap (regular file, checksum,
/// city, network and grid identity), so any non-2xx answer means the old
/// model is still serving untouched. In-flight batches finish on the weights
/// they started with; requests admitted after the swap decode on the
/// new ones. The reload is recorded as a `reload` span in the trace
/// ring so it shows up in `/debug/trace` timelines next to the
/// requests it interleaved with.
fn admin_reload(state: &ServerState, body: &[u8]) -> Answer {
    let start_ns = rntrajrec_obs::now_ns();
    let Ok(text) = std::str::from_utf8(body) else {
        return Answer::error(400, "body is not UTF-8");
    };
    let value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Answer::error(400, format!("invalid JSON: {e}")),
    };
    let Some(city) = value.get("city").and_then(|v| v.as_str()) else {
        return Answer::error(400, "missing field 'city'");
    };
    let Some(path) = value.get("path").and_then(|v| v.as_str()) else {
        return Answer::error(400, "missing field 'path'");
    };
    let Some(shard) = state.router.by_name(city) else {
        return Answer::error(404, format!("unknown city '{city}'"));
    };
    let result = shard.reload_from_artifact(std::path::Path::new(path));
    if rntrajrec_obs::enabled() {
        let id = rntrajrec_obs::next_request_id();
        let end_ns = rntrajrec_obs::now_ns();
        rntrajrec_obs::record("reload", &[id], start_ns, end_ns);
        rntrajrec_obs::record(rntrajrec_obs::ROOT_SPAN, &[id], start_ns, end_ns);
    }
    match result {
        Ok(r) => {
            let receipt = json!({
                "city": r.city,
                "model_version": r.model_version,
                "git_sha": r.git_sha,
                "reloads": r.reloads,
            });
            Answer::json(
                200,
                serde_json::to_string(&receipt).expect("receipt serializes"),
            )
        }
        Err(e) => Answer::error(e.http_status(), format!("reload refused: {e}")),
    }
}

/// Feature extraction shared by all recover routes. Validates
/// caller-supplied coordinates up front (typed `QueryError`s →
/// field-precise 400s); the catch_unwind is a last-resort backstop so no
/// future panic path can take the connection worker down with one
/// request.
fn extract_input(shard: &CityShard, request: &RecoverRequest) -> Result<SampleInput, Answer> {
    let ctx = Arc::clone(shard.ctx());
    let msg = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.sample_input(request)
    })) {
        Ok(Ok(input)) => return Ok(input),
        Ok(Err(e)) => format!("invalid field '{}': {e}", e.field()),
        Err(payload) => {
            let panic = crate::service::panic_message(payload);
            format!("feature extraction failed: {panic}")
        }
    };
    Err(Answer::error(400, msg))
}

/// Engine admission shared by all recover routes (gate 2: the bounded
/// queue).
fn submit_to_engine(
    state: &ServerState,
    shard: &CityShard,
    input: SampleInput,
    opts: SubmitOptions,
) -> Result<RecoveryHandle, Answer> {
    let retry_after = retry_after_for(shard);
    shard.engine().submit(input, opts).map_err(|e| {
        let (status, msg) = match e {
            EngineError::Overloaded {
                queue_depth,
                capacity,
            } => (429, format!("engine queue full ({queue_depth}/{capacity})")),
            EngineError::Brownout | EngineError::FaultInjected { .. } => (503, e.to_string()),
        };
        // A full queue and a brownout are load sheds; an injected fault
        // is not.
        if !matches!(e, EngineError::FaultInjected { .. }) {
            state.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
        }
        Answer::error(status, msg).header("Retry-After", retry_after)
    })
}

/// The one prologue of all three recover routes — parse → resolve →
/// extract → budget → submit — everything that can still refuse the
/// request with a plain buffered answer. The deadline budget counts from
/// `t0` (parse + extraction time is charged against it); v2 clients may
/// *shorten* the server's configured deadline with `options.deadline_ms`,
/// never extend it past the operator-set bound.
fn admit<'a>(
    state: &'a ServerState,
    route: RecoverRoute,
    body: &[u8],
    trace: Option<&TraceCtx>,
    t0: Instant,
) -> Result<Admitted<'a>, Answer> {
    // Chaos: a fault here simulates the parse stage falling over. The
    // client still gets a typed JSON error (never a hang).
    if let Err(fault) = rntrajrec_chaos::point("http.parse") {
        return Err(Answer::error(400, fault.to_string()));
    }
    let parse_span = rntrajrec_obs::span("parse");
    let text = std::str::from_utf8(body).map_err(|_| Answer::error(400, "body is not UTF-8"))?;
    let bad_request = |e: rntrajrec::wire::WireError| Answer::error(400, e.to_string());
    // `/v1` stays frozen on its own parser; v2 and stream share theirs.
    let (request, deadline_ms) = if route == RecoverRoute::V1 {
        (RecoverRequest::from_json(text).map_err(bad_request)?, None)
    } else {
        let request = v2::RecoverRequestV2::from_json(text).map_err(bad_request)?;
        if route == RecoverRoute::V2 && request.options.stream {
            let msg = "options.stream is only valid on POST /v2/recover/stream";
            return Err(Answer::error(400, msg));
        }
        (request.base(), request.options.deadline_ms)
    };
    let shard = state
        .router
        .resolve(&request.points)
        .map_err(route_answer)?;
    let input = extract_input(shard, &request)?;
    drop(parse_span);

    let budget = match deadline_ms {
        Some(ms) => state.deadline.min(Duration::from_millis(ms)),
        None => state.deadline,
    };
    let mut opts = SubmitOptions::new().trace(trace.map(|t| t.id));
    if route == RecoverRoute::Stream {
        opts = opts.stream();
    }
    let handle = submit_to_engine(state, shard, input, opts)?;
    Ok(Admitted {
        shard,
        handle,
        t0,
        budget,
    })
}

/// How an admitted request ends, on the buffered and the streamed route
/// alike: the engine's [`Recovered`], or `None` when the budget ran out
/// first — the caller has then dropped (or is about to drop) the handle,
/// which cancels the member. `Err` carries the would-be status and the
/// message: `503` for a time failure (a missed budget or a watchdog
/// kill, counted as a deadline shed), `500` for anything else. A success
/// records its latency.
fn settle(
    state: &ServerState,
    outcome: Option<Recovered>,
    t0: Instant,
    budget: Duration,
    streamed: bool,
) -> Result<RecoverResponse, (u16, String)> {
    let failed = match outcome {
        None => {
            let ms = budget.as_secs_f64() * 1000.0;
            (503, format!("deadline of {ms:.0} ms exceeded"))
        }
        Some(recovered) => {
            let Some(err) = recovered.error else {
                state
                    .counters
                    .record_latency(t0.elapsed().as_secs_f64() * 1000.0);
                return Ok(RecoverResponse::from_path(
                    recovered.id,
                    &recovered.path,
                    recovered.batch_size,
                    recovered.latency.as_secs_f64() * 1000.0,
                ));
            };
            let what = match (streamed, recovered.timed_out) {
                (true, _) => "recovery failed",
                (false, true) => "recovery cancelled",
                (false, false) => "inference failed",
            };
            let status = if recovered.timed_out { 503 } else { 500 };
            (status, format!("{what}: {err}"))
        }
    };
    if failed.0 == 503 {
        state.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }
    Err(failed)
}

/// Admission gate 3 plus the answer: wait out the budget, then serialize
/// the result or word the failure.
fn wait_and_answer(state: &ServerState, admitted: Admitted<'_>) -> Answer {
    static SERIALIZE_SECONDS: OnceLock<Arc<Histogram>> = OnceLock::new();

    let Admitted {
        shard,
        handle,
        t0,
        budget,
    } = admitted;
    let retry_after = retry_after_for(shard);
    // A late handle is dropped here, which cancels the member at its
    // next decode step instead of finishing a response nobody will read.
    let outcome = handle
        .wait_timeout(budget.saturating_sub(t0.elapsed()))
        .ok();
    let resp = match settle(state, outcome, t0, budget, false) {
        Ok(resp) => resp,
        // Time failures are a load condition (retryable): 503 +
        // Retry-After. Anything else is a server bug.
        Err((503, msg)) => return Answer::error(503, msg).header("Retry-After", retry_after),
        Err((status, msg)) => return Answer::error(status, msg),
    };
    let serialize_started = Instant::now();
    let body = {
        let _span = rntrajrec_obs::span("serialize");
        serde_json::to_string(&resp).expect("response serializes")
    };
    SERIALIZE_SECONDS
        .get_or_init(|| metrics::phase_seconds("serialize"))
        .observe_duration(serialize_started.elapsed());
    Answer::json(200, body)
}

/// Write one chunk of an HTTP/1.1 chunked response: one JSON event line.
/// Each chunk passes the `http.write` chaos point so fault injection can
/// sever a stream mid-flight, like a real broken socket.
fn write_chunk(stream: &mut TcpStream, event: &impl serde::Serialize) -> std::io::Result<()> {
    if rntrajrec_chaos::point("http.write").is_err() {
        return Err(std::io::Error::other("chaos: stream write fault"));
    }
    let line = serde_json::to_string(event).expect("stream event serializes");
    let mut frame = format!("{:x}\r\n", line.len() + 1);
    frame.push_str(&line);
    frame.push_str("\n\r\n");
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// The `/v2/recover/stream` response, once admitted. With the chunked
/// header on the wire the contract is: zero or more `step` events, then
/// **exactly one** terminal `summary` or `error` event, then the
/// zero-length chunk. Returns `false` when the connection must close
/// (write failure mid-stream).
fn stream_steps(
    stream: &mut TcpStream,
    state: &ServerState,
    admitted: Admitted<'_>,
    keep_alive: bool,
) -> bool {
    let Admitted {
        handle, t0, budget, ..
    } = admitted;
    state.counters.record_status(200);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    let mut ok =
        rntrajrec_chaos::point("http.write").is_ok() && stream.write_all(head.as_bytes()).is_ok();
    let mut deadline_hit = false;
    while ok {
        let remaining = budget.saturating_sub(t0.elapsed());
        if remaining.is_zero() {
            deadline_hit = true;
            break;
        }
        match handle.next_step(remaining) {
            StepWait::Step(s) => {
                let ev = v2::StepEvent::new(s.id, s.step, s.segment, s.rate, s.logprob);
                ok = write_chunk(stream, &ev).is_ok();
            }
            StepWait::Finished => break,
            // The next turn finds the budget spent.
            StepWait::TimedOut => {}
        }
    }
    if !ok {
        return false;
    }
    // Terminal event: the engine's verdict once its steps are done (+ a
    // small grace for channel delivery), else the budget's. A spent
    // budget drops the handle here, before anything is written, which
    // cancels a member still decoding.
    let outcome = if deadline_hit {
        drop(handle);
        None
    } else {
        let grace = budget
            .saturating_sub(t0.elapsed())
            .max(Duration::from_millis(5));
        handle.wait_timeout(grace).ok()
    };
    let written = match settle(state, outcome, t0, budget, true) {
        Ok(resp) => write_chunk(stream, &v2::SummaryEvent::from_response(&resp)),
        Err((code, msg)) => write_chunk(stream, &v2::ErrorEvent::new(msg, code, code == 503)),
    };
    written.is_ok() && stream.write_all(b"0\r\n\r\n").is_ok() && stream.flush().is_ok()
}

/// Short git revision baked in by `build.rs`, or "unknown" outside a
/// git checkout.
pub(crate) const GIT_SHA: &str = env!("RNTRAJREC_GIT_SHA");

/// What one `/metrics` scrape reads once for every family row.
struct Scrape<'a> {
    state: &'a ServerState,
    shards: Vec<(&'a CityShard, EngineStats)>,
}

/// Where a family's samples come from.
enum Samples {
    /// One `{city="…"}` sample per shard.
    PerShard(fn(&CityShard, &EngineStats) -> f64),
    /// Anything else: the row writes its own labelled samples.
    Custom(fn(&Scrape<'_>, &mut Exposition<'_>)),
}
use Samples::{Custom, PerShard};

/// One `/metrics` family. Its name is written here and nowhere else.
struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    samples: Samples,
}

/// Every family `/metrics` serves ahead of the histogram registry, in
/// exposition order. Adding a counter is adding a row.
const FAMILIES: &[Family] = &[
    Family {
        name: "rntrajrec_build_info",
        help: "Build metadata; the value is always 1.",
        kind: Kind::Gauge,
        samples: Custom(|_, w| {
            let version = env!("CARGO_PKG_VERSION");
            w.sample(&[("version", version), ("git_sha", GIT_SHA)], 1.0);
        }),
    },
    Family {
        name: "rntrajrec_kernel_backend",
        help: "Active nn kernel backend (NN_BACKEND / CPU feature detection); the value is always 1.",
        kind: Kind::Gauge,
        samples: Custom(|s, w| w.sample(&[("backend", &s.shards[0].1.kernel_backend)], 1.0)),
    },
    Family {
        name: "rntrajrec_segment_head",
        help: "Decoder segment head each city shard serves (sparse f32 or int8); the value is always 1.",
        kind: Kind::Gauge,
        samples: Custom(|s, w| {
            for (shard, stats) in &s.shards {
                w.sample(&[("city", shard.name()), ("head", &stats.segment_head)], 1.0);
            }
        }),
    },
    Family {
        name: "rntrajrec_artifact_info",
        help: "Live model provenance per city shard (version + packing revision); the value is always 1.",
        kind: Kind::Gauge,
        samples: Custom(|s, w| {
            for (shard, _) in &s.shards {
                let info = shard.info();
                let labels = [
                    ("city", shard.name()),
                    ("model_version", &info.model_version),
                    ("git_sha", &info.git_sha),
                ];
                w.sample(&labels, 1.0);
            }
        }),
    },
    Family {
        name: "rntrajrec_uptime_seconds",
        help: "Seconds since the HTTP server started accepting connections.",
        kind: Kind::Gauge,
        samples: Custom(|s, w| w.sample(&[], s.state.started.elapsed().as_secs_f64())),
    },
    Family {
        name: "rntrajrec_http_connections_total",
        help: "TCP connections accepted.",
        kind: Kind::Counter,
        samples: Custom(|s, w| {
            w.sample(&[], s.state.counters.connections.load(Ordering::Relaxed) as f64)
        }),
    },
    Family {
        name: "rntrajrec_http_responses_total",
        help: "HTTP responses by status class.",
        kind: Kind::Counter,
        samples: Custom(|s, w| {
            let c = &s.state.counters;
            let classes = [
                ("2xx", &c.responses_2xx),
                ("4xx", &c.responses_4xx),
                ("5xx", &c.responses_5xx),
            ];
            for (class, n) in classes {
                w.sample(&[("class", class)], n.load(Ordering::Relaxed) as f64);
            }
        }),
    },
    Family {
        name: "rntrajrec_http_shed_total",
        help: "Requests shed by admission control, by reason.",
        kind: Kind::Counter,
        samples: Custom(|s, w| {
            let c = &s.state.counters;
            let reasons = [
                ("backlog", &c.shed_backlog),
                ("overload", &c.shed_overload),
                ("deadline", &c.shed_deadline),
            ];
            for (reason, n) in reasons {
                w.sample(&[("reason", reason)], n.load(Ordering::Relaxed) as f64);
            }
        }),
    },
    Family {
        name: "rntrajrec_http_recover_latency_ms",
        help: "End-to-end recover-route latency quantiles over a sliding window.",
        kind: Kind::Summary,
        samples: Custom(|s, w| {
            let ring = s.state.counters.latencies_ms.lock().unwrap();
            for (label, p) in [("0.5", 0.50), ("0.99", 0.99)] {
                w.sample(&[("quantile", label)], metrics::quantile(&ring, p));
            }
        }),
    },
    Family {
        name: "rntrajrec_engine_queue_depth",
        help: "Requests waiting in the micro-batching queue.",
        kind: Kind::Gauge,
        samples: PerShard(|s, _| s.engine().queue_depth() as f64),
    },
    Family {
        name: "rntrajrec_engine_in_flight_batches",
        help: "Batches currently being recovered.",
        kind: Kind::Gauge,
        samples: PerShard(|s, _| s.engine().in_flight_batches() as f64),
    },
    Family {
        name: "rntrajrec_engine_requests_total",
        help: "Requests accepted by the engine.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.requests as f64),
    },
    Family {
        name: "rntrajrec_engine_completed_total",
        help: "Requests answered with a terminal result, failures included.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.completed as f64),
    },
    Family {
        name: "rntrajrec_engine_failed_total",
        help: "Requests that failed during recovery.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.failed as f64),
    },
    Family {
        name: "rntrajrec_engine_rejected_total",
        help: "Requests rejected at submit time (queue full or brownout shed).",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.rejected as f64),
    },
    Family {
        name: "rntrajrec_engine_batches_total",
        help: "Batches flushed by the micro-batcher.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.batches as f64),
    },
    Family {
        name: "rntrajrec_engine_mean_batch",
        help: "Mean members per decode session since start, admissions included.",
        kind: Kind::Gauge,
        samples: PerShard(|_, st| st.mean_batch),
    },
    Family {
        name: "rntrajrec_engine_mean_queue_wait_ms",
        help: "Mean time a completed request spent queued before its batch flushed.",
        kind: Kind::Gauge,
        samples: PerShard(|_, st| st.mean_queue_wait_ms),
    },
    Family {
        name: "rntrajrec_engine_mean_compute_ms",
        help: "Mean batch compute time attributed to completed requests.",
        kind: Kind::Gauge,
        samples: PerShard(|_, st| st.mean_compute_ms),
    },
    Family {
        name: "rntrajrec_engine_queue_wait_p99_ms",
        help: "p99 queue wait over a sliding window of completed requests.",
        kind: Kind::Gauge,
        samples: PerShard(|_, st| st.queue_wait_p99_ms),
    },
    Family {
        name: "rntrajrec_engine_drain_rate_per_sec",
        help: "Observed request completion rate over the supervisor's sample window.",
        kind: Kind::Gauge,
        samples: PerShard(|_, st| st.drain_rate_per_sec),
    },
    Family {
        name: "rntrajrec_engine_worker_restarts_total",
        help: "Panics that escaped an engine session, each caught by its worker, which kept serving.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.worker_restarts as f64),
    },
    Family {
        name: "rntrajrec_engine_watchdog_timeouts_total",
        help: "Batches failed by the watchdog for exceeding the compute budget.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.watchdog_timeouts as f64),
    },
    Family {
        name: "rntrajrec_engine_admitted_total",
        help: "Members admitted into an already-running decode batch.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.admitted as f64),
    },
    Family {
        name: "rntrajrec_engine_abandoned_cancelled_total",
        help: "Batch members cancelled because their handle was dropped.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.abandoned_cancelled as f64),
    },
    Family {
        name: "rntrajrec_engine_stream_lagged_total",
        help: "Streamed members degraded to summary-only for a full step queue.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.stream_lagged as f64),
    },
    Family {
        name: "rntrajrec_engine_model_swaps_total",
        help: "Hot model swaps installed in the engine's model slot.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.model_swaps as f64),
    },
    Family {
        name: "rntrajrec_engine_brownout_level",
        help: "Active brownout level (0 normal, 1 shed).",
        kind: Kind::Gauge,
        samples: PerShard(|s, _| s.engine().brownout_level() as f64),
    },
    Family {
        name: "rntrajrec_engine_brownout_mode",
        help: "Active brownout degradation mode; the value is always 1.",
        kind: Kind::Gauge,
        samples: Custom(|s, w| {
            for (shard, stats) in &s.shards {
                w.sample(&[("city", shard.name()), ("mode", &stats.brownout_mode)], 1.0);
            }
        }),
    },
    Family {
        name: "rntrajrec_engine_brownout_shifts_total",
        help: "Brownout ladder transitions since start.",
        kind: Kind::Counter,
        samples: PerShard(|_, st| st.brownout_shifts as f64),
    },
    Family {
        name: "rntrajrec_nn_matmul_invocations_total",
        help: "Matmul kernel invocations across all threads.",
        kind: Kind::Counter,
        samples: Custom(|_, w| w.sample(&[], kernels::matmul_invocations() as f64)),
    },
    Family {
        name: "rntrajrec_trace_spans_stored",
        help: "Spans currently buffered in the trace ring.",
        kind: Kind::Gauge,
        samples: Custom(|_, w| w.sample(&[], rntrajrec_obs::stored_spans() as f64)),
    },
    Family {
        name: "rntrajrec_trace_spans_dropped_total",
        help: "Spans evicted from the trace ring before being read.",
        kind: Kind::Counter,
        samples: Custom(|_, w| w.sample(&[], rntrajrec_obs::dropped_spans() as f64)),
    },
    Family {
        name: "rntrajrec_chaos_enabled",
        help: "1 when deterministic fault injection is armed (CHAOS_FAULTS).",
        kind: Kind::Gauge,
        samples: Custom(|_, w| w.sample(&[], f64::from(rntrajrec_chaos::enabled()))),
    },
    // No armed points, no samples: the family is absent when disarmed.
    Family {
        name: "rntrajrec_chaos_injected_total",
        help: "Faults actually injected, per configured point.",
        kind: Kind::Counter,
        samples: Custom(|_, w| {
            for p in rntrajrec_chaos::snapshot() {
                w.sample(&[("point", p.point), ("kind", &p.kind)], p.fired as f64);
            }
        }),
    },
];

fn render_metrics(state: &ServerState) -> String {
    let shards = state.router.shards();
    let scrape = Scrape {
        state,
        shards: shards.iter().map(|s| (s, s.engine().stats())).collect(),
    };
    let mut out = String::with_capacity(4096 + 2048 * shards.len());
    let mut w = Exposition::new(&mut out);
    for family in FAMILIES {
        w.family(family.name, family.help, family.kind);
        match family.samples {
            PerShard(value) => {
                for (shard, stats) in &scrape.shards {
                    w.sample(&[("city", shard.name())], value(shard, stats));
                }
            }
            Custom(write) => write(&scrape, &mut w),
        }
    }
    metrics::render_into(&mut out);
    out
}

fn write_response(
    stream: &mut TcpStream,
    answer: &Answer,
    keep_alive: bool,
) -> std::io::Result<()> {
    let Answer {
        status,
        content_type,
        body,
        headers,
    } = answer;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(*status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::adaptive_retry_after;

    /// `ceil(depth / drain)` clamped to `[1, 60]`; fallback when the
    /// engine has no drain estimate yet.
    #[test]
    fn retry_after_formula() {
        // 10 queued, draining 4/s → ceil(2.5) = 3 s.
        assert_eq!(adaptive_retry_after(10, 4.0), 3);
        // Exact division: 8/4 → 2 s.
        assert_eq!(adaptive_retry_after(8, 4.0), 2);
        // Empty queue → floor of 1 s, never 0 (or the header is noise).
        assert_eq!(adaptive_retry_after(0, 4.0), 1);
        // Deep queue, slow drain → capped at 60 s.
        assert_eq!(adaptive_retry_after(1000, 0.5), 60);
        // No drain estimate (cold server / stalled): the 1 s fallback.
        assert_eq!(adaptive_retry_after(50, 0.0), 1);
        assert_eq!(adaptive_retry_after(50, -1.0), 1);
        assert_eq!(adaptive_retry_after(50, f64::NAN), 1);
    }
}
