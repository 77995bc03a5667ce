//! Dependency-free HTTP/1.1 front-end over the micro-batching engine.
//!
//! The network layer the ROADMAP's serving milestone calls for: a
//! [`TcpListener`] acceptor thread feeding a bounded connection queue, a
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
//! in `serve_http`), each `POST /v1/recover` is minted a request id at
//! accept and its lifecycle recorded as a span tree:
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
//!    picked up yet are bounded ([`HttpConfig::connection_backlog`]);
//!    beyond it the acceptor answers `503` + `Retry-After` and closes.
//! 2. **Engine queue** — [`RecoveryEngine::submit`] against the
//!    engine's bounded queue ([`EngineConfig::queue_capacity`]); an
//!    [`EngineError::Overloaded`] maps to `429` + `Retry-After`.
//! 3. **Deadline budget** — each request gets
//!    [`HttpConfig::deadline`] from read-complete to answer; an engine
//!    result that misses it maps to `503` + `Retry-After` (the engine
//!    still finishes the work; only the delivery is abandoned).
//!
//! # Graceful drain
//!
//! [`HttpServer::shutdown`] stops the acceptor (no new connections),
//! lets every connection worker finish its in-flight request, closes
//! persistent connections at the next request boundary, and joins all
//! threads. Engine workers drain their queue when the last engine handle
//! drops — `serve_http` wires this to `SIGTERM`.
//!
//! [`EngineConfig::queue_capacity`]: crate::EngineConfig::queue_capacity

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rntrajrec::wire::{v2, ErrorBody, RecoverRequest, RecoverResponse};
use rntrajrec_models::SampleInput;
use rntrajrec_nn::kernels;

use crate::shard::{CityShard, RouteError, ShardRouter};
use crate::{EngineError, QueryContext, RecoveryEngine, RecoveryHandle, StepWait, SubmitOptions};

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
    /// Accepted-but-unhandled connections the acceptor may hold before
    /// shedding with `503`.
    pub connection_backlog: usize,
    /// Per-request completion budget; an engine result missing it maps to
    /// `503` + `Retry-After`.
    pub deadline: Duration,
    /// Request bodies larger than this are refused with `413`.
    pub max_body_bytes: usize,
    /// `Retry-After` header value (seconds) on `429`/`503` responses.
    pub retry_after_secs: u64,
    /// A connection that has started a request but not delivered all of
    /// it within this budget gets `408` and is closed — a slow or stalled
    /// client must not pin a connection worker (the pool is small).
    pub request_read_timeout: Duration,
    /// A persistent connection idle (no request in progress) this long is
    /// closed; workers return to the pool.
    pub idle_timeout: Duration,
    /// Ring capacity of the latency sample backing the `/metrics`
    /// quantile gauges (`serve_http --latency-ring`). A bigger ring
    /// makes p99 steadier under sustained load; a smaller one tracks
    /// recent behaviour faster.
    pub latency_ring: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            connection_workers: 4,
            connection_backlog: 64,
            deadline: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            retry_after_secs: 1,
            request_read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            latency_ring: 1024,
        }
    }
}
/// Header-section cap (request line + headers).
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Socket read poll interval: bounds shutdown/idle/stall responsiveness.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

struct HttpCounters {
    connections: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed_backlog: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    /// Ring capacity for `latencies_ms` ([`HttpConfig::latency_ring`]).
    latency_ring: usize,
    /// Completed `/v1/recover` latencies (ms), most recent `latency_ring`.
    latencies_ms: Mutex<VecDeque<f64>>,
}

impl Default for HttpCounters {
    fn default() -> Self {
        Self::new(HttpConfig::default().latency_ring)
    }
}

impl HttpCounters {
    fn new(latency_ring: usize) -> Self {
        Self {
            connections: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            shed_backlog: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            latency_ring: latency_ring.max(1),
            latencies_ms: Mutex::new(VecDeque::new()),
        }
    }

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
        if ring.len() >= self.latency_ring {
            ring.pop_front();
        }
        ring.push_back(ms);
    }

    /// Ceil-based nearest-rank quantiles (rank `⌈p·n⌉`, 1-indexed). The
    /// previous `round((n-1)·p)` estimator disagreed with nearest rank
    /// inconsistently across ring sizes: p99 on a 67-sample ring picked
    /// rank 66 (under-reporting the tail) while small rings (8/10/50)
    /// happened to pick the max, and p50 on even-length rings rounded
    /// half away from zero to rank `n/2 + 1` instead of `n/2`.
    /// Ceil-based nearest rank always returns the smallest sample
    /// covering the requested fraction, for any ring length (pinned by
    /// the `quantile` unit tests).
    fn latency_quantiles(&self) -> (f64, f64) {
        let ring = self.latencies_ms.lock().unwrap();
        if ring.is_empty() {
            return (0.0, 0.0);
        }
        let mut sorted: Vec<f64> = ring.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pick = |p: f64| {
            let rank = (sorted.len() as f64 * p).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        (pick(0.50), pick(0.99))
    }
}

/// Adaptive `Retry-After` hint: how long until the queue ahead of a
/// retrying client has drained, at the engine's observed completion
/// rate.
///
/// `ceil(queue_depth / drain_rate)`, clamped to `[1, 60]` seconds. When
/// the engine has no drain-rate estimate yet (no completions in the
/// sample window, rate ≤ 0, or not finite), falls back to the
/// configured static value — a cold server should not tell clients to
/// wait a minute. Pinned by the `retry_after` unit tests.
fn adaptive_retry_after(queue_depth: usize, drain_rate_per_sec: f64, fallback_secs: u64) -> u64 {
    if !drain_rate_per_sec.is_finite() || drain_rate_per_sec <= 0.0 {
        return fallback_secs.clamp(1, 60);
    }
    let secs = (queue_depth as f64 / drain_rate_per_sec).ceil();
    (secs as u64).clamp(1, 60)
}

/// Per-shard `Retry-After`: the hint reflects the queue the retrying
/// client would actually land in.
fn retry_after_for(state: &ServerState, shard: &CityShard) -> u64 {
    adaptive_retry_after(
        shard.engine().queue_depth(),
        shard.engine().drain_rate_per_sec(),
        state.retry_after_secs,
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
        .map(|s| retry_after_for(state, s))
        .max()
        .unwrap_or(state.retry_after_secs.clamp(1, 60))
}

struct ServerState {
    router: Arc<ShardRouter>,
    deadline: Duration,
    max_body_bytes: usize,
    retry_after_secs: u64,
    request_read_timeout: Duration,
    idle_timeout: Duration,
    counters: HttpCounters,
    shutdown: AtomicBool,
    /// Server start, backing `rntrajrec_uptime_seconds`.
    started: Instant,
}

/// Timing captured at the socket for one traced `/v1/recover` request:
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
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            router,
            deadline: config.deadline,
            max_body_bytes: config.max_body_bytes,
            retry_after_secs: config.retry_after_secs,
            request_read_timeout: config.request_read_timeout,
            idle_timeout: config.idle_timeout,
            counters: HttpCounters::new(config.latency_ring),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.connection_backlog.max(1));
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

fn acceptor_loop(
    listener: &TcpListener,
    conn_tx: &mpsc::SyncSender<TcpStream>,
    state: &ServerState,
) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
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
                        state.counters.record_status(503);
                        let _ = write_response(
                            &mut stream,
                            503,
                            "Service Unavailable",
                            "application/json",
                            &ErrorBody::new(503, "connection backlog full").to_json(),
                            false,
                            &[("Retry-After", retry_after_value(state).to_string())],
                        );
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
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
                let trace = (rntrajrec_obs::enabled()
                    && req.method == "POST"
                    && matches!(
                        route_of(&req.path),
                        "/v1/recover" | "/v2/recover" | "/v2/recover/stream"
                    ))
                .then(|| TraceCtx {
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
                if state.shutdown.load(Ordering::SeqCst)
                    || idle_since.elapsed() >= state.idle_timeout
                {
                    break;
                }
            }
            ReadOutcome::Closed => break,
            ReadOutcome::TimedOut => {
                state.counters.record_status(408);
                let _ = write_response(
                    &mut stream,
                    408,
                    "Request Timeout",
                    "application/json",
                    &ErrorBody::new(
                        408,
                        format!(
                            "request not received within {:.0} ms",
                            state.request_read_timeout.as_secs_f64() * 1000.0
                        ),
                    )
                    .to_json(),
                    false,
                    &[],
                );
                break;
            }
            ReadOutcome::Malformed(reason) => {
                state.counters.record_status(400);
                let _ = write_response(
                    &mut stream,
                    400,
                    "Bad Request",
                    "application/json",
                    &ErrorBody::new(400, reason).to_json(),
                    false,
                    &[],
                );
                break;
            }
            ReadOutcome::BodyTooLarge => {
                state.counters.record_status(413);
                let _ = write_response(
                    &mut stream,
                    413,
                    "Payload Too Large",
                    "application/json",
                    &ErrorBody::new(
                        413,
                        format!("request body exceeds {} bytes", state.max_body_bytes),
                    )
                    .to_json(),
                    false,
                    &[],
                );
                break;
            }
            ReadOutcome::Unsupported => {
                state.counters.record_status(501);
                let _ = write_response(
                    &mut stream,
                    501,
                    "Not Implemented",
                    "application/json",
                    &ErrorBody::new(501, "transfer encodings are not supported").to_json(),
                    false,
                    &[],
                );
                break;
            }
            ReadOutcome::Broken => break,
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
    let header_end = loop {
        if let Some(pos) = find_crlf2(buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return ReadOutcome::Malformed("header section too large");
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-request")
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.is_empty() {
                    return ReadOutcome::Idle;
                }
                // Mid-request stall: keep waiting, bounded by the read
                // budget, unless draining.
                if state.shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::Broken;
                }
                if started.elapsed() >= state.request_read_timeout {
                    return ReadOutcome::TimedOut;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Broken,
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

    let mut content_length = 0usize;
    let mut keep_alive = version == "HTTP/1.1"; // 1.1 default; 1.0 must opt in
    let mut expect_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return ReadOutcome::Malformed("invalid Content-Length"),
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
    if content_length > state.max_body_bytes {
        return ReadOutcome::BodyTooLarge;
    }
    if expect_continue && content_length > 0 {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed("connection closed mid-body"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::Broken;
                }
                if started.elapsed() >= state.request_read_timeout {
                    return ReadOutcome::TimedOut;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Broken,
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

/// `usize` query parameter lookup (`?last=16`) on a request target.
fn query_usize(path: &str, key: &str) -> Option<usize> {
    query_param(path, key).and_then(|v| v.parse::<usize>().ok())
}

/// Raw query parameter lookup (`?city=porto`) on a request target.
fn query_param<'a>(path: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = path.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
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
    use std::sync::OnceLock;
    static E2E_SECONDS: OnceLock<Arc<rntrajrec_obs::metrics::Histogram>> = OnceLock::new();

    // The streaming route writes its own chunked response incrementally,
    // so it cannot go through the buffered (status, body) path below.
    if req.method == "POST" && route_of(&req.path) == "/v2/recover/stream" {
        let started = Instant::now();
        let ok = recover_stream(stream, state, req, keep_alive, trace);
        E2E_SECONDS
            .get_or_init(|| rntrajrec_obs::metrics::phase_seconds("e2e"))
            .observe_duration(started.elapsed());
        return ok;
    }

    let (status, reason, content_type, body, extra): (
        u16,
        &str,
        &str,
        String,
        Vec<(&str, String)>,
    ) = match (req.method.as_str(), route_of(&req.path)) {
        ("GET", "/healthz") => {
            // Top-level gauges aggregate across shards (a single-shard
            // server reads exactly as before); the per-shard breakdown
            // carries each city's queue and live model version.
            let shards = state.router.shards();
            let queue_depth: usize = shards.iter().map(|s| s.engine().queue_depth()).sum();
            let in_flight: usize = shards.iter().map(|s| s.engine().in_flight_batches()).sum();
            let per_shard = shards
                .iter()
                .map(|s| {
                    let info = s.info();
                    format!(
                        "{{\"city\":\"{}\",\"queue_depth\":{},\"in_flight_batches\":{},\"model_version\":\"{}\",\"reloads\":{}}}",
                        s.name(),
                        s.engine().queue_depth(),
                        s.engine().in_flight_batches(),
                        info.model_version,
                        info.reloads,
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let body = format!(
                "{{\"status\":\"ok\",\"queue_depth\":{queue_depth},\"in_flight_batches\":{in_flight},\"draining\":{},\"shards\":[{per_shard}]}}",
                state.shutdown.load(Ordering::SeqCst),
            );
            (200, "OK", "application/json", body, vec![])
        }
        ("GET", "/metrics") => (
            200,
            "OK",
            "text/plain; version=0.0.4",
            render_metrics(state),
            vec![],
        ),
        ("GET", "/v1/example") => {
            // `?city=NAME` picks a shard; a single-shard server keeps the
            // pre-shard behaviour of serving its one example unqualified.
            let shard = match query_param(&req.path, "city") {
                Some(name) => state.router.by_name(name),
                None if state.router.is_single() => Some(&state.router.shards()[0]),
                None => None,
            };
            match shard {
                None if query_param(&req.path, "city").is_some() => (
                    404,
                    "Not Found",
                    "application/json",
                    ErrorBody::new(404, "unknown city").to_json(),
                    vec![],
                ),
                None => bad_request("multi-city server: specify ?city=NAME"),
                Some(shard) => match shard.example() {
                    Some(body) => (200, "OK", "application/json", body.to_string(), vec![]),
                    None => (
                        404,
                        "Not Found",
                        "application/json",
                        ErrorBody::new(404, "no example configured").to_json(),
                        vec![],
                    ),
                },
            }
        }
        ("POST", "/v1/recover") => {
            let started = Instant::now();
            let answer = recover(state, &req.body, trace.as_ref());
            E2E_SECONDS
                .get_or_init(|| rntrajrec_obs::metrics::phase_seconds("e2e"))
                .observe_duration(started.elapsed());
            answer
        }
        ("POST", "/v2/recover") => {
            let started = Instant::now();
            let answer = recover_v2(state, &req.body, trace.as_ref());
            E2E_SECONDS
                .get_or_init(|| rntrajrec_obs::metrics::phase_seconds("e2e"))
                .observe_duration(started.elapsed());
            answer
        }
        ("POST", "/admin/reload") => admin_reload(state, &req.body),
        (_, "/admin/reload") => (
            405,
            "Method Not Allowed",
            "application/json",
            ErrorBody::new(405, "use POST").to_json(),
            vec![("Allow", "POST".to_string())],
        ),
        ("GET", "/debug/trace") => {
            // Chrome trace-event JSON for the last N completed requests
            // (default 16) — load in chrome://tracing or Perfetto.
            let last = query_usize(&req.path, "last").unwrap_or(16);
            let spans = rntrajrec_obs::completed_requests(last);
            (
                200,
                "OK",
                "application/json",
                rntrajrec_obs::chrome::chrome_trace(&spans),
                vec![],
            )
        }
        (_, "/debug/trace") => (
            405,
            "Method Not Allowed",
            "application/json",
            ErrorBody::new(405, "use GET").to_json(),
            vec![("Allow", "GET".to_string())],
        ),
        (_, "/healthz" | "/metrics" | "/v1/example") => (
            405,
            "Method Not Allowed",
            "application/json",
            ErrorBody::new(405, "use GET").to_json(),
            vec![("Allow", "GET".to_string())],
        ),
        (_, "/v1/recover" | "/v2/recover" | "/v2/recover/stream") => (
            405,
            "Method Not Allowed",
            "application/json",
            ErrorBody::new(405, "use POST").to_json(),
            vec![("Allow", "POST".to_string())],
        ),
        _ => (
            404,
            "Not Found",
            "application/json",
            ErrorBody::new(404, format!("no route for {}", req.path)).to_json(),
            vec![],
        ),
    };
    state.counters.record_status(status);
    let extra: Vec<(&str, String)> = extra;
    let write_start_ns = trace.as_ref().map(|_| rntrajrec_obs::now_ns());
    // Chaos: a write-phase fault drops the connection with the response
    // unsent — the client-side retry policy is what recovers from this.
    let ok = rntrajrec_chaos::point("http.write").is_ok()
        && write_response(
            stream,
            status,
            reason,
            content_type,
            &body,
            keep_alive,
            &extra,
        )
        .is_ok();
    if let (Some(t), Some(write_start_ns)) = (&trace, write_start_ns) {
        // The engine flushed its batch spans before delivering the
        // result, and `recover`'s request scope flushed the HTTP-side
        // phases — recording the root last means a request visible in
        // `/debug/trace` always has its full tree in the store.
        let end_ns = rntrajrec_obs::now_ns();
        rntrajrec_obs::record("http.read", &[t.id], t.read_start_ns, t.read_end_ns);
        rntrajrec_obs::record("http.write", &[t.id], write_start_ns, end_ns);
        rntrajrec_obs::record(rntrajrec_obs::ROOT_SPAN, &[t.id], t.read_start_ns, end_ns);
    }
    ok
}

/// A buffered answer: status, reason, content type, body, extra headers.
type Answer = (
    u16,
    &'static str,
    &'static str,
    String,
    Vec<(&'static str, String)>,
);

fn bad_request(msg: impl Into<String>) -> Answer {
    (
        400,
        "Bad Request",
        "application/json",
        ErrorBody::new(400, msg.into()).to_json(),
        vec![],
    )
}

/// Map a shard-resolution failure to its typed answer: `404` for a
/// trajectory outside every shard, `422` for one straddling two shards
/// (well-formed, but no single road network can serve it).
fn route_answer(e: RouteError) -> Answer {
    let (status, reason) = match e {
        RouteError::UnknownRegion { .. } => (404, "Not Found"),
        RouteError::Straddles { .. } => (422, "Unprocessable Entity"),
    };
    (
        status,
        reason,
        "application/json",
        ErrorBody::new(status, e.to_string()).to_json(),
        vec![],
    )
}

/// `POST /admin/reload {"city": "...", "path": "..."}` — zero-downtime
/// hot swap of one shard's model from a versioned artifact on disk.
///
/// Validation happens entirely before the swap (checksum, city,
/// network identity), so any non-2xx answer means the old model is
/// still serving untouched. In-flight batches finish on the weights
/// they started with; requests admitted after the swap decode on the
/// new ones. The reload is recorded as a `reload` span in the trace
/// ring so it shows up in `/debug/trace` timelines next to the
/// requests it interleaved with.
fn admin_reload(state: &ServerState, body: &[u8]) -> Answer {
    let start_ns = rntrajrec_obs::now_ns();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return bad_request("body is not UTF-8"),
    };
    let value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return bad_request(format!("invalid JSON: {e}")),
    };
    let Some(city) = value.get("city").and_then(|v| v.as_str()) else {
        return bad_request("missing field 'city'");
    };
    let Some(path) = value.get("path").and_then(|v| v.as_str()) else {
        return bad_request("missing field 'path'");
    };
    let Some(shard) = state.router.by_name(city) else {
        return (
            404,
            "Not Found",
            "application/json",
            ErrorBody::new(404, format!("unknown city '{city}'")).to_json(),
            vec![],
        );
    };
    let result = shard.reload_from_artifact(std::path::Path::new(path));
    if rntrajrec_obs::enabled() {
        let id = rntrajrec_obs::next_request_id();
        let end_ns = rntrajrec_obs::now_ns();
        rntrajrec_obs::record("reload", &[id], start_ns, end_ns);
        rntrajrec_obs::record(rntrajrec_obs::ROOT_SPAN, &[id], start_ns, end_ns);
    }
    match result {
        Ok(r) => (
            200,
            "OK",
            "application/json",
            format!(
                "{{\"city\":\"{}\",\"model_version\":\"{}\",\"git_sha\":\"{}\",\"reloads\":{}}}",
                r.city, r.model_version, r.git_sha, r.reloads,
            ),
            vec![],
        ),
        Err(e) => {
            let (status, reason) = e.http_status();
            (
                status,
                reason,
                "application/json",
                ErrorBody::new(status, format!("reload refused: {e}")).to_json(),
                vec![],
            )
        }
    }
}

/// Per-request decode budget for the v2 API: the client may *shorten*
/// the server's configured deadline with `options.deadline_ms`, never
/// extend it past the operator-set bound.
fn effective_budget(state: &ServerState, deadline_ms: Option<u64>) -> Duration {
    match deadline_ms {
        Some(ms) => state.deadline.min(Duration::from_millis(ms)),
        None => state.deadline,
    }
}

/// Feature extraction shared by all recover routes. Validates
/// caller-supplied coordinates up front (typed `QueryError`s →
/// field-precise 400s); the catch_unwind is a last-resort backstop so no
/// future panic path can take the connection worker down with one
/// request.
fn extract_input(shard: &CityShard, request: &RecoverRequest) -> Result<SampleInput, Answer> {
    let ctx = Arc::clone(shard.ctx());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.sample_input(request))) {
        Ok(Ok(input)) => Ok(input),
        Ok(Err(e)) => Err(bad_request(format!("invalid field '{}': {e}", e.field()))),
        Err(payload) => Err(bad_request(format!(
            "feature extraction failed: {}",
            crate::service::panic_message(&payload)
        ))),
    }
}

/// Engine admission shared by all recover routes (gate 2: the bounded
/// queue). The deadline is propagated so the engine can cancel this
/// member mid-decode instead of finishing work nobody will read.
fn submit_to_engine(
    state: &ServerState,
    shard: &CityShard,
    input: SampleInput,
    opts: SubmitOptions,
) -> Result<RecoveryHandle, Answer> {
    let retry = vec![("Retry-After", retry_after_for(state, shard).to_string())];
    match shard.engine().submit(input, opts) {
        Ok(h) => Ok(h),
        Err(EngineError::Overloaded {
            queue_depth,
            capacity,
        }) => {
            state.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            Err((
                429,
                "Too Many Requests",
                "application/json",
                ErrorBody::new(429, format!("engine queue full ({queue_depth}/{capacity})"))
                    .to_json(),
                retry,
            ))
        }
        Err(e @ EngineError::Brownout) => {
            state.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            Err((
                503,
                "Service Unavailable",
                "application/json",
                ErrorBody::new(503, e.to_string()).to_json(),
                retry,
            ))
        }
        Err(e @ EngineError::FaultInjected { .. }) => Err((
            503,
            "Service Unavailable",
            "application/json",
            ErrorBody::new(503, e.to_string()).to_json(),
            retry,
        )),
    }
}

/// Admission gate 3 plus the answer: wait out the deadline budget
/// (parse + extraction time counts against it) and serialize the result.
fn wait_and_answer(
    state: &ServerState,
    shard: &CityShard,
    handle: RecoveryHandle,
    t0: Instant,
    budget: Duration,
) -> Answer {
    use std::sync::OnceLock;
    static SERIALIZE_SECONDS: OnceLock<Arc<rntrajrec_obs::metrics::Histogram>> = OnceLock::new();

    let retry = vec![("Retry-After", retry_after_for(state, shard).to_string())];
    let remaining = budget.saturating_sub(t0.elapsed());
    match handle.wait_timeout(remaining) {
        // Dropping the late handle here flags the member as abandoned, so
        // the engine cancels it at the next decode step instead of
        // finishing a response nobody will read.
        Err(_late) => {
            state.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            (
                503,
                "Service Unavailable",
                "application/json",
                ErrorBody::new(
                    503,
                    format!(
                        "deadline of {:.0} ms exceeded",
                        budget.as_secs_f64() * 1000.0
                    ),
                )
                .to_json(),
                retry,
            )
        }
        Ok(recovered) => {
            if let Some(err) = recovered.error {
                // Deadline/watchdog cancellations are a load condition
                // (retryable), not a server bug: 503 + Retry-After.
                if recovered.timed_out {
                    state.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    return (
                        503,
                        "Service Unavailable",
                        "application/json",
                        ErrorBody::new(503, format!("recovery cancelled: {err}")).to_json(),
                        retry,
                    );
                }
                return (
                    500,
                    "Internal Server Error",
                    "application/json",
                    ErrorBody::new(500, format!("inference failed: {err}")).to_json(),
                    vec![],
                );
            }
            let latency_ms = recovered.latency.as_secs_f64() * 1000.0;
            state
                .counters
                .record_latency(t0.elapsed().as_secs_f64() * 1000.0);
            let serialize_started = Instant::now();
            let body = {
                let _span = rntrajrec_obs::span("serialize");
                let resp = RecoverResponse::from_path(
                    recovered.id,
                    &recovered.path,
                    recovered.batch_size,
                    latency_ms,
                );
                serde_json::to_string(&resp).expect("response serializes")
            };
            SERIALIZE_SECONDS
                .get_or_init(|| rntrajrec_obs::metrics::phase_seconds("serialize"))
                .observe_duration(serialize_started.elapsed());
            (200, "OK", "application/json", body, vec![])
        }
    }
}

/// The `/v1/recover` flow: parse → extract → admit → wait (with deadline)
/// → answer.
fn recover(state: &ServerState, body: &[u8], trace: Option<&TraceCtx>) -> Answer {
    let t0 = Instant::now();

    // Chaos: a fault here simulates the parse stage falling over. The
    // client still gets a typed JSON error (never a hang).
    if let Err(fault) = rntrajrec_chaos::point("http.parse") {
        return bad_request(fault.to_string());
    }
    // Attribute HTTP-side spans (parse, serialize) to this request; the
    // scope drop at function exit flushes them to the global store before
    // `dispatch` records the root span.
    let _req_scope = trace.map(|t| rntrajrec_obs::request_scope(&[t.id]));
    let parse_span = rntrajrec_obs::span("parse");

    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return bad_request("body is not UTF-8"),
    };
    let request = match RecoverRequest::from_json(text) {
        Ok(r) => r,
        Err(e) => return bad_request(e.to_string()),
    };
    let shard = match state.router.resolve(&request.points) {
        Ok(s) => s,
        Err(e) => return route_answer(e),
    };
    let input = match extract_input(shard, &request) {
        Ok(input) => input,
        Err(answer) => return answer,
    };
    drop(parse_span);

    let opts = SubmitOptions::new()
        .deadline(t0 + state.deadline)
        .trace(trace.map(|t| t.id));
    let handle = match submit_to_engine(state, shard, input, opts) {
        Ok(h) => h,
        Err(answer) => return answer,
    };
    wait_and_answer(state, shard, handle, t0, state.deadline)
}

/// The `/v2/recover` flow: same as v1 plus an explicit `options` object
/// (client-shortened deadline, advisory head selection). Streaming is
/// its own route — `options.stream: true` here is a usage error.
fn recover_v2(state: &ServerState, body: &[u8], trace: Option<&TraceCtx>) -> Answer {
    let t0 = Instant::now();

    if let Err(fault) = rntrajrec_chaos::point("http.parse") {
        return bad_request(fault.to_string());
    }
    let _req_scope = trace.map(|t| rntrajrec_obs::request_scope(&[t.id]));
    let parse_span = rntrajrec_obs::span("parse");

    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return bad_request("body is not UTF-8"),
    };
    let request = match v2::RecoverRequestV2::from_json(text) {
        Ok(r) => r,
        Err(e) => return bad_request(e.to_string()),
    };
    if request.options.stream {
        return bad_request("options.stream is only valid on POST /v2/recover/stream");
    }
    let shard = match state.router.resolve(&request.points) {
        Ok(s) => s,
        Err(e) => return route_answer(e),
    };
    let input = match extract_input(shard, &request.base()) {
        Ok(input) => input,
        Err(answer) => return answer,
    };
    drop(parse_span);

    let budget = effective_budget(state, request.options.deadline_ms);
    let opts = SubmitOptions::new()
        .deadline(t0 + budget)
        .trace(trace.map(|t| t.id));
    let handle = match submit_to_engine(state, shard, input, opts) {
        Ok(h) => h,
        Err(answer) => return answer,
    };
    wait_and_answer(state, shard, handle, t0, budget)
}

/// Write one chunk of an HTTP/1.1 chunked response: one JSON event line.
/// Each chunk passes the `http.write` chaos point so fault injection can
/// sever a stream mid-flight, like a real broken socket.
fn write_chunk(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    if rntrajrec_chaos::point("http.write").is_err() {
        return Err(std::io::Error::other("chaos: stream write fault"));
    }
    let mut frame = format!("{:x}\r\n", line.len() + 1);
    frame.push_str(line);
    frame.push_str("\n\r\n");
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// The `/v2/recover/stream` flow. Everything up to admission can still
/// fail with an ordinary buffered JSON error response; once the chunked
/// header is on the wire the contract becomes: zero or more `step`
/// events, then **exactly one** terminal `summary` or `error` event,
/// then the zero-length chunk. Returns `false` when the connection must
/// close (write failure mid-stream).
fn recover_stream(
    stream: &mut TcpStream,
    state: &ServerState,
    req: &Request,
    keep_alive: bool,
    trace: Option<TraceCtx>,
) -> bool {
    let t0 = Instant::now();

    // Fallible prologue: parse → extract → admit, all before the first
    // response byte. An `Err` here is a plain (un-chunked) answer.
    let prologue: Result<(RecoveryHandle, Duration), Answer> = (|| {
        if let Err(fault) = rntrajrec_chaos::point("http.parse") {
            return Err(bad_request(fault.to_string()));
        }
        let _req_scope = trace
            .as_ref()
            .map(|t| rntrajrec_obs::request_scope(&[t.id]));
        let parse_span = rntrajrec_obs::span("parse");
        let text = std::str::from_utf8(&req.body).map_err(|_| bad_request("body is not UTF-8"))?;
        let request =
            v2::RecoverRequestV2::from_json(text).map_err(|e| bad_request(e.to_string()))?;
        let shard = state
            .router
            .resolve(&request.points)
            .map_err(route_answer)?;
        let input = extract_input(shard, &request.base())?;
        drop(parse_span);
        let budget = effective_budget(state, request.options.deadline_ms);
        let opts = SubmitOptions::new()
            .deadline(t0 + budget)
            .trace(trace.as_ref().map(|t| t.id))
            .stream();
        let handle = submit_to_engine(state, shard, input, opts)?;
        Ok((handle, budget))
    })();

    let write_start_ns = trace.as_ref().map(|_| rntrajrec_obs::now_ns());
    let ok = match prologue {
        Err((status, reason, content_type, body, extra)) => {
            state.counters.record_status(status);
            rntrajrec_chaos::point("http.write").is_ok()
                && write_response(
                    stream,
                    status,
                    reason,
                    content_type,
                    &body,
                    keep_alive,
                    &extra,
                )
                .is_ok()
        }
        Ok((handle, budget)) => {
            state.counters.record_status(200);
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                 Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
                if keep_alive { "keep-alive" } else { "close" }
            );
            let mut ok = rntrajrec_chaos::point("http.write").is_ok()
                && stream.write_all(head.as_bytes()).is_ok();
            let mut deadline_hit = false;
            while ok {
                let remaining = budget.saturating_sub(t0.elapsed());
                match handle.next_step(remaining.max(Duration::from_millis(1))) {
                    StepWait::Step(s) => {
                        let ev = v2::StepEvent::new(s.id, s.step, s.segment, s.rate, s.logprob);
                        let line = serde_json::to_string(&ev).expect("step event serializes");
                        ok = write_chunk(stream, &line).is_ok();
                    }
                    StepWait::Finished => break,
                    StepWait::TimedOut => {
                        if t0.elapsed() >= budget {
                            deadline_hit = true;
                            break;
                        }
                    }
                }
            }
            if ok {
                // Terminal event: the engine's verdict if it arrives in
                // budget (+ a small grace for channel delivery), else a
                // deadline error. Dropping an unconsumed handle flags the
                // member abandoned so the engine cancels it mid-decode.
                let grace = budget
                    .saturating_sub(t0.elapsed())
                    .max(Duration::from_millis(5));
                let terminal = if deadline_hit {
                    Err(())
                } else {
                    handle.wait_timeout(grace).map_err(|_| ())
                };
                let line = match terminal {
                    Err(()) => {
                        state.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                        let ev = v2::ErrorEvent::new(
                            format!(
                                "deadline of {:.0} ms exceeded",
                                budget.as_secs_f64() * 1000.0
                            ),
                            503,
                            true,
                        );
                        serde_json::to_string(&ev).expect("error event serializes")
                    }
                    Ok(recovered) => match recovered.error {
                        Some(err) => {
                            let (code, timed_out) = if recovered.timed_out {
                                state.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                                (503, true)
                            } else {
                                (500, false)
                            };
                            let ev = v2::ErrorEvent::new(
                                format!("recovery failed: {err}"),
                                code,
                                timed_out,
                            );
                            serde_json::to_string(&ev).expect("error event serializes")
                        }
                        None => {
                            state
                                .counters
                                .record_latency(t0.elapsed().as_secs_f64() * 1000.0);
                            let resp = RecoverResponse::from_path(
                                recovered.id,
                                &recovered.path,
                                recovered.batch_size,
                                recovered.latency.as_secs_f64() * 1000.0,
                            );
                            let ev = v2::SummaryEvent::from_response(&resp);
                            serde_json::to_string(&ev).expect("summary event serializes")
                        }
                    },
                };
                ok = write_chunk(stream, &line).is_ok()
                    && stream.write_all(b"0\r\n\r\n").is_ok()
                    && stream.flush().is_ok();
            }
            ok
        }
    };
    if let (Some(t), Some(write_start_ns)) = (&trace, write_start_ns) {
        let end_ns = rntrajrec_obs::now_ns();
        rntrajrec_obs::record("http.read", &[t.id], t.read_start_ns, t.read_end_ns);
        rntrajrec_obs::record("http.write", &[t.id], write_start_ns, end_ns);
        rntrajrec_obs::record(rntrajrec_obs::ROOT_SPAN, &[t.id], t.read_start_ns, end_ns);
    }
    ok
}

/// Short git revision baked in by `build.rs`, or "unknown" outside a
/// git checkout.
pub(crate) const GIT_SHA: &str = env!("RNTRAJREC_GIT_SHA");

fn render_metrics(state: &ServerState) -> String {
    let c = &state.counters;
    let shards = state.router.shards();
    let shard_stats: Vec<(&CityShard, crate::EngineStats)> =
        shards.iter().map(|s| (s, s.engine().stats())).collect();
    let pool = rntrajrec_nn::pool::stats();
    let (p50, p99) = c.latency_quantiles();
    let mut out = String::with_capacity(4096 + 2048 * shards.len());
    let line = |out: &mut String, name: &str, labels: &str, v: f64| {
        out.push_str(name);
        out.push_str(labels);
        out.push(' ');
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    };
    let header = |out: &mut String, name: &str, help: &str, kind: &str| {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(help);
        out.push_str("\n# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
    };

    header(
        &mut out,
        "rntrajrec_build_info",
        "Build metadata; the value is always 1.",
        "gauge",
    );
    out.push_str(&format!(
        "rntrajrec_build_info{{version=\"{}\",git_sha=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        GIT_SHA,
    ));
    header(
        &mut out,
        "rntrajrec_kernel_backend",
        "Active nn kernel backend (NN_BACKEND / CPU feature detection); the value is always 1.",
        "gauge",
    );
    out.push_str(&format!(
        "rntrajrec_kernel_backend{{backend=\"{}\"}} 1\n",
        shard_stats[0].1.kernel_backend,
    ));
    header(
        &mut out,
        "rntrajrec_segment_head",
        "Decoder segment head each city shard serves (sparse f32 or int8); the value is always 1.",
        "gauge",
    );
    for (s, st) in &shard_stats {
        out.push_str(&format!(
            "rntrajrec_segment_head{{city=\"{}\",head=\"{}\"}} 1\n",
            s.name(),
            st.segment_head,
        ));
    }
    header(
        &mut out,
        "rntrajrec_artifact_info",
        "Live model provenance per city shard (version + packing revision); the value is always 1.",
        "gauge",
    );
    for (s, _) in &shard_stats {
        let info = s.info();
        out.push_str(&format!(
            "rntrajrec_artifact_info{{city=\"{}\",model_version=\"{}\",git_sha=\"{}\"}} 1\n",
            s.name(),
            info.model_version,
            info.git_sha,
        ));
    }
    header(
        &mut out,
        "rntrajrec_uptime_seconds",
        "Seconds since the HTTP server started accepting connections.",
        "gauge",
    );
    line(
        &mut out,
        "rntrajrec_uptime_seconds",
        "",
        state.started.elapsed().as_secs_f64(),
    );

    header(
        &mut out,
        "rntrajrec_http_connections_total",
        "TCP connections accepted.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_http_connections_total",
        "",
        c.connections.load(Ordering::Relaxed) as f64,
    );
    header(
        &mut out,
        "rntrajrec_http_responses_total",
        "HTTP responses by status class.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_http_responses_total",
        "{class=\"2xx\"}",
        c.responses_2xx.load(Ordering::Relaxed) as f64,
    );
    line(
        &mut out,
        "rntrajrec_http_responses_total",
        "{class=\"4xx\"}",
        c.responses_4xx.load(Ordering::Relaxed) as f64,
    );
    line(
        &mut out,
        "rntrajrec_http_responses_total",
        "{class=\"5xx\"}",
        c.responses_5xx.load(Ordering::Relaxed) as f64,
    );
    header(
        &mut out,
        "rntrajrec_http_shed_total",
        "Requests shed by admission control, by reason.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_http_shed_total",
        "{reason=\"backlog\"}",
        c.shed_backlog.load(Ordering::Relaxed) as f64,
    );
    line(
        &mut out,
        "rntrajrec_http_shed_total",
        "{reason=\"overload\"}",
        c.shed_overload.load(Ordering::Relaxed) as f64,
    );
    line(
        &mut out,
        "rntrajrec_http_shed_total",
        "{reason=\"deadline\"}",
        c.shed_deadline.load(Ordering::Relaxed) as f64,
    );
    header(
        &mut out,
        "rntrajrec_http_recover_latency_ms",
        "End-to-end /v1/recover latency quantiles over a sliding window.",
        "summary",
    );
    line(
        &mut out,
        "rntrajrec_http_recover_latency_ms",
        "{quantile=\"0.5\"}",
        p50,
    );
    line(
        &mut out,
        "rntrajrec_http_recover_latency_ms",
        "{quantile=\"0.99\"}",
        p99,
    );

    // Engine families: one HELP/TYPE header per family, one labelled
    // sample per city shard.
    let city_label = |s: &CityShard| format!("{{city=\"{}\"}}", s.name());
    let per_shard = |out: &mut String,
                     name: &str,
                     help: &str,
                     kind: &str,
                     value: &dyn Fn(&CityShard, &crate::EngineStats) -> f64| {
        header(out, name, help, kind);
        for (s, st) in &shard_stats {
            line(out, name, &city_label(s), value(s, st));
        }
    };

    per_shard(
        &mut out,
        "rntrajrec_engine_queue_depth",
        "Requests waiting in the micro-batching queue.",
        "gauge",
        &|s, _| s.engine().queue_depth() as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_in_flight_batches",
        "Batches currently being recovered.",
        "gauge",
        &|s, _| s.engine().in_flight_batches() as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_requests_total",
        "Requests accepted by the engine.",
        "counter",
        &|_, st| st.requests as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_completed_total",
        "Requests recovered successfully.",
        "counter",
        &|_, st| st.completed as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_failed_total",
        "Requests that failed during recovery.",
        "counter",
        &|_, st| st.failed as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_rejected_total",
        "Requests rejected at submit time (queue full or shutdown).",
        "counter",
        &|_, st| st.rejected as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_batches_total",
        "Batches flushed by the micro-batcher.",
        "counter",
        &|_, st| st.batches as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_mean_batch",
        "Mean batch size since start.",
        "gauge",
        &|_, st| st.mean_batch,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_mean_queue_wait_ms",
        "Mean time a completed request spent queued before its batch flushed.",
        "gauge",
        &|_, st| st.mean_queue_wait_ms,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_mean_compute_ms",
        "Mean batch compute time attributed to completed requests.",
        "gauge",
        &|_, st| st.mean_compute_ms,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_queue_wait_p99_ms",
        "p99 queue wait over a sliding window of completed requests.",
        "gauge",
        &|_, st| st.queue_wait_p99_ms,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_drain_rate_per_sec",
        "Observed request completion rate over the supervisor's sample window.",
        "gauge",
        &|_, st| st.drain_rate_per_sec,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_worker_restarts_total",
        "Crashed engine workers respawned by the supervisor.",
        "counter",
        &|_, st| st.worker_restarts as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_watchdog_timeouts_total",
        "Batches failed by the watchdog for exceeding the compute budget.",
        "counter",
        &|_, st| st.watchdog_timeouts as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_deadline_cancelled_total",
        "Batch members cancelled mid-decode for an expired deadline.",
        "counter",
        &|_, st| st.deadline_cancelled as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_admitted_total",
        "Members admitted into an already-running decode batch.",
        "counter",
        &|_, st| st.admitted as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_abandoned_cancelled_total",
        "Batch members cancelled because their handle was dropped.",
        "counter",
        &|_, st| st.abandoned_cancelled as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_stream_lagged_total",
        "Streamed members degraded to summary-only for a full step queue.",
        "counter",
        &|_, st| st.stream_lagged as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_model_swaps_total",
        "Hot model swaps installed in the engine's model slot.",
        "counter",
        &|_, st| st.model_swaps as f64,
    );
    per_shard(
        &mut out,
        "rntrajrec_engine_brownout_level",
        "Active brownout ladder level (0 normal … 3 shed).",
        "gauge",
        &|s, _| s.engine().brownout_level() as f64,
    );
    header(
        &mut out,
        "rntrajrec_engine_brownout_mode",
        "Active brownout degradation mode; the value is always 1.",
        "gauge",
    );
    for (s, st) in &shard_stats {
        out.push_str(&format!(
            "rntrajrec_engine_brownout_mode{{city=\"{}\",mode=\"{}\"}} 1\n",
            s.name(),
            st.brownout_mode,
        ));
    }
    per_shard(
        &mut out,
        "rntrajrec_engine_brownout_shifts_total",
        "Brownout ladder transitions since start.",
        "counter",
        &|_, st| st.brownout_shifts as f64,
    );

    header(
        &mut out,
        "rntrajrec_nn_matmul_invocations_total",
        "Matmul kernel invocations across all threads.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_nn_matmul_invocations_total",
        "",
        kernels::matmul_invocations() as f64,
    );
    header(
        &mut out,
        "rntrajrec_nn_pool_jobs_total",
        "Thread-pool dispatch decisions by mode.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_nn_pool_jobs_total",
        "{mode=\"parallel\"}",
        pool.parallel_jobs as f64,
    );
    line(
        &mut out,
        "rntrajrec_nn_pool_jobs_total",
        "{mode=\"inline_busy\"}",
        pool.inline_busy as f64,
    );
    line(
        &mut out,
        "rntrajrec_nn_pool_jobs_total",
        "{mode=\"inline_small\"}",
        pool.inline_small as f64,
    );

    header(
        &mut out,
        "rntrajrec_trace_spans_stored",
        "Spans currently buffered in the trace ring.",
        "gauge",
    );
    line(
        &mut out,
        "rntrajrec_trace_spans_stored",
        "",
        rntrajrec_obs::stored_spans() as f64,
    );
    header(
        &mut out,
        "rntrajrec_trace_spans_dropped_total",
        "Spans evicted from the trace ring before being read.",
        "counter",
    );
    line(
        &mut out,
        "rntrajrec_trace_spans_dropped_total",
        "",
        rntrajrec_obs::dropped_spans() as f64,
    );

    header(
        &mut out,
        "rntrajrec_chaos_enabled",
        "1 when deterministic fault injection is armed (CHAOS_FAULTS).",
        "gauge",
    );
    line(
        &mut out,
        "rntrajrec_chaos_enabled",
        "",
        if rntrajrec_chaos::enabled() { 1.0 } else { 0.0 },
    );
    let chaos_points = rntrajrec_chaos::snapshot();
    if !chaos_points.is_empty() {
        header(
            &mut out,
            "rntrajrec_chaos_injected_total",
            "Faults actually injected, per configured point.",
            "counter",
        );
        for p in &chaos_points {
            out.push_str(&format!(
                "rntrajrec_chaos_injected_total{{point=\"{}\",kind=\"{}\"}} {}\n",
                p.point, p.kind, p.fired,
            ));
        }
    }

    rntrajrec_obs::metrics::render_into(&mut out);
    out
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
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
    use super::{adaptive_retry_after, HttpCounters};

    /// `ceil(depth / drain)` clamped to `[1, 60]`; fallback when the
    /// engine has no drain estimate yet.
    #[test]
    fn retry_after_formula() {
        // 10 queued, draining 4/s → ceil(2.5) = 3 s.
        assert_eq!(adaptive_retry_after(10, 4.0, 1), 3);
        // Exact division: 8/4 → 2 s.
        assert_eq!(adaptive_retry_after(8, 4.0, 1), 2);
        // Empty queue → floor of 1 s, never 0 (or the header is noise).
        assert_eq!(adaptive_retry_after(0, 4.0, 1), 1);
        // Deep queue, slow drain → capped at 60 s.
        assert_eq!(adaptive_retry_after(1000, 0.5, 1), 60);
        // No drain estimate (cold server / stalled): use the fallback…
        assert_eq!(adaptive_retry_after(50, 0.0, 2), 2);
        assert_eq!(adaptive_retry_after(50, -1.0, 2), 2);
        assert_eq!(adaptive_retry_after(50, f64::NAN, 2), 2);
        // …and the fallback is clamped into the same band.
        assert_eq!(adaptive_retry_after(50, 0.0, 0), 1);
        assert_eq!(adaptive_retry_after(50, 0.0, 600), 60);
    }

    fn quantiles_of(samples: &[f64]) -> (f64, f64) {
        let c = HttpCounters::default();
        for &s in samples {
            c.record_latency(s);
        }
        c.latency_quantiles()
    }

    /// Ceil-based nearest rank over rings with known contents: rank
    /// `⌈p·n⌉` (1-indexed), consistent across ring sizes. The old
    /// `round((n-1)·p)` estimator diverged from nearest rank depending
    /// on the ring length: at p99 a 67-sample ring picked rank 66
    /// (`round(66·0.99) = 65`, under-reporting the tail) while 8-, 10-
    /// and 50-sample rings picked the max; at p50 every even-length ring
    /// rounded half away from zero to rank `n/2 + 1` (e.g. rank 6 of
    /// 10).
    #[test]
    fn quantiles_use_ceil_nearest_rank() {
        // Ring of 50: 1.0..=50.0. p99 rank = ceil(49.5) = 50 → 50.0;
        // p50 rank = ceil(25.0) = 25 → 25.0.
        let ring50: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring50), (25.0, 50.0));

        // Ring of 10: p99 rank = ceil(9.9) = 10 → 10.0; p50 rank =
        // ceil(5.0) = 5 → 5.0 (the old estimator returned 6.0 here).
        let ring10: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring10), (5.0, 10.0));

        // Ring of 8: p99 rank = ceil(7.92) = 8 → 8.0; p50 rank = 4.
        let ring8: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring8), (4.0, 8.0));

        // Ring of 67: p99 rank = ceil(66.33) = 67 → 67.0 — the case the
        // old estimator under-reported (rank 66 → 66.0); p50 rank = 34.
        let ring67: Vec<f64> = (1..=67).map(|i| i as f64).collect();
        assert_eq!(quantiles_of(&ring67), (34.0, 67.0));

        // Singleton and empty edge cases.
        assert_eq!(quantiles_of(&[7.25]), (7.25, 7.25));
        assert_eq!(quantiles_of(&[]), (0.0, 0.0));

        // Order of arrival must not matter (the ring is sorted on read).
        let mut shuffled = ring10.clone();
        shuffled.reverse();
        shuffled.swap(2, 7);
        assert_eq!(quantiles_of(&shuffled), (5.0, 10.0));
    }
}

/// A deliberately tiny blocking HTTP/1.1 client — one connection per
/// request, `Connection: close` — for the integration tests, the
/// benchmark's network-overhead measurement, and the example. Not a
/// general client.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A parsed response.
    #[derive(Debug, Clone)]
    pub struct HttpResponse {
        pub status: u16,
        pub headers: Vec<(String, String)>,
        pub body: String,
    }

    impl HttpResponse {
        /// Case-insensitive header lookup.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
    }

    /// `GET` a path.
    pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
        request(addr, "GET", path, None)
    }

    /// `POST` a JSON body.
    pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        request(addr, "POST", path, Some(body))
    }

    /// `POST` to a streaming route (`/v2/recover/stream`), invoking
    /// `on_line` for each NDJSON event line **as it arrives** — before
    /// the stream completes — so callers can timestamp the first step.
    /// The returned body is the de-chunked NDJSON text; non-chunked
    /// (error) responses return as-is without calling `on_line`.
    pub fn post_stream(
        addr: SocketAddr,
        path: &str,
        body: &str,
        mut on_line: impl FnMut(&str),
    ) -> std::io::Result<HttpResponse> {
        let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(req.as_bytes())?;

        let mut buf: Vec<u8> = Vec::new();
        let header_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if read_more(&mut stream, &mut buf)? == 0 {
                return Err(err("connection closed before response headers"));
            }
        };
        let (status, headers) = parse_head(&buf[..header_end])?;
        let chunked = headers.iter().any(|(n, v)| {
            n.eq_ignore_ascii_case("transfer-encoding")
                && v.to_ascii_lowercase().contains("chunked")
        });
        let mut rest: Vec<u8> = buf.split_off(header_end + 4);
        if !chunked {
            while read_more(&mut stream, &mut rest)? != 0 {}
            let body = String::from_utf8(rest).map_err(|_| err("non-UTF-8 body"))?;
            return Ok(HttpResponse {
                status,
                headers,
                body,
            });
        }
        let mut body_out = String::new();
        let mut pending = String::new();
        loop {
            let size_end = loop {
                if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
                    break pos;
                }
                if read_more(&mut stream, &mut rest)? == 0 {
                    return Err(err("connection closed mid chunk-size line"));
                }
            };
            let size_str = std::str::from_utf8(&rest[..size_end])
                .map_err(|_| err("non-UTF-8 chunk-size line"))?;
            let size =
                usize::from_str_radix(size_str.split(';').next().unwrap_or_default().trim(), 16)
                    .map_err(|_| err("malformed chunk size"))?;
            rest.drain(..size_end + 2);
            if size == 0 {
                break;
            }
            while rest.len() < size + 2 {
                if read_more(&mut stream, &mut rest)? == 0 {
                    return Err(err("connection closed mid chunk"));
                }
            }
            pending
                .push_str(std::str::from_utf8(&rest[..size]).map_err(|_| err("non-UTF-8 chunk"))?);
            rest.drain(..size + 2);
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                let line = line.trim_end();
                if !line.is_empty() {
                    on_line(line);
                    body_out.push_str(line);
                    body_out.push('\n');
                }
            }
        }
        Ok(HttpResponse {
            status,
            headers,
            body: body_out,
        })
    }

    fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let mut tmp = [0u8; 4096];
        loop {
            match stream.read(&mut tmp) {
                Ok(n) => {
                    buf.extend_from_slice(&tmp[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Issue one request on a fresh connection.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let body = body.unwrap_or("");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(req.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    fn parse_head(head: &[u8]) -> std::io::Result<(u16, Vec<(String, String)>)> {
        let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let head = std::str::from_utf8(head).map_err(|_| err("non-UTF-8 headers"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| err("empty response"))?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| err("malformed status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
            .collect();
        Ok((status, headers))
    }

    /// Decode an HTTP/1.1 chunked body captured in full.
    fn decode_chunked(mut raw: &[u8]) -> std::io::Result<Vec<u8>> {
        let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut out = Vec::new();
        loop {
            let size_end = raw
                .windows(2)
                .position(|w| w == b"\r\n")
                .ok_or_else(|| err("truncated chunk-size line"))?;
            let size_str =
                std::str::from_utf8(&raw[..size_end]).map_err(|_| err("non-UTF-8 chunk size"))?;
            let size =
                usize::from_str_radix(size_str.split(';').next().unwrap_or_default().trim(), 16)
                    .map_err(|_| err("malformed chunk size"))?;
            raw = &raw[size_end + 2..];
            if size == 0 {
                return Ok(out);
            }
            if raw.len() < size + 2 {
                return Err(err("truncated chunk"));
            }
            out.extend_from_slice(&raw[..size]);
            raw = &raw[size + 2..];
        }
    }

    fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
        let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let header_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| err("no header terminator in response"))?;
        let (status, headers) = parse_head(&raw[..header_end])?;
        let chunked = headers.iter().any(|(n, v): &(String, String)| {
            n.eq_ignore_ascii_case("transfer-encoding")
                && v.to_ascii_lowercase().contains("chunked")
        });
        let body_bytes = if chunked {
            decode_chunked(&raw[header_end + 4..])?
        } else {
            raw[header_end + 4..].to_vec()
        };
        let body = String::from_utf8(body_bytes).map_err(|_| err("non-UTF-8 body"))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}
