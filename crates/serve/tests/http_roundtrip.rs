//! End-to-end HTTP serving tests over real TCP sockets.
//!
//! The acceptance property: recovery over the wire is **bit-identical**
//! to in-process engine dispatch — JSON, the socket, and the micro-batch
//! composition must all be unobservable in the results. Plus the
//! admission-control and robustness paths: malformed JSON → 400 without
//! killing the worker, oversized body → 413, saturated queue → 429,
//! blown deadline → 503, concurrent clients actually sharing one fused
//! micro-batch (asserted through the kernel matmul counter), and a
//! prompt drain of the blocking acceptor.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_nn::kernels;
use rntrajrec_roadnet::{CityConfig, SyntheticCity};
use rntrajrec_serve::http::client;
use rntrajrec_serve::{
    EngineConfig, HttpConfig, HttpServer, QueryContext, RecoveryEngine, ServingModel,
};
use rntrajrec_synth::{SimConfig, Simulator, TrajSample};

/// The kernel matmul counter is process-global; serialize the tests so
/// deltas measured around one server's traffic are attributable to it.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A chaos spec armed until dropped. Chaos state is process-global too:
/// only arm while holding [`lock`].
struct Chaos;

impl Chaos {
    fn arm(spec: &str) -> Self {
        rntrajrec_chaos::configure(spec, 0).expect("valid chaos spec");
        Chaos
    }
}

impl Drop for Chaos {
    fn drop(&mut self) {
        rntrajrec_chaos::disarm();
    }
}

struct Harness {
    server: HttpServer,
    engine: Arc<RecoveryEngine>,
    ctx: Arc<QueryContext>,
    samples: Vec<TrajSample>,
}

impl Harness {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    fn request_for(&self, i: usize) -> RecoverRequest {
        let s = &self.samples[i];
        RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s)
    }

    /// The in-process reference: the same wire request through the same
    /// query context and engine, no network.
    fn in_process(&self, req: &RecoverRequest) -> Vec<(usize, f32)> {
        self.engine
            .recover(self.ctx.sample_input(req).expect("valid request"))
            .path
    }
}

fn boot(engine_cfg: EngineConfig, http_cfg: HttpConfig, n_samples: usize) -> Harness {
    let city = SyntheticCity::generate(CityConfig::tiny());
    let grid = city.net.grid(50.0);
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
    let serving = Arc::new(ServingModel::new(model));
    let mut sim = Simulator::new(
        &city.net,
        SimConfig {
            target_len: 9,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(23);
    let samples: Vec<TrajSample> = (0..n_samples).map(|_| sim.sample(&mut rng, 8)).collect();
    let ctx = Arc::new(QueryContext::new(city.net, 50.0));
    let engine = Arc::new(RecoveryEngine::start(serving, engine_cfg));
    let server = HttpServer::start(Arc::clone(&engine), Arc::clone(&ctx), http_cfg, None)
        .expect("bind ephemeral port");
    Harness {
        server,
        engine,
        ctx,
        samples,
    }
}

fn quick_engine() -> EngineConfig {
    EngineConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        workers: 2,
        queue_capacity: None,
        ..EngineConfig::default()
    }
}

fn ephemeral_http() -> HttpConfig {
    HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        ..HttpConfig::default()
    }
}

#[test]
fn tcp_roundtrip_is_bitwise_identical_to_in_process() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 6);
    for i in 0..h.samples.len() {
        let req = h.request_for(i);
        let want = h.in_process(&req);
        let body = serde_json::to_string(&req).expect("request serializes");
        let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("http roundtrip");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed = RecoverResponse::from_json(&resp.body).expect("well-formed response");
        assert_eq!(parsed.segments.len(), req.target_len);
        assert_eq!(
            parsed.path(),
            want,
            "HTTP recovery diverged from in-process dispatch (request {i})"
        );
        for (wire, local) in parsed.rates.iter().zip(want.iter().map(|&(_, r)| r)) {
            assert_eq!(wire.to_bits(), local.to_bits(), "rate bits corrupted");
        }
        assert!(parsed.batch_size >= 1);
        assert!(parsed.latency_ms >= 0.0);
    }
}

#[test]
fn malformed_json_returns_400_without_killing_the_worker() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    for garbage in ["{not json", "[]", "{\"points\": 3}", ""] {
        let resp = client::post_json(h.addr(), "/v1/recover", garbage).expect("connects");
        assert_eq!(resp.status, 400, "{garbage:?} -> {}", resp.body);
        assert!(
            resp.body.contains("error"),
            "error body missing: {}",
            resp.body
        );
    }
    // The pool survives: a valid request on a fresh connection still works.
    let req = h.request_for(0);
    let want = h.in_process(&req);
    let body = serde_json::to_string(&req).unwrap();
    let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("still serving");
    assert_eq!(resp.status, 200);
    assert_eq!(RecoverResponse::from_json(&resp.body).unwrap().path(), want);
}

/// GPS points that pass JSON parsing but are garbage for the road network
/// — NaN / ±∞ coordinates and antipodal-scale positions far outside the
/// study area — must come back as field-precise `400`s, never panic a
/// connection worker. The antipodal cases exercise the typed
/// `QueryError` path in `FeatureExtractor::extract_query` (formerly an
/// `assert!`-able region reachable from network input); the non-finite
/// cases pin the wire/parse guards in front of it.
#[test]
fn invalid_gps_points_return_400_and_workers_survive() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let cases: &[(&str, &str)] = &[
        // Antipodal-scale coordinates: finite, valid JSON, rejected by
        // feature extraction's study-area margin.
        (
            r#"{"points": [[20000000, -20000000, 0]], "target_len": 3}"#,
            "points",
        ),
        // A valid point followed by a far-off-site one: the error names
        // the offending point index.
        (
            r#"{"points": [[100.0, 100.0, 0], [-1e7, 3e7, 5]], "target_len": 3}"#,
            "point 1",
        ),
        // NaN is not valid JSON: rejected at parse time.
        (r#"{"points": [[NaN, 0, 0]], "target_len": 3}"#, "body"),
        // An overflowing exponent parses to +inf: rejected as non-finite.
        (r#"{"points": [[1e999, 0, 0]], "target_len": 3}"#, "points"),
        (r#"{"points": [[0, -1e999, 0]], "target_len": 3}"#, "points"),
    ];
    for &(body, field) in cases {
        let resp = client::post_json(h.addr(), "/v1/recover", body).expect("connects");
        assert_eq!(
            resp.status, 400,
            "{body:?} -> {} {}",
            resp.status, resp.body
        );
        assert!(
            resp.body.contains(field),
            "{body:?}: error {:?} should name {field:?}",
            resp.body
        );
        // The worker pool survives every rejection: a valid request on a
        // fresh connection still round-trips bit-identically.
        let req = h.request_for(0);
        let want = h.in_process(&req);
        let ok_body = serde_json::to_string(&req).unwrap();
        let resp = client::post_json(h.addr(), "/v1/recover", &ok_body).expect("still serving");
        assert_eq!(resp.status, 200, "pool damaged after {body:?}");
        assert_eq!(RecoverResponse::from_json(&resp.body).unwrap().path(), want);
    }
    // No worker death shows up as engine failures either.
    assert_eq!(h.engine.stats().failed, 0);
}

/// The body cap is 1 MiB. The refusal comes from `Content-Length` alone,
/// before any body byte is read, so the request here sends none: a real
/// 1 MiB body would race the server's close.
#[test]
fn oversized_body_returns_413() {
    use std::io::{Read, Write};
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 0);
    let mut conn = std::net::TcpStream::connect(h.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let over = (1 << 20) + 1;
    let request = format!("POST /v1/recover HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
    conn.write_all(request.as_bytes()).expect("send");
    let mut resp = String::new();
    conn.read_to_string(&mut resp)
        .expect("server answers, then closes");
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    assert!(resp.contains("exceeds 1048576 bytes"), "{resp}");
}

#[test]
fn saturated_queue_sheds_429_with_retry_after() {
    let _g = lock();
    let h = boot(
        EngineConfig {
            queue_capacity: Some(0), // shed everything: deterministic 429
            ..quick_engine()
        },
        ephemeral_http(),
        1,
    );
    let body = serde_json::to_string(&h.request_for(0)).unwrap();
    let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("connects");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(
        resp.header("Retry-After").is_some(),
        "429 must carry Retry-After"
    );
    assert_eq!(h.engine.stats().rejected, 1);
}

#[test]
fn blown_deadline_sheds_503_with_retry_after() {
    let _g = lock();
    let h = boot(
        quick_engine(),
        HttpConfig {
            deadline: Duration::ZERO,
            ..ephemeral_http()
        },
        1,
    );
    let body = serde_json::to_string(&h.request_for(0)).unwrap();
    let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("connects");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(
        resp.header("Retry-After").is_some(),
        "503 must carry Retry-After"
    );
}

/// A budget that runs out while the request decodes ends it one way: one
/// `503` with the budget's message (the engine has no deadline of its own
/// to race it), one deadline shed, and the dropped handle cuts the member
/// out of its session, counted as abandoned.
#[test]
fn budget_expiring_mid_decode_is_one_503_and_one_abandoned_member() {
    let _g = lock();
    let h = boot(
        quick_engine(),
        HttpConfig {
            deadline: Duration::from_millis(100),
            ..ephemeral_http()
        },
        1,
    );
    // 1 ms per kernel dispatch and 400 steps: the encoder alone takes
    // tens of milliseconds and the decode seconds, so the 100 ms budget
    // runs out inside the session.
    let s = &h.samples[0];
    let req = RecoverRequest::from_raw(&s.raw, 400, s.depart_epoch_s);
    let body = serde_json::to_string(&req).unwrap();
    let chaos = Chaos::arm("kernel.dispatch=delay:1@1.0");
    let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("connects");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(
        resp.body.contains("deadline of 100 ms exceeded"),
        "the budget's message: {}",
        resp.body
    );
    assert!(
        resp.header("Retry-After").is_some(),
        "503 must carry Retry-After"
    );
    let cut = (0..2000).any(|_| {
        std::thread::sleep(Duration::from_millis(5));
        h.engine.stats().abandoned_cancelled == 1
    });
    drop(chaos);
    assert!(cut, "the abandoned member was never cut");
    let stats = h.engine.stats();
    assert_eq!((stats.completed, stats.failed), (1, 1));
    assert_eq!(stats.watchdog_timeouts, 0);

    let metrics = client::get(h.addr(), "/metrics").expect("metrics").body;
    for needle in [
        "rntrajrec_http_shed_total{reason=\"deadline\"} 1\n",
        "rntrajrec_http_responses_total{class=\"5xx\"} 1\n",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
}

/// Concurrent HTTP clients must land in one fused micro-batch: every
/// response reports the full batch size, and the whole batched run costs
/// fewer matmul invocations than the same requests served one by one
/// (the decoder runs one stacked product per head per step instead of
/// one per member).
#[test]
fn concurrent_clients_share_a_fused_batch() {
    let _g = lock();
    let clients = 4usize;
    let h = boot(
        EngineConfig {
            max_batch: clients,
            // An idle engine would flush the first arrival alone, so one
            // of the two workers is plugged below; while it is busy the
            // batch is held for all clients (the long deadline never
            // fires), which makes batching deterministic rather than
            // timing-dependent.
            max_delay: Duration::from_secs(5),
            workers: 2,
            queue_capacity: None,
            ..EngineConfig::default()
        },
        HttpConfig {
            connection_workers: clients,
            ..ephemeral_http()
        },
        clients + 1,
    );

    // Reference: the same requests sequentially, straight through the
    // model. `profile_scope` counts matmuls invoked from this thread only
    // — the sequential reference runs inline, so the count is
    // attributable without the old global reset dance.
    let reqs: Vec<RecoverRequest> = (0..clients).map(|i| h.request_for(i)).collect();
    let inputs: Vec<_> = reqs
        .iter()
        .map(|r| h.ctx.sample_input(r).expect("valid request"))
        .collect();
    let prof = kernels::profile_scope("sequential_reference");
    let sequential: Vec<Vec<(usize, f32)>> =
        inputs.iter().map(|i| h.engine.model().recover(i)).collect();
    let seq = prof.finish();
    assert!(
        seq.matmuls > 0 && seq.flops > 0,
        "profile scope saw no work"
    );

    // Plug one worker: a one-shot 500 ms stall at `engine.worker` holds
    // the (untraced) plug request's session in flight while the clients
    // arrive, so the other worker waits for the batch to fill.
    let _chaos = Chaos::arm("engine.worker=delay:500@1x1");
    let plug_input = h
        .ctx
        .sample_input(&h.request_for(clients))
        .expect("valid request");
    let plug = h
        .engine
        .submit(plug_input, Default::default())
        .expect("accepts");
    let t0 = std::time::Instant::now();
    while h.engine.in_flight_batches() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "plug never went in flight"
        );
        std::thread::yield_now();
    }

    // Batched side: the matmuls happen on the engine worker thread, so
    // count them through the span recorder — every kernel event lands on
    // exactly one (innermost) span, so summing span matmuls is exact.
    rntrajrec_obs::clear();
    rntrajrec_obs::set_enabled(true);
    let results: Vec<(u16, RecoverResponse)> = std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .iter()
            .map(|req| {
                let addr = h.addr();
                let body = serde_json::to_string(req).unwrap();
                s.spawn(move || {
                    let resp = client::post_json(addr, "/v1/recover", &body).expect("roundtrip");
                    (
                        resp.status,
                        RecoverResponse::from_json(&resp.body).expect("parses"),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    rntrajrec_obs::set_enabled(false);
    // Compute-side spans are flushed before each Recovered is delivered,
    // so once every client has joined the store holds all batch work.
    let spans = rntrajrec_obs::drain();
    let batched_matmuls: u64 = spans.iter().map(|s| s.matmuls).sum();
    assert!(batched_matmuls > 0, "span recorder saw no kernel work");

    for ((status, resp), want) in results.iter().zip(&sequential) {
        assert_eq!(*status, 200);
        assert_eq!(
            resp.batch_size, clients,
            "clients did not share one micro-batch"
        );
        assert_eq!(&resp.path(), want, "batched HTTP diverged from sequential");
    }
    assert!(
        batched_matmuls < seq.matmuls,
        "fused batch should cost fewer matmuls than sequential dispatch \
         ({batched_matmuls} vs {})",
        seq.matmuls
    );
    assert!(plug.wait().error.is_none());
    let stats = h.engine.stats();
    assert_eq!(stats.flushed_full, 1, "the clients' batch left on size");
    assert_eq!(stats.admitted, 0, "nobody trickled in by admission");
}

/// A client that starts a request and stalls must get `408` and lose its
/// connection — it must not pin a connection worker (the pool is small,
/// so a handful of stalled clients would otherwise deny service while
/// the engine sits idle).
#[test]
fn stalled_request_times_out_with_408_and_frees_the_worker() {
    use std::io::{Read, Write};
    let _g = lock();
    let h = boot(
        quick_engine(),
        HttpConfig {
            connection_workers: 1, // a single pinned worker would be fatal
            request_read_timeout: Duration::from_millis(400),
            ..ephemeral_http()
        },
        1,
    );
    let mut stalled = std::net::TcpStream::connect(h.addr()).expect("connect");
    stalled
        .write_all(b"POST /v1/recover HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        .expect("partial request");
    // Never send the body: the server must give up on its own.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut resp = String::new();
    stalled.read_to_string(&mut resp).expect("server answers");
    assert!(resp.starts_with("HTTP/1.1 408"), "got: {resp}");

    // The lone worker is free again: a real request still succeeds.
    let req = h.request_for(0);
    let want = h.in_process(&req);
    let body = serde_json::to_string(&req).unwrap();
    let resp = client::post_json(h.addr(), "/v1/recover", &body).expect("still serving");
    assert_eq!(resp.status, 200);
    assert_eq!(RecoverResponse::from_json(&resp.body).unwrap().path(), want);
}

/// `Content-Length` is `1*DIGIT` (RFC 9112 §6.3): a signed value, or
/// repeats that disagree, get `400` and the connection closes; identical
/// repeats are one length.
#[test]
fn content_length_must_be_digits_and_repeats_must_agree() {
    use std::io::{Read, Write};
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let exchange = |head: &str, body: &str| {
        let mut conn = std::net::TcpStream::connect(h.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let request = format!("POST /v1/recover HTTP/1.1\r\n{head}\r\n{body}");
        conn.write_all(request.as_bytes()).expect("send");
        // Reads to EOF: every case here ends with the server closing.
        let mut resp = String::new();
        conn.read_to_string(&mut resp)
            .expect("server answers, then closes");
        resp
    };
    for head in [
        "Content-Length: +5\r\n",
        "Content-Length: 5\r\nContent-Length: 7\r\n",
    ] {
        let resp = exchange(head, "");
        assert!(resp.starts_with("HTTP/1.1 400"), "{head:?} -> {resp}");
        assert!(
            resp.contains("invalid Content-Length"),
            "{head:?} -> {resp}"
        );
    }
    let req = h.request_for(0);
    let want = h.in_process(&req);
    let body = serde_json::to_string(&req).unwrap();
    let n = body.len();
    let resp = exchange(
        &format!("Content-Length: {n}\r\nContent-Length: {n}\r\nConnection: close\r\n"),
        &body,
    );
    assert!(
        resp.starts_with("HTTP/1.1 200"),
        "identical repeats: {resp}"
    );
    let (_, json) = resp.split_once("\r\n\r\n").expect("head/body split");
    assert_eq!(RecoverResponse::from_json(json).unwrap().path(), want);
}

#[test]
fn healthz_and_metrics_render() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let body = serde_json::to_string(&h.request_for(0)).unwrap();
    assert_eq!(
        client::post_json(h.addr(), "/v1/recover", &body)
            .unwrap()
            .status,
        200
    );

    let health = client::get(h.addr(), "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

    let metrics = client::get(h.addr(), "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    for key in [
        "rntrajrec_http_responses_total{class=\"2xx\"}",
        "rntrajrec_http_shed_total{reason=\"overload\"}",
        "rntrajrec_http_recover_latency_ms{quantile=\"0.99\"}",
        "rntrajrec_engine_queue_depth",
        "rntrajrec_engine_in_flight_batches",
        "rntrajrec_nn_matmul_invocations_total",
        "rntrajrec_kernel_backend{backend=\"",
        "rntrajrec_segment_head{city=\"default\",head=\"",
        "rntrajrec_artifact_info{city=\"default\",model_version=\"in-process\"",
    ] {
        assert!(
            metrics.body.contains(key),
            "missing {key} in:\n{}",
            metrics.body
        );
    }

    assert_eq!(client::get(h.addr(), "/nope").unwrap().status, 404);
    assert_eq!(
        client::request(h.addr(), "POST", "/metrics", Some(""))
            .unwrap()
            .status,
        405
    );
}

#[test]
fn graceful_shutdown_stops_accepting_after_drain() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let addr = h.addr();
    // Serve one request, then drain.
    let body = serde_json::to_string(&h.request_for(0)).unwrap();
    assert_eq!(
        client::post_json(addr, "/v1/recover", &body)
            .unwrap()
            .status,
        200
    );
    let Harness { server, engine, .. } = h;
    server.shutdown();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        client::get(addr, "/healthz").is_err(),
        "listener must stop accepting after shutdown"
    );
    // The engine drains cleanly afterwards.
    assert_eq!(engine.stats().completed, 1);
    drop(engine);
}

/// The acceptor blocks in `accept()`; drain wakes it with a connection to
/// the server's own address — loopback on the bound port when bound to
/// the wildcard. An idle server must therefore stop within a second on
/// either kind of bind, and the wake must stay invisible: the acceptor
/// drops it before `rntrajrec_http_connections_total` and the
/// `http.accept` chaos point, which move in lockstep (read here through
/// the armed-but-never-firing point's draw count, the one instrument that
/// outlives the server).
#[test]
fn idle_server_drains_promptly_and_the_wake_is_not_counted() {
    let _g = lock();
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let _chaos = Chaos::arm("http.accept=error@0");
        let accept_draws = || {
            rntrajrec_chaos::snapshot()
                .iter()
                .find(|p| p.point == "http.accept")
                .expect("armed point")
                .draws
        };
        let h = boot(
            quick_engine(),
            HttpConfig {
                addr: bind.to_string(),
                ..HttpConfig::default()
            },
            0,
        );
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], h.addr().port()));
        let metrics = client::get(addr, "/metrics").expect("served before drain");
        assert!(
            metrics
                .body
                .contains("rntrajrec_http_connections_total 1\n"),
            "{bind}: the scrape is the first connection"
        );
        assert_eq!(
            accept_draws(),
            1,
            "{bind}: counter and chaos point in lockstep"
        );

        let t0 = std::time::Instant::now();
        h.server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "{bind}: idle drain took {:?}",
            t0.elapsed()
        );
        assert_eq!(accept_draws(), 1, "{bind}: the wake connection was counted");
        assert!(
            client::get(addr, "/healthz").is_err(),
            "{bind}: listener must be gone after shutdown"
        );
    }
}

/// One traced POST must yield a complete Chrome-trace span tree at
/// `GET /debug/trace`: the root `request` span plus every lifecycle
/// phase from socket read to kernel, with matmul counts attached to the
/// compute spans.
#[test]
fn debug_trace_exposes_the_request_span_tree() {
    let _g = lock();
    rntrajrec_obs::clear();
    rntrajrec_obs::set_enabled(true);
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let body = serde_json::to_string(&h.request_for(0)).unwrap();
    assert_eq!(
        client::post_json(h.addr(), "/v1/recover", &body)
            .unwrap()
            .status,
        200
    );

    // The root span is recorded after the response bytes hit the socket,
    // so the client can observe its own 200 slightly before the trace is
    // complete — poll briefly.
    let mut trace = String::new();
    for _ in 0..100 {
        let resp = client::get(h.addr(), "/debug/trace?last=4").expect("trace endpoint");
        assert_eq!(resp.status, 200);
        if resp.body.contains("\"request\"") {
            trace = resp.body;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    rntrajrec_obs::set_enabled(false);

    let doc = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    for phase in [
        "\"request\"",
        "http.read",
        "parse",
        "queue.wait",
        "batch.assemble",
        "encoder.fused",
        "decoder.step[0]",
        "serialize",
        "http.write",
    ] {
        assert!(trace.contains(phase), "span {phase} missing in:\n{trace}");
    }
    // Kernel attribution: at least one compute span carries matmuls.
    let max_matmuls = events
        .iter()
        .filter_map(|e| e.get("args").and_then(|a| a.get("matmuls")))
        .filter_map(|v| v.as_u64())
        .max()
        .unwrap_or(0);
    assert!(max_matmuls > 0, "no span carries a matmul count:\n{trace}");
    // Bad query strings answer 400-class, never panic the worker.
    assert_eq!(
        client::get(h.addr(), "/debug/trace?last=zillion")
            .unwrap()
            .status,
        200,
        "unparseable last= falls back to the default"
    );
    rntrajrec_obs::clear();
}

/// `/metrics` must stay a valid Prometheus text document while request
/// traffic and scrapes race: no duplicate series, TYPE before samples,
/// monotone cumulative histogram buckets with `+Inf == _count`.
#[test]
fn metrics_lint_passes_under_concurrent_load() {
    let _g = lock();
    rntrajrec_obs::set_enabled(true);
    let clients = 4usize;
    let h = boot(
        quick_engine(),
        HttpConfig {
            connection_workers: clients + 1,
            ..ephemeral_http()
        },
        clients,
    );

    let scraped: Vec<String> = std::thread::scope(|s| {
        for i in 0..clients {
            let addr = h.addr();
            let body = serde_json::to_string(&h.request_for(i)).unwrap();
            s.spawn(move || {
                for _ in 0..3 {
                    let resp = client::post_json(addr, "/v1/recover", &body).expect("roundtrip");
                    assert_eq!(resp.status, 200);
                }
            });
        }
        // Scrape while the posts are in flight.
        (0..6)
            .map(|_| {
                let resp = client::get(h.addr(), "/metrics").expect("metrics");
                assert_eq!(resp.status, 200);
                std::thread::sleep(Duration::from_millis(5));
                resp.body
            })
            .collect()
    });
    rntrajrec_obs::set_enabled(false);

    for (i, doc) in scraped.iter().enumerate() {
        let problems = rntrajrec_obs::promlint::lint(doc);
        assert!(
            problems.is_empty(),
            "scrape {i} failed the lint: {problems:?}\n{doc}"
        );
    }
    // The final scrape has seen traffic: the phase histograms exist.
    let last = scraped.last().unwrap();
    for family in [
        "rntrajrec_build_info{",
        "rntrajrec_uptime_seconds",
        "rntrajrec_engine_mean_queue_wait_ms",
        "rntrajrec_engine_mean_compute_ms",
        "rntrajrec_phase_seconds_bucket{phase=\"encoder\"",
        "rntrajrec_phase_seconds_bucket{phase=\"decoder\"",
        "rntrajrec_phase_seconds_bucket{phase=\"queue_wait\"",
        "rntrajrec_phase_seconds_bucket{phase=\"serialize\"",
        "rntrajrec_phase_seconds_bucket{phase=\"e2e\"",
        "rntrajrec_batch_size_bucket",
        "rntrajrec_batch_occupancy_bucket",
    ] {
        assert!(last.contains(family), "missing {family} in:\n{last}");
    }
    rntrajrec_obs::clear();
}

// ===== v2 API and streamed decode steps =====================================

use rntrajrec::wire::v2;

/// Satellite contract for the v2 rollout: `/v1/recover` is versioned and
/// frozen. The response body must keep its exact wire shape — key order,
/// key names, no additions — and `/v2/recover` with default options must
/// recover the identical path.
#[test]
fn v1_body_is_byte_stable_and_v2_defaults_match_it() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let req = h.request_for(0);
    let want = h.in_process(&req);
    let body = serde_json::to_string(&req).expect("request serializes");

    let r1 = client::post_json(h.addr(), "/v1/recover", &body).expect("v1 roundtrip");
    assert_eq!(r1.status, 200, "body: {}", r1.body);
    let parsed = RecoverResponse::from_json(&r1.body).expect("well-formed v1 response");
    assert_eq!(parsed.path(), want);
    // Byte-for-byte pin: the body is exactly the serde serialization of
    // the typed response — field order and formatting included — and the
    // key sequence is the frozen v1 layout.
    assert_eq!(
        r1.body,
        serde_json::to_string(&parsed).expect("response reserializes"),
        "v1 body must be the exact typed serialization"
    );
    let key_order = [
        "\"id\":",
        "\"segments\":",
        "\"rates\":",
        "\"batch_size\":",
        "\"latency_ms\":",
    ];
    let mut at = 0;
    for key in key_order {
        let pos = r1.body[at..]
            .find(key)
            .unwrap_or_else(|| panic!("v1 body lost or reordered {key}: {}", r1.body));
        at += pos;
    }

    // v2 with an explicit empty options object and with options omitted:
    // both recover the same bits as v1.
    let v2_req = v2::RecoverRequestV2::from_raw(
        &h.samples[0].raw,
        h.samples[0].target.len(),
        h.samples[0].depart_epoch_s,
        v2::RecoverOptions::default(),
    );
    let v2_body = serde_json::to_string(&v2_req).expect("v2 request serializes");
    let r2 = client::post_json(h.addr(), "/v2/recover", &v2_body).expect("v2 roundtrip");
    assert_eq!(r2.status, 200, "body: {}", r2.body);
    let parsed2 = RecoverResponse::from_json(&r2.body).expect("well-formed v2 response");
    assert_eq!(parsed2.path(), want, "v2 defaults diverged from v1");

    let r3 = client::post_json(h.addr(), "/v2/recover", &body).expect("v2 without options");
    assert_eq!(r3.status, 200, "body: {}", r3.body);
    assert_eq!(
        RecoverResponse::from_json(&r3.body).expect("parses").path(),
        want,
        "v2 with omitted options diverged from v1"
    );
}

/// The streaming route: chunked transfer encoding, one `step` event per
/// decode step with strictly sequential indices, then **exactly one**
/// terminal `summary` whose path is bit-identical to the unary answer.
#[test]
fn v2_stream_emits_steps_then_exactly_one_terminal_summary() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let req = h.request_for(0);
    let want = h.in_process(&req);
    let body = serde_json::to_string(&req).expect("request serializes");

    let mut live_lines = 0usize;
    let resp = client::post_stream(h.addr(), "/v2/recover/stream", &body, |_| live_lines += 1)
        .expect("stream roundtrip");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(
        resp.header("Transfer-Encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    let events: Vec<v2::Event> = resp
        .body
        .lines()
        .map(|l| v2::Event::from_json(l).expect("well-formed event line"))
        .collect();
    assert_eq!(live_lines, events.len(), "on_line saw every event");
    assert!(!events.is_empty());
    let (terminal, steps) = events.split_last().expect("nonempty");
    let mut streamed = Vec::new();
    for (i, ev) in steps.iter().enumerate() {
        match ev {
            v2::Event::Step(s) => {
                assert_eq!(s.step, i, "step indices must be sequential");
                streamed.push((s.segment, s.rate));
            }
            other => panic!("non-terminal event {i} is not a step: {other:?}"),
        }
    }
    match terminal {
        v2::Event::Summary(s) => {
            let path: Vec<(usize, f32)> = s
                .segments
                .iter()
                .copied()
                .zip(s.rates.iter().copied())
                .collect();
            assert_eq!(path, want, "streamed summary diverged from unary recovery");
            assert_eq!(
                streamed[..],
                want[..],
                "streamed steps diverged from the path"
            );
        }
        other => panic!("terminal event is not a summary: {other:?}"),
    }
}

/// v2 input validation: malformed options are field-precise 400s, the
/// unary route refuses `options.stream`, and the stream route only
/// accepts POST.
#[test]
fn v2_validation_rejects_bad_options() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let req = h.request_for(0);
    let base = serde_json::to_string(&req).expect("request serializes");
    let with_options = |opts: &str| {
        let mut s = base.clone();
        s.truncate(s.len() - 1);
        format!("{s},\"options\":{opts}}}")
    };

    let r = client::post_json(
        h.addr(),
        "/v2/recover",
        &with_options("{\"deadline_ms\":0}"),
    )
    .expect("responds");
    assert_eq!(r.status, 400, "zero deadline must 400: {}", r.body);

    let r = client::post_json(h.addr(), "/v2/recover", &with_options("{\"stream\":true}"))
        .expect("responds");
    assert_eq!(
        r.status, 400,
        "stream on the unary route must 400: {}",
        r.body
    );
    assert!(
        r.body.contains("/v2/recover/stream"),
        "points at the stream route: {}",
        r.body
    );

    let r = client::get(h.addr(), "/v2/recover/stream").expect("responds");
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("POST"));
}

/// A client-shortened v2 deadline that cannot be met streams a clean
/// terminal `error` event (`timed_out`, retryable) — never a truncated
/// or hung stream — and the new continuous-batching serving metrics are
/// exported.
#[test]
fn v2_stream_deadline_yields_terminal_error_event() {
    let _g = lock();
    let h = boot(quick_engine(), ephemeral_http(), 1);
    let req = h.request_for(0);
    let body = serde_json::to_string(&req).expect("request serializes");
    // 1 ms budget against a session stalled 40 ms before it decodes (an
    // idle engine flushes at once, so queueing alone would not outlast
    // it): the budget runs out before the first step arrives.
    let _chaos = Chaos::arm("engine.worker=delay:40@1x1");
    let v2_body = {
        let mut s = body.clone();
        s.truncate(s.len() - 1);
        format!("{s},\"options\":{{\"deadline_ms\":1}}}}")
    };
    let resp = client::post_stream(h.addr(), "/v2/recover/stream", &v2_body, |_| {})
        .expect("stream roundtrip");
    assert_eq!(resp.status, 200, "stream is committed before the deadline");
    let events: Vec<v2::Event> = resp
        .body
        .lines()
        .map(|l| v2::Event::from_json(l).expect("well-formed event line"))
        .collect();
    let (terminal, steps) = events.split_last().expect("at least the terminal event");
    for ev in steps {
        assert!(
            matches!(ev, v2::Event::Step(_)),
            "non-terminal must be steps"
        );
    }
    match terminal {
        v2::Event::Error(e) => {
            assert!(e.timed_out, "deadline failures are time failures");
            assert_eq!(e.code, 503, "would-be status is 503: {}", e.error);
        }
        other => panic!("expected a terminal error event, got {other:?}"),
    }

    let metrics = client::get(h.addr(), "/metrics").expect("metrics");
    for needle in [
        "rntrajrec_time_to_first_step_seconds",
        "rntrajrec_engine_admitted_total",
        "rntrajrec_engine_abandoned_cancelled_total",
    ] {
        assert!(
            metrics.body.contains(needle),
            "metrics must export {needle}"
        );
    }
}

// ===== /metrics shape pin and hostile shard names ===========================

use rntrajrec_serve::{CityShard, ShardRouter};

/// Boot a multi-shard server: one tiny city per `(name, origin_x)`, each
/// with one valid `/v1/recover` body for its own bounding box.
fn boot_shards(cities: &[(&str, f64)]) -> (HttpServer, Vec<String>) {
    let mut shards = Vec::new();
    let mut bodies = Vec::new();
    for &(name, origin_x) in cities {
        let city = SyntheticCity::generate(CityConfig {
            origin_x,
            ..CityConfig::tiny()
        });
        let grid = city.net.grid(50.0);
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
        let serving = Arc::new(ServingModel::new(model));
        let s = Simulator::new(&city.net, SimConfig::default())
            .sample(&mut StdRng::seed_from_u64(23), 8);
        let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
        bodies.push(serde_json::to_string(&req).expect("request serializes"));
        let ctx = Arc::new(QueryContext::new(city.net, 50.0));
        let engine = Arc::new(RecoveryEngine::start(serving, quick_engine()));
        shards.push(CityShard::new(name, engine, ctx, None));
    }
    let router = Arc::new(ShardRouter::new(shards));
    let server = HttpServer::start_router(router, ephemeral_http()).expect("bind ephemeral port");
    (server, bodies)
}

/// Reduce an exposition document to its shape: `# HELP` / `# TYPE` lines
/// verbatim and each sample as `name{label-keys}` — no label values, no
/// sample values. Families keep their document order, except that the
/// histogram families (a process-global registry, so their order and
/// series count depend on which test touched the engine first) are
/// sorted by name with repeated series collapsed.
fn metrics_shape(doc: &str) -> String {
    let mut families: Vec<Vec<String>> = Vec::new();
    for line in doc.lines().filter(|l| !l.is_empty()) {
        if line.starts_with("# HELP ") {
            families.push(Vec::new());
        }
        let shaped = if line.starts_with('#') {
            line.to_string()
        } else {
            let series = line.rsplit_once(' ').expect("sample has a value").0;
            match series.split_once('{') {
                None => series.to_string(),
                Some((name, labels)) => {
                    let keys: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split(',')
                        .map(|kv| kv.split_once('=').expect("label has a value").0)
                        .collect();
                    format!("{name}{{{}}}", keys.join(","))
                }
            }
        };
        families
            .last_mut()
            .expect("document starts with a HELP line")
            .push(shaped);
    }
    let is_histogram = |f: &Vec<String>| f[1].ends_with(" histogram");
    let (mut histograms, mut shape): (Vec<_>, Vec<_>) =
        families.into_iter().partition(|f| is_histogram(f));
    histograms.sort();
    for mut family in histograms {
        let mut seen = std::collections::BTreeSet::new();
        family.retain(|l| seen.insert(l.clone()));
        shape.push(family);
    }
    shape.concat().join("\n") + "\n"
}

/// The `/metrics` contract dashboards and `rnbench --trace 1` scrape:
/// family order, names, HELP text, types and label keys are pinned
/// against a committed expectation, so no refactor can drop, rename,
/// retype or reorder a family silently.
#[test]
fn metrics_shape_matches_the_committed_expectation() {
    let _g = lock();
    let (server, bodies) = boot_shards(&[("alpha", 0.0), ("beta", 50_000.0)]);
    let addr = server.local_addr();
    let r1 = client::post_json(addr, "/v1/recover", &bodies[0]).expect("v1 roundtrip");
    assert_eq!(r1.status, 200, "body: {}", r1.body);
    let r2 = client::post_stream(addr, "/v2/recover/stream", &bodies[1], |_| {}).expect("stream");
    assert_eq!(r2.status, 200, "body: {}", r2.body);

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let got = metrics_shape(&metrics.body);
    for scraped_by_rnbench in [
        "# TYPE rntrajrec_phase_seconds histogram",
        "# TYPE rntrajrec_time_to_first_step_seconds histogram",
        "rntrajrec_http_responses_total{class}",
        "rntrajrec_http_shed_total{reason}",
    ] {
        assert!(
            got.contains(scraped_by_rnbench),
            "lost {scraped_by_rnbench}"
        );
    }
    let want = include_str!("data/metrics_shape.txt");
    assert!(
        got == want,
        "/metrics shape changed. If that is intended, list the diff in CHANGES.md and \
         replace crates/serve/tests/data/metrics_shape.txt with:\n{got}"
    );
}

/// Shard names and artifact provenance come from outside the program
/// (`pack_city --city` accepts any string). They must reach `/metrics`
/// as escaped label values and `/healthz` as escaped JSON strings — not
/// as raw bytes that break the exposition or the JSON document.
#[test]
fn hostile_shard_name_is_escaped_on_metrics_and_healthz() {
    let _g = lock();
    let name = "po\"r\\to\n";
    let (server, _) = boot_shards(&[(name, 0.0)]);
    let addr = server.local_addr();

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let problems = rntrajrec_obs::promlint::lint(&metrics.body);
    assert!(problems.is_empty(), "{problems:?}\n{}", metrics.body);
    let series = metrics
        .body
        .lines()
        .find(|l| l.starts_with("rntrajrec_engine_queue_depth{"))
        .expect("per-shard series present");
    let labels = rntrajrec_obs::promlint::sample_labels(series).expect("series parses");
    assert_eq!(labels, vec![("city".to_string(), name.to_string())]);

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = serde_json::from_str(&health.body)
        .unwrap_or_else(|e| panic!("healthz is not JSON ({e}): {}", health.body));
    let city = doc
        .get("shards")
        .and_then(|s| s.index(0))
        .and_then(|s| s.get("city"));
    assert_eq!(city.and_then(|c| c.as_str()), Some(name));
}
