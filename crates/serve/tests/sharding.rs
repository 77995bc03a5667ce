//! Multi-city sharded serving + versioned-artifact hot reload, end to end
//! over real TCP sockets.
//!
//! The acceptance properties:
//! - bbox routing: each request lands on the shard whose bounding box
//!   contains it, straddling requests are a typed 422 and out-of-region
//!   requests a typed 404 — never a crash, never the wrong model;
//! - isolation: concurrent traffic against two shards produces exactly
//!   the answers each city's in-process engine would give;
//! - hot reload: `POST /admin/reload` swaps a shard's model with zero
//!   failed or invalid responses under concurrent load, and every
//!   rejected reload (corrupt file, lying manifest, wrong city, other
//!   grid, a path that is not a regular file) leaves the old model
//!   serving.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_artifact::pack_fresh;
use rntrajrec_roadnet::{CityConfig, SyntheticCity};
use rntrajrec_serve::http::client;
use rntrajrec_serve::{
    CityShard, EngineConfig, HttpConfig, HttpServer, QueryContext, RecoveryEngine, ServingModel,
    ShardRouter,
};
use rntrajrec_synth::{SimConfig, Simulator, TrajSample};

/// Kernel counters are process-global; serialize the tests.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Beta city = alpha's grid translated far east, so the two bounding
/// boxes are disjoint by tens of kilometres.
const BETA_OFFSET_X: f64 = 50_000.0;

fn alpha_config() -> CityConfig {
    CityConfig::tiny()
}

fn beta_config() -> CityConfig {
    CityConfig {
        origin_x: BETA_OFFSET_X,
        ..CityConfig::tiny()
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

struct ShardFixture {
    engine: Arc<RecoveryEngine>,
    ctx: Arc<QueryContext>,
    samples: Vec<TrajSample>,
}

impl ShardFixture {
    fn request_for(&self, i: usize) -> RecoverRequest {
        let s = &self.samples[i % self.samples.len()];
        RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s)
    }

    fn in_process(&self, req: &RecoverRequest) -> Vec<(usize, f32)> {
        self.engine
            .recover(self.ctx.sample_input(req).expect("valid request"))
            .path
    }
}

/// Build one shard from an in-process synthetic city.
fn build_shard(
    name: &str,
    config: CityConfig,
    seed: u64,
    n_samples: usize,
) -> (CityShard, ShardFixture) {
    let city = SyntheticCity::generate(config);
    let grid = city.net.grid(50.0);
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, seed);
    let serving = Arc::new(ServingModel::new(model));
    let mut sim = Simulator::new(
        &city.net,
        SimConfig {
            target_len: 9,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(5));
    let samples: Vec<TrajSample> = (0..n_samples).map(|_| sim.sample(&mut rng, 8)).collect();
    let ctx = Arc::new(QueryContext::new(city.net, 50.0));
    let engine = Arc::new(RecoveryEngine::start(serving, quick_engine()));
    let shard = CityShard::new(name, Arc::clone(&engine), Arc::clone(&ctx), None);
    (
        shard,
        ShardFixture {
            engine,
            ctx,
            samples,
        },
    )
}

struct TwoCityHarness {
    server: HttpServer,
    alpha: ShardFixture,
    beta: ShardFixture,
}

impl TwoCityHarness {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }
}

fn boot_two_cities() -> TwoCityHarness {
    let (shard_a, alpha) = build_shard("alpha", alpha_config(), 7, 6);
    let (shard_b, beta) = build_shard("beta", beta_config(), 7, 6);
    let router = Arc::new(ShardRouter::new(vec![shard_a, shard_b]));
    let server = HttpServer::start_router(router, ephemeral_http()).expect("bind ephemeral port");
    TwoCityHarness {
        server,
        alpha,
        beta,
    }
}

fn post(addr: std::net::SocketAddr, path: &str, req: &RecoverRequest) -> client::HttpResponse {
    let body = serde_json::to_string(req).expect("request serializes");
    client::post_json(addr, path, &body).expect("http roundtrip")
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rntrajrec_sharding_{}_{tag}.rnta",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

#[test]
fn requests_route_to_their_city_and_match_in_process() {
    let _g = lock();
    let h = boot_two_cities();
    for i in 0..4 {
        let req_a = h.alpha.request_for(i);
        let want_a = h.alpha.in_process(&req_a);
        let resp = post(h.addr(), "/v1/recover", &req_a);
        assert_eq!(resp.status, 200, "alpha request {i}: {}", resp.body);
        let parsed = RecoverResponse::from_json(&resp.body).expect("well-formed response");
        assert_eq!(parsed.path(), want_a, "alpha shard diverged (request {i})");

        let req_b = h.beta.request_for(i);
        let want_b = h.beta.in_process(&req_b);
        let resp = post(h.addr(), "/v1/recover", &req_b);
        assert_eq!(resp.status, 200, "beta request {i}: {}", resp.body);
        let parsed = RecoverResponse::from_json(&resp.body).expect("well-formed response");
        assert_eq!(parsed.path(), want_b, "beta shard diverged (request {i})");
    }
}

#[test]
fn straddling_request_is_422() {
    let _g = lock();
    let h = boot_two_cities();
    let mut req = h.alpha.request_for(0);
    // Translate the last point into beta's (identical, shifted) grid.
    let n = req.points.len();
    req.points[n - 1][0] += BETA_OFFSET_X;
    let resp = post(h.addr(), "/v1/recover", &req);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert!(
        resp.body.contains("alpha") && resp.body.contains("beta"),
        "straddle error should name both shards: {}",
        resp.body
    );
    // Same contract on v2 (v1 body parses there with default options).
    let body = serde_json::to_string(&req).expect("serializes");
    let resp = client::post_json(h.addr(), "/v2/recover", &body).expect("http");
    assert_eq!(resp.status, 422, "v2 body: {}", resp.body);
}

#[test]
fn out_of_region_request_is_404() {
    let _g = lock();
    let h = boot_two_cities();
    let mut req = h.alpha.request_for(0);
    for p in &mut req.points {
        p[0] += 9.0e6;
        p[1] -= 9.0e6;
    }
    let resp = post(h.addr(), "/v1/recover", &req);
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert!(
        resp.body.contains("no city shard"),
        "error should say no shard covers the point: {}",
        resp.body
    );
}

#[test]
fn example_endpoint_requires_city_when_sharded() {
    let _g = lock();
    let h = boot_two_cities();
    let resp = client::get(h.addr(), "/v1/example").expect("http");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    let resp = client::get(h.addr(), "/v1/example?city=nowhere").expect("http");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    // These shards were built without examples.
    let resp = client::get(h.addr(), "/v1/example?city=alpha").expect("http");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
}

#[test]
fn concurrent_two_shard_traffic_stays_isolated() {
    let _g = lock();
    let h = boot_two_cities();
    let addr = h.addr();
    let mut expected_a = Vec::new();
    let mut expected_b = Vec::new();
    for i in 0..3 {
        let ra = h.alpha.request_for(i);
        expected_a.push((ra.clone(), h.alpha.in_process(&ra)));
        let rb = h.beta.request_for(i);
        expected_b.push((rb.clone(), h.beta.in_process(&rb)));
    }
    let run = |expected: Vec<(RecoverRequest, Vec<(usize, f32)>)>| {
        std::thread::spawn(move || {
            for _round in 0..3 {
                for (req, want) in &expected {
                    let resp = post(addr, "/v1/recover", req);
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let parsed =
                        RecoverResponse::from_json(&resp.body).expect("well-formed response");
                    assert_eq!(&parsed.path(), want, "shard isolation broken");
                }
            }
        })
    };
    let ta = run(expected_a);
    let tb = run(expected_b);
    ta.join().expect("alpha client");
    tb.join().expect("beta client");

    let metrics = client::get(addr, "/metrics").expect("metrics").body;
    assert!(
        metrics.contains("rntrajrec_engine_requests_total{city=\"alpha\"}"),
        "per-shard engine counters missing:\n{metrics}"
    );
    assert!(metrics.contains("rntrajrec_engine_requests_total{city=\"beta\"}"));
}

// ---------------------------------------------------------------------------
// Artifacts + hot reload
// ---------------------------------------------------------------------------

#[test]
fn artifact_loaded_shard_is_byte_identical_to_in_process() {
    let _g = lock();
    // Same config/dim/seed two ways: built in-process vs round-tripped
    // through a packed artifact file.
    let (shard_mem, fixture) = build_shard("alpha", alpha_config(), 7, 4);
    let artifact = pack_fresh("alpha", "v1", &alpha_config(), 50.0, 16, 7);
    let path = scratch_path("bitwise");
    artifact.write_to(&path).expect("write artifact");
    let artifact = rntrajrec_artifact::Artifact::read_from(&path).expect("read artifact");
    std::fs::remove_file(&path).ok();
    let shard_art =
        CityShard::from_artifact(&artifact, Some(path), quick_engine()).expect("artifact serves");

    let server_mem =
        HttpServer::start_router(Arc::new(ShardRouter::single(shard_mem)), ephemeral_http())
            .expect("bind");
    let server_art =
        HttpServer::start_router(Arc::new(ShardRouter::single(shard_art)), ephemeral_http())
            .expect("bind");

    for i in 0..4 {
        let req = fixture.request_for(i);
        let a = post(server_mem.local_addr(), "/v1/recover", &req);
        let b = post(server_art.local_addr(), "/v1/recover", &req);
        assert_eq!(a.status, 200, "body: {}", a.body);
        assert_eq!(b.status, 200, "body: {}", b.body);
        // `id` and `latency_ms` are per-server; the recovered path —
        // segment ids AND f32 rates — must be bitwise identical.
        let pa = RecoverResponse::from_json(&a.body).expect("well-formed response");
        let pb = RecoverResponse::from_json(&b.body).expect("well-formed response");
        assert_eq!(
            pa.path(),
            pb.path(),
            "artifact-loaded shard diverged from in-process (request {i})"
        );
    }
}

#[test]
fn rejected_reloads_leave_old_model_serving() {
    let _g = lock();
    let (shard, fixture) = build_shard("alpha", alpha_config(), 7, 2);
    let router = Arc::new(ShardRouter::single(shard));
    let server = HttpServer::start_router(router, ephemeral_http()).expect("bind");
    let addr = server.local_addr();

    let req = fixture.request_for(0);
    let baseline = post(addr, "/v1/recover", &req);
    assert_eq!(baseline.status, 200);
    let baseline_path = RecoverResponse::from_json(&baseline.body)
        .expect("well-formed response")
        .path();

    // Corrupt artifact: valid file with flipped payload bytes → 422.
    let good = pack_fresh("alpha", "v2", &alpha_config(), 50.0, 16, 7);
    let corrupt_path = scratch_path("corrupt");
    let mut bytes = good.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&corrupt_path, &bytes).expect("write corrupt artifact");
    let body = format!(
        "{{\"city\":\"alpha\",\"path\":\"{}\"}}",
        corrupt_path.display()
    );
    let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
    assert_eq!(resp.status, 422, "corrupt reload body: {}", resp.body);
    std::fs::remove_file(&corrupt_path).ok();

    // Truncated artifact → 422.
    let trunc_path = scratch_path("trunc");
    std::fs::write(&trunc_path, &good.to_bytes()[..40]).expect("write truncated artifact");
    let body = format!(
        "{{\"city\":\"alpha\",\"path\":\"{}\"}}",
        trunc_path.display()
    );
    let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
    assert_eq!(resp.status, 422, "truncated reload body: {}", resp.body);
    std::fs::remove_file(&trunc_path).ok();

    // A CRC-valid artifact whose manifest lies (a 1x4-block city: the
    // generator would panic) → 422, refused before anything is built.
    let mut liar = good.clone();
    liar.meta.city_config.blocks_x = 1;
    let liar_path = scratch_path("liar");
    liar.write_to(&liar_path).expect("write lying artifact");
    let body = format!(
        "{{\"city\":\"alpha\",\"path\":\"{}\"}}",
        liar_path.display()
    );
    let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
    assert_eq!(
        resp.status, 422,
        "lying-manifest reload body: {}",
        resp.body
    );
    assert!(resp.body.contains("1x4-block city"), "body: {}", resp.body);
    std::fs::remove_file(&liar_path).ok();

    // Wrong city artifact → 409.
    let beta = pack_fresh("beta", "v1", &beta_config(), 50.0, 16, 7);
    let beta_path = scratch_path("wrongcity");
    beta.write_to(&beta_path).expect("write beta artifact");
    let body = format!(
        "{{\"city\":\"alpha\",\"path\":\"{}\"}}",
        beta_path.display()
    );
    let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
    assert_eq!(resp.status, 409, "wrong-city reload body: {}", resp.body);
    std::fs::remove_file(&beta_path).ok();

    // Same city and network on 40 m grid cells → 409: the shard's query
    // context would compute the grid features on its own 50 m grid.
    let regridded = pack_fresh("alpha", "v2", &alpha_config(), 40.0, 16, 7);
    let grid_path = scratch_path("grid40");
    regridded.write_to(&grid_path).expect("write 40 m artifact");
    let body = format!(
        "{{\"city\":\"alpha\",\"path\":\"{}\"}}",
        grid_path.display()
    );
    let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
    assert_eq!(resp.status, 409, "other-grid reload body: {}", resp.body);
    assert!(resp.body.contains("grid"), "body: {}", resp.body);
    std::fs::remove_file(&grid_path).ok();

    // A device that never ends → 400 at once, nothing read.
    let t0 = std::time::Instant::now();
    let resp = client::post_json(
        addr,
        "/admin/reload",
        "{\"city\":\"alpha\",\"path\":\"/dev/zero\"}",
    )
    .expect("http");
    assert_eq!(resp.status, 400, "/dev/zero reload body: {}", resp.body);
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());

    // Unknown shard name → 404; missing file → 400.
    let resp = client::post_json(addr, "/admin/reload", "{\"city\":\"nope\",\"path\":\"/x\"}")
        .expect("http");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    let resp = client::post_json(
        addr,
        "/admin/reload",
        "{\"city\":\"alpha\",\"path\":\"/definitely/not/here.rnta\"}",
    )
    .expect("http");
    assert_eq!(resp.status, 400, "body: {}", resp.body);

    // After every rejected reload, the original model still serves the
    // exact same answer.
    let after = post(addr, "/v1/recover", &req);
    assert_eq!(after.status, 200, "body: {}", after.body);
    let after_path = RecoverResponse::from_json(&after.body)
        .expect("well-formed response")
        .path();
    assert_eq!(
        after_path, baseline_path,
        "rejected reloads must leave the old model untouched"
    );
}

#[test]
fn hot_reload_under_load_has_zero_invalid_responses() {
    let _g = lock();
    let (shard, fixture) = build_shard("alpha", alpha_config(), 7, 4);
    let router = Arc::new(ShardRouter::single(shard));
    let server = HttpServer::start_router(router, ephemeral_http()).expect("bind");
    let addr = server.local_addr();

    // v2 artifact: identical city/config/seed, so answers stay bitwise
    // stable across the swap and every in-flight response is checkable.
    let artifact = pack_fresh("alpha", "v2", &alpha_config(), 50.0, 16, 7);
    let path = scratch_path("hotswap");
    artifact.write_to(&path).expect("write artifact");

    let mut expected = Vec::new();
    for i in 0..4 {
        let req = fixture.request_for(i);
        let want = fixture.in_process(&req);
        expected.push((req, want));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|worker| {
            let stop = Arc::clone(&stop);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let (req, want) = &expected[i % expected.len()];
                    i += 1;
                    let resp = post(addr, "/v1/recover", req);
                    assert_eq!(resp.status, 200, "mid-reload failure: {}", resp.body);
                    let parsed =
                        RecoverResponse::from_json(&resp.body).expect("well-formed response");
                    assert_eq!(&parsed.path(), want, "mid-reload answer diverged");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Two hot swaps while traffic is flowing.
    for round in 0..2 {
        std::thread::sleep(Duration::from_millis(50));
        let body = format!("{{\"city\":\"alpha\",\"path\":\"{}\"}}", path.display());
        let resp = client::post_json(addr, "/admin/reload", &body).expect("http");
        assert_eq!(resp.status, 200, "reload {round} failed: {}", resp.body);
        assert!(
            resp.body.contains("\"model_version\":\"v2\""),
            "reload receipt missing version: {}",
            resp.body
        );
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let mut served = 0;
    for c in clients {
        served += c.join().expect("client thread");
    }
    assert!(served > 0, "load generator never got a request through");
    std::fs::remove_file(&path).ok();

    let metrics = client::get(addr, "/metrics").expect("metrics").body;
    assert!(
        metrics.contains("rntrajrec_engine_model_swaps_total{city=\"alpha\"} 2"),
        "expected two recorded model swaps:\n{metrics}"
    );
    assert!(
        metrics.contains("rntrajrec_artifact_info{city=\"alpha\",model_version=\"v2\""),
        "artifact_info gauge should reflect the loaded artifact:\n{metrics}"
    );
    let health = client::get(addr, "/healthz").expect("healthz").body;
    assert!(
        health.contains("\"model_version\":\"v2\"") && health.contains("\"reloads\":2"),
        "healthz should report the reloaded shard: {health}"
    );
}
