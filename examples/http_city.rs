//! HTTP serving demo: boot the full serving stack — micro-batching engine
//! plus the HTTP/1.1 front-end — over a synthetic city, then act as a
//! client: fetch `/healthz`, post wire-format recovery requests, and show
//! that what comes back over TCP is exactly what in-process dispatch
//! produces. Finishes with a look at `/metrics` and a graceful drain.
//!
//! ```bash
//! cargo run --release --example http_city
//! ```

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_roadnet::{CityConfig, SyntheticCity};
use rntrajrec_serve::http::client;
use rntrajrec_serve::{
    EngineConfig, HttpConfig, HttpServer, QueryContext, RecoveryEngine, ServingModel,
};
use rntrajrec_synth::{SimConfig, Simulator, TrajSample};

fn main() {
    println!("Preparing synthetic city + serving model...");
    let city = SyntheticCity::generate(CityConfig::tiny());
    let grid = city.net.grid(50.0);
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
    let serving = Arc::new(ServingModel::new(model));

    // Simulate a few low-sample trajectories to replay as online queries.
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(41);
    let samples: Vec<TrajSample> = (0..5).map(|_| sim.sample(&mut rng, 8)).collect();

    let ctx = Arc::new(QueryContext::new(city.net, 50.0));
    let engine = Arc::new(RecoveryEngine::start(
        Arc::clone(&serving),
        EngineConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            workers: 2,
            queue_capacity: Some(64),
            ..EngineConfig::default()
        },
    ));
    let server = HttpServer::start(
        Arc::clone(&engine),
        Arc::clone(&ctx),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            ..HttpConfig::default()
        },
        None,
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    println!("Serving on http://{addr}\n");

    let health = client::get(addr, "/healthz").expect("healthz");
    println!("GET /healthz -> {} {}", health.status, health.body);

    println!("\nPOST /v1/recover x{}:", samples.len());
    for (i, s) in samples.iter().enumerate() {
        let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
        let body = serde_json::to_string(&req).expect("serializes");
        let resp = client::post_json(addr, "/v1/recover", &body).expect("roundtrip");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = RecoverResponse::from_json(&resp.body).expect("well-formed");

        // The wire adds nothing and loses nothing: bit-identical to
        // dispatching the same request in-process.
        let in_process = engine
            .recover(ctx.sample_input(&req).expect("valid request"))
            .path;
        assert_eq!(parsed.path(), in_process, "HTTP diverged from in-process");

        println!(
            "  [{i}] {} raw pts -> {} recovered steps in {:.2} ms (batch {}), first segs {:?}",
            req.points.len(),
            parsed.segments.len(),
            parsed.latency_ms,
            parsed.batch_size,
            &parsed.segments[..parsed.segments.len().min(6)],
        );
    }

    let metrics = client::get(addr, "/metrics").expect("metrics");
    println!("\nGET /metrics (excerpt):");
    for line in metrics.body.lines().filter(|l| {
        l.starts_with("rntrajrec_http_responses_total")
            || l.starts_with("rntrajrec_engine_completed_total")
            || l.starts_with("rntrajrec_http_recover_latency_ms")
    }) {
        println!("  {line}");
    }

    println!("\nHTTP recovery matches in-process dispatch exactly; draining...");
    server.shutdown();
    drop(engine);
    println!("Drained cleanly.");
}
