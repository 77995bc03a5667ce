//! A city shard stood up from a packed artifact, served over real TCP:
//! `/v1/recover` answers what the artifact's own model answers in process,
//! bit for bit, `/v1/example` round-trips, and a reload packed on another
//! grid is refused with the old model still serving.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec_artifact::{pack_fresh, Artifact};
use rntrajrec_suite::rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_suite::rntrajrec_roadnet::CityConfig;
use rntrajrec_suite::rntrajrec_serve::http::client;
use rntrajrec_suite::rntrajrec_serve::{
    CityShard, EngineConfig, HttpConfig, HttpServer, QueryContext, ServingModel, ShardRouter,
};
use rntrajrec_suite::rntrajrec_synth::{SimConfig, Simulator};

struct Served {
    server: HttpServer,
    /// The artifact's own `instantiate()`, wrapped with the head the
    /// shard serves.
    reference: ServingModel,
    ctx: QueryContext,
    requests: Vec<RecoverRequest>,
}

impl Served {
    fn in_process(&self, req: &RecoverRequest) -> Vec<(usize, u32)> {
        let input = self.ctx.sample_input(req).expect("valid request");
        bits(&self.reference.recover(&input))
    }

    fn over_tcp(&self, req: &RecoverRequest) -> Vec<(usize, u32)> {
        let body = serde_json::to_string(req).expect("request serializes");
        let resp =
            client::post_json(self.server.local_addr(), "/v1/recover", &body).expect("roundtrip");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        bits(
            &RecoverResponse::from_json(&resp.body)
                .expect("well-formed response")
                .path(),
        )
    }
}

fn bits(path: &[(usize, f32)]) -> Vec<(usize, u32)> {
    path.iter().map(|&(s, r)| (s, r.to_bits())).collect()
}

fn pack(cell_m: f64) -> Artifact {
    pack_fresh("alpha", "v1", &CityConfig::tiny(), cell_m, 16, 7)
}

fn serve(artifact: &Artifact) -> Served {
    let config = EngineConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        workers: 2,
        ..EngineConfig::default()
    };
    let shard = CityShard::from_artifact(artifact, None, config).expect("artifact serves");
    let int8 = shard.engine().stats().segment_head == "int8";
    let loaded = artifact.instantiate().expect("instantiates");
    let mut sim = Simulator::new(
        &loaded.city.net,
        SimConfig {
            target_len: 9,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(23);
    let requests = (0..4)
        .map(|_| {
            let s = sim.sample(&mut rng, 8);
            RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s)
        })
        .collect();
    let ctx = QueryContext::new(loaded.city.net, artifact.meta.cell_m);
    let reference = ServingModel::from_parts(loaded.model, loaded.x_road, loaded.quant, int8)
        .expect("RNTrajRec serves");
    let http = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        ..HttpConfig::default()
    };
    let server =
        HttpServer::start_router(Arc::new(ShardRouter::single(shard)), http).expect("bind");
    Served {
        server,
        reference,
        ctx,
        requests,
    }
}

#[test]
fn artifact_shard_over_tcp_matches_its_model_in_process_bitwise() {
    let h = serve(&pack(50.0));
    for req in &h.requests {
        assert_eq!(
            h.over_tcp(req),
            h.in_process(req),
            "HTTP recovery diverged from ServingModel::recover"
        );
    }
}

#[test]
fn example_body_round_trips() {
    let h = serve(&pack(50.0));
    let resp = client::get(h.server.local_addr(), "/v1/example").expect("example");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let req = RecoverRequest::from_json(&resp.body).expect("example is a valid request");
    assert_eq!(h.over_tcp(&req), h.in_process(&req));
}

#[test]
fn reload_on_another_grid_is_409_and_answers_stay() {
    let h = serve(&pack(50.0));
    let req = &h.requests[0];
    let before = h.over_tcp(req);

    let path = std::env::temp_dir().join(format!(
        "rntrajrec_shards_{}_grid40.rnta",
        std::process::id()
    ));
    pack(40.0).write_to(&path).expect("write 40 m artifact");
    let body = format!("{{\"city\":\"alpha\",\"path\":\"{}\"}}", path.display());
    let resp = client::post_json(h.server.local_addr(), "/admin/reload", &body).expect("reload");
    std::fs::remove_file(&path).ok();
    assert_eq!(resp.status, 409, "body: {}", resp.body);

    assert_eq!(
        h.over_tcp(req),
        before,
        "a refused reload changed the answer"
    );
    assert_eq!(before, h.in_process(req));
}
