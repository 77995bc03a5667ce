//! Cross-crate serving integration: train a small RNTrajRec model through
//! the standard pipeline, then serve it online and check that the
//! micro-batched engine reproduces offline inference exactly, that the
//! tape-free path agrees with the tape-based predictor on trained weights,
//! and that `/v1/recover` over real TCP returns the same bits.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rntrajrec_suite::rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec_suite::rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_suite::rntrajrec::train::{TrainConfig, Trainer};
use rntrajrec_suite::rntrajrec::wire::v2::Event;
use rntrajrec_suite::rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_suite::rntrajrec_serve::http::client;
use rntrajrec_suite::rntrajrec_serve::{
    EngineConfig, HttpConfig, HttpServer, QueryContext, Recovered, RecoveryEngine, RecoveryHandle,
    ServingModel, StepWait, SubmitOptions,
};
use rntrajrec_suite::rntrajrec_synth::DatasetConfig;

fn trained_pipeline() -> (Pipeline, EndToEnd) {
    let scale = ExperimentScale {
        num_traj: 24,
        dim: 8,
        epochs: 1,
        batch: 4,
        seed: 7,
        lr: 3e-3,
    };
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, scale.num_traj), &scale);
    let mut model = EndToEnd::build(
        &MethodSpec::RnTrajRec,
        &pipeline.dataset.city.net,
        &pipeline.grid,
        scale.dim,
        scale.seed,
    );
    let mut trainer = Trainer::new(TrainConfig {
        epochs: scale.epochs,
        batch_size: scale.batch,
        seed: scale.seed,
        lr: scale.lr,
        ..Default::default()
    });
    trainer.fit(&mut model, &pipeline.train_inputs, None);
    (pipeline, model)
}

#[test]
fn trained_weights_serve_identically_to_tape_predict() {
    let (pipeline, model) = trained_pipeline();
    let tape_preds: Vec<Vec<(usize, f32)>> = pipeline
        .test_inputs
        .iter()
        .map(|i| model.predict(i))
        .collect();

    let serving = Arc::new(ServingModel::new(model));
    // One fused batch over every test input: each member must equal its
    // own `recover` (the same pass at B=1), which must equal the tape.
    let refs: Vec<_> = pipeline.test_inputs.iter().collect();
    let batched = serving.recover_batch(&refs);
    for ((input, want), member) in pipeline.test_inputs.iter().zip(&tape_preds).zip(batched) {
        let got = serving.recover(input);
        assert_eq!(got.len(), want.len());
        for (j, (&(gs, gr), &(ws, wr))) in got.iter().zip(want).enumerate() {
            assert_eq!(gs, ws, "step {j}: trained tape-free segment diverged");
            assert_eq!(
                gr, wr,
                "step {j}: rate not bit-identical on trained weights"
            );
        }
        assert_eq!(
            member.expect("healthy member"),
            got,
            "fused batch member diverged from its own B=1 recovery"
        );
    }
}

#[test]
fn engine_micro_batching_is_transparent_end_to_end() {
    let (pipeline, model) = trained_pipeline();
    let serving = Arc::new(ServingModel::new(model));
    let sequential: Vec<Vec<(usize, f32)>> = pipeline
        .test_inputs
        .iter()
        .map(|i| serving.recover(i))
        .collect();

    let engine = RecoveryEngine::start(
        Arc::clone(&serving),
        EngineConfig {
            max_batch: 3,
            max_delay: Duration::from_millis(1),
            workers: 3,
            queue_capacity: None,
            ..EngineConfig::default()
        },
    );
    // Submit everything at once so batches actually form.
    let handles: Vec<_> = pipeline
        .test_inputs
        .iter()
        .map(|i| {
            engine
                .submit(i.clone(), SubmitOptions::new())
                .expect("unbounded queue accepts every submission")
        })
        .collect();
    for (h, want) in handles.into_iter().zip(&sequential) {
        assert_eq!(
            &h.wait().path,
            want,
            "micro-batched serving changed a result"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.completed as usize, pipeline.test_inputs.len());
}

/// One session, every way a member can end. A long-decoding anchor is
/// flushed alone; while it decodes, two healthy requests, a corrupt one
/// and one whose deadline is already past arrive at the admission gate.
/// The expired one is refused there; the corrupt one panics the fused pass
/// it was admitted into, so every member is re-run alone. Every handle
/// gets exactly one terminal result (`requests == completed`, one per
/// handle), healthy paths carry `ServingModel::recover`'s bits, and the
/// counters account for each delivery — including the waits behind
/// `mean_queue_wait_ms` / `mean_compute_ms`, which the refused newcomer
/// used to dilute.
#[test]
fn one_session_answers_every_member_exactly_once() {
    let (pipeline, model) = trained_pipeline();
    let serving = Arc::new(ServingModel::new(model));
    let ctx = QueryContext::new(pipeline.dataset.city.net.clone(), 50.0);
    // Thousands of decode steps: tens of milliseconds in which the other
    // four submissions (microseconds) find the session still decoding.
    let s = &pipeline.dataset.test[0];
    let anchor = ctx
        .sample_input(&RecoverRequest::from_raw(&s.raw, 6000, s.depart_epoch_s))
        .expect("valid request");
    let inputs = &pipeline.test_inputs;
    let mut corrupt = inputs[1].clone();
    corrupt.subgraphs[0].nodes[0] = usize::MAX / 2; // out of any road network's range
    let want_anchor = serving.recover(&anchor);
    let want_0 = serving.recover(&inputs[0]);
    let want_3 = serving.recover(&inputs[3]);

    let engine = RecoveryEngine::start(
        Arc::clone(&serving),
        EngineConfig {
            max_batch: 8,
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let a = engine
        .submit(anchor, SubmitOptions::new().stream())
        .expect("accepts");
    match a.next_step(Duration::from_secs(30)) {
        StepWait::Step(_) => {}
        other => panic!("expected the anchor's first step, got {other:?}"),
    }
    let expired = SubmitOptions::new().deadline(Instant::now() - Duration::from_millis(1));
    let rest = [
        (inputs[0].clone(), SubmitOptions::new()),
        (corrupt, SubmitOptions::new()),
        (inputs[2].clone(), expired),
        (inputs[3].clone(), SubmitOptions::new()),
    ]
    .map(|(input, opts)| engine.submit(input, opts).expect("accepts"));

    let wait = |h: RecoveryHandle| {
        h.wait_timeout(Duration::from_secs(60))
            .expect("every member is answered")
    };
    let ra = wait(a);
    let [r0, rc, re, r3] = rest.map(wait);
    for (r, want) in [(&ra, &want_anchor), (&r0, &want_0), (&r3, &want_3)] {
        assert!(r.error.is_none(), "healthy member failed: {:?}", r.error);
        assert_eq!(&r.path, want, "healthy member diverged from recover()");
    }
    assert!(rc.error.is_some() && !rc.timed_out && rc.path.is_empty());
    let err = re.error.as_deref().expect("expired member fails");
    assert!(err.contains("deadline") && re.timed_out, "got: {err}");

    let stats = engine.drain();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.completed, 5, "one delivery per accepted submission");
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.deadline_cancelled, 1);
    assert!(stats.admitted >= 1, "nobody joined the anchor's session");
    let delivered = [&ra, &r0, &rc, &re, &r3];
    let total_ms = |f: fn(&Recovered) -> Duration| {
        delivered.iter().map(|r| f(r).as_nanos()).sum::<u128>() as f64 / 1e6
    };
    let (waited, computed) = (total_ms(|r| r.queue_wait), total_ms(|r| r.compute));
    assert!(
        (stats.mean_queue_wait_ms * 5.0 - waited).abs() <= 1e-9 * waited.max(1.0),
        "mean_queue_wait_ms {} x 5 != {waited} ms delivered",
        stats.mean_queue_wait_ms
    );
    assert!(
        (stats.mean_compute_ms * 5.0 - computed).abs() <= 1e-9 * computed.max(1.0),
        "mean_compute_ms {} x 5 != {computed} ms delivered",
        stats.mean_compute_ms
    );
}

#[test]
fn http_recover_over_tcp_matches_in_process_recovery_bitwise() {
    let (pipeline, model) = trained_pipeline();
    let serving = Arc::new(ServingModel::new(model));
    let ctx = Arc::new(QueryContext::new(pipeline.dataset.city.net.clone(), 50.0));
    let engine = Arc::new(RecoveryEngine::start(
        Arc::clone(&serving),
        EngineConfig::default(),
    ));
    let http = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        ..HttpConfig::default()
    };
    let server = HttpServer::start(engine, Arc::clone(&ctx), http, None).expect("bind");
    let bits = |p: &[(usize, f32)]| -> Vec<(usize, u32)> {
        p.iter().map(|&(seg, rate)| (seg, rate.to_bits())).collect()
    };
    for s in &pipeline.dataset.test {
        let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
        let want = serving.recover(&ctx.sample_input(&req).expect("valid request"));
        let body = serde_json::to_string(&req).expect("request serializes");
        let resp = client::post_json(server.local_addr(), "/v1/recover", &body).expect("roundtrip");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let got = RecoverResponse::from_json(&resp.body).expect("well-formed response");
        assert_eq!(
            bits(&got.path()),
            bits(&want),
            "HTTP recovery diverged from ServingModel::recover"
        );
    }

    // One prologue, three routes: the same trip through `/v2/recover` and
    // `/v2/recover/stream` must carry the `/v1` answer's bits.
    let s = &pipeline.dataset.test[0];
    let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
    let body = serde_json::to_string(&req).expect("request serializes");
    let addr = server.local_addr();
    let v1 = client::post_json(addr, "/v1/recover", &body).expect("v1");
    let v1 = RecoverResponse::from_json(&v1.body).expect("v1 response");
    let v2 = client::post_json(addr, "/v2/recover", &body).expect("v2");
    assert_eq!(v2.status, 200, "body: {}", v2.body);
    let v2 = RecoverResponse::from_json(&v2.body).expect("v2 response");
    assert_eq!(bits(&v2.path()), bits(&v1.path()), "/v2 diverged from /v1");
    let stream = client::post_stream(addr, "/v2/recover/stream", &body, |_| {}).expect("stream");
    assert_eq!(stream.status, 200, "body: {}", stream.body);
    let last = stream.body.lines().last().expect("terminal event");
    let Ok(Event::Summary(summary)) = Event::from_json(last) else {
        panic!("stream did not end in a summary: {last}");
    };
    let streamed: Vec<_> = summary.segments.into_iter().zip(summary.rates).collect();
    assert_eq!(
        bits(&streamed),
        bits(&v1.path()),
        "stream diverged from /v1"
    );

    // The scrape operators and the benchmark read stays a valid exposition.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    let problems = rntrajrec_obs::promlint::lint(&metrics.body);
    assert!(problems.is_empty(), "{problems:?}\n{}", metrics.body);
    let ok_responses = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("rntrajrec_http_responses_total{class=\"2xx\"} "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(ok_responses >= Some(1.0), "2xx counter: {ok_responses:?}");
    server.shutdown();
}
