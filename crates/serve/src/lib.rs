//! `rntrajrec-serve` — online trajectory-recovery serving.
//!
//! The training stack (`rntrajrec`, `rntrajrec-models`, `rntrajrec-nn`)
//! predicts by building a full autograd tape per trajectory and recomputes
//! the GridGNN road representation on every call — fine for regenerating
//! the paper's tables, hopeless for an online service. This crate is the
//! serving path on top of the same weights:
//!
//! * [`ServingModel`] — a trained [`rntrajrec::EndToEnd`] model served by
//!   **tape-free inference** (the encoder's one layer definition run on
//!   `rntrajrec_nn::Eager` instead of the tape: plain tensor ops on
//!   `rntrajrec_nn::kernels`, no gradient bookkeeping or node allocation,
//!   GraphNorm scoped to each request), with the
//!   [`RoadEmbeddingCache`] — GridGNN grid-cell/segment embeddings
//!   (`X_road`) precomputed once per road network — attached. Shared
//!   read-only (`Arc`) across worker threads, so per-request work is only
//!   the GPS encoder and decoder.
//! * [`RecoveryEngine`] — a multi-threaded **micro-batching** scheduler:
//!   requests queue up; an idle engine takes what is queued at once, a
//!   busy one flushes a batch on size ([`EngineConfig::max_batch`]) or
//!   deadline ([`EngineConfig::max_delay`]); a worker runs each batch as
//!   one session through the **fused path** — one stacked encoder pass
//!   ([`ServingModel::encode`]), then a [`rntrajrec_models::DecodeState`]
//!   ([`ServingModel::decode_state`]) the worker steps itself: decoder
//!   steps as stacked `[B, ·]` matmuls, one product per head per step for
//!   the whole batch instead of one per member (a single request is the
//!   same path at B=1), with queued newcomers admitted, members whose
//!   [`RecoveryHandle`] was dropped retired and steps streamed between
//!   ticks. Dropping the handle is the only way to cancel a request: the
//!   engine keeps no deadline of its own.
//!   [`ServingModel::recover_batch`] is the same pass, closed, for callers
//!   without an engine. Batched output is bit-identical to sequential
//!   per-request inference (every fused kernel preserves the member's own
//!   per-element accumulation order), so the fusion is pure performance,
//!   never a numerical change.
//! * [`http`] / [`HttpServer`] — the dependency-free HTTP/1.1 network
//!   front-end (`POST /v1/recover`, `GET /healthz`, `GET /metrics`) with
//!   **admission control**: a bounded engine queue
//!   ([`EngineConfig::queue_capacity`] → typed [`EngineError::Overloaded`]
//!   → `429` + `Retry-After`), per-request deadline budgets (→ `503`,
//!   and the request's handle is dropped, cutting it out of its decode), a
//!   bounded connection backlog, and graceful drain on shutdown. The
//!   [`QueryContext`] turns wire requests (`rntrajrec::wire` — raw GPS
//!   points, no ground truth) into model inputs; HTTP-served results are
//!   **bit-identical** to in-process dispatch (`tests/http_roundtrip.rs`).
//!   `serve_http` is the standalone binary.
//!
//! # Compute threading: kernels run on the caller's thread
//!
//! Workers ([`EngineConfig::workers`]) each run whole batches, and the
//! kernels run on the worker's own thread: parallelism is across
//! requests, never inside one. At this model's widths (d = 16–32) a
//! request is a chain of small products, too small to split across
//! cores with profit, so size `workers` to the cores.
//!
//! ```no_run
//! use std::sync::Arc;
//! use rntrajrec::experiments::{ExperimentScale, Pipeline};
//! use rntrajrec::model::{EndToEnd, MethodSpec};
//! use rntrajrec_serve::{EngineConfig, RecoveryEngine, ServingModel};
//! use rntrajrec_synth::DatasetConfig;
//!
//! let scale = ExperimentScale::quick();
//! let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, 40), &scale);
//! let model = EndToEnd::build(
//!     &MethodSpec::RnTrajRec,
//!     &pipeline.dataset.city.net,
//!     &pipeline.grid,
//!     scale.dim,
//!     scale.seed,
//! );
//! let serving = Arc::new(ServingModel::new(model));
//! let engine = RecoveryEngine::start(serving, EngineConfig::default());
//! let recovered = engine.recover(pipeline.test_inputs[0].clone());
//! println!("{} segments in {:?}", recovered.path.len(), recovered.latency);
//! ```

pub mod brownout;
mod engine;
pub mod http;
mod service;
pub mod shard;

pub use brownout::{BrownoutConfig, BrownoutController};
pub use engine::{
    EngineConfig, EngineError, EngineStats, Recovered, RecoveryEngine, RecoveryHandle, StepUpdate,
    StepWait, Steps, SubmitOptions,
};
pub use http::{HttpConfig, HttpServer};
pub use service::{quant_head_env, QueryContext, RoadEmbeddingCache, ServingModel};
pub use shard::{CityShard, ReloadError, ReloadReceipt, RouteError, ShardInfo, ShardRouter};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use rntrajrec::model::{EndToEnd, MethodSpec};
    use rntrajrec_models::{FeatureExtractor, SampleInput};
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(n: usize) -> (SyntheticCity, Vec<SampleInput>) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let mut sim = Simulator::new(
            &city.net,
            SimConfig {
                target_len: 9,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let inputs = (0..n)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect();
        (city, inputs)
    }

    fn serving(city: &SyntheticCity) -> Arc<ServingModel> {
        let grid = city.net.grid(50.0);
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
        Arc::new(ServingModel::new(model))
    }

    /// Every encoder has an eager path: a baseline serves too, with its
    /// tape `predict` bits.
    #[test]
    fn serves_a_baseline_with_its_tape_bits() {
        let (city, inputs) = fixture(3);
        let grid = city.net.grid(50.0);
        let model = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        let want: Vec<Vec<(usize, f32)>> = inputs.iter().map(|i| model.predict(i)).collect();
        let serving = ServingModel::new(model);
        assert!(serving.road_cache().is_none());
        for (input, want) in inputs.iter().zip(&want) {
            let got = serving.recover(input);
            assert_eq!(got.len(), want.len());
            for (&(gs, gr), &(ws, wr)) in got.iter().zip(want) {
                assert_eq!((gs, gr.to_bits()), (ws, wr.to_bits()));
            }
        }
    }

    #[test]
    fn road_cache_is_precomputed() {
        let (city, _) = fixture(0);
        let model = serving(&city);
        let cache = model.road_cache().expect("RNTrajRec precomputes X_road");
        assert_eq!(cache.x_road.rows, city.net.num_segments());
        assert!(cache.x_road.all_finite());
    }

    /// The acceptance property: micro-batched engine output must equal
    /// sequential per-request inference exactly, bit for bit, under
    /// multi-threaded execution and arbitrary batch grouping.
    #[test]
    fn batched_equals_sequential_bitwise() {
        let (city, inputs) = fixture(12);
        let model = serving(&city);
        let sequential: Vec<Vec<(usize, f32)>> = inputs.iter().map(|i| model.recover(i)).collect();

        let engine = RecoveryEngine::start(
            Arc::clone(&model),
            EngineConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                workers: 4,
                queue_capacity: None,
                ..EngineConfig::default()
            },
        );
        let handles: Vec<_> = inputs
            .iter()
            .map(|i| {
                engine
                    .submit(i.clone(), SubmitOptions::default())
                    .expect("unbounded queue accepts")
            })
            .collect();
        for (handle, want) in handles.into_iter().zip(&sequential) {
            let got = handle.wait();
            assert_eq!(&got.path, want, "batched result diverged from sequential");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 12);
        assert_eq!(stats.completed, 12);
        assert!(stats.batches >= 1);
    }

    /// Half one of the flush rule: with no session in flight there is
    /// nothing to wait for, so a lone request leaves at once however long
    /// `max_delay` is. (The other half — a busy engine still holds a
    /// partial batch for size or deadline — needs a plugged worker and
    /// lives in `tests/resilience.rs`.)
    #[test]
    fn idle_engine_flushes_lone_request() {
        let (city, inputs) = fixture(1);
        let model = serving(&city);
        // Neither the size (64) nor the deadline (5 s) trigger can flush
        // this promptly: only the idle rule can.
        let engine = RecoveryEngine::start(
            model,
            EngineConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(5),
                workers: 1,
                queue_capacity: None,
                ..EngineConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let r = engine.recover(inputs[0].clone());
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "lone request waited {:?} on an idle engine",
            t0.elapsed()
        );
        assert!(
            r.queue_wait < Duration::from_millis(50),
            "{:?}",
            r.queue_wait
        );
        assert_eq!(r.batch_size, 1);
        let stats = engine.stats();
        assert_eq!(stats.flushed_idle, 1);
        assert_eq!(stats.flushed_deadline, 0);
        assert_eq!(stats.flushed_full, 0);
    }

    /// A burst against one worker: the first request leaves alone (idle
    /// engine), the rest pile up behind its session and leave by size, by
    /// mid-decode admission, or — once the worker is back and finds a
    /// remainder — by the idle rule again. Which mix is a race; what is
    /// not: nothing waits for the 5 s deadline, and every batch is
    /// counted under exactly one cause.
    #[test]
    fn burst_on_one_worker_never_waits_for_the_deadline() {
        let (city, inputs) = fixture(8);
        let model = serving(&city);
        let engine = RecoveryEngine::start(
            model,
            EngineConfig {
                max_batch: 2,
                max_delay: Duration::from_secs(5),
                workers: 1,
                queue_capacity: None,
                ..EngineConfig::default()
            },
        );
        let handles: Vec<_> = inputs
            .iter()
            .map(|i| {
                engine
                    .submit(i.clone(), SubmitOptions::default())
                    .expect("unbounded queue accepts")
            })
            .collect();
        for h in handles {
            let r = h.wait();
            assert!(!r.path.is_empty());
            assert!(r.queue_wait < Duration::from_secs(4), "{:?}", r.queue_wait);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.flushed_deadline, 0);
        assert_eq!(stats.flushed_full + stats.flushed_idle, stats.batches);
    }

    #[test]
    fn concurrent_clients_all_complete() {
        let (city, inputs) = fixture(6);
        let model = serving(&city);
        let sequential: Vec<Vec<(usize, f32)>> = inputs.iter().map(|i| model.recover(i)).collect();
        let engine = RecoveryEngine::start(Arc::clone(&model), EngineConfig::default());
        std::thread::scope(|s| {
            for round in 0..3 {
                let engine = &engine;
                let inputs = &inputs;
                let sequential = &sequential;
                s.spawn(move || {
                    for (input, want) in inputs.iter().zip(sequential) {
                        let got = engine.recover(input.clone());
                        assert_eq!(&got.path, want, "round {round} diverged");
                    }
                });
            }
        });
        assert_eq!(engine.stats().completed, 18);
    }

    #[test]
    fn malformed_request_fails_without_killing_the_engine() {
        let (city, inputs) = fixture(2);
        let model = serving(&city);
        // Single worker: if the panic killed the thread, the follow-up
        // request would hang forever instead of completing.
        let engine = RecoveryEngine::start(
            Arc::clone(&model),
            EngineConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                workers: 1,
                queue_capacity: None,
                ..EngineConfig::default()
            },
        );
        let mut bad = inputs[0].clone();
        bad.subgraphs[0].nodes[0] = usize::MAX / 2; // out of any road network's range
        let failed = engine.recover(bad);
        assert!(failed.error.is_some(), "corrupt input must report an error");
        assert!(failed.path.is_empty());

        let good = engine.recover(inputs[1].clone());
        assert!(good.error.is_none());
        assert_eq!(good.path, model.recover(&inputs[1]));
        let stats = engine.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 2);
    }

    /// A corrupt member inside a *multi-request* batch must fail alone:
    /// the fused pass panics, the fallback recovers every healthy member
    /// with its exact sequential result.
    #[test]
    fn corrupt_member_fails_alone_inside_fused_batch() {
        let (city, inputs) = fixture(4);
        let model = serving(&city);
        let mut bad = inputs[2].clone();
        bad.subgraphs[0].nodes[0] = usize::MAX / 2;
        let batch: Vec<&SampleInput> = vec![&inputs[0], &inputs[1], &bad, &inputs[3]];
        let results = model.recover_batch(&batch);
        assert_eq!(results.len(), 4);
        for (i, (input, result)) in batch.iter().zip(&results).enumerate() {
            if i == 2 {
                assert!(result.is_err(), "corrupt member must error");
            } else {
                assert_eq!(
                    result.as_ref().expect("healthy member"),
                    &model.recover(input),
                    "member {i} diverged in fallback"
                );
            }
        }
    }

    /// Admission control: a bounded queue rejects with a typed
    /// [`EngineError::Overloaded`] instead of queueing without bound (or
    /// blocking). Capacity 0 makes the rejection deterministic.
    #[test]
    fn bounded_queue_rejects_with_typed_overload() {
        let (city, inputs) = fixture(2);
        let model = serving(&city);
        let engine = RecoveryEngine::start(
            Arc::clone(&model),
            EngineConfig {
                max_batch: 1,
                max_delay: Duration::from_millis(1),
                workers: 1,
                queue_capacity: Some(0),
                ..EngineConfig::default()
            },
        );
        match engine.submit(inputs[0].clone(), SubmitOptions::default()) {
            Err(EngineError::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!(queue_depth, 0);
                assert_eq!(capacity, 0);
            }
            Ok(_) => panic!("capacity-0 queue must reject"),
            Err(e) => panic!("expected Overloaded, got {e}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.requests, 0, "rejected submissions are not requests");
        assert_eq!(engine.queue_capacity(), Some(0));

        // An unbounded engine still accepts, and the gauges read sanely.
        let open = RecoveryEngine::start(Arc::clone(&model), EngineConfig::default());
        let r = open
            .submit(inputs[1].clone(), SubmitOptions::default())
            .expect("accepts")
            .wait();
        assert!(r.error.is_none());
        assert_eq!(open.queue_depth(), 0);
        assert_eq!(open.in_flight_batches(), 0);
        assert_eq!(open.stats().rejected, 0);
    }

    #[test]
    fn wait_timeout_returns_handle_then_result() {
        let (city, inputs) = fixture(1);
        let engine = RecoveryEngine::start(serving(&city), EngineConfig::default());
        let handle = engine
            .submit(inputs[0].clone(), SubmitOptions::default())
            .expect("unbounded queue accepts");
        // A zero budget misses; the handle survives and still delivers.
        let handle = match handle.wait_timeout(Duration::ZERO) {
            Ok(r) => {
                // Scheduler beat us to it — the result is already valid.
                assert!(r.error.is_none());
                return;
            }
            Err(h) => h,
        };
        let r = handle
            .wait_timeout(Duration::from_secs(30))
            .expect("completes");
        assert!(r.error.is_none());
        assert!(!r.path.is_empty());
    }

    #[test]
    fn drop_drains_cleanly_with_pending_none() {
        let (city, _) = fixture(0);
        let engine = RecoveryEngine::start(serving(&city), EngineConfig::default());
        drop(engine); // no requests: workers must exit, not hang
    }
}
