//! Continuous-batching tests: the engine admits newcomers into a decode
//! batch that is already running, streams per-step events, and cancels
//! members whose handle was dropped — all without perturbing incumbent
//! results by a single bit.
//!
//! Decode steps on the tiny fixture are microseconds, so tests that need
//! a request to still be decoding when the next one arrives arm a
//! per-kernel chaos delay (`kernel.dispatch=delay:1@1.0`) *after* model
//! build; that stretches one decode into tens of milliseconds and makes
//! the mid-flight window reliable. Chaos state is process-global, so the
//! tests serialize on a mutex and disarm on drop.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::wire::RecoverRequest;
use rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_serve::{
    EngineConfig, QueryContext, RecoveryEngine, ServingModel, StepWait, SubmitOptions,
};

static SEQUENTIAL: Mutex<()> = Mutex::new(());

struct ChaosGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl ChaosGuard {
    fn unarmed() -> Self {
        let g = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
        rntrajrec_chaos::disarm();
        ChaosGuard(g)
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        rntrajrec_chaos::disarm();
    }
}

/// Slow every kernel dispatch by 1 ms so in-flight decodes stay open
/// long enough for a newcomer to arrive mid-batch.
fn slow_decode() {
    rntrajrec_chaos::configure("kernel.dispatch=delay:1@1.0", 0).expect("valid chaos spec");
}

fn fixture(n: usize) -> (SyntheticCity, Vec<SampleInput>) {
    let city = SyntheticCity::generate(CityConfig::tiny());
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(50.0);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let mut sim = Simulator::new(
        &city.net,
        rntrajrec_synth::SimConfig {
            target_len: 9,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(41);
    let inputs = (0..n)
        .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
        .collect();
    (city, inputs)
}

use rntrajrec_synth::Simulator;

fn serving(city: &SyntheticCity) -> Arc<ServingModel> {
    let grid = city.net.grid(50.0);
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
    Arc::new(ServingModel::new(model))
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        workers: 1,
        queue_capacity: None,
        ..EngineConfig::default()
    }
}

/// Poll `f` until it returns true or the budget expires.
fn eventually(budget: Duration, mut f: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    f()
}

/// Streamed step events reproduce the final path exactly: one event per
/// decode step, indices strictly sequential, payloads bit-identical to
/// the corresponding path entries.
#[test]
fn streamed_steps_match_final_path_bitwise() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(1);
    let engine = RecoveryEngine::start(serving(&city), engine_cfg());

    let handle = engine
        .submit(inputs[0].clone(), SubmitOptions::new().stream())
        .expect("accepts");
    let steps: Vec<_> = handle.steps().collect();
    let r = handle.wait();
    assert!(r.error.is_none(), "streamed request failed: {:?}", r.error);
    assert_eq!(steps.len(), r.path.len(), "one event per decoded step");
    for (i, s) in steps.iter().enumerate() {
        assert_eq!(s.id, r.id, "event carries the submission id");
        assert_eq!(s.step, i, "step indices must be sequential");
        assert_eq!(
            (s.segment, s.rate),
            r.path[i],
            "step {i} event diverged from the final path"
        );
        assert!(s.logprob <= 0.0, "log-probability must be non-positive");
    }
}

/// A request that arrives while a batch is decoding is admitted into it
/// mid-flight, and *both* the incumbent and the newcomer finish
/// bit-identical to running alone.
#[test]
fn mid_decode_admission_leaves_members_bit_identical() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(2);
    let model = serving(&city);
    let want: Vec<Vec<(usize, f32)>> = inputs.iter().map(|i| model.recover(i)).collect();
    let engine = RecoveryEngine::start(model, engine_cfg());
    slow_decode();

    let a = engine
        .submit(inputs[0].clone(), SubmitOptions::new().stream())
        .expect("accepts");
    // Wait for decode to actually start, then enqueue the newcomer: the
    // worker checks the queue between steps and must splice it in.
    match a.next_step(Duration::from_secs(30)) {
        StepWait::Step(_) => {}
        other => panic!("expected a first step, got {other:?}"),
    }
    let b = engine
        .submit(inputs[1].clone(), SubmitOptions::default())
        .expect("accepts");

    let ra = a
        .wait_timeout(Duration::from_secs(60))
        .expect("A completes");
    let rb = b
        .wait_timeout(Duration::from_secs(60))
        .expect("B completes");
    rntrajrec_chaos::disarm();

    assert!(ra.error.is_none(), "incumbent failed: {:?}", ra.error);
    assert!(rb.error.is_none(), "newcomer failed: {:?}", rb.error);
    assert_eq!(ra.path, want[0], "incumbent not bit-identical");
    assert_eq!(rb.path, want[1], "newcomer not bit-identical");
    let stats = engine.stats();
    assert!(
        stats.admitted >= 1,
        "newcomer was never admitted mid-decode (admitted = {})",
        stats.admitted
    );
    assert_eq!(rb.batch_size, 2, "newcomer joined a 2-member session");
}

/// A newcomer whose deadline already expired is refused at the admission
/// gate (or cancelled at its first step) — it gets a typed timeout, and
/// the incumbent is untouched.
#[test]
fn pre_expired_newcomer_is_refused_not_decoded() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(2);
    let model = serving(&city);
    let want = model.recover(&inputs[0]);
    let engine = RecoveryEngine::start(model, engine_cfg());
    slow_decode();

    let a = engine
        .submit(inputs[0].clone(), SubmitOptions::new().stream())
        .expect("accepts");
    match a.next_step(Duration::from_secs(30)) {
        StepWait::Step(_) => {}
        other => panic!("expected a first step, got {other:?}"),
    }
    let b = engine
        .submit(
            inputs[1].clone(),
            SubmitOptions::new().deadline(Instant::now() - Duration::from_millis(1)),
        )
        .expect("accepts");

    let rb = b.wait_timeout(Duration::from_secs(60)).expect("B answered");
    let ra = a
        .wait_timeout(Duration::from_secs(60))
        .expect("A completes");
    rntrajrec_chaos::disarm();

    let err = rb.error.expect("expired newcomer must fail");
    assert!(err.contains("deadline"), "typed deadline error, got: {err}");
    assert!(rb.timed_out);
    assert!(rb.path.is_empty());
    assert!(ra.error.is_none(), "incumbent failed: {:?}", ra.error);
    assert_eq!(ra.path, want, "incumbent perturbed by refused newcomer");
}

/// Dropping a `RecoveryHandle` cancels its member mid-decode through the
/// same compaction path deadlines use — abandoned work is cut, and the
/// engine keeps serving.
#[test]
fn dropped_handle_cancels_member_mid_decode() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(2);
    let model = serving(&city);
    let want = model.recover(&inputs[1]);
    let engine = RecoveryEngine::start(model, engine_cfg());
    slow_decode();

    let a = engine
        .submit(inputs[0].clone(), SubmitOptions::new().stream())
        .expect("accepts");
    match a.next_step(Duration::from_secs(30)) {
        StepWait::Step(_) => {}
        other => panic!("expected a first step, got {other:?}"),
    }
    drop(a); // client walked away mid-decode

    assert!(
        eventually(Duration::from_secs(30), || {
            engine.stats().abandoned_cancelled >= 1
        }),
        "abandoned member was never cancelled mid-decode"
    );
    rntrajrec_chaos::disarm();

    // The worker survives the cut and serves the next request exactly.
    let r = engine
        .submit(inputs[1].clone(), SubmitOptions::default())
        .expect("accepts")
        .wait_timeout(Duration::from_secs(60))
        .expect("engine serves after an abandoned cut");
    assert!(r.error.is_none(), "follow-up failed: {:?}", r.error);
    assert_eq!(r.path, want);
}

/// The `SubmitOptions` combinations the removed pre-PR-9 shims covered
/// (plain, traced, traced + deadline) all route through the one `submit`
/// entry point with identical semantics.
#[test]
fn submit_options_cover_former_shim_combinations() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(1);
    let model = serving(&city);
    let want = model.recover(&inputs[0]);
    let engine = RecoveryEngine::start(model, engine_cfg());

    let r = engine
        .submit(inputs[0].clone(), SubmitOptions::default())
        .expect("accepts")
        .wait();
    assert!(r.error.is_none());
    assert_eq!(r.path, want);

    let r = engine
        .submit(inputs[0].clone(), SubmitOptions::new().trace(None))
        .expect("accepts")
        .wait();
    assert_eq!(r.path, want);

    let r = engine
        .submit(
            inputs[0].clone(),
            SubmitOptions::new()
                .trace(None)
                .deadline(Instant::now() + Duration::from_secs(60)),
        )
        .expect("accepts")
        .wait();
    assert_eq!(r.path, want);
}

/// `poll` is non-consuming: `None` while in flight, then a cached
/// reference once delivered, and `wait` still works afterwards.
#[test]
fn poll_then_wait_delivers_once() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(1);
    let engine = RecoveryEngine::start(serving(&city), engine_cfg());

    let mut handle = engine
        .submit(inputs[0].clone(), SubmitOptions::default())
        .expect("accepts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.poll().is_none() {
        assert!(Instant::now() < deadline, "request never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let peeked = handle.poll().expect("cached after first Some").path.clone();
    let r = handle.wait();
    assert!(r.error.is_none());
    assert_eq!(r.path, peeked, "wait must deliver the same cached result");
}

/// Hot-swapping the model over a live engine: requests submitted after
/// the swap are served bit-identically to the new model's direct
/// inference, with no restart, drain, or failed request.
#[test]
fn swap_model_serves_new_weights_for_new_batches() {
    let _c = ChaosGuard::unarmed();
    let (city, inputs) = fixture(1);
    let model_a = serving(&city);
    let model_b = {
        let grid = city.net.grid(50.0);
        let m = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 8);
        Arc::new(ServingModel::new(m))
    };
    let want_a = model_a.recover(&inputs[0]);
    let want_b = model_b.recover(&inputs[0]);

    let engine = RecoveryEngine::start(model_a, engine_cfg());
    let r = engine
        .submit(inputs[0].clone(), SubmitOptions::default())
        .expect("accepts")
        .wait();
    assert!(r.error.is_none());
    assert_eq!(r.path, want_a, "pre-swap batches run the original model");

    engine.swap_model(model_b);
    let r = engine
        .submit(inputs[0].clone(), SubmitOptions::default())
        .expect("accepts")
        .wait();
    assert!(r.error.is_none());
    assert_eq!(r.path, want_b, "post-swap batches run the new model");
    assert_eq!(engine.stats().model_swaps, 1);
}

/// A streaming consumer that stops draining its step queue is degraded
/// to summary-only: its step stream ends early, the terminal result
/// still arrives intact, and the engine counts the lagged stream.
#[test]
fn slow_stream_consumer_degrades_to_summary_only() {
    let _c = ChaosGuard::unarmed();
    let (city, _) = fixture(0);
    // The engine buffers 256 undelivered steps per stream, then closes the
    // sink: a 300-step recovery guarantees an undrained consumer lags.
    let s = Simulator::new(&city.net, rntrajrec_synth::SimConfig::default())
        .sample(&mut StdRng::seed_from_u64(41), 8);
    let input = QueryContext::new(city.net.clone(), 50.0)
        .sample_input(&RecoverRequest::from_raw(&s.raw, 300, s.depart_epoch_s))
        .expect("valid request");
    let engine = RecoveryEngine::start(serving(&city), engine_cfg());

    let mut handle = engine
        .submit(input, SubmitOptions::new().stream())
        .expect("accepts");
    // Do not touch the step queue until the decode has fully finished.
    let t0 = Instant::now();
    while handle.poll().is_none() {
        assert!(t0.elapsed() < Duration::from_secs(60), "never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.steps().count(), 256, "buffered steps, then closed");
    let r = handle.wait();
    assert!(
        r.error.is_none(),
        "lagging must not fail the request: {:?}",
        r.error
    );
    assert_eq!(r.path.len(), 300, "terminal result is intact");
    assert_eq!(engine.stats().stream_lagged, 1, "lagged stream counted");
}
