//! Engine workers heal in place: a panic that escapes a decode session is
//! caught by the worker that ran it, the session's members get typed
//! errors, and the same thread takes the next batch. Chaos is armed
//! process-wide, so these tests live in their own binary — nothing armed
//! here can reach the engines in `serving.rs` — and serialize on a lock
//! that disarms on drop.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec_suite::rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_suite::rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_suite::rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_suite::rntrajrec_serve::{
    EngineConfig, Recovered, RecoveryEngine, ServingModel, SubmitOptions,
};
use rntrajrec_suite::rntrajrec_synth::{SimConfig, Simulator};

static SEQUENTIAL: Mutex<()> = Mutex::new(());

/// Holds the file's lock; disarms chaos when dropped, pass or fail.
struct ChaosLock(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosLock {
    fn take() -> Self {
        let guard = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
        rntrajrec_chaos::disarm();
        ChaosLock(guard)
    }
}

impl Drop for ChaosLock {
    fn drop(&mut self) {
        rntrajrec_chaos::disarm();
    }
}

fn arm(spec: &str) {
    rntrajrec_chaos::configure(spec, 0).expect("valid chaos spec");
}

fn fixture(n: usize) -> (Arc<ServingModel>, Vec<SampleInput>) {
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
    let mut rng = StdRng::seed_from_u64(13);
    let inputs = (0..n)
        .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
        .collect();
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
    let serving = Arc::new(ServingModel::new(model).expect("RNTrajRec serves"));
    (serving, inputs)
}

/// One worker, one request per batch: every session is a single member.
fn one_worker() -> EngineConfig {
    EngineConfig {
        max_batch: 1,
        max_delay: Duration::from_millis(1),
        workers: 1,
        threads_per_worker: 0,
        ..EngineConfig::default()
    }
}

fn answer(engine: &RecoveryEngine, input: &SampleInput) -> Recovered {
    engine
        .submit(input.clone(), SubmitOptions::new())
        .expect("accepts")
        .wait_timeout(Duration::from_secs(30))
        .expect("answered, never hung")
}

#[test]
fn panicking_sessions_fail_alone_and_the_worker_serves_on() {
    let _lock = ChaosLock::take();
    let (model, inputs) = fixture(3);
    let engine = RecoveryEngine::start(Arc::clone(&model), one_worker());
    arm("engine.worker=panic@1x2");

    for input in &inputs[..2] {
        let r = answer(&engine, input);
        let err = r.error.as_deref().expect("a panicked session fails");
        assert!(err.contains("worker crashed"), "typed error, got: {err}");
        assert!(err.contains("engine.worker"), "names the panic, got: {err}");
        assert!(!r.timed_out, "a panic is not a timeout");
        assert!(r.path.is_empty());
    }
    let r = answer(&engine, &inputs[2]);
    assert!(r.error.is_none(), "the healed worker failed: {:?}", r.error);
    assert_eq!(
        r.path,
        model.recover(&inputs[2]),
        "not ServingModel::recover"
    );

    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 2);
    assert_eq!((stats.requests, stats.completed), (3, 3));
    assert_eq!(stats.failed, 2);
    assert_eq!(engine.in_flight_batches(), 0);
}

/// A panic while assembling a batch happens before the queue is touched:
/// the requests waiting behind a busy worker are all served once it heals.
#[test]
fn a_batch_assembly_panic_loses_no_queued_request() {
    let _lock = ChaosLock::take();
    let (model, inputs) = fixture(5);
    let engine = RecoveryEngine::start(Arc::clone(&model), one_worker());

    // Plug the worker inside a session, so the next requests queue (with
    // `max_batch` 1 the session has no room to admit them).
    arm("engine.worker=delay:300@1x1");
    let plug = engine
        .submit(inputs[0].clone(), SubmitOptions::new())
        .expect("accepts");
    let t0 = Instant::now();
    while engine.in_flight_batches() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "plug never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The worker's next trip to the queue panics, before it takes anything.
    arm("engine.batch=panic@1x1");
    let queued: Vec<_> = inputs[1..]
        .iter()
        .map(|i| {
            engine
                .submit(i.clone(), SubmitOptions::new())
                .expect("accepts")
        })
        .collect();

    let mut answers = vec![plug];
    answers.extend(queued);
    for (input, handle) in inputs.iter().zip(answers) {
        let r = handle
            .wait_timeout(Duration::from_secs(30))
            .expect("no queued request is lost");
        assert!(r.error.is_none(), "request failed: {:?}", r.error);
        assert_eq!(r.path, model.recover(input));
    }
    let fired: u64 = rntrajrec_chaos::snapshot().iter().map(|p| p.fired).sum();
    assert_eq!(fired, 1, "the assembly panic fired once");
    let stats = engine.drain();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!((stats.requests, stats.completed), (5, 5));
    assert_eq!(stats.failed, 0);
}
