//! Determinism: identical seeds must give identical datasets, features,
//! trained parameters, and predictions — the property that makes every
//! number in EXPERIMENTS.md reproducible.

use rntrajrec_suite::rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec_suite::rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_suite::rntrajrec::train::{TrainConfig, Trainer};
use rntrajrec_suite::rntrajrec_nn::pool;
use rntrajrec_suite::rntrajrec_synth::DatasetConfig;

fn scale() -> ExperimentScale {
    ExperimentScale {
        num_traj: 16,
        dim: 8,
        epochs: 1,
        batch: 4,
        max_eval: 2,
        seed: 7,
        lr: 3e-3,
    }
}

#[test]
fn pipelines_are_bitwise_deterministic() {
    let a = Pipeline::prepare(DatasetConfig::tiny(8, 16), &scale());
    let b = Pipeline::prepare(DatasetConfig::tiny(8, 16), &scale());
    assert_eq!(a.train_inputs.len(), b.train_inputs.len());
    for (x, y) in a.train_inputs.iter().zip(&b.train_inputs) {
        assert_eq!(x.base_feats, y.base_feats);
        assert_eq!(x.target_segs, y.target_segs);
        assert_eq!(x.grid_flat, y.grid_flat);
    }
}

#[test]
fn training_and_prediction_are_deterministic() {
    let s = scale();
    let p = Pipeline::prepare(DatasetConfig::tiny(8, 16), &s);
    let run = || {
        let mut m = EndToEnd::build(&MethodSpec::MTrajRec, &p.dataset.city.net, &p.grid, 8, 7);
        let mut t = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 3e-3,
            seed: 7,
            ..Default::default()
        });
        t.fit(&mut m, &p.train_inputs, None);
        m.predict(&p.test_inputs[0])
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_models() {
    let s = scale();
    let p = Pipeline::prepare(DatasetConfig::tiny(8, 16), &s);
    let m1 = EndToEnd::build(&MethodSpec::MTrajRec, &p.dataset.city.net, &p.grid, 8, 7);
    let m2 = EndToEnd::build(&MethodSpec::MTrajRec, &p.dataset.city.net, &p.grid, 8, 8);
    let a = m1.predict(&p.test_inputs[0]);
    let b = m2.predict(&p.test_inputs[0]);
    // Rates are continuous: identical outputs across different inits would
    // indicate the seed is being ignored.
    let ra: Vec<f32> = a.iter().map(|&(_, r)| r).collect();
    let rb: Vec<f32> = b.iter().map(|&(_, r)| r).collect();
    assert_ne!(ra, rb);
}

/// Training gives the same bits at any intra-op thread count: kernels
/// split only disjoint output ranges, the stacked tape decode's backward
/// included. At `d = 64` and batches of 8 the wide products really fan out
/// to the pool (checked, unless the host has one core).
#[test]
fn training_is_bitwise_identical_across_thread_counts() {
    let s = scale();
    let p = Pipeline::prepare(DatasetConfig::tiny(8, 16), &s);
    let before = pool::num_threads();
    for spec in [MethodSpec::MTrajRec, MethodSpec::RnTrajRec] {
        let train = |threads: usize| {
            let threads = pool::set_num_threads(threads);
            let jobs = pool::stats().parallel_jobs;
            let mut m = EndToEnd::build(&spec, &p.dataset.city.net, &p.grid, 64, 7);
            let mut t = Trainer::new(TrainConfig {
                epochs: 1,
                batch_size: 8,
                lr: 3e-3,
                seed: 7,
                ..Default::default()
            });
            t.fit(&mut m, &p.train_inputs, None);
            let fanned_out = threads == 1 || pool::stats().parallel_jobs > jobs;
            assert!(
                fanned_out,
                "{spec:?}: nothing ran on the pool at {threads} threads"
            );
            let bits: Vec<u32> = m
                .store
                .ids()
                .flat_map(|id| m.store.value(id).data.iter().map(|x| x.to_bits()))
                .collect();
            bits
        };
        assert!(
            train(1) == train(4),
            "{spec:?}: parameters differ between 1 and 4 threads"
        );
    }
    pool::set_num_threads(before);
}
