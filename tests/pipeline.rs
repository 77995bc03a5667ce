//! Cross-crate integration tests: the full path from city generation
//! through simulation, feature extraction, training, inference and
//! evaluation, plus the classic two-stage pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec_suite::rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec_suite::rntrajrec::metrics::{path_prf, travel_path, MetricsAccumulator};
use rntrajrec_suite::rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_suite::rntrajrec_mapmatch::{HmmConfig, HmmMatcher};
use rntrajrec_suite::rntrajrec_roadnet::{is_strongly_connected, CityConfig, RTree, SyntheticCity};
use rntrajrec_suite::rntrajrec_synth::{DatasetConfig, SimConfig, Simulator, SplitDataset};

fn quick_scale() -> ExperimentScale {
    ExperimentScale {
        num_traj: 24,
        dim: 8,
        epochs: 1,
        batch: 4,
        max_eval: 2,
        seed: 7,
        lr: 3e-3,
    }
}

#[test]
fn full_pipeline_rntrajrec_smoke() {
    let scale = quick_scale();
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, scale.num_traj), &scale);
    let r = pipeline.train_and_eval(&MethodSpec::RnTrajRec, &scale);
    assert!(r.f1.is_finite() && (0.0..=1.0).contains(&r.accuracy));
    assert!(r.mae_m.is_finite() && r.mae_m >= 0.0);
    assert!(r.num_params > 0);
}

#[test]
fn full_pipeline_two_stage_smoke() {
    let scale = quick_scale();
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, scale.num_traj), &scale);
    let linear = pipeline.train_and_eval(&MethodSpec::LinearHmm, &scale);
    let dhtr = pipeline.train_and_eval(&MethodSpec::DhtrHmm, &scale);
    for r in [&linear, &dhtr] {
        assert_eq!(r.sr_cases.len(), 2);
        assert!(r.rmse_m >= r.mae_m, "RMSE must dominate MAE: {r}");
    }
}

#[test]
fn every_named_dataset_generates_and_is_connected() {
    for cfg in [
        DatasetConfig::chengdu(8, 4),
        DatasetConfig::porto(8, 4),
        DatasetConfig::shanghai_l(16, 4),
        DatasetConfig::shanghai(8, 4),
        DatasetConfig::chengdu_few(8, 20),
    ] {
        let name = cfg.name;
        let ds = SplitDataset::generate(cfg);
        assert!(
            is_strongly_connected(&ds.city.net),
            "{name} not strongly connected"
        );
        assert!(
            ds.train.len() + ds.valid.len() + ds.test.len() > 0,
            "{name} empty"
        );
        for s in ds.all_samples() {
            assert_eq!(s.target.len(), 33, "{name} target length");
            assert!(s.raw.len() >= 3, "{name} input too short");
        }
    }
}

#[test]
fn hmm_ground_truth_pipeline_consistency() {
    // The paper derives ground truth with HMM on dense traces; our
    // simulator produces it directly. Both must agree on clean data.
    let city = SyntheticCity::generate(CityConfig::tiny());
    let rtree = RTree::build(&city.net);
    let cfg = SimConfig {
        gps_noise_std_m: 0.0,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&city.net, cfg);
    let mut rng = StdRng::seed_from_u64(5);
    let sample = sim.sample_dense(&mut rng, rntrajrec_suite::rntrajrec_roadnet::SegmentId(0));
    let mut matcher = HmmMatcher::new(&city.net, &rtree, HmmConfig::default());
    let matched = matcher.match_trajectory(&sample.raw);
    let agree = matched
        .points
        .iter()
        .zip(&sample.target.points)
        .filter(|(a, b)| a.pos.seg == b.pos.seg)
        .count();
    let acc = agree as f64 / sample.target.len() as f64;
    assert!(
        acc > 0.9,
        "HMM vs simulator ground truth agreement only {acc}"
    );
}

#[test]
fn metrics_are_internally_consistent() {
    // Perfect predictions give perfect metrics through the whole stack.
    let scale = quick_scale();
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, 12), &scale);
    let mut acc = MetricsAccumulator::new(&pipeline.dataset.city.net);
    for input in &pipeline.test_inputs {
        let truth: Vec<(usize, f32)> = input
            .target_segs
            .iter()
            .zip(&input.target_rates)
            .map(|(&s, &r)| (s, r))
            .collect();
        acc.add(&truth, &truth);
    }
    let m = acc.finish();
    assert_eq!(m.accuracy, 1.0);
    assert_eq!(m.f1, 1.0);
    assert!(m.mae_m < 1e-9);
}

#[test]
fn prediction_interface_round_trips_through_metrics() {
    let scale = quick_scale();
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, 16), &scale);
    let model = EndToEnd::build(
        &MethodSpec::MTrajRec,
        &pipeline.dataset.city.net,
        &pipeline.grid,
        8,
        7,
    );
    let input = &pipeline.test_inputs[0];
    let pred = model.predict(input);
    let tp = travel_path(input.target_segs.iter().copied());
    let pp = travel_path(pred.iter().map(|&(s, _)| s));
    let (r, p, f1) = path_prf(&tp, &pp);
    assert!((0.0..=1.0).contains(&r) && (0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&f1));
}
