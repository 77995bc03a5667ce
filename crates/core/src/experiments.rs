//! Experiment drivers regenerating every table and figure of Section VI.
//!
//! Everything is parameterised by [`ExperimentScale`] so the same code
//! serves fast unit tests (`quick`) and the benchmark harness
//! (`paper_shape`). See EXPERIMENTS.md for the paper-vs-measured record.

use std::time::Instant;

use serde::Serialize;

use rntrajrec_geo::GridSpec;
use rntrajrec_mapmatch::HmmConfig;
use rntrajrec_models::{FeatureExtractor, SampleInput, SegmentHead};
use rntrajrec_roadnet::RTree;
use rntrajrec_synth::{DatasetConfig, SplitDataset};

use crate::metrics::{sr_at_k, EvalMetrics, MetricsAccumulator};
use crate::model::{EndToEnd, MethodSpec};
use crate::train::{TrainConfig, Trainer};
use crate::twostage::{linear_hmm_predict, DhtrModel};

/// Knobs trading fidelity for runtime.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Trajectories generated per dataset (paper: ~150 000).
    pub num_traj: usize,
    /// Hidden size `d` (paper: 256–512).
    pub dim: usize,
    /// Training epochs (paper: 30).
    pub epochs: usize,
    pub batch: usize,
    /// Cap on evaluated test trajectories.
    pub max_eval: usize,
    pub seed: u64,
    /// Adam learning rate (paper: 1e-3; small-scale runs converge faster
    /// at 3e-3).
    pub lr: f32,
}

impl ExperimentScale {
    /// Minimal settings for unit tests (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            num_traj: 30,
            dim: 16,
            epochs: 2,
            batch: 4,
            max_eval: 5,
            seed: 7,
            lr: 3e-3,
        }
    }

    /// Bench-harness settings: small absolute scale, paper-shaped results.
    pub fn paper_shape() -> Self {
        Self {
            num_traj: 240,
            dim: 32,
            epochs: 20,
            batch: 8,
            max_eval: 24,
            seed: 7,
            lr: 3e-3,
        }
    }
}

/// One evaluated method: the row of a table plus efficiency data.
#[derive(Debug, Clone, Serialize)]
pub struct MethodResult {
    pub label: String,
    pub recall: f64,
    pub precision: f64,
    pub f1: f64,
    pub accuracy: f64,
    pub mae_m: f64,
    pub rmse_m: f64,
    /// Wall-clock training time, seconds.
    pub train_secs: f64,
    /// Mean inference time per trajectory, milliseconds (Fig. 6 x-axis).
    pub infer_ms: f64,
    /// Learnable scalar count (Fig. 6 bubble size); 0 for Linear+HMM.
    pub num_params: usize,
    /// `(truth, predicted)` segment sequences per test trajectory
    /// (consumed by the SR%k analysis, Fig. 4).
    #[serde(skip)]
    pub sr_cases: Vec<(Vec<usize>, Vec<usize>)>,
}

impl MethodResult {
    pub fn metrics(&self) -> EvalMetrics {
        EvalMetrics {
            recall: self.recall,
            precision: self.precision,
            f1: self.f1,
            accuracy: self.accuracy,
            mae_m: self.mae_m,
            rmse_m: self.rmse_m,
        }
    }
}

impl std::fmt::Display for MethodResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {:.4}  {:.4}  {:.4}  {:.4}  {:8.2}  {:8.2}",
            self.label,
            self.recall,
            self.precision,
            self.f1,
            self.accuracy,
            self.mae_m,
            self.rmse_m
        )
    }
}

/// A prepared dataset: city, spatial index, grid, extracted features.
pub struct Pipeline {
    pub dataset: SplitDataset,
    pub rtree: RTree,
    pub grid: GridSpec,
    pub train_inputs: Vec<SampleInput>,
    pub valid_inputs: Vec<SampleInput>,
    pub test_inputs: Vec<SampleInput>,
    /// Extraction parameters used (Fig. 7(c)/(d) sweeps change them).
    pub delta_m: f64,
    pub gamma_m: f64,
}

impl Pipeline {
    /// Generate the dataset (overriding its trajectory count with the
    /// scale's) and extract features with the paper-default δ/γ.
    pub fn prepare(mut config: DatasetConfig, scale: &ExperimentScale) -> Self {
        config.num_trajectories = scale.num_traj;
        Self::prepare_with(config, 400.0, 30.0)
    }

    /// Prepare with explicit receptive field δ and bandwidth γ.
    pub fn prepare_with(config: DatasetConfig, delta_m: f64, gamma_m: f64) -> Self {
        let dataset = SplitDataset::generate(config);
        let rtree = RTree::build(&dataset.city.net);
        let grid = dataset.city.net.grid(50.0);
        let mut fx = FeatureExtractor::new(&dataset.city.net, &rtree, grid);
        fx.delta_m = delta_m;
        fx.gamma_m = gamma_m;
        let train_inputs = dataset.train.iter().map(|s| fx.extract(s)).collect();
        let valid_inputs = dataset.valid.iter().map(|s| fx.extract(s)).collect();
        let test_inputs = dataset.test.iter().map(|s| fx.extract(s)).collect();
        Pipeline {
            dataset,
            rtree,
            grid,
            train_inputs,
            valid_inputs,
            test_inputs,
            delta_m,
            gamma_m,
        }
    }

    /// Feature extractor with this pipeline's parameters.
    pub fn fx(&self) -> FeatureExtractor<'_> {
        let mut fx = FeatureExtractor::new(&self.dataset.city.net, &self.rtree, self.grid);
        fx.delta_m = self.delta_m;
        fx.gamma_m = self.gamma_m;
        fx
    }

    /// True for segments on the elevated/trunk corridor (Fig. 4's "hard"
    /// sub-trajectories).
    pub fn is_corridor_segment(&self, seg: usize) -> bool {
        self.dataset
            .city
            .elevated
            .iter()
            .chain(&self.dataset.city.trunk_under_elevated)
            .any(|s| s.index() == seg)
    }

    /// Train (if learned) and evaluate one method.
    pub fn train_and_eval(&self, spec: &MethodSpec, scale: &ExperimentScale) -> MethodResult {
        let eps_rho = self.dataset.config.sim.eps_rho_s;
        let hmm = HmmConfig::default();
        let n_eval = self.test_inputs.len().min(scale.max_eval);

        let t_train = Instant::now();
        enum Trained {
            Linear,
            Dhtr(Box<DhtrModel>),
            E2e(Box<EndToEnd>),
        }
        let trained = match spec {
            MethodSpec::LinearHmm => Trained::Linear,
            MethodSpec::DhtrHmm => {
                let mut m = DhtrModel::new(scale.dim, scale.seed);
                m.fit(
                    &self.train_inputs,
                    &TrainConfig {
                        epochs: scale.epochs,
                        batch_size: scale.batch,
                        seed: scale.seed,
                        lr: scale.lr,
                        ..Default::default()
                    },
                );
                Trained::Dhtr(Box::new(m))
            }
            _ => {
                let mut m = EndToEnd::build(
                    spec,
                    &self.dataset.city.net,
                    &self.grid,
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
                trainer.fit(&mut m, &self.train_inputs, None);
                Trained::E2e(Box::new(m))
            }
        };
        let train_secs = t_train.elapsed().as_secs_f64();

        // Evaluation.
        let fx = self.fx();
        let mut acc = MetricsAccumulator::new(&self.dataset.city.net);
        let mut sr_cases = Vec::with_capacity(n_eval);
        // The road representation is input-independent: computed once per
        // trained model, in advance, as the paper does at inference.
        let road = match &trained {
            Trained::E2e(m) => m.precompute_road(),
            _ => None,
        };
        let t_infer = Instant::now();
        for i in 0..n_eval {
            let input = &self.test_inputs[i];
            let pred: Vec<(usize, f32)> = match &trained {
                Trained::Linear => linear_hmm_predict(
                    &self.dataset.city.net,
                    &self.rtree,
                    &hmm,
                    &self.dataset.test[i],
                    eps_rho,
                ),
                Trained::Dhtr(m) => m.predict(&fx, &self.rtree, &hmm, input, eps_rho),
                Trained::E2e(m) => {
                    match m.infer_predict_batch(&[input], road.as_ref(), SegmentHead::Sparse) {
                        Some(mut paths) => paths.remove(0),
                        // Baselines have no eager path.
                        None => m.predict(input),
                    }
                }
            };
            let truth: Vec<(usize, f32)> = input
                .target_segs
                .iter()
                .zip(&input.target_rates)
                .map(|(&s, &r)| (s, r))
                .collect();
            sr_cases.push((
                truth.iter().map(|&(s, _)| s).collect(),
                pred.iter().map(|&(s, _)| s).collect(),
            ));
            acc.add(&truth, &pred);
        }
        let infer_ms = t_infer.elapsed().as_secs_f64() * 1000.0 / n_eval.max(1) as f64;

        let num_params = match &trained {
            Trained::Linear => 0,
            Trained::Dhtr(m) => m.num_params(),
            Trained::E2e(m) => m.num_params(),
        };
        let m = acc.finish();
        MethodResult {
            label: spec.label(),
            recall: m.recall,
            precision: m.precision,
            f1: m.f1,
            accuracy: m.accuracy,
            mae_m: m.mae_m,
            rmse_m: m.rmse_m,
            train_secs,
            infer_ms,
            num_params,
            sr_cases,
        }
    }

    /// Fig. 4: SR%k curve for an already-evaluated method.
    pub fn sr_curve(&self, result: &MethodResult, ks: &[f64]) -> Vec<(f64, f64)> {
        ks.iter()
            .map(|&k| {
                (
                    k,
                    sr_at_k(&result.sr_cases, |s| self.is_corridor_segment(s), k),
                )
            })
            .collect()
    }
}

/// Table III/IV: run a list of methods on one dataset.
pub fn run_comparison(
    config: DatasetConfig,
    methods: &[MethodSpec],
    scale: &ExperimentScale,
) -> (Pipeline, Vec<MethodResult>) {
    let pipeline = Pipeline::prepare(config, scale);
    let results = methods
        .iter()
        .map(|m| pipeline.train_and_eval(m, scale))
        .collect();
    (pipeline, results)
}

/// Fig. 7(b): sweep the number of GPSFormer blocks.
pub fn sweep_n_blocks(
    pipeline: &Pipeline,
    ns: &[usize],
    scale: &ExperimentScale,
) -> Vec<(usize, MethodResult)> {
    ns.iter()
        .map(|&n| {
            (
                n,
                pipeline.train_and_eval(&MethodSpec::RnTrajRecN(n), scale),
            )
        })
        .collect()
}

/// Fig. 7(c)/(d): sweep δ or γ (features are re-extracted per value).
pub fn sweep_extraction(
    config: DatasetConfig,
    deltas_gammas: &[(f64, f64)],
    scale: &ExperimentScale,
) -> Vec<((f64, f64), MethodResult)> {
    deltas_gammas
        .iter()
        .map(|&(d, g)| {
            let mut cfg = config.clone();
            cfg.num_trajectories = scale.num_traj;
            let p = Pipeline::prepare_with(cfg, d, g);
            ((d, g), p.train_and_eval(&MethodSpec::RnTrajRec, scale))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pipeline() -> (Pipeline, ExperimentScale) {
        let scale = ExperimentScale::quick();
        (Pipeline::prepare(DatasetConfig::tiny(8, 30), &scale), scale)
    }

    #[test]
    fn pipeline_prepares_consistent_splits() {
        let (p, _) = quick_pipeline();
        assert_eq!(p.train_inputs.len(), p.dataset.train.len());
        assert_eq!(p.test_inputs.len(), p.dataset.test.len());
        assert!(!p.test_inputs.is_empty());
    }

    #[test]
    fn linear_hmm_evaluates() {
        let (p, scale) = quick_pipeline();
        let r = p.train_and_eval(&MethodSpec::LinearHmm, &scale);
        assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
        assert!(r.mae_m >= 0.0 && r.mae_m.is_finite());
        assert_eq!(r.num_params, 0);
        assert_eq!(r.sr_cases.len(), p.test_inputs.len().min(scale.max_eval));
    }

    #[test]
    fn end_to_end_method_evaluates() {
        let (p, scale) = quick_pipeline();
        let r = p.train_and_eval(&MethodSpec::MTrajRec, &scale);
        assert!(r.f1 > 0.0, "trained model should find some segments: {r}");
        assert!(r.num_params > 0);
        assert!(r.infer_ms > 0.0);
    }

    #[test]
    fn sr_curve_is_monotone_nonincreasing() {
        let (p, scale) = quick_pipeline();
        let r = p.train_and_eval(&MethodSpec::LinearHmm, &scale);
        let curve = p.sr_curve(&r, &[0.1, 0.5, 0.9]);
        for w in curve.windows(2) {
            assert!(w[0].1 >= w[1].1, "SR%k must not increase with k: {curve:?}");
        }
    }

    #[test]
    fn corridor_segments_detected() {
        let (p, _) = quick_pipeline();
        let any = (0..p.dataset.city.net.num_segments()).any(|s| p.is_corridor_segment(s));
        assert!(any, "tiny city must have a corridor");
    }
}
