//! Two-stage baselines: `Linear + HMM` and `DHTR + HMM` (Table III rows
//! 1–2). Both first densify the low-sample trajectory to the ϵρ rate, then
//! map-match the densified trace with the Newson–Krumm HMM.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rntrajrec_geo::XY;
use rntrajrec_mapmatch::{linear_hmm, HmmConfig, HmmMatcher, KalmanSmoother};
use rntrajrec_models::{DhtrSeq2Seq, FeatureExtractor, SampleInput};
use rntrajrec_nn::{clip_global_norm, Adam, Eager, Exec, ParamStore, Tape};
use rntrajrec_roadnet::{RTree, RoadNetwork};
use rntrajrec_synth::{RawPoint, RawTrajectory, TrajSample};

use crate::train::TrainConfig;

/// Predict with linear interpolation + HMM. Returns `(segment, rate)` per
/// target step.
pub fn linear_hmm_predict(
    net: &RoadNetwork,
    rtree: &RTree,
    hmm: &HmmConfig,
    sample: &TrajSample,
    eps_rho_s: f64,
) -> Vec<(usize, f32)> {
    linear_hmm(net, rtree, &sample.raw, eps_rho_s, sample.target.len(), hmm)
        .points
        .iter()
        .map(|p| (p.pos.seg.index(), p.pos.frac as f32))
        .collect()
}

/// DHTR: learned seq2seq interpolation + Kalman smoothing + HMM.
pub struct DhtrModel {
    pub store: ParamStore,
    pub seq2seq: DhtrSeq2Seq,
    pub kalman: KalmanSmoother,
}

impl DhtrModel {
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let seq2seq = DhtrSeq2Seq::new(&mut store, &mut rng, dim);
        Self {
            store,
            seq2seq,
            kalman: KalmanSmoother::default(),
        }
    }

    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Train the position-regression seq2seq with MSE (per the DHTR paper).
    pub fn fit(&mut self, train: &[SampleInput], config: &TrainConfig) -> Vec<f32> {
        let mut opt = Adam::new(config.lr);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(config.batch_size) {
                let mut tape = Tape::new();
                let mut terms = Vec::new();
                for &i in chunk {
                    let pred = self.seq2seq.forward(&mut tape, &self.store, &train[i]);
                    let target = tape.constant(train[i].target_xy_norm.clone());
                    let d = tape.sub(pred, target);
                    terms.push(tape.mul(&d, &d));
                }
                let all = tape.concat_rows(&terms.iter().collect::<Vec<_>>());
                let loss = tape.mean_all(all);
                total += tape.value(&loss).item();
                batches += 1;
                self.store.zero_grad();
                tape.backward(loss, &mut self.store);
                clip_global_norm(&mut self.store, config.clip_norm);
                opt.step(&mut self.store);
            }
            losses.push(total / batches.max(1) as f32);
        }
        losses
    }

    /// Predict: regress positions, Kalman-smooth, HMM-match.
    pub fn predict(
        &self,
        fx: &FeatureExtractor<'_>,
        rtree: &RTree,
        hmm: &HmmConfig,
        input: &SampleInput,
        eps_rho_s: f64,
    ) -> Vec<(usize, f32)> {
        let v = self.seq2seq.forward(&mut Eager, &self.store, input);
        let raw_xy: Vec<XY> = (0..v.rows)
            .map(|r| fx.denormalize(v.get(r, 0), v.get(r, 1)))
            .collect();
        let smoothed = self.kalman.smooth(&raw_xy, eps_rho_s);
        let dense = RawTrajectory {
            points: smoothed
                .iter()
                .enumerate()
                .map(|(j, &xy)| RawPoint {
                    xy,
                    t: j as f64 * eps_rho_s,
                })
                .collect(),
        };
        let mut matcher = HmmMatcher::new(fx.net, rtree, hmm.clone());
        let matched = matcher.match_trajectory(&dense);
        matched
            .points
            .iter()
            .map(|p| (p.pos.seg.index(), p.pos.frac as f32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rntrajrec_roadnet::{CityConfig, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    fn fixture() -> (SyntheticCity, RTree, Vec<TrajSample>) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let mut sim = Simulator::new(
            &city.net,
            SimConfig {
                target_len: 9,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(31);
        let samples = (0..4).map(|_| sim.sample(&mut rng, 8)).collect();
        (city, rtree, samples)
    }

    #[test]
    fn linear_hmm_full_length_predictions() {
        let (city, rtree, samples) = fixture();
        let pred = linear_hmm_predict(&city.net, &rtree, &HmmConfig::default(), &samples[0], 12.0);
        assert_eq!(pred.len(), samples[0].target.len());
        assert!(pred
            .iter()
            .all(|&(s, r)| s < city.net.num_segments() && (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn dhtr_trains_and_predicts() {
        let (city, rtree, samples) = fixture();
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let inputs: Vec<SampleInput> = samples.iter().map(|s| fx.extract(s)).collect();
        let mut model = DhtrModel::new(16, 5);
        let losses = model.fit(
            &inputs,
            &TrainConfig {
                epochs: 5,
                batch_size: 2,
                ..Default::default()
            },
        );
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
        let pred = model.predict(&fx, &rtree, &HmmConfig::default(), &inputs[0], 12.0);
        assert_eq!(pred.len(), inputs[0].target_len());
    }

    /// `predict` regresses positions on `Eager`; training records the same
    /// forward on a `Tape`. Both give the same bits, on trained weights.
    #[test]
    fn dhtr_eager_positions_equal_the_tape_forward() {
        let (city, rtree, samples) = fixture();
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let inputs: Vec<SampleInput> = samples.iter().map(|s| fx.extract(s)).collect();
        let mut model = DhtrModel::new(16, 5);
        model.fit(
            &inputs,
            &TrainConfig {
                epochs: 2,
                batch_size: 2,
                ..Default::default()
            },
        );
        for input in &inputs {
            let mut tape = Tape::new();
            let node = model.seq2seq.forward(&mut tape, &model.store, input);
            let eager = model.seq2seq.forward(&mut Eager, &model.store, input);
            let bits =
                |t: &rntrajrec_nn::Tensor| t.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(eager.shape(), (input.target_len(), 2));
            assert_eq!(bits(&eager), bits(tape.value(&node)));
        }
    }
}
