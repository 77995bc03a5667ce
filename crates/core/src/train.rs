//! Training loop: Adam + teacher forcing + gradient clipping (§VI-A3).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::model::EndToEnd;
use rntrajrec_models::SampleInput;
use rntrajrec_nn::{clip_global_norm, Adam, Exec, Tape};

/// Training hyper-parameters (paper defaults where CPU-feasible).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Paper: 30 epochs; benches use fewer.
    pub epochs: usize,
    /// Paper: 64; smaller here to keep tapes small.
    pub batch_size: usize,
    /// Paper: 1e-3 Adam.
    pub lr: f32,
    pub clip_norm: f32,
    pub seed: u64,
    /// Scheduled sampling: teacher-forcing probability decays linearly
    /// from 1.0 to this floor over the epochs (1.0 disables).
    pub tf_floor: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 8,
            lr: 1e-3,
            clip_norm: 5.0,
            seed: 17,
            tf_floor: 0.4,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_loss: f32,
    pub valid_loss: Option<f32>,
}

/// Owns the optimiser state over a training run.
pub struct Trainer {
    pub config: TrainConfig,
    opt: Adam,
    rng: StdRng,
}

impl Trainer {
    pub fn new(config: TrainConfig) -> Self {
        let opt = Adam::new(config.lr);
        let rng = StdRng::seed_from_u64(config.seed);
        Self { config, opt, rng }
    }

    /// One pass with the given teacher-forcing probability.
    pub fn train_epoch_scheduled(
        &mut self,
        model: &mut EndToEnd,
        train: &[SampleInput],
        tf_prob: f32,
    ) -> f32 {
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut self.rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(self.config.batch_size) {
            let batch: Vec<&SampleInput> = chunk.iter().map(|&i| &train[i]).collect();
            let mut tape = Tape::new();
            let loss = model.batch_loss_scheduled(&mut tape, &batch, tf_prob, &mut self.rng);
            total += tape.value(&loss).item();
            batches += 1;
            model.store.zero_grad();
            tape.backward(loss, &mut model.store);
            clip_global_norm(&mut model.store, self.config.clip_norm);
            self.opt.step(&mut model.store);
        }
        total / batches.max(1) as f32
    }

    /// Loss on a held-out set (teacher forcing, no updates).
    pub fn eval_loss(&mut self, model: &EndToEnd, data: &[SampleInput]) -> f32 {
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in data.chunks(self.config.batch_size) {
            let batch: Vec<&SampleInput> = chunk.iter().collect();
            let mut tape = Tape::new();
            let loss = model.batch_loss(&mut tape, &batch, &mut self.rng);
            total += tape.value(&loss).item();
            batches += 1;
        }
        total / batches.max(1) as f32
    }

    /// Full training run with optional validation tracking.
    pub fn fit(
        &mut self,
        model: &mut EndToEnd,
        train: &[SampleInput],
        valid: Option<&[SampleInput]>,
    ) -> Vec<EpochStats> {
        let mut stats = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            // Linear teacher-forcing decay 1.0 -> tf_floor (scheduled
            // sampling; see "Deviations from the paper" in EXPERIMENTS.md).
            let progress = if self.config.epochs > 1 {
                epoch as f32 / (self.config.epochs - 1) as f32
            } else {
                0.0
            };
            let tf_prob = 1.0 - (1.0 - self.config.tf_floor) * progress;
            let train_loss = self.train_epoch_scheduled(model, train, tf_prob);
            let valid_loss = valid.map(|v| self.eval_loss(model, v));
            stats.push(EpochStats {
                epoch,
                train_loss,
                valid_loss,
            });
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MethodSpec;
    use rntrajrec_models::FeatureExtractor;
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

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
        let mut rng = StdRng::seed_from_u64(21);
        let inputs = (0..n)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect();
        (city, inputs)
    }

    #[test]
    fn training_reduces_loss_mtrajrec() {
        let (city, inputs) = fixture(8);
        let grid = city.net.grid(50.0);
        let mut model = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 4,
            ..Default::default()
        });
        let stats = trainer.fit(&mut model, &inputs, None);
        let first = stats.first().unwrap().train_loss;
        let last = stats.last().unwrap().train_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_reduces_loss_rntrajrec() {
        let (city, inputs) = fixture(6);
        let grid = city.net.grid(50.0);
        let mut model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 3,
            ..Default::default()
        });
        let stats = trainer.fit(&mut model, &inputs, None);
        let first = stats.first().unwrap().train_loss;
        let last = stats.last().unwrap().train_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(stats.iter().all(|s| s.train_loss.is_finite()));
    }

    #[test]
    fn overfits_tiny_set_to_high_accuracy() {
        // End-to-end sanity: with enough epochs on 4 samples the model must
        // drive teacher-forced loss way down (guards the whole pipeline).
        let (city, inputs) = fixture(4);
        let grid = city.net.grid(50.0);
        let mut model = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 4,
            lr: 3e-3,
            ..Default::default()
        });
        let stats = trainer.fit(&mut model, &inputs, None);
        let last = stats.last().unwrap().train_loss;
        let first = stats.first().unwrap().train_loss;
        assert!(last < 0.7 * first, "failed to overfit: {first} -> {last}");
    }

    #[test]
    fn validation_loss_is_tracked() {
        let (city, inputs) = fixture(6);
        let grid = city.net.grid(50.0);
        let mut model = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        });
        let stats = trainer.fit(&mut model, &inputs[..4], Some(&inputs[4..]));
        assert!(stats.iter().all(|s| s.valid_loss.is_some()));
    }
}
