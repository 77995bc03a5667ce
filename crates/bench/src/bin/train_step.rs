//! What one training step costs: for every end-to-end method of Table III,
//! the median forward (batch loss on the tape), backward and optimiser
//! (clip + Adam) wall time of one step, and the tape nodes the step
//! records, at B = 8, d = 24 on `DatasetConfig::chengdu(8, 200)`.
//!
//! `NN_THREADS` and `NN_BACKEND` are read from the environment as
//! everywhere else; `SCALE` sets how many steps are timed (`quick` 3,
//! `medium` — the default — 12, `paper` 40), after one untimed warm-up
//! step. Consecutive training batches in order, teacher forcing at 0.5
//! from a seeded coin, so every run records the same tapes.
//!
//! ```bash
//! NN_THREADS=1 cargo run --release -p rntrajrec-bench --bin train_step
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_bench::dump_json;
use rntrajrec_models::SampleInput;
use rntrajrec_nn::{clip_global_norm, kernels, pool, Adam, Exec, Tape};
use rntrajrec_synth::DatasetConfig;

/// One method's step: medians over the timed steps.
#[derive(Serialize)]
struct StepCost {
    method: String,
    forward_ms: f64,
    backward_ms: f64,
    optimiser_ms: f64,
    tape_nodes: usize,
}

fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let steps = match std::env::var("SCALE").as_deref() {
        Ok("quick") => 3,
        Ok("medium") | Err(_) => 12,
        Ok("paper") => 40,
        Ok(other) => panic!("unknown SCALE '{other}' (use quick|medium|paper)"),
    };
    let scale = ExperimentScale {
        num_traj: 200,
        dim: 24,
        epochs: 1,
        batch: 8,
        seed: 7,
        lr: 3e-3,
    };
    println!("=== One training step — Chengdu x8, 200 trajectories ===");
    println!(
        "B={}, d={}, {steps} timed steps after one warm-up, NN_THREADS={}, backend {}\n",
        scale.batch,
        scale.dim,
        pool::num_threads(),
        kernels::backend::active_name()
    );
    let pipeline = Pipeline::prepare(DatasetConfig::chengdu(8, scale.num_traj), &scale);
    let batches: Vec<Vec<&SampleInput>> = pipeline
        .train_inputs
        .chunks(scale.batch)
        .take(steps + 1)
        .map(|chunk| chunk.iter().collect())
        .collect();
    assert!(batches.len() > steps, "need {} training batches", steps + 1);

    println!(
        "{:<24} {:>11} {:>12} {:>13} {:>11}",
        "method", "forward ms", "backward ms", "optimiser ms", "tape nodes"
    );
    let mut costs = Vec::new();
    for spec in MethodSpec::table3().iter().filter(|m| m.is_end_to_end()) {
        let net = &pipeline.dataset.city.net;
        let mut model = EndToEnd::build(spec, net, &pipeline.grid, scale.dim, scale.seed);
        let mut opt = Adam::new(scale.lr);
        let mut rng = StdRng::seed_from_u64(scale.seed);
        let (mut fwd, mut bwd, mut upd, mut nodes) = (vec![], vec![], vec![], vec![]);
        for (i, batch) in batches.iter().enumerate() {
            let t0 = Instant::now();
            let mut tape = Tape::new();
            let loss = model.batch_loss_scheduled(&mut tape, batch, 0.5, &mut rng);
            assert!(
                tape.value(&loss).item().is_finite(),
                "{}: loss",
                spec.label()
            );
            let t1 = Instant::now();
            model.store.zero_grad();
            tape.backward(loss, &mut model.store);
            let t2 = Instant::now();
            clip_global_norm(&mut model.store, 5.0);
            opt.step(&mut model.store);
            let t3 = Instant::now();
            if i > 0 {
                fwd.push((t1 - t0).as_secs_f64() * 1e3);
                bwd.push((t2 - t1).as_secs_f64() * 1e3);
                upd.push((t3 - t2).as_secs_f64() * 1e3);
                nodes.push(tape.len());
            }
        }
        let cost = StepCost {
            method: spec.label(),
            forward_ms: median(fwd),
            backward_ms: median(bwd),
            optimiser_ms: median(upd),
            tape_nodes: median(nodes),
        };
        println!(
            "{:<24} {:>11.2} {:>12.2} {:>13.2} {:>11}",
            cost.method, cost.forward_ms, cost.backward_ms, cost.optimiser_ms, cost.tape_nodes
        );
        costs.push(cost);
    }
    dump_json("train_step", &costs);
}
