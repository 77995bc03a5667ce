//! The headline comparison in the large-data regime: Linear + HMM,
//! MTrajRec and RNTrajRec trained on 2500 Chengdu ×8 trajectories
//! (d = 24, 8 epochs, model seed 7), each evaluated on the first 25 test
//! trajectories. Prints one row per method (recall, precision, F1,
//! accuracy, MAE, RMSE) plus each method's training seconds, and writes
//! `results/headline.json`. 25 trajectories and one seed are too few to
//! rank the methods: compare orderings only over several model seeds on
//! the whole test split.
//!
//! ```bash
//! cargo run --release -p rntrajrec-bench --bin headline
//! ```

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::MethodSpec;
use rntrajrec_bench::{dump_json, print_table};
use rntrajrec_synth::DatasetConfig;

fn main() {
    let scale = ExperimentScale {
        num_traj: 2500,
        dim: 24,
        epochs: 8,
        batch: 8,
        max_eval: 25,
        seed: 7,
        lr: 3e-3,
    };
    println!("=== Headline — Chengdu x8 in the large-data regime ===");
    println!(
        "scale: {} trajectories, d={}, {} epochs\n",
        scale.num_traj, scale.dim, scale.epochs
    );
    let pipeline = Pipeline::prepare(DatasetConfig::chengdu(8, scale.num_traj), &scale);
    let methods = [
        MethodSpec::LinearHmm,
        MethodSpec::MTrajRec,
        MethodSpec::RnTrajRec,
    ];
    let mut results = Vec::new();
    for m in &methods {
        let r = pipeline.train_and_eval(m, &scale);
        println!("finished {} (train {:.0}s)", r.label, r.train_secs);
        results.push(r);
    }
    print_table(
        "Chengdu (eps_tau = eps_rho * 8), 2500 trajectories",
        &results,
    );
    dump_json("headline", &results);
}
