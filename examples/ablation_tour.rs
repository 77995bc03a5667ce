//! Ablation tour (paper Table V): train RNTrajRec and its five ablated
//! variants and compare, plus the extra constraint-mask ablation.
//!
//! ```bash
//! cargo run --release --example ablation_tour
//! ```

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::MethodSpec;
use rntrajrec_synth::DatasetConfig;

fn main() {
    let scale = ExperimentScale {
        num_traj: 80,
        dim: 16,
        epochs: 5,
        batch: 8,
        seed: 7,
        lr: 3e-3,
    };
    println!("Preparing the Chengdu-style dataset...");
    let pipeline = Pipeline::prepare(DatasetConfig::chengdu(8, 80), &scale);

    let mut variants = MethodSpec::table5();
    variants.push(MethodSpec::RnTrajRecNoMask); // extra ablation (§V)
    println!(
        "\n{:<16} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>10}",
        "variant", "recall", "prec", "F1", "acc", "MAE(m)", "RMSE(m)", "params"
    );
    let mut full_f1 = None;
    for v in &variants {
        let r = pipeline.train_and_eval(v, &scale);
        println!(
            "{:<16} {:>7.4} {:>7.4} {:>7.4} {:>7.4} {:>9.1} {:>9.1} {:>10}",
            r.label, r.recall, r.precision, r.f1, r.accuracy, r.mae_m, r.rmse_m, r.num_params
        );
        if *v == MethodSpec::RnTrajRec {
            full_f1 = Some(r.f1);
        }
    }
    if let Some(f1) = full_f1 {
        println!("\nFull model F1 = {f1:.4}; each removed module should cost accuracy/F1.");
    }
}
