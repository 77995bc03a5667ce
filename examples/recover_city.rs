//! City-scale comparison: Linear+HMM (two-stage, no learning) versus
//! MTrajRec (the strongest published baseline) versus RNTrajRec, on the
//! Chengdu-style dataset — a miniature of the paper's Table III.
//!
//! ```bash
//! cargo run --release --example recover_city
//! ```

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::MethodSpec;
use rntrajrec_synth::DatasetConfig;

fn main() {
    let scale = ExperimentScale {
        num_traj: 100,
        dim: 24,
        epochs: 6,
        batch: 8,
        seed: 7,
        lr: 3e-3,
    };
    println!("Preparing the Chengdu-style dataset (eps_tau = eps_rho * 8)...");
    let pipeline = Pipeline::prepare(DatasetConfig::chengdu(8, 100), &scale);
    let st = pipeline.dataset.stats();
    println!(
        "  {} segments, {:.1} x {:.1} km, {} trajectories\n",
        st.num_segments, st.area_km2.0, st.area_km2.1, st.num_trajectories
    );

    let methods = [
        MethodSpec::LinearHmm,
        MethodSpec::MTrajRec,
        MethodSpec::RnTrajRec,
    ];
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "method", "recall", "prec", "F1", "acc", "MAE(m)", "RMSE(m)"
    );
    let mut rows = Vec::new();
    for m in &methods {
        let r = pipeline.train_and_eval(m, &scale);
        println!(
            "{:<24} {:>7.4} {:>7.4} {:>7.4} {:>7.4} {:>9.1} {:>9.1}",
            r.label, r.recall, r.precision, r.f1, r.accuracy, r.mae_m, r.rmse_m
        );
        rows.push(r);
    }

    // The paper's headline claim: the road-network-aware encoder wins.
    let linear = &rows[0];
    let rn = &rows[2];
    println!(
        "\nRNTrajRec vs Linear+HMM: F1 {:+.1}%, accuracy {:+.1}%, MAE {:+.1} m",
        100.0 * (rn.f1 - linear.f1),
        100.0 * (rn.accuracy - linear.accuracy),
        rn.mae_m - linear.mae_m,
    );
}
