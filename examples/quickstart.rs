//! Quickstart: generate a synthetic city, train RNTrajRec for a few epochs,
//! and recover one low-sample trajectory.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::MethodSpec;
use rntrajrec_synth::DatasetConfig;

fn main() {
    // A small city + 60 simulated trajectories, ϵτ = 8·ϵρ (keep 1 in 8
    // GPS points), split 7:2:1.
    let scale = ExperimentScale {
        num_traj: 60,
        dim: 16,
        epochs: 4,
        batch: 6,
        seed: 7,
        lr: 3e-3,
    };
    println!("Preparing synthetic dataset (city, trajectories, features)...");
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, 60), &scale);
    let stats = pipeline.dataset.stats();
    println!(
        "  city: {} road segments over {:.1} x {:.1} km, eps_rho = {:.0}s, eps_tau = {:.0}s",
        stats.num_segments, stats.area_km2.0, stats.area_km2.1, stats.eps_rho_s, stats.eps_tau_s
    );
    println!(
        "  trajectories: {} train / {} valid / {} test",
        pipeline.train_inputs.len(),
        pipeline.valid_inputs.len(),
        pipeline.test_inputs.len()
    );

    println!("\nTraining RNTrajRec ({} epochs)...", scale.epochs);
    let result = pipeline.train_and_eval(&MethodSpec::RnTrajRec, &scale);
    println!(
        "  trained {} parameters in {:.1}s",
        result.num_params, result.train_secs
    );

    println!(
        "\nTest metrics (averaged over {} trajectories):",
        result.sr_cases.len()
    );
    println!("  recall    {:.4}", result.recall);
    println!("  precision {:.4}", result.precision);
    println!("  F1        {:.4}", result.f1);
    println!("  accuracy  {:.4}", result.accuracy);
    println!("  MAE       {:.1} m (road-network distance)", result.mae_m);
    println!("  RMSE      {:.1} m", result.rmse_m);
    println!("  inference {:.1} ms / trajectory", result.infer_ms);

    // Show one recovered trajectory against the ground truth.
    let (truth, pred) = &result.sr_cases[0];
    println!("\nFirst test trajectory — ground truth vs. recovered segments:");
    println!("  truth: {truth:?}");
    println!("  pred:  {pred:?}");
    let correct = truth.iter().zip(pred).filter(|(a, b)| a == b).count();
    println!(
        "  {} / {} steps on the correct road segment",
        correct,
        truth.len()
    );
}
