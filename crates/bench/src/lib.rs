//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every experiment binary (`table2` … `fig7`) reads a scale from the
//! `SCALE` environment variable (`quick`, `medium` — the default — or
//! `paper`), prints the table to stdout, and writes a machine-readable
//! JSON record to `results/<name>.json`.

use std::io::Write;
use std::path::PathBuf;

use rntrajrec::experiments::{ExperimentScale, MethodResult};

/// Parse the run scale from `SCALE` (default: `medium`).
///
/// * `quick` — smoke-test sizes (seconds per method).
/// * `medium` — the EXPERIMENTS.md default (tens of seconds per method).
/// * `paper` — largest CPU-feasible sizes (minutes per method).
pub fn scale_from_env() -> ExperimentScale {
    match std::env::var("SCALE").as_deref() {
        Ok("quick") => ExperimentScale::quick(),
        Ok("paper") => ExperimentScale {
            num_traj: 4000,
            dim: 32,
            epochs: 10,
            batch: 8,
            seed: 7,
            lr: 3e-3,
        },
        Ok("medium") | Err(_) => ExperimentScale {
            num_traj: 600,
            dim: 24,
            epochs: 14,
            batch: 8,
            seed: 7,
            lr: 3e-3,
        },
        Ok(other) => panic!("unknown SCALE '{other}' (use quick|medium|paper)"),
    }
}

/// Human-readable scale banner.
pub fn banner(name: &str, scale: &ExperimentScale) {
    println!("=== {name} ===");
    println!(
        "scale: {} trajectories, d={}, {} epochs, batch {}, whole test split (set SCALE=quick|medium|paper)\n",
        scale.num_traj, scale.dim, scale.epochs, scale.batch
    );
}

/// Print one comparison table in the paper's column order.
pub fn print_table(title: &str, results: &[MethodResult]) {
    println!("\n--- {title} ---");
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "method", "recall", "prec", "F1", "acc", "MAE(m)", "RMSE(m)"
    );
    for r in results {
        println!(
            "{:<24} {:>7.4} {:>7.4} {:>7.4} {:>7.4} {:>9.2} {:>9.2}",
            r.label, r.recall, r.precision, r.f1, r.accuracy, r.mae_m, r.rmse_m
        );
    }
}

/// Write a JSON record under the workspace-root `results/` directory
/// (anchored via the crate manifest, so binaries, benches and tests all
/// write to the same place regardless of the invocation directory).
pub fn dump_json(name: &str, value: &impl serde::Serialize) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let dir = dir.canonicalize().unwrap_or(dir);
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(value).unwrap_or_default()
        );
        println!("[results written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_helpers_do_not_panic() {
        let r = MethodResult {
            label: "test".into(),
            recall: 0.5,
            precision: 0.5,
            f1: 0.5,
            accuracy: 0.5,
            mae_m: 100.0,
            rmse_m: 150.0,
            train_secs: 1.0,
            infer_ms: 2.0,
            num_params: 10,
            sr_cases: vec![],
        };
        print_table("t", &[r]);
        let s = ExperimentScale::quick();
        banner("t", &s);
    }
}
