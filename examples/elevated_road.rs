//! Case study (paper Fig. 5): recover a low-sample trajectory that drives
//! on the elevated expressway — the road-network structure around it is
//! ambiguous (a trunk road runs directly underneath), so grid/GPS-only
//! encoders confuse the two levels while the road-network-aware model does
//! not. Writes the recovered polylines to `elevated_road_case.json` for
//! plotting.
//!
//! ```bash
//! cargo run --release --example elevated_road
//! ```

use std::fmt::Write as _;

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::metrics::{path_prf, travel_path};
use rntrajrec::model::MethodSpec;
use rntrajrec_roadnet::{RoadPosition, SegmentId};
use rntrajrec_synth::DatasetConfig;

fn main() {
    let scale = ExperimentScale {
        num_traj: 90,
        dim: 24,
        epochs: 6,
        batch: 8,
        seed: 7,
        lr: 3e-3,
    };
    // Bias most departures onto the corridor so the case study has
    // elevated trajectories in the test split.
    let mut cfg = DatasetConfig::chengdu(8, 90);
    cfg.corridor_fraction = 0.7;
    println!("Preparing the corridor-heavy dataset...");
    let pipeline = Pipeline::prepare(cfg, &scale);
    let city = &pipeline.dataset.city;
    println!(
        "  elevated segments: {}, trunk segments underneath: {}",
        city.elevated.len(),
        city.trunk_under_elevated.len()
    );

    // Pick a test trajectory that actually uses the corridor.
    let case_idx = (0..pipeline.test_inputs.len())
        .find(|&i| {
            pipeline.test_inputs[i]
                .target_segs
                .iter()
                .any(|&s| pipeline.is_corridor_segment(s))
        })
        .expect("corridor-heavy dataset must contain a corridor test case");
    println!("  case study: test trajectory #{case_idx}\n");

    let methods = [MethodSpec::MTrajRec, MethodSpec::Gts, MethodSpec::RnTrajRec];
    let input = &pipeline.test_inputs[case_idx];
    let truth_path = travel_path(input.target_segs.iter().copied());

    let mut json = String::from("{\n");
    let coords = |segs: &[usize], rates: &[f32]| -> Vec<(f64, f64)> {
        segs.iter()
            .zip(rates)
            .map(|(&s, &r)| {
                let xy = RoadPosition::new(SegmentId(s as u32), r as f64).xy(&city.net);
                (xy.x, xy.y)
            })
            .collect()
    };
    let truth_xy = coords(&input.target_segs, &input.target_rates);
    let _ = writeln!(json, "  \"ground_truth\": {truth_xy:?},");

    for m in &methods {
        let r = pipeline.train_and_eval(m, &scale);
        let (truth, pred) = &r.sr_cases[case_idx];
        let pred_path = travel_path(pred.iter().copied());
        let (_, _, f1) = path_prf(&truth_path, &pred_path);
        let on_corridor_truth = truth
            .iter()
            .filter(|&&s| pipeline.is_corridor_segment(s))
            .count();
        let corridor_correct = truth
            .iter()
            .zip(pred)
            .filter(|(t, p)| pipeline.is_corridor_segment(**t) && t == p)
            .count();
        println!(
            "{:<22} case F1 {:.3} | corridor steps correct {}/{} | overall acc {:.3}",
            r.label, f1, corridor_correct, on_corridor_truth, r.accuracy
        );
        // Reconstruct predicted coordinates for plotting.
        let model_pred = pred.clone();
        let rates = vec![0.5f32; model_pred.len()];
        let xy = coords(&model_pred, &rates);
        let key = r.label.replace([' ', '(', ')', '+'], "_").to_lowercase();
        let _ = writeln!(json, "  \"{key}\": {xy:?},");
    }
    json.push_str("  \"crs\": \"local planar metres\"\n}\n");
    std::fs::write("elevated_road_case.json", &json).expect("write case-study file");
    println!("\nWrote recovered polylines to elevated_road_case.json");
}
