//! Evaluation metrics (Section VI-A2): Recall / Precision / F1, Accuracy,
//! MAE / RMSE in road-network metres, and SR%k for the elevated-road study.

use std::collections::HashSet;

use rntrajrec_roadnet::{NetworkDistance, RoadNetwork, RoadPosition, SegmentId};

/// Predicted trajectory as `(segment index, moving ratio)` per step.
pub type Prediction = [(usize, f32)];

/// One row of Table III/IV/V.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalMetrics {
    pub recall: f64,
    pub precision: f64,
    pub f1: f64,
    pub accuracy: f64,
    pub mae_m: f64,
    pub rmse_m: f64,
}

impl std::fmt::Display for EvalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R {:.4}  P {:.4}  F1 {:.4}  Acc {:.4}  MAE {:7.2}  RMSE {:7.2}",
            self.recall, self.precision, self.f1, self.accuracy, self.mae_m, self.rmse_m
        )
    }
}

/// Travel path: consecutive-deduplicated segment sequence (`E_ρ`).
pub fn travel_path(segs: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for s in segs {
        if out.last() != Some(&s) {
            out.push(s);
        }
    }
    out
}

/// Recall / Precision / F1 between two travel paths (set semantics, as in
/// MTrajRec's protocol \[11\]).
pub fn path_prf(truth: &[usize], pred: &[usize]) -> (f64, f64, f64) {
    let t: HashSet<usize> = truth.iter().copied().collect();
    let p: HashSet<usize> = pred.iter().copied().collect();
    if t.is_empty() || p.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let inter = t.intersection(&p).count() as f64;
    let recall = inter / t.len() as f64;
    let precision = inter / p.len() as f64;
    let f1 = if recall + precision > 0.0 {
        2.0 * recall * precision / (recall + precision)
    } else {
        0.0
    };
    (recall, precision, f1)
}

/// Accumulates metrics over a test set, with the expensive road-network
/// distance engine reused across trajectories.
pub struct MetricsAccumulator<'a> {
    nd: NetworkDistance<'a>,
    n_traj: usize,
    recall: f64,
    precision: f64,
    f1: f64,
    correct_steps: usize,
    total_steps: usize,
    abs_err_sum: f64,
    sq_err_sum: f64,
}

impl<'a> MetricsAccumulator<'a> {
    pub fn new(net: &'a RoadNetwork) -> Self {
        Self {
            nd: NetworkDistance::new(net),
            n_traj: 0,
            recall: 0.0,
            precision: 0.0,
            f1: 0.0,
            correct_steps: 0,
            total_steps: 0,
            abs_err_sum: 0.0,
            sq_err_sum: 0.0,
        }
    }

    /// Add one trajectory: ground truth `(seg, rate)` vs. prediction.
    pub fn add(&mut self, truth: &Prediction, pred: &Prediction) {
        assert_eq!(truth.len(), pred.len(), "length mismatch");
        let tp = travel_path(truth.iter().map(|&(s, _)| s));
        let pp = travel_path(pred.iter().map(|&(s, _)| s));
        let (r, p, f1) = path_prf(&tp, &pp);
        self.recall += r;
        self.precision += p;
        self.f1 += f1;
        self.n_traj += 1;
        for (&(ts, tr), &(ps, pr)) in truth.iter().zip(pred.iter()) {
            self.total_steps += 1;
            if ts == ps {
                self.correct_steps += 1;
            }
            let a = RoadPosition::new(SegmentId(ts as u32), tr as f64);
            let b = RoadPosition::new(SegmentId(ps as u32), pr as f64);
            let d = self.nd.metric_m(&a, &b);
            self.abs_err_sum += d;
            self.sq_err_sum += d * d;
        }
    }

    pub fn finish(&self) -> EvalMetrics {
        let n = self.n_traj.max(1) as f64;
        let steps = self.total_steps.max(1) as f64;
        EvalMetrics {
            recall: self.recall / n,
            precision: self.precision / n,
            f1: self.f1 / n,
            accuracy: self.correct_steps as f64 / steps,
            mae_m: self.abs_err_sum / steps,
            rmse_m: (self.sq_err_sum / steps).sqrt(),
        }
    }

    pub fn num_trajectories(&self) -> usize {
        self.n_traj
    }
}

/// SR%k (Section VI-A2): the share of trajectories whose *elevated-road
/// sub-trajectory* F1 exceeds `k`. `is_hard(seg)` marks the elevated/trunk
/// corridor segments.
pub fn sr_at_k(
    cases: &[(Vec<usize>, Vec<usize>)], // (truth segs, pred segs) per trajectory
    is_hard: impl Fn(usize) -> bool,
    k: f64,
) -> f64 {
    let mut eligible = 0usize;
    let mut success = 0usize;
    for (truth, pred) in cases {
        // Sub-trajectory: steps whose ground truth lies on the corridor.
        let idx: Vec<usize> = (0..truth.len()).filter(|&i| is_hard(truth[i])).collect();
        if idx.is_empty() {
            continue;
        }
        eligible += 1;
        let t_sub = travel_path(idx.iter().map(|&i| truth[i]));
        let p_sub = travel_path(idx.iter().map(|&i| pred[i]));
        let (_, _, f1) = path_prf(&t_sub, &p_sub);
        if f1 > k {
            success += 1;
        }
    }
    if eligible == 0 {
        0.0
    } else {
        success as f64 / eligible as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rntrajrec_geo::{Polyline, XY};
    use rntrajrec_roadnet::{RoadLevel, RoadNetworkBuilder};

    fn line_net(n: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            let x = i as f64 * 100.0;
            b.add_segment(
                Polyline::segment(XY::new(x, 0.0), XY::new(x + 100.0, 0.0)),
                RoadLevel::Primary,
            );
        }
        b.build()
    }

    #[test]
    fn travel_path_dedups() {
        assert_eq!(travel_path([1, 1, 2, 2, 1]), vec![1, 2, 1]);
        assert_eq!(travel_path(std::iter::empty()), Vec::<usize>::new());
    }

    #[test]
    fn prf_perfect_and_disjoint() {
        assert_eq!(path_prf(&[1, 2, 3], &[1, 2, 3]), (1.0, 1.0, 1.0));
        let (r, p, f1) = path_prf(&[1, 2], &[3, 4]);
        assert_eq!((r, p, f1), (0.0, 0.0, 0.0));
    }

    #[test]
    fn prf_partial_overlap() {
        // truth {1,2,3,4}, pred {3,4,5}: inter 2 -> R=0.5, P=2/3.
        let (r, p, f1) = path_prf(&[1, 2, 3, 4], &[3, 4, 5]);
        assert!((r - 0.5).abs() < 1e-12);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        let expect = 2.0 * r * p / (r + p);
        assert!((f1 - expect).abs() < 1e-12);
    }

    #[test]
    fn accumulator_perfect_prediction() {
        let net = line_net(5);
        let mut acc = MetricsAccumulator::new(&net);
        let truth = vec![(0usize, 0.5f32), (1, 0.25), (2, 0.75)];
        acc.add(&truth, &truth);
        let m = acc.finish();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f1, 1.0);
        assert!(m.mae_m < 1e-6);
        assert!(m.rmse_m < 1e-6);
    }

    #[test]
    fn accumulator_distance_errors() {
        let net = line_net(5);
        let mut acc = MetricsAccumulator::new(&net);
        // Truth at seg0@0.5 (x=50); pred at seg1@0.5 (x=150): 100 m apart.
        acc.add(&[(0, 0.5)], &[(1, 0.5)]);
        let m = acc.finish();
        assert_eq!(m.accuracy, 0.0);
        assert!((m.mae_m - 100.0).abs() < 1e-6, "mae {}", m.mae_m);
        assert!((m.rmse_m - 100.0).abs() < 1e-6);
    }

    #[test]
    fn rmse_penalises_outliers_more() {
        let net = line_net(5);
        let mut acc = MetricsAccumulator::new(&net);
        acc.add(&[(0, 0.5), (1, 0.5)], &[(0, 0.5), (3, 0.5)]); // errors 0, 200
        let m = acc.finish();
        assert!((m.mae_m - 100.0).abs() < 1e-6);
        assert!((m.rmse_m - (200.0f64 * 200.0 / 2.0).sqrt()).abs() < 1e-6);
        assert!(m.rmse_m > m.mae_m);
    }

    #[test]
    fn metrics_average_over_trajectories() {
        let net = line_net(5);
        let mut acc = MetricsAccumulator::new(&net);
        acc.add(&[(0, 0.0), (1, 0.0)], &[(0, 0.0), (1, 0.0)]); // F1 = 1
        acc.add(&[(0, 0.0), (1, 0.0)], &[(3, 0.0), (4, 0.0)]); // F1 = 0
        let m = acc.finish();
        assert!((m.f1 - 0.5).abs() < 1e-12);
        assert!((m.accuracy - 0.5).abs() < 1e-12);
        assert_eq!(acc.num_trajectories(), 2);
    }

    #[test]
    fn sr_at_k_counts_only_corridor_trajectories() {
        let is_hard = |s: usize| s >= 10;
        let cases = vec![
            (vec![10, 11, 1], vec![10, 11, 2]), // corridor F1 = 1
            (vec![10, 12, 1], vec![10, 13, 1]), // corridor F1 = 0.5
            (vec![1, 2, 3], vec![1, 2, 3]),     // no corridor steps: excluded
        ];
        assert!((sr_at_k(&cases, is_hard, 0.8) - 0.5).abs() < 1e-12);
        assert!((sr_at_k(&cases, is_hard, 0.4) - 1.0).abs() < 1e-12);
        // k = 1.0 is strict ">": nothing passes.
        assert_eq!(sr_at_k(&cases, is_hard, 1.0), 0.0);
    }

    #[test]
    fn sr_at_k_empty_input() {
        assert_eq!(sr_at_k(&[], |_| true, 0.5), 0.0);
    }
}
