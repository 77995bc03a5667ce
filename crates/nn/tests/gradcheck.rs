//! Finite-difference verification of every autograd op.
//!
//! For each op we build a small graph, reduce the output to a scalar via a
//! fixed pseudo-random weighting (so gradients are non-uniform), and compare
//! the tape's analytic gradient of every input element against a central
//! finite difference. f32 arithmetic bounds accuracy, so tolerances are
//! `2e-2` absolute on O(1) values — tight enough to catch any sign/index
//! error while robust to rounding.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rntrajrec_nn::{kernels, Exec, GraphCsr, NodeId, ParamStore, Tape, Tensor};

/// Deterministic "random" weights for reducing an output to a scalar,
/// scaled by the element count so that `mean_all` of the weighted output
/// is the weighted sum.
fn mix_weights(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i * 2654435761) % 1000) as f32 / 1000.0) - 0.45) * n as f32)
        .collect()
}

/// Check analytic vs numeric gradients of `build` for all `inputs`.
fn check(inputs: &[Tensor], build: impl Fn(&mut Tape, &[NodeId]) -> NodeId) {
    // Analytic pass.
    let mut tape = Tape::new();
    let ids: Vec<NodeId> = inputs.iter().map(|t| tape.constant(t.clone())).collect();
    let out = build(&mut tape, &ids);
    let (orows, ocols) = tape.value(&out).shape();
    let w = Tensor::from_vec(orows, ocols, mix_weights(orows * ocols));
    let wid = tape.constant(w);
    let prod = tape.mul(&out, &wid);
    let loss = tape.mean_all(prod);
    let mut store = ParamStore::new();
    tape.backward(loss, &mut store);
    let analytic: Vec<Vec<f32>> = ids
        .iter()
        .map(|&id| {
            tape.grad(id)
                .expect("input must receive a gradient")
                .to_vec()
        })
        .collect();

    // Numeric evaluation closure.
    let eval = |xs: &[Tensor]| -> f32 {
        let mut tape = Tape::new();
        let ids: Vec<NodeId> = xs.iter().map(|t| tape.constant(t.clone())).collect();
        let out = build(&mut tape, &ids);
        let (orows, ocols) = tape.value(&out).shape();
        let w = Tensor::from_vec(orows, ocols, mix_weights(orows * ocols));
        let wid = tape.constant(w);
        let prod = tape.mul(&out, &wid);
        let loss = tape.mean_all(prod);
        tape.value(&loss).item()
    };

    let h = 1e-2f32;
    for (i, input) in inputs.iter().enumerate() {
        for (j, &a) in analytic[i].iter().enumerate().take(input.data.len()) {
            let mut plus = inputs.to_vec();
            plus[i].data[j] += h;
            let mut minus = inputs.to_vec();
            minus[i].data[j] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h);
            let tol = 2e-2_f32.max(0.05 * a.abs());
            assert!(
                (numeric - a).abs() <= tol,
                "input {i} element {j}: analytic {a}, numeric {numeric}"
            );
        }
    }
}

fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Values bounded away from zero (for relu kinks, recip, sqrt).
fn t_pos(rows: usize, cols: usize, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect(),
    )
}

#[test]
fn grad_add_sub_mul() {
    check(&[t(3, 4, 1), t(3, 4, 2)], |tp, ids| {
        tp.add(&ids[0], &ids[1])
    });
    check(&[t(3, 4, 3), t(3, 4, 4)], |tp, ids| tp.sub(ids[0], ids[1]));
    check(&[t(3, 4, 5), t(3, 4, 6)], |tp, ids| {
        tp.mul(&ids[0], &ids[1])
    });
}

#[test]
fn grad_mul_with_shared_input() {
    // x ⊙ x: gradient must accumulate both branches (2x).
    check(&[t(2, 3, 7)], |tp, ids| tp.mul(&ids[0], &ids[0]));
}

#[test]
fn grad_scale_addconst() {
    check(&[t(2, 5, 8)], |tp, ids| tp.scale(&ids[0], -1.7));
    check(&[t(2, 5, 9)], |tp, ids| tp.add_const(&ids[0], 0.3));
}

#[test]
fn grad_rowvec_broadcasts() {
    check(&[t(4, 3, 10), t(1, 3, 11)], |tp, ids| {
        tp.add_rowvec(&ids[0], &ids[1])
    });
}

#[test]
fn grad_colvec_broadcasts() {
    check(&[t(4, 3, 62), t_pos(4, 1, 63, 0.2, 1.5)], |tp, ids| {
        tp.mul_colvec(&ids[0], &ids[1])
    });
}

#[test]
fn grad_matmul() {
    check(&[t(3, 4, 14), t(4, 2, 15)], |tp, ids| {
        tp.matmul(&ids[0], &ids[1])
    });
}

#[test]
fn grad_matmul_nt() {
    check(&[t(3, 4, 16), t(5, 4, 17)], |tp, ids| {
        tp.matmul_nt(ids[0], ids[1])
    });
}

#[test]
fn matmul_nt_equals_explicit_transpose() {
    let a = t(3, 4, 18);
    let b = t(5, 4, 19);
    let mut tp = Tape::new();
    let (ia, ib) = (tp.constant(a.clone()), tp.constant(b.clone()));
    let nt = tp.matmul_nt(ia, ib);
    // Explicit transpose of b.
    let mut bt = Tensor::zeros(4, 5);
    for r in 0..5 {
        for c in 0..4 {
            bt.set(c, r, b.get(r, c));
        }
    }
    let ibt = tp.constant(bt);
    let mm = tp.matmul(&ia, &ibt);
    assert!(tp.value(&nt).max_abs_diff(tp.value(&mm)) < 1e-6);
}

#[test]
fn grad_activations() {
    check(&[t(3, 3, 20)], |tp, ids| tp.sigmoid(&ids[0]));
    check(&[t(3, 3, 21)], |tp, ids| tp.tanh(ids[0]));
    check(&[t_pos(3, 3, 22, 0.1, 1.0)], |tp, ids| tp.relu(&ids[0]));
    // Mixed-sign input bounded away from the kink.
    let mut x = t_pos(3, 3, 23, 0.1, 1.0);
    for (i, v) in x.data.iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = -*v;
        }
    }
    check(&[x.clone()], |tp, ids| tp.relu(&ids[0]));
    check(&[x], |tp, ids| tp.leaky_relu(&ids[0], 0.2));
}

#[test]
fn grad_log_softmax_rows() {
    check(&[t(3, 5, 27)], |tp, ids| tp.log_softmax_rows(ids[0]));
}

#[test]
fn log_softmax_matches_softmax_log() {
    let mut tp = Tape::new();
    let x = tp.constant(t(3, 6, 29));
    let ls = tp.log_softmax_rows(x);
    let v_ls = tp.value(&ls).clone();
    let v_sm = kernels::softmax_rows(tp.value(&x));
    for (a, b) in v_ls.data.iter().zip(&v_sm.data) {
        assert!((a.exp() - b).abs() < 1e-5);
    }
}

#[test]
fn grad_concat_select_cols() {
    check(&[t(3, 2, 30), t(3, 4, 31)], |tp, ids| {
        tp.concat_cols(&[&ids[0], &ids[1]])
    });
    check(&[t(3, 6, 32)], |tp, ids| tp.select_cols(&ids[0], 1, 3));
}

#[test]
fn grad_concat_select_rows() {
    check(&[t(2, 3, 33), t(4, 3, 34)], |tp, ids| {
        tp.concat_rows(&[&ids[0], &ids[1]])
    });
    check(&[t(5, 3, 35)], |tp, ids| tp.select_rows(&ids[0], 1, 3));
}

#[test]
fn grad_reductions() {
    check(&[t(3, 3, 39)], |tp, ids| tp.mean_all(ids[0]));
}

#[test]
fn grad_gather_rows() {
    check(&[t(5, 3, 41)], |tp, ids| {
        tp.gather_rows(&ids[0], &[0, 2, 2, 4])
    });
}

#[test]
fn grad_pick_cols() {
    check(&[t(4, 5, 43)], |tp, ids| {
        tp.pick_cols(ids[0], &[3, 0, 4, 0])
    });
}

#[test]
fn grad_into_a_parent_that_already_has_one() {
    // One leaf feeds two overlapping row slices, a column slice, a pick and
    // both operands of both products, so every slicing adjoint adds into a
    // gradient that another adjoint already wrote, and so does each
    // product's `dB`.
    check(&[t(4, 4, 44)], |tp, ids| {
        let x = ids[0];
        let top = tp.select_rows(&x, 0, 3);
        let low = tp.select_rows(&x, 1, 3);
        let mid = tp.select_cols(&x, 1, 2);
        let picked = tp.pick_cols(x, &[2, 0, 3, 2]);
        let sq = tp.matmul(&x, &x);
        let nt = tp.matmul_nt(x, x);
        let rows = tp.concat_rows(&[&top, &low]); // [6, 4]
        let wide = tp.concat_cols(&[&mid, &picked, &sq, &nt]); // [4, 11]
        tp.matmul(&rows, &wide)
    });
}

#[test]
fn gather_rows_duplicates_accumulate() {
    let mut tp = Tape::new();
    let table = tp.constant(t(4, 2, 42));
    let g = tp.gather_rows(&table, &[1, 1, 1]);
    let loss = tp.mean_all(g);
    let mut store = ParamStore::new();
    tp.backward(loss, &mut store);
    let grad = tp.grad(table).unwrap();
    // Row 1 gathered thrice -> gradient 3/6 in each of its columns.
    assert_eq!(&grad[2..4], &[0.5, 0.5]);
    assert_eq!(&grad[0..2], &[0.0, 0.0]);
}

fn demo_csr() -> Arc<GraphCsr> {
    // 4 nodes: 0-1-2 path plus isolated-ish 3 (self loops added).
    Arc::new(GraphCsr::from_neighbor_lists(
        &[vec![1], vec![0, 2], vec![1], vec![]],
        true,
    ))
}

#[test]
fn grad_edge_scores() {
    let csr = demo_csr();
    check(&[t(4, 1, 43), t(4, 1, 44)], move |tp, ids| {
        tp.edge_scores(&ids[0], &ids[1], &csr)
    });
}

#[test]
fn grad_segmented_softmax() {
    let csr = demo_csr();
    let e = csr.num_edges();
    check(&[t(e, 1, 45)], move |tp, ids| {
        tp.segmented_softmax(&ids[0], &csr)
    });
}

#[test]
fn grad_neighbor_sum() {
    let csr = demo_csr();
    let e = csr.num_edges();
    check(&[t_pos(e, 1, 46, 0.1, 1.0), t(4, 3, 47)], move |tp, ids| {
        tp.neighbor_sum(&ids[0], &ids[1], &csr)
    });
}

#[test]
fn segmented_softmax_sums_to_one_per_node() {
    let csr = demo_csr();
    let mut tp = Tape::new();
    let s = tp.constant(t(csr.num_edges(), 1, 48));
    let y = tp.segmented_softmax(&s, &csr);
    let v = tp.value(&y);
    for i in 0..csr.num_nodes() {
        let sum: f32 = csr.segment(i).map(|e| v.data[e]).sum();
        assert!((sum - 1.0).abs() < 1e-5, "node {i} attention sums to {sum}");
    }
}

#[test]
fn grad_composite_gat_like_block() {
    // End-to-end chain: gather -> matmul -> edge scores -> leaky relu ->
    // segmented softmax -> neighbor sum -> mean. Exercises interaction of
    // the fused graph ops with dense ops.
    let csr = demo_csr();
    check(
        &[t(4, 3, 49), t(3, 2, 50), t(2, 1, 51), t(2, 1, 52)],
        move |tp, ids| {
            let h = tp.matmul(&ids[0], &ids[1]); // [4,2]
            let s_src = tp.matmul(&h, &ids[2]); // [4,1]
            let s_dst = tp.matmul(&h, &ids[3]); // [4,1]
            let scores = tp.edge_scores(&s_src, &s_dst, &csr);
            let scores = tp.leaky_relu(&scores, 0.2);
            let alphas = tp.segmented_softmax(&scores, &csr);
            tp.neighbor_sum(&alphas, &h, &csr)
        },
    );
}

#[test]
fn grad_layer_norm_fused() {
    // The fused op's own backward (x, gamma, and beta all receive exact
    // analytic gradients).
    check(
        &[t(3, 6, 59), t_pos(1, 6, 60, 0.5, 1.5), t(1, 6, 61)],
        |tp, ids| tp.layer_norm(&ids[0], &ids[1], &ids[2], 1e-3),
    );
}

#[test]
fn fused_layer_norm_forward_matches_composite() {
    // Unit gain and zero shift: the values are the plain per-row
    // normalisation.
    let x = t(1, 6, 53);
    let mut tp = Tape::new();
    let xid = tp.constant(x.clone());
    let gamma = tp.constant(Tensor::full(1, 6, 1.0));
    let beta = tp.constant(Tensor::zeros(1, 6));
    let y = tp.layer_norm(&xid, &gamma, &beta, 1e-3);
    let v = tp.value(&y);
    let mean: f32 = x.data.iter().sum::<f32>() / 6.0;
    let var: f32 = x.data.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / 6.0;
    for (got, &xi) in v.data.iter().zip(&x.data) {
        let want = (xi - mean) / (var + 1e-3).sqrt();
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }
}

#[test]
fn backward_requires_scalar_loss() {
    let mut tp = Tape::new();
    let x = tp.constant(t(2, 2, 54));
    let y = tp.relu(&x);
    let mut store = ParamStore::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tp.backward(y, &mut store);
    }));
    assert!(result.is_err(), "non-scalar loss must panic");
}

#[test]
fn unused_inputs_get_no_gradient() {
    let mut tp = Tape::new();
    let used = tp.constant(t(2, 2, 55));
    let unused = tp.constant(t(2, 2, 56));
    let loss = tp.mean_all(used);
    let mut store = ParamStore::new();
    tp.backward(loss, &mut store);
    assert!(tp.grad(used).is_some());
    assert!(tp.grad(unused).is_none());
}

// ----- scoped reductions: one node each, over ragged segments ---------------

/// Ragged segments tiling 7 rows, one of them a single row.
const SEGS: [std::ops::Range<usize>; 3] = [0..3, 3..4, 4..7];

#[test]
fn grad_segmented_self_attention() {
    check(&[t(7, 3, 70), t(7, 3, 71), t(7, 3, 72)], |tp, ids| {
        tp.segmented_self_attention(&ids[0], &ids[1], &ids[2], &SEGS, 0.6)
    });
}

#[test]
fn grad_segmented_additive_attention() {
    // Key rows 3 and 5 belong to no query (retired members); one query
    // attends one row and one none.
    let segs = [0..3, 4..5, 5..5, 6..8];
    check(
        &[t(8, 3, 73), t(4, 3, 74), t(1, 3, 75), t(8, 4, 76)],
        move |tp, ids| tp.segmented_additive_attention(&ids[0], &ids[1], &ids[2], &ids[3], &segs),
    );
}

#[test]
fn grad_segmented_pooling() {
    check(&[t(7, 3, 77)], |tp, ids| {
        tp.segmented_mean_rows(&ids[0], &SEGS)
    });
    let weights = [0.5, 1.0, 2.0, 0.7, 0.1, 1.3, 0.4];
    check(&[t(7, 3, 78)], move |tp, ids| {
        tp.segmented_weighted_mean_rows(&ids[0], &weights, &SEGS)
    });
}

#[test]
fn grad_segmented_norm() {
    // Four graphs (one a single row) normalised in two scopes, then in one
    // scope over the whole batch as training does.
    let graphs = [0..2, 2..3, 3..5, 5..7];
    let split: (&[_], &[_]) = (&[0..2, 2..4], &[0, 0, 0, 1, 1, 1, 1]);
    let all = 0..4;
    let whole: (&[_], &[_]) = (std::slice::from_ref(&all), &[0; 7]);
    for (i, (scopes, row_to_scope)) in [split, whole].into_iter().enumerate() {
        let graphs = graphs.clone();
        let inputs = [
            t(7, 3, 79 + i as u64),
            t_pos(1, 3, 81, 0.5, 1.5),
            t(1, 3, 82),
        ];
        check(&inputs, move |tp, ids| {
            tp.segmented_norm(
                &ids[0],
                &ids[1],
                &ids[2],
                &graphs,
                scopes,
                row_to_scope,
                1e-5,
            )
        });
    }
}
