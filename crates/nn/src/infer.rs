//! Tape-free forward-only tensor ops for inference.
//!
//! The autograd [`crate::Tape`] eagerly computes values *and* records an
//! [`crate::Op`] node per operation so `backward` can run later. Online
//! serving never calls `backward`, so every prediction through the tape
//! pays for node bookkeeping (an `Op` clone, a `Vec` push, a retained copy
//! of every intermediate) it will never use. This module is the serving
//! hot path: each function applies the corresponding [`crate::kernels`]
//! routine — the *same* compute body the tape ops execute — directly to
//! [`Tensor`]s with no graph allocation. Because both paths share one
//! kernel body (and the kernels are deterministic at any thread count),
//! results are bit-identical to a forward pass on the tape — property-
//! tested in `tests/kernel_parity.rs` and end-to-end in
//! `rntrajrec-models` / `rntrajrec-serve`.
//!
//! Naming follows the tape methods (`add_rowvec` here ≡ `Tape::add_rowvec`).

use std::ops::Range;

use crate::{kernels, GraphCsr, Tensor};

pub use crate::kernels::SparseLogMask;

// ----- element-wise ---------------------------------------------------------

pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    kernels::add(a, b)
}

pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    kernels::mul(a, b)
}

pub fn scale(a: &Tensor, c: f32) -> Tensor {
    kernels::scale(a, c)
}

pub fn add_const(a: &Tensor, c: f32) -> Tensor {
    kernels::add_const(a, c)
}

pub fn add_rowvec(m: &Tensor, v: &Tensor) -> Tensor {
    kernels::add_rowvec(m, v)
}

// ----- matrix products ------------------------------------------------------

/// `[R,K] × [K,C]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    kernels::matmul(a, b)
}

/// `a × bᵀ` without materialising the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    kernels::matmul_nt(a, b)
}

// ----- activations ----------------------------------------------------------

pub fn sigmoid(a: &Tensor) -> Tensor {
    kernels::sigmoid(a)
}

pub fn tanh(a: &Tensor) -> Tensor {
    kernels::tanh(a)
}

pub fn relu(a: &Tensor) -> Tensor {
    kernels::relu(a)
}

pub fn leaky_relu(a: &Tensor, slope: f32) -> Tensor {
    kernels::leaky_relu(a, slope)
}

// ----- softmax --------------------------------------------------------------

/// Fused constraint-mask add + stable log-softmax per row (the decoder's
/// Eq. 16 epilogue); bit-identical to `log_softmax_rows(add(x, mask))`.
pub fn masked_log_softmax_rows(a: &Tensor, masks: &[Option<SparseLogMask<'_>>]) -> Tensor {
    kernels::masked_log_softmax_rows(a, masks)
}

/// Sparse segment head: compute only the mask-allowed columns of
/// `a×b + bias`, fused with the allowed-column log-softmax. Masked-out
/// columns are exact `-∞`; per-column logits match the dense route
/// bitwise, and rows without a usable mask fall back to the dense route
/// bit-identically.
pub fn masked_matmul_cols(
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
    masks: &[Option<SparseLogMask<'_>>],
) -> Tensor {
    kernels::masked_matmul_cols(a, b, bias, masks)
}

// ----- layer norm -------------------------------------------------------------

/// Fused layer normalisation `y = γ ⊙ (x − μ)/σ + β` per row;
/// bit-identical to the composed primitive route.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    kernels::layer_norm(x, gamma, beta, eps)
}

// ----- segmented decoder-fusion ops -------------------------------------------

/// Stack `m[segs[s], :] + v[s, :]` over every segment (batched attention
/// pre-activation).
pub fn segments_add_rowvec(m: &Tensor, v: &Tensor, segs: &[Range<usize>]) -> Tensor {
    kernels::segments_add_rowvec(m, v, segs)
}

/// Softmax over consecutive chunks of a `[1, N]` row.
pub fn softmax_segments(a: &Tensor, lens: &[usize]) -> Tensor {
    kernels::softmax_segments(a, lens)
}

/// Per-segment `[1, L_s] × [L_s, C]` attention application (batched
/// decoder context vectors).
pub fn segmented_attn_context(alphas: &Tensor, feats: &Tensor, segs: &[Range<usize>]) -> Tensor {
    kernels::segmented_attn_context(alphas, feats, segs)
}

// ----- segmented encoder-fusion ops -------------------------------------------

/// Per-segment column means (batched graph readout / trajectory pooling);
/// each output row bit-identical to `mean_rows` on the segment alone.
pub fn segmented_mean_rows(a: &Tensor, segs: &[Range<usize>]) -> Tensor {
    kernels::segmented_mean_rows(a, segs)
}

/// Per-segment weighted means with raw weights concatenated in segment
/// order (batched Eq. 6 pooling); bit-identical to per-segment
/// `weighted_mean_rows` under `normalized_weights`.
pub fn segmented_weighted_mean_rows(a: &Tensor, weights: &[f32], segs: &[Range<usize>]) -> Tensor {
    kernels::segmented_weighted_mean_rows(a, weights, segs)
}

/// GraphNorm statistics (Eq. 8–9) scoped per member of a stacked batch:
/// `(μ, 1/√(var+eps))`, each `[M, C]`, bit-identical per member to the
/// statistics over that member's graphs alone.
pub fn segmented_norm_stats(
    a: &Tensor,
    graph_segs: &[Range<usize>],
    members: &[Range<usize>],
    eps: f32,
) -> (Tensor, Tensor) {
    kernels::segmented_norm_stats(a, graph_segs, members, eps)
}

/// Fused gated blend `σ(s)⊙a + (1−σ(s))⊙b` (Eq. 7 epilogue);
/// bit-identical to the composed five-op route.
pub fn gated_blend(s: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    kernels::gated_blend(s, a, b)
}

/// Fused normalise-and-affine GraphNorm epilogue with per-row member
/// statistics; bit-identical to the composed broadcast route.
pub fn segmented_norm_apply(
    x: &Tensor,
    mu: &Tensor,
    inv_std: &Tensor,
    seg_of: &[usize],
    gamma: &Tensor,
    beta: &Tensor,
) -> Tensor {
    kernels::segmented_norm_apply(x, mu, inv_std, seg_of, gamma, beta)
}

/// Per-segment scaled dot-product self-attention over ordered disjoint row
/// segments (batched GPSFormer temporal attention); bit-identical per
/// segment to the composed matmul_nt → scale → softmax → matmul route.
pub fn segmented_self_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    segs: &[Range<usize>],
    scale: f32,
) -> Tensor {
    kernels::segmented_self_attention(q, k, v, segs, scale)
}

// ----- shape ops ------------------------------------------------------------

pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    kernels::concat_cols(parts)
}

pub fn select_cols(a: &Tensor, start: usize, len: usize) -> Tensor {
    kernels::select_cols(a, start, len)
}

pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
    kernels::concat_rows(parts)
}

pub fn select_rows(a: &Tensor, start: usize, len: usize) -> Tensor {
    kernels::select_rows(a, start, len)
}

pub fn repeat_rows(a: &Tensor, n: usize) -> Tensor {
    kernels::repeat_rows(a, n)
}

// ----- lookup ---------------------------------------------------------------

pub fn gather_rows(table: &Tensor, indices: &[usize]) -> Tensor {
    kernels::gather_rows(table, indices)
}

// ----- fused graph-attention ops --------------------------------------------

/// GAT edge scores: `out[e] = src[i] + dst[j_e]` (`src`/`dst` are `[n,1]`).
pub fn edge_scores(src: &Tensor, dst: &Tensor, csr: &GraphCsr) -> Tensor {
    kernels::edge_scores(src, dst, csr)
}

/// Softmax within each node's edge segment.
pub fn segmented_softmax(scores: &Tensor, csr: &GraphCsr) -> Tensor {
    kernels::segmented_softmax(scores, csr)
}

/// Attention aggregation: `out[i] = Σ_{e ∈ seg(i)} α[e] · feats[j_e]`.
pub fn neighbor_sum(alphas: &Tensor, feats: &Tensor, csr: &GraphCsr) -> Tensor {
    kernels::neighbor_sum(alphas, feats, csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 1.0, &mut rng)
    }

    /// Every infer op must be bit-identical to its tape twin (ops with no
    /// facade here — the tape's training-only ones — go through `kernels`
    /// directly).
    #[test]
    fn ops_match_tape_bitwise() {
        let a = t(3, 4, 1);
        let b = t(3, 4, 2);
        let v = t(1, 4, 3);
        let cvec = t(3, 1, 4);
        let w = t(4, 5, 5);

        let mut tape = Tape::new();
        let (na, nb, nv, nc, nw) = (
            tape.leaf(a.clone()),
            tape.leaf(b.clone()),
            tape.leaf(v.clone()),
            tape.leaf(cvec.clone()),
            tape.leaf(w.clone()),
        );

        let pairs: Vec<(Tensor, crate::NodeId)> = vec![
            (add(&a, &b), tape.add(na, nb)),
            (kernels::sub(&a, &b), tape.sub(na, nb)),
            (mul(&a, &b), tape.mul(na, nb)),
            (scale(&a, 0.37), tape.scale(na, 0.37)),
            (add_const(&a, -1.2), tape.add_const(na, -1.2)),
            (add_rowvec(&a, &v), tape.add_rowvec(na, nv)),
            (kernels::mul_rowvec(&a, &v), tape.mul_rowvec(na, nv)),
            (kernels::add_colvec(&a, &cvec), tape.add_colvec(na, nc)),
            (kernels::mul_colvec(&a, &cvec), tape.mul_colvec(na, nc)),
            (matmul(&a, &w), tape.matmul(na, nw)),
            (matmul_nt(&a, &b), tape.matmul_nt(na, nb)),
            (sigmoid(&a), tape.sigmoid(na)),
            (tanh(&a), tape.tanh(na)),
            (relu(&a), tape.relu(na)),
            (leaky_relu(&a, 0.2), tape.leaky_relu(na, 0.2)),
            (kernels::sqrt(&a), tape.sqrt(na)),
            (kernels::recip(&a), tape.recip(na)),
            (kernels::softmax_rows(&a), tape.softmax_rows(na)),
            (kernels::log_softmax_rows(&a), tape.log_softmax_rows(na)),
            (concat_cols(&[&a, &b]), tape.concat_cols(&[na, nb])),
            (select_cols(&a, 1, 2), tape.select_cols(na, 1, 2)),
            (concat_rows(&[&a, &b]), tape.concat_rows(&[na, nb])),
            (select_rows(&a, 1, 2), tape.select_rows(na, 1, 2)),
            (repeat_rows(&v, 4), tape.repeat_rows(nv, 4)),
            (kernels::mean_rows(&a), tape.mean_rows(na)),
            (
                kernels::weighted_mean_rows(
                    &a,
                    &kernels::normalized_weights(a.rows, &[0.2, 0.5, 0.3]),
                ),
                tape.weighted_mean_rows(na, &[0.2, 0.5, 0.3]),
            ),
            (
                gather_rows(&a, &[2, 0, 2]),
                tape.gather_rows(na, &[2, 0, 2]),
            ),
        ];
        for (i, (got, node)) in pairs.iter().enumerate() {
            let want = tape.value(*node);
            assert_eq!(got.shape(), want.shape(), "op #{i} shape");
            assert_eq!(got.data, want.data, "op #{i} not bit-identical");
        }
    }

    #[test]
    fn graph_ops_match_tape_bitwise() {
        let csr = Arc::new(GraphCsr::from_neighbor_lists(
            &[vec![1], vec![0, 2], vec![1]],
            true,
        ));
        let src = t(3, 1, 6);
        let dst = t(3, 1, 7);
        let feats = t(3, 4, 8);

        let mut tape = Tape::new();
        let (ns, nd, nf) = (
            tape.leaf(src.clone()),
            tape.leaf(dst.clone()),
            tape.leaf(feats.clone()),
        );
        let scores_t = tape.edge_scores(ns, nd, &csr);
        let alphas_t = tape.segmented_softmax(scores_t, &csr);
        let agg_t = tape.neighbor_sum(alphas_t, nf, &csr);

        let scores = edge_scores(&src, &dst, &csr);
        assert_eq!(scores.data, tape.value(scores_t).data);
        let alphas = segmented_softmax(&scores, &csr);
        assert_eq!(alphas.data, tape.value(alphas_t).data);
        let agg = neighbor_sum(&alphas, &feats, &csr);
        assert_eq!(agg.data, tape.value(agg_t).data);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = add(&t(2, 2, 1), &t(2, 3, 2));
    }
}
