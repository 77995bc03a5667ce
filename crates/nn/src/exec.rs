//! The executor trait: one layer definition, two ways to run it.
//!
//! A module (`Linear`, `GruCell`, `GatLayer`, the GPSFormer block …) is
//! written **once** against [`Exec`]; what happens when its ops run is the
//! executor's business:
//!
//! * [`crate::Tape`] records every op for reverse-mode differentiation
//!   (`H = NodeId`) — training and the tape `predict` reference. Its impl
//!   of this trait (in `tape.rs`) is the only place those ops are recorded;
//!   code holding a concrete `Tape` calls them through the trait too.
//! * [`Eager`] evaluates every op at once on [`crate::kernels`] and keeps
//!   nothing (`H = Cow<Tensor>`: parameters and caller inputs are borrowed,
//!   never copied; an op's result is owned) — the serving path.
//!
//! Handles are passed by reference; only [`Exec::tanh`] consumes its
//! operand, so the eager side can overwrite an owned pre-activation in
//! place.
//!
//! **Scoped reductions.** The stacked formulation runs a whole batch as
//! one matrix per projection; what must *not* mix rows across members —
//! self-attention, the decoder's additive attention, graph readout,
//! pooling, GraphNorm statistics — are the six `segmented_*` /
//! [`Exec::gated_fusion`] ops. Both executors run each `segmented_*` op as
//! the same one fused kernel: `Eager` returns its value, `Tape` records it
//! as one node whose backward is the op's own analytic adjoint (it
//! recomputes what it needs — α, `tanh`, μ/σ — on the same kernels).
//! `Tape` still composes the Eq. 7 gate from its element-wise ops. Each
//! fused kernel is pinned bit-identical to its per-segment composition
//! from `kernels::` primitives in `tests/kernel_parity.rs`.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::{kernels, GraphCsr, ParamId, ParamStore, Tensor};

/// An executor of tensor ops. `'s` is the lifetime of everything a handle
/// may borrow: the parameter store and constant inputs.
pub trait Exec<'s> {
    /// Handle to a value held (or recorded) by this executor.
    type H: Clone;

    // ----- inputs -----------------------------------------------------------

    /// A learnable parameter.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Self::H;
    /// A constant the caller keeps alive (no gradient).
    fn input(&mut self, t: &'s Tensor) -> Self::H;
    /// A constant built for this call (no gradient).
    fn constant(&mut self, t: Tensor) -> Self::H;
    /// The value behind a handle.
    fn value<'v>(&'v self, h: &'v Self::H) -> &'v Tensor;

    // ----- element-wise and products ------------------------------------------

    fn add(&mut self, a: &Self::H, b: &Self::H) -> Self::H;
    fn mul(&mut self, a: &Self::H, b: &Self::H) -> Self::H;
    fn scale(&mut self, a: &Self::H, c: f32) -> Self::H;
    fn add_const(&mut self, a: &Self::H, c: f32) -> Self::H;
    /// `[R,C] + [1,C]` broadcast over rows.
    fn add_rowvec(&mut self, m: &Self::H, v: &Self::H) -> Self::H;
    /// `[R,C] ⊙ [R,1]` broadcast over columns.
    fn mul_colvec(&mut self, m: &Self::H, v: &Self::H) -> Self::H;
    fn matmul(&mut self, a: &Self::H, b: &Self::H) -> Self::H;
    fn sigmoid(&mut self, a: &Self::H) -> Self::H;
    /// Consumes its operand (see the module docs).
    fn tanh(&mut self, a: Self::H) -> Self::H;
    fn relu(&mut self, a: &Self::H) -> Self::H;
    fn leaky_relu(&mut self, a: &Self::H, slope: f32) -> Self::H;
    /// Fused per-row layer norm `γ ⊙ (x − μ)/σ + β`.
    fn layer_norm(&mut self, x: &Self::H, gamma: &Self::H, beta: &Self::H, eps: f32) -> Self::H;

    // ----- shape and gather ----------------------------------------------------

    fn concat_cols(&mut self, parts: &[&Self::H]) -> Self::H;
    fn select_cols(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H;
    fn concat_rows(&mut self, parts: &[&Self::H]) -> Self::H;
    fn select_rows(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H;
    fn gather_rows(&mut self, table: &Self::H, indices: &[usize]) -> Self::H;

    // ----- CSR graph attention ---------------------------------------------------

    fn edge_scores(&mut self, src: &Self::H, dst: &Self::H, csr: &Arc<GraphCsr>) -> Self::H;
    fn segmented_softmax(&mut self, scores: &Self::H, csr: &Arc<GraphCsr>) -> Self::H;
    fn neighbor_sum(&mut self, alphas: &Self::H, feats: &Self::H, csr: &Arc<GraphCsr>) -> Self::H;

    // ----- scoped reductions -------------------------------------------------------

    /// Scaled dot-product self-attention within each segment's own rows;
    /// `segs` must tile the rows of `q`/`k`/`v` in order.
    fn segmented_self_attention(
        &mut self,
        q: &Self::H,
        k: &Self::H,
        v: &Self::H,
        segs: &[Range<usize>],
        scale: f32,
    ) -> Self::H;

    /// Additive attention (Eq. 14) of query `s` over its own keys: with
    /// `seg = segs[s]`, row `s` = `softmax(v·tanh(hk[seg] + gq[s])ᵀ)·keys[seg]`.
    /// `hk` is `keys` already projected by `W_h`, `gq` one projected query
    /// per segment; `segs` may skip rows of `keys`.
    fn segmented_additive_attention(
        &mut self,
        hk: &Self::H,
        gq: &Self::H,
        v: &Self::H,
        keys: &Self::H,
        segs: &[Range<usize>],
    ) -> Self::H;

    /// Row `s` = column means of `a[segs[s], :]`.
    fn segmented_mean_rows(&mut self, a: &Self::H, segs: &[Range<usize>]) -> Self::H;

    /// Row `s` = weighted column means of `a[segs[s], :]` under the
    /// segment's slice of `weights` (raw, positive; normalised per segment).
    fn segmented_weighted_mean_rows(
        &mut self,
        a: &Self::H,
        weights: &[f32],
        segs: &[Range<usize>],
    ) -> Self::H;

    /// GraphNorm (Eq. 8–9) with statistics scoped to groups of graphs:
    /// `graph_segs[g]` is graph `g`'s row range (together tiling `x` in
    /// order), `scopes[m]` the range of graph indices normalised jointly,
    /// `row_to_scope[r]` the scope owning row `r`.
    #[allow(clippy::too_many_arguments)]
    fn segmented_norm(
        &mut self,
        x: &Self::H,
        gamma: &Self::H,
        beta: &Self::H,
        graph_segs: &[Range<usize>],
        scopes: &[Range<usize>],
        row_to_scope: &[usize],
        eps: f32,
    ) -> Self::H;

    /// The Eq. 7 gate over unexpanded operands: with `p = row_to_point[r]`,
    /// `g = σ((a[p] + b[r]) + bz)` and row `r` = `g ⊙ tr[p] + (1 − g) ⊙ z[r]`
    /// (`a`, `tr`: one row per point; `b`, `z`: one row per stacked node).
    fn gated_fusion(
        &mut self,
        a: &Self::H,
        b: &Self::H,
        bz: &Self::H,
        tr: &Self::H,
        z: &Self::H,
        row_to_point: &[usize],
    ) -> Self::H;
}

/// The eager executor: every op runs at once on [`crate::kernels`] and the
/// executor itself holds no state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eager;

impl<'s> Exec<'s> for Eager {
    type H = Cow<'s, Tensor>;

    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Self::H {
        Cow::Borrowed(store.value(id))
    }
    fn input(&mut self, t: &'s Tensor) -> Self::H {
        Cow::Borrowed(t)
    }
    fn constant(&mut self, t: Tensor) -> Self::H {
        Cow::Owned(t)
    }
    fn value<'v>(&'v self, h: &'v Self::H) -> &'v Tensor {
        h
    }

    fn add(&mut self, a: &Self::H, b: &Self::H) -> Self::H {
        Cow::Owned(kernels::add(a, b))
    }
    fn mul(&mut self, a: &Self::H, b: &Self::H) -> Self::H {
        Cow::Owned(kernels::mul(a, b))
    }
    fn scale(&mut self, a: &Self::H, c: f32) -> Self::H {
        Cow::Owned(kernels::scale(a, c))
    }
    fn add_const(&mut self, a: &Self::H, c: f32) -> Self::H {
        Cow::Owned(kernels::add_const(a, c))
    }
    fn add_rowvec(&mut self, m: &Self::H, v: &Self::H) -> Self::H {
        Cow::Owned(kernels::add_rowvec(m, v))
    }
    fn mul_colvec(&mut self, m: &Self::H, v: &Self::H) -> Self::H {
        Cow::Owned(kernels::mul_colvec(m, v))
    }
    fn matmul(&mut self, a: &Self::H, b: &Self::H) -> Self::H {
        Cow::Owned(kernels::matmul(a, b))
    }
    fn sigmoid(&mut self, a: &Self::H) -> Self::H {
        Cow::Owned(kernels::sigmoid(a))
    }
    fn tanh(&mut self, a: Self::H) -> Self::H {
        let mut t = a.into_owned();
        kernels::tanh_in_place(&mut t);
        Cow::Owned(t)
    }
    fn relu(&mut self, a: &Self::H) -> Self::H {
        Cow::Owned(kernels::relu(a))
    }
    fn leaky_relu(&mut self, a: &Self::H, slope: f32) -> Self::H {
        Cow::Owned(kernels::leaky_relu(a, slope))
    }
    fn layer_norm(&mut self, x: &Self::H, gamma: &Self::H, beta: &Self::H, eps: f32) -> Self::H {
        Cow::Owned(kernels::layer_norm(x, gamma, beta, eps))
    }

    fn concat_cols(&mut self, parts: &[&Self::H]) -> Self::H {
        // Two- and three-part concats (the GRU's, on the decode hot path)
        // stay on the stack.
        Cow::Owned(match parts {
            [a, b] => kernels::concat_cols(&[a, b]),
            [a, b, c] => kernels::concat_cols(&[a, b, c]),
            _ => kernels::concat_cols(&parts.iter().map(|p| -> &Tensor { p }).collect::<Vec<_>>()),
        })
    }
    fn select_cols(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H {
        Cow::Owned(kernels::select_cols(a, start, len))
    }
    fn concat_rows(&mut self, parts: &[&Self::H]) -> Self::H {
        // Appending a decode admission wave under the live rows stays on the
        // stack.
        Cow::Owned(match parts {
            [a, b] => kernels::concat_rows(&[a, b]),
            _ => kernels::concat_rows(&parts.iter().map(|p| -> &Tensor { p }).collect::<Vec<_>>()),
        })
    }
    fn select_rows(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H {
        Cow::Owned(kernels::select_rows(a, start, len))
    }
    fn gather_rows(&mut self, table: &Self::H, indices: &[usize]) -> Self::H {
        Cow::Owned(kernels::gather_rows(table, indices))
    }

    fn edge_scores(&mut self, src: &Self::H, dst: &Self::H, csr: &Arc<GraphCsr>) -> Self::H {
        Cow::Owned(kernels::edge_scores(src, dst, csr))
    }
    fn segmented_softmax(&mut self, scores: &Self::H, csr: &Arc<GraphCsr>) -> Self::H {
        Cow::Owned(kernels::segmented_softmax(scores, csr))
    }
    fn neighbor_sum(&mut self, alphas: &Self::H, feats: &Self::H, csr: &Arc<GraphCsr>) -> Self::H {
        Cow::Owned(kernels::neighbor_sum(alphas, feats, csr))
    }

    fn segmented_self_attention(
        &mut self,
        q: &Self::H,
        k: &Self::H,
        v: &Self::H,
        segs: &[Range<usize>],
        scale: f32,
    ) -> Self::H {
        Cow::Owned(kernels::segmented_self_attention(q, k, v, segs, scale))
    }
    fn segmented_additive_attention(
        &mut self,
        hk: &Self::H,
        gq: &Self::H,
        v: &Self::H,
        keys: &Self::H,
        segs: &[Range<usize>],
    ) -> Self::H {
        Cow::Owned(kernels::segmented_additive_attention(hk, gq, v, keys, segs))
    }
    fn segmented_mean_rows(&mut self, a: &Self::H, segs: &[Range<usize>]) -> Self::H {
        Cow::Owned(kernels::segmented_mean_rows(a, segs))
    }
    fn segmented_weighted_mean_rows(
        &mut self,
        a: &Self::H,
        weights: &[f32],
        segs: &[Range<usize>],
    ) -> Self::H {
        Cow::Owned(kernels::segmented_weighted_mean_rows(a, weights, segs))
    }
    fn segmented_norm(
        &mut self,
        x: &Self::H,
        gamma: &Self::H,
        beta: &Self::H,
        graph_segs: &[Range<usize>],
        scopes: &[Range<usize>],
        row_to_scope: &[usize],
        eps: f32,
    ) -> Self::H {
        let t = kernels::segmented_norm(x, gamma, beta, graph_segs, scopes, row_to_scope, eps);
        Cow::Owned(t)
    }
    fn gated_fusion(
        &mut self,
        a: &Self::H,
        b: &Self::H,
        bz: &Self::H,
        tr: &Self::H,
        z: &Self::H,
        row_to_point: &[usize],
    ) -> Self::H {
        Cow::Owned(kernels::gated_fusion(a, b, bz, tr, z, row_to_point))
    }
}
