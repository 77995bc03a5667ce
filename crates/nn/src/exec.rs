//! The executor trait: one layer definition, two ways to run it.
//!
//! A module (`Linear`, `GruCell`, `GatLayer`, the GPSFormer block …) is
//! written **once** against [`Exec`]; what happens when its ops run is the
//! executor's business:
//!
//! * [`Tape`] records every op for reverse-mode differentiation
//!   (`H = NodeId`) — training and the tape `predict` reference.
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
//! [`Exec::gated_fusion`] ops. `Eager` runs each as
//! one fused kernel; `Tape` composes it per segment from its existing
//! differentiable ops (no `Op` variant, no backward code of its own), and
//! that composition is the reference the fused kernels are pinned
//! bit-identical to in `tests/kernel_parity.rs`.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::{kernels, GraphCsr, NodeId, ParamId, ParamStore, Tape, Tensor};

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
    /// Column means `[1,C]` of all rows.
    fn mean_rows(&mut self, a: &Self::H) -> Self::H;

    // ----- shape and gather ----------------------------------------------------

    fn concat_cols(&mut self, parts: &[&Self::H]) -> Self::H;
    fn select_cols(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H;
    fn concat_rows(&mut self, parts: &[&Self::H]) -> Self::H;
    fn select_rows(&mut self, a: &Self::H, start: usize, len: usize) -> Self::H;
    fn gather_rows(&mut self, table: &Self::H, indices: &[usize]) -> Self::H;
    /// A `[1,C]` row repeated `n` times.
    fn repeat_rows(&mut self, a: &Self::H, n: usize) -> Self::H;

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

impl<'s> Exec<'s> for Tape {
    type H = NodeId;

    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> NodeId {
        Tape::param(self, store, id)
    }
    fn input(&mut self, t: &'s Tensor) -> NodeId {
        self.leaf(t.clone())
    }
    fn constant(&mut self, t: Tensor) -> NodeId {
        self.leaf(t)
    }
    fn value<'v>(&'v self, h: &'v NodeId) -> &'v Tensor {
        Tape::value(self, *h)
    }

    fn add(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::add(self, *a, *b)
    }
    fn mul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::mul(self, *a, *b)
    }
    fn scale(&mut self, a: &NodeId, c: f32) -> NodeId {
        Tape::scale(self, *a, c)
    }
    fn add_const(&mut self, a: &NodeId, c: f32) -> NodeId {
        Tape::add_const(self, *a, c)
    }
    fn add_rowvec(&mut self, m: &NodeId, v: &NodeId) -> NodeId {
        Tape::add_rowvec(self, *m, *v)
    }
    fn mul_colvec(&mut self, m: &NodeId, v: &NodeId) -> NodeId {
        Tape::mul_colvec(self, *m, *v)
    }
    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::matmul(self, *a, *b)
    }
    fn sigmoid(&mut self, a: &NodeId) -> NodeId {
        Tape::sigmoid(self, *a)
    }
    fn tanh(&mut self, a: NodeId) -> NodeId {
        Tape::tanh(self, a)
    }
    fn relu(&mut self, a: &NodeId) -> NodeId {
        Tape::relu(self, *a)
    }
    fn leaky_relu(&mut self, a: &NodeId, slope: f32) -> NodeId {
        Tape::leaky_relu(self, *a, slope)
    }
    fn layer_norm(&mut self, x: &NodeId, gamma: &NodeId, beta: &NodeId, eps: f32) -> NodeId {
        Tape::layer_norm(self, *x, *gamma, *beta, eps)
    }
    fn mean_rows(&mut self, a: &NodeId) -> NodeId {
        Tape::mean_rows(self, *a)
    }

    fn concat_cols(&mut self, parts: &[&NodeId]) -> NodeId {
        let ids: Vec<NodeId> = parts.iter().map(|&&p| p).collect();
        Tape::concat_cols(self, &ids)
    }
    fn select_cols(&mut self, a: &NodeId, start: usize, len: usize) -> NodeId {
        Tape::select_cols(self, *a, start, len)
    }
    fn concat_rows(&mut self, parts: &[&NodeId]) -> NodeId {
        let ids: Vec<NodeId> = parts.iter().map(|&&p| p).collect();
        Tape::concat_rows(self, &ids)
    }
    fn select_rows(&mut self, a: &NodeId, start: usize, len: usize) -> NodeId {
        Tape::select_rows(self, *a, start, len)
    }
    fn gather_rows(&mut self, table: &NodeId, indices: &[usize]) -> NodeId {
        Tape::gather_rows(self, *table, indices)
    }
    fn repeat_rows(&mut self, a: &NodeId, n: usize) -> NodeId {
        Tape::repeat_rows(self, *a, n)
    }

    fn edge_scores(&mut self, src: &NodeId, dst: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        Tape::edge_scores(self, *src, *dst, csr)
    }
    fn segmented_softmax(&mut self, scores: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        Tape::segmented_softmax(self, *scores, csr)
    }
    fn neighbor_sum(&mut self, alphas: &NodeId, feats: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        Tape::neighbor_sum(self, *alphas, *feats, csr)
    }

    fn segmented_self_attention(
        &mut self,
        q: &NodeId,
        k: &NodeId,
        v: &NodeId,
        segs: &[Range<usize>],
        scale: f32,
    ) -> NodeId {
        let outs: Vec<NodeId> = segs
            .iter()
            .map(|seg| {
                let qs = Tape::select_rows(self, *q, seg.start, seg.len());
                let ks = Tape::select_rows(self, *k, seg.start, seg.len());
                let vs = Tape::select_rows(self, *v, seg.start, seg.len());
                let scores = self.matmul_nt(qs, ks); // [L, L]
                let scores = Tape::scale(self, scores, scale);
                let alphas = self.softmax_rows(scores);
                Tape::matmul(self, alphas, vs)
            })
            .collect();
        Tape::concat_rows(self, &outs)
    }

    fn segmented_additive_attention(
        &mut self,
        hk: &NodeId,
        gq: &NodeId,
        v: &NodeId,
        keys: &NodeId,
        segs: &[Range<usize>],
    ) -> NodeId {
        let outs: Vec<NodeId> = segs
            .iter()
            .enumerate()
            .map(|(s, seg)| {
                let hks = Tape::select_rows(self, *hk, seg.start, seg.len());
                let q = Tape::select_rows(self, *gq, s, 1);
                let sum = Tape::add_rowvec(self, hks, q);
                let t = Tape::tanh(self, sum); // [L, d]
                let mu = self.matmul_nt(*v, t); // [1, L]
                let alphas = self.softmax_rows(mu);
                let ks = Tape::select_rows(self, *keys, seg.start, seg.len());
                Tape::matmul(self, alphas, ks) // [1, d]
            })
            .collect();
        Tape::concat_rows(self, &outs)
    }

    fn segmented_mean_rows(&mut self, a: &NodeId, segs: &[Range<usize>]) -> NodeId {
        let rows: Vec<NodeId> = segs
            .iter()
            .map(|seg| {
                let part = Tape::select_rows(self, *a, seg.start, seg.len());
                self.mean_rows(part)
            })
            .collect();
        Tape::concat_rows(self, &rows)
    }

    fn segmented_weighted_mean_rows(
        &mut self,
        a: &NodeId,
        weights: &[f32],
        segs: &[Range<usize>],
    ) -> NodeId {
        let mut off = 0;
        let rows: Vec<NodeId> = segs
            .iter()
            .map(|seg| {
                let part = Tape::select_rows(self, *a, seg.start, seg.len());
                let w = &weights[off..off + seg.len()];
                off += seg.len();
                self.weighted_mean_rows(part, w)
            })
            .collect();
        Tape::concat_rows(self, &rows)
    }

    /// Statistics are differentiated exactly (composed from primitive
    /// autograd ops), matching the training-time behaviour of batch norm.
    fn segmented_norm(
        &mut self,
        x: &NodeId,
        gamma: &NodeId,
        beta: &NodeId,
        graph_segs: &[Range<usize>],
        scopes: &[Range<usize>],
        _row_to_scope: &[usize],
        eps: f32,
    ) -> NodeId {
        let outs: Vec<NodeId> = scopes
            .iter()
            .filter(|scope| !scope.is_empty())
            .map(|scope| {
                let graphs = &graph_segs[scope.clone()];
                // Eq. (8): per-graph mean pooling, then the mean of the means.
                let means = Exec::segmented_mean_rows(self, x, graphs);
                let mu = self.mean_rows(means);
                // Eq. (9): variance of all the scope's node features around μ.
                let (start, end) = (graphs[0].start, graphs[graphs.len() - 1].end);
                let big = Tape::select_rows(self, *x, start, end - start);
                let neg_mu = Tape::scale(self, mu, -1.0);
                let centered = Tape::add_rowvec(self, big, neg_mu);
                let sq = Tape::mul(self, centered, centered);
                let var = self.mean_rows(sq);
                let var = Tape::add_const(self, var, eps);
                let std = self.sqrt(var);
                let inv = self.recip(std);
                let norm = self.mul_rowvec(centered, inv);
                let scaled = self.mul_rowvec(norm, *gamma);
                Tape::add_rowvec(self, scaled, *beta)
            })
            .collect();
        Tape::concat_rows(self, &outs)
    }

    fn gated_fusion(
        &mut self,
        a: &NodeId,
        b: &NodeId,
        bz: &NodeId,
        tr: &NodeId,
        z: &NodeId,
        row_to_point: &[usize],
    ) -> NodeId {
        // Broadcast the per-point rows by pure row-gathers, then the gate
        // element-wise.
        let tr_rep = Tape::gather_rows(self, *tr, row_to_point);
        let a_rep = Tape::gather_rows(self, *a, row_to_point);
        let s = Tape::add(self, a_rep, *b);
        let s = Tape::add_rowvec(self, s, *bz);
        let gate = Tape::sigmoid(self, s);
        let take_tr = Tape::mul(self, gate, tr_rep);
        let neg = Tape::scale(self, gate, -1.0);
        let inv_gate = Tape::add_const(self, neg, 1.0);
        let keep_z = Tape::mul(self, inv_gate, *z);
        Tape::add(self, take_tr, keep_z)
    }
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
    fn mean_rows(&mut self, a: &Self::H) -> Self::H {
        Cow::Owned(kernels::mean_rows(a))
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
    fn repeat_rows(&mut self, a: &Self::H, n: usize) -> Self::H {
        Cow::Owned(kernels::repeat_rows(a, n))
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
        let mut t = kernels::segments_add_rowvec(hk, gq, segs);
        kernels::tanh_in_place(&mut t);
        let mu = kernels::matmul_nt(v, &t);
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        let alphas = kernels::softmax_segments(&mu, &lens);
        Cow::Owned(kernels::segmented_attn_context(&alphas, keys, segs))
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
        let (mu, inv) = kernels::segmented_norm_stats(x, graph_segs, scopes, eps);
        Cow::Owned(kernels::segmented_norm_apply(
            x,
            &mu,
            &inv,
            row_to_scope,
            gamma,
            beta,
        ))
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
