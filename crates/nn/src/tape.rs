//! The reverse-mode autograd tape.
//!
//! Every op eagerly computes its value on [`crate::kernels`] and records an
//! [`Op`] node; [`Tape::backward`] walks the tape in reverse topological
//! order (which is simply reverse insertion order) accumulating gradients,
//! and routes leaf gradients into the [`ParamStore`].
//!
//! The ops the tape shares with [`crate::Eager`] exist once, as the
//! [`Exec`] impl at the end of this file; code that holds a concrete
//! `Tape` calls them through the trait like generic layer code does. The
//! five inherent methods are the ops only training records: `sub`,
//! `matmul_nt`, `log_softmax_rows`, `mean_all` and `pick_cols`.
//!
//! Each scoped reduction (`segmented_self_attention`,
//! `segmented_additive_attention`, `segmented_mean_rows`,
//! `segmented_weighted_mean_rows`, `segmented_norm`) is one node over the
//! fused kernel `Eager` runs. Its backward is the op's own O(rows) adjoint
//! (the free functions above the `Exec` impl), which recomputes what it
//! needs — α, `tanh`, the GraphNorm statistics — on the same kernels.
//!
//! The backward runs on the same kernels as the forward: a product's
//! adjoints are [`kernels::matmul`], over a transposed copy of the operand
//! that needs it (each element stays one chain in ascending `k`, on the
//! register-tiled kernel), and the slicing adjoints (`SelectRows`,
//! `SelectCols`, `PickCols`) add into their parent's gradient in place
//! rather than through a parent-sized buffer.

use std::ops::Range;
use std::sync::Arc;

use crate::{kernels, Exec, GraphCsr, ParamId, ParamStore, Tensor};

/// Index of a node on the tape.
pub type NodeId = usize;

/// The row ranges a scoped op reduces over, kept for its backward.
type Segs = Arc<[Range<usize>]>;

/// The operation that produced a node. Parents are tape indices, which are
/// always smaller than the node's own index (the tape is a DAG by
/// construction).
#[derive(Debug, Clone)]
pub enum Op {
    /// Input: constant or parameter (gradient routed to the store).
    Leaf {
        param: Option<ParamId>,
    },
    /// Element-wise `a + b` (same shape).
    Add(NodeId, NodeId),
    /// Element-wise `a - b`.
    Sub(NodeId, NodeId),
    /// Element-wise (Hadamard) `a ⊙ b`.
    Mul(NodeId, NodeId),
    /// `a * c` for a constant scalar.
    Scale(NodeId, f32),
    /// `a + c` for a constant scalar.
    AddConst(NodeId, f32),
    /// `[R,C] + [1,C]` broadcast over rows.
    AddRowVec(NodeId, NodeId),
    /// `[R,C] ⊙ [R,1]` broadcast over columns.
    MulColVec(NodeId, NodeId),
    /// `[R,K] × [K,C]`.
    MatMul(NodeId, NodeId),
    /// `[R,K] × [C,K]ᵀ → [R,C]` (saves materialising transposes).
    MatMulNT(NodeId, NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    /// Row-wise log-softmax (stable).
    LogSoftmaxRows(NodeId),
    /// Fused per-row layer norm `y = γ ⊙ (x − μ)/σ + β`:
    /// `(x, gamma, beta, eps)`.
    LayerNorm(NodeId, NodeId, NodeId, f32),
    /// Horizontal concatenation (same row count).
    ConcatCols(Vec<NodeId>),
    /// Columns `[start, start+len)`.
    SelectCols(NodeId, usize, usize),
    /// Vertical concatenation (same column count).
    ConcatRows(Vec<NodeId>),
    /// Rows `[start, start+len)`.
    SelectRows(NodeId, usize, usize),
    /// Mean of all entries → `[1,1]`.
    MeanAll(NodeId),
    /// Row gather: `table[indices[i], :]` → `[n, C]` (embedding lookup).
    GatherRows(NodeId, Arc<Vec<usize>>),
    /// One entry per row: `a[r, cols[r]]` → `[R, 1]` (a loss picking each
    /// row's target class).
    PickCols(NodeId, Arc<Vec<usize>>),
    /// GAT edge scores: `out[e] = src[i] + dst[j_e]` for each edge slot `e`
    /// in node `i`'s segment.
    EdgeScores(NodeId, NodeId, Arc<GraphCsr>),
    /// Softmax within each node's edge segment (attention normalisation).
    SegmentedSoftmax(NodeId, Arc<GraphCsr>),
    /// `out[i] = Σ_{e ∈ seg(i)} α[e] · feats[j_e]` (attention aggregation).
    NeighborSum(NodeId, NodeId, Arc<GraphCsr>),
    /// Scaled dot-product self-attention within each segment's own rows:
    /// `(q, k, v, segs, scale)`.
    SegmentedSelfAttention(NodeId, NodeId, NodeId, Segs, f32),
    /// Additive attention (Eq. 14) of query row `s` over key rows
    /// `segs[s]`: `(hk, gq, v, keys, segs)`.
    SegmentedAdditiveAttention(NodeId, NodeId, NodeId, NodeId, Segs),
    /// Row `s` = `Σ_{i ∈ segs[s]} w_i · a[i, :]` with fixed per-row weights
    /// `w` (in segment order): column means (`w = 1/len`,
    /// `segmented_mean_rows`) and the paper's weighted mean pooling and
    /// graph readout (Eq. 6 / Eq. 8, `w` normalised per segment).
    Pool(NodeId, Arc<Vec<f32>>, Segs),
    /// GraphNorm (Eq. 8–9) with statistics scoped to groups of graphs:
    /// `(x, gamma, beta, graph_segs, scopes, eps)`.
    SegmentedNorm(NodeId, NodeId, NodeId, Segs, Segs, f32),
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    grad: Option<Vec<f32>>,
}

/// A dynamic computation graph. Create one per forward/backward pass (or
/// [`Tape::clear`] and reuse its allocation).
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Gradient of a node after [`Tape::backward`] (`None` if the node did
    /// not influence the loss).
    pub fn grad(&self, id: NodeId) -> Option<&[f32]> {
        self.nodes[id].grad.as_deref()
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node {
            value,
            op,
            grad: None,
        });
        self.nodes.len() - 1
    }

    fn val(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    // ----- ops only training records ----------------------------------------

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let t = kernels::sub(self.val(a), self.val(b));
        self.push(t, Op::Sub(a, b))
    }

    /// `a × bᵀ` without materialising the transpose.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let t = kernels::matmul_nt(self.val(a), self.val(b));
        self.push(t, Op::MatMulNT(a, b))
    }

    pub fn log_softmax_rows(&mut self, a: NodeId) -> NodeId {
        let t = kernels::log_softmax_rows(self.val(a));
        self.push(t, Op::LogSoftmaxRows(a))
    }

    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let ta = self.val(a);
        let m = ta.data.iter().sum::<f32>() / ta.len() as f32;
        self.push(Tensor::scalar(m), Op::MeanAll(a))
    }

    /// `a[r, cols[r]]` for every row `r` → `[R, 1]`.
    pub fn pick_cols(&mut self, a: NodeId, cols: &[usize]) -> NodeId {
        let ta = self.val(a);
        assert_eq!(cols.len(), ta.rows, "pick_cols: one column per row");
        let picked = cols
            .iter()
            .enumerate()
            .map(|(r, &c)| {
                assert!(c < ta.cols, "pick_cols: column {c} out of range");
                ta.data[r * ta.cols + c]
            })
            .collect();
        let t = Tensor::from_vec(ta.rows, 1, picked);
        self.push(t, Op::PickCols(a, Arc::new(cols.to_vec())))
    }

    // ----- backward --------------------------------------------------------------

    /// Reverse-mode differentiation from scalar node `loss`. Accumulates
    /// parameter gradients into `store`; node gradients stay readable via
    /// [`Tape::grad`] until the next forward op or `clear`.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        assert_eq!(
            self.val(loss).shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[loss].grad = Some(vec![1.0]);

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            // Split-borrow: the node's op/value vs. parent grads.
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf { param } => {
                    if let Some(pid) = param {
                        store.accumulate_grad(pid, &g);
                    }
                }
                Op::Add(a, b) => {
                    self.acc(a, &g);
                    self.acc(b, &g);
                }
                Op::Sub(a, b) => {
                    self.acc(a, &g);
                    let neg: Vec<f32> = g.iter().map(|x| -x).collect();
                    self.acc(b, &neg);
                }
                Op::Mul(a, b) => {
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(&self.nodes[b].value.data)
                        .map(|(x, y)| x * y)
                        .collect();
                    let gb: Vec<f32> = g
                        .iter()
                        .zip(&self.nodes[a].value.data)
                        .map(|(x, y)| x * y)
                        .collect();
                    self.acc(a, &ga);
                    self.acc(b, &gb);
                }
                Op::Scale(a, c) => {
                    let ga: Vec<f32> = g.iter().map(|x| x * c).collect();
                    self.acc(a, &ga);
                }
                Op::AddConst(a, _) => self.acc(a, &g),
                Op::AddRowVec(m, v) => {
                    self.acc(m, &g);
                    let cols = self.nodes[v].value.cols;
                    let rows = g.len() / cols;
                    let mut gv = vec![0.0f32; cols];
                    for r in 0..rows {
                        for c in 0..cols {
                            gv[c] += g[r * cols + c];
                        }
                    }
                    self.acc(v, &gv);
                }
                Op::MulColVec(m, v) => {
                    let rows = self.nodes[v].value.rows;
                    let cols = g.len() / rows;
                    let vm = &self.nodes[m].value;
                    let vv = &self.nodes[v].value;
                    let mut gm = vec![0.0f32; g.len()];
                    let mut gv = vec![0.0f32; rows];
                    for r in 0..rows {
                        for c in 0..cols {
                            gm[r * cols + c] = g[r * cols + c] * vv.data[r];
                            gv[r] += g[r * cols + c] * vm.data[r * cols + c];
                        }
                    }
                    self.acc(m, &gm);
                    self.acc(v, &gv);
                }
                Op::MatMul(a, b) => {
                    let (ta, tb) = (&self.nodes[a].value, &self.nodes[b].value);
                    let gt = Tensor::from_vec(ta.rows, tb.cols, g.clone());
                    // dA = dC · Bᵀ ; dB = Aᵀ · dC
                    let ga = kernels::matmul(&gt, &transposed(tb));
                    let gb = kernels::matmul(&transposed(ta), &gt);
                    self.acc(a, &ga.data);
                    self.acc(b, &gb.data);
                }
                Op::MatMulNT(a, b) => {
                    let (ta, tb) = (&self.nodes[a].value, &self.nodes[b].value);
                    let gt = Tensor::from_vec(ta.rows, tb.rows, g.clone());
                    // C = A·Bᵀ: dA = dC·B ; dB = dCᵀ·A
                    let ga = kernels::matmul(&gt, tb);
                    let gb = kernels::matmul(&transposed(&gt), ta);
                    self.acc(a, &ga.data);
                    self.acc(b, &gb.data);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(&y.data)
                        .map(|(gx, &yy)| gx * yy * (1.0 - yy))
                        .collect();
                    self.acc(a, &ga);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(&y.data)
                        .map(|(gx, &yy)| gx * (1.0 - yy * yy))
                        .collect();
                    self.acc(a, &ga);
                }
                Op::Relu(a) => {
                    let x = &self.nodes[a].value;
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(&x.data)
                        .map(|(gx, &xx)| if xx > 0.0 { *gx } else { 0.0 })
                        .collect();
                    self.acc(a, &ga);
                }
                Op::LeakyRelu(a, slope) => {
                    let x = &self.nodes[a].value;
                    let ga: Vec<f32> = g
                        .iter()
                        .zip(&x.data)
                        .map(|(gx, &xx)| if xx > 0.0 { *gx } else { gx * slope })
                        .collect();
                    self.acc(a, &ga);
                }
                Op::LogSoftmaxRows(a) => {
                    let y = &self.nodes[i].value; // y = log softmax(x)
                    let cols = y.cols;
                    let mut ga = vec![0.0f32; g.len()];
                    for r in 0..y.rows {
                        let yr = &y.data[r * cols..(r + 1) * cols];
                        let gr = &g[r * cols..(r + 1) * cols];
                        let gsum: f32 = gr.iter().sum();
                        for c in 0..cols {
                            ga[r * cols + c] = gr[c] - kernels::expf::expf(yr[c]) * gsum;
                        }
                    }
                    self.acc(a, &ga);
                }
                Op::LayerNorm(x, gamma, beta, eps) => {
                    let tx = &self.nodes[x].value;
                    let tg = &self.nodes[gamma].value;
                    let (r, c) = tx.shape();
                    let (mean, inv_std) = kernels::row_norm_stats(tx, eps);
                    let inv_d = 1.0 / c as f32;
                    let mut gx = vec![0.0f32; r * c];
                    let mut ggamma = vec![0.0f32; c];
                    let mut gbeta = vec![0.0f32; c];
                    for row in 0..r {
                        let m = mean.data[row];
                        let istd = inv_std.data[row];
                        let xr = &tx.data[row * c..(row + 1) * c];
                        let gr = &g[row * c..(row + 1) * c];
                        // x̂ = (x − μ)·invstd; p = g ⊙ γ. Then
                        // dx = invstd · (p − mean(p) − x̂ · mean(p ⊙ x̂)),
                        // dγ = Σ_rows g ⊙ x̂, dβ = Σ_rows g.
                        let mut sum_p = 0.0f32;
                        let mut sum_px = 0.0f32;
                        for col in 0..c {
                            let xh = (xr[col] - m) * istd;
                            let p = gr[col] * tg.data[col];
                            sum_p += p;
                            sum_px += p * xh;
                            ggamma[col] += gr[col] * xh;
                            gbeta[col] += gr[col];
                        }
                        let mp = sum_p * inv_d;
                        let mpx = sum_px * inv_d;
                        for col in 0..c {
                            let xh = (xr[col] - m) * istd;
                            let p = gr[col] * tg.data[col];
                            gx[row * c + col] = istd * (p - mp - xh * mpx);
                        }
                    }
                    self.acc(x, &gx);
                    self.acc(gamma, &ggamma);
                    self.acc(beta, &gbeta);
                }
                Op::ConcatCols(parts) => {
                    let total = self.nodes[i].value.cols;
                    let rows = self.nodes[i].value.rows;
                    let mut off = 0;
                    for &p in &parts {
                        let pc = self.nodes[p].value.cols;
                        let mut gp = vec![0.0f32; rows * pc];
                        for r in 0..rows {
                            gp[r * pc..(r + 1) * pc]
                                .copy_from_slice(&g[r * total + off..r * total + off + pc]);
                        }
                        self.acc(p, &gp);
                        off += pc;
                    }
                }
                Op::SelectCols(a, start, len) => {
                    let cols = self.nodes[a].value.cols;
                    let at = (0..g.len()).map(|e| e / len * cols + start + e % len);
                    self.acc_at(a, at, &g);
                }
                Op::ConcatRows(parts) => {
                    let cols = self.nodes[i].value.cols;
                    let mut off = 0;
                    for &p in &parts {
                        let pr = self.nodes[p].value.rows;
                        self.acc(p, &g[off * cols..(off + pr) * cols]);
                        off += pr;
                    }
                }
                Op::SelectRows(a, start, _) => {
                    let cols = self.nodes[a].value.cols;
                    self.acc_at(a, start * cols.., &g);
                }
                Op::MeanAll(a) => {
                    let ta = &self.nodes[a].value;
                    let v = g[0] / ta.len() as f32;
                    let ga = vec![v; ta.len()];
                    self.acc(a, &ga);
                }
                Op::GatherRows(table, indices) => {
                    let tt = &self.nodes[table].value;
                    let cols = tt.cols;
                    let mut gt = vec![0.0f32; tt.len()];
                    for (row, &idx) in indices.iter().enumerate() {
                        for c in 0..cols {
                            gt[idx * cols + c] += g[row * cols + c];
                        }
                    }
                    self.acc(table, &gt);
                }
                Op::PickCols(a, picks) => {
                    let cols = self.nodes[a].value.cols;
                    let at = picks.iter().enumerate().map(|(r, &c)| r * cols + c);
                    self.acc_at(a, at, &g);
                }
                Op::EdgeScores(src, dst, csr) => {
                    let n = csr.num_nodes();
                    let mut gs = vec![0.0f32; n];
                    let mut gd = vec![0.0f32; n];
                    for (i2, gsi) in gs.iter_mut().enumerate() {
                        for e in csr.segment(i2) {
                            *gsi += g[e];
                            gd[csr.target(e)] += g[e];
                        }
                    }
                    self.acc(src, &gs);
                    self.acc(dst, &gd);
                }
                Op::SegmentedSoftmax(scores, csr) => {
                    let y = &self.nodes[i].value.data;
                    let mut ga = g.clone();
                    for i2 in 0..csr.num_nodes() {
                        let seg = csr.segment(i2);
                        softmax_adjoint(&y[seg.clone()], &mut ga[seg]);
                    }
                    self.acc(scores, &ga);
                }
                Op::NeighborSum(alphas, feats, csr) => {
                    let tf = &self.nodes[feats].value;
                    let ta = &self.nodes[alphas].value;
                    let cols = tf.cols;
                    let mut ga = vec![0.0f32; ta.len()];
                    let mut gf = vec![0.0f32; tf.len()];
                    for i2 in 0..csr.num_nodes() {
                        for e in csr.segment(i2) {
                            let j = csr.target(e);
                            let mut dot = 0.0;
                            for c in 0..cols {
                                let go = g[i2 * cols + c];
                                dot += go * tf.data[j * cols + c];
                                gf[j * cols + c] += ta.data[e] * go;
                            }
                            ga[e] = dot;
                        }
                    }
                    self.acc(alphas, &ga);
                    self.acc(feats, &gf);
                }
                Op::SegmentedSelfAttention(q, k, v, segs, scale) => {
                    let ts = [q, k, v].map(|id| self.val(id));
                    let grads = self_attention_adjoint(ts, &segs, scale, &g);
                    self.acc_each([q, k, v], grads);
                }
                Op::SegmentedAdditiveAttention(hk, gq, v, keys, segs) => {
                    let ts = [hk, gq, v, keys].map(|id| self.val(id));
                    let grads = additive_attention_adjoint(ts, &segs, &g);
                    self.acc_each([hk, gq, v, keys], grads);
                }
                Op::Pool(a, w, segs) => {
                    let c = self.val(a).cols;
                    let mut ga = vec![0.0f32; self.val(a).len()];
                    let rows = segs
                        .iter()
                        .enumerate()
                        .flat_map(|(s, seg)| seg.clone().map(move |i| (s, i)));
                    for ((s, i), wi) in rows.zip(w.iter()) {
                        let gs = &g[s * c..(s + 1) * c];
                        for (acc, &x) in ga[i * c..(i + 1) * c].iter_mut().zip(gs) {
                            *acc += x * wi;
                        }
                    }
                    self.acc(a, &ga);
                }
                Op::SegmentedNorm(x, gamma, beta, graph_segs, scopes, eps) => {
                    let ts = [x, gamma].map(|id| self.val(id));
                    let grads = norm_adjoint(ts, &graph_segs, &scopes, eps, &g);
                    self.acc_each([x, gamma, beta], grads);
                }
            }
            // Keep the gradient readable for inspection/tests.
            self.nodes[i].grad = Some(g);
        }
    }

    fn acc_each<const N: usize>(&mut self, ids: [NodeId; N], grads: [Vec<f32>; N]) {
        for (id, grad) in ids.into_iter().zip(grads) {
            self.acc(id, &grad);
        }
    }

    fn acc(&mut self, id: NodeId, contribution: &[f32]) {
        let node = &mut self.nodes[id];
        match &mut node.grad {
            Some(g) => {
                debug_assert_eq!(g.len(), contribution.len());
                for (a, b) in g.iter_mut().zip(contribution) {
                    *a += b;
                }
            }
            None => node.grad = Some(contribution.to_vec()),
        }
    }

    /// Adds `contribution[i]` into entry `at[i]` of `id`'s gradient, leaving
    /// the rest of it untouched: the adjoint of a slice of `id`. A first
    /// contribution lands in a zeroed gradient by copy, as in [`Tape::acc`].
    fn acc_at(&mut self, id: NodeId, at: impl Iterator<Item = usize>, contribution: &[f32]) {
        let node = &mut self.nodes[id];
        let len = node.value.len();
        match &mut node.grad {
            Some(g) => at.zip(contribution).for_each(|(i, c)| g[i] += c),
            None => {
                let mut g = vec![0.0f32; len];
                at.zip(contribution).for_each(|(i, &c)| g[i] = c);
                node.grad = Some(g);
            }
        }
    }
}

/// `t` transposed into a new tensor, so that an adjoint `Xᵀ · Y` runs on
/// [`kernels::matmul`].
fn transposed(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.cols, t.rows);
    for r in 0..t.rows {
        for c in 0..t.cols {
            out.data[c * t.rows + r] = t.data[r * t.cols + c];
        }
    }
    out
}

/// `g ← y ⊙ (g − ⟨y, g⟩)`: the adjoint of a softmax whose output is `y`,
/// applied in place to its output gradient `g`.
fn softmax_adjoint(y: &[f32], g: &mut [f32]) {
    let dot: f32 = y.iter().zip(g.iter()).map(|(y, g)| y * g).sum();
    for (gi, &yi) in g.iter_mut().zip(y) {
        *gi = yi * (*gi - dot);
    }
}

/// The adjoint of [`kernels::segmented_self_attention`] with respect to
/// `[q, k, v]`. Per segment it recomputes `α = softmax(scale·Q·Kᵀ)` on the
/// kernels, then `dV = αᵀ·dO`, `dS = scale · softmax′(α, dO·Vᵀ)`,
/// `dQ = dS·K` and `dK = dSᵀ·Q`.
fn self_attention_adjoint(
    [q, k, v]: [&Tensor; 3],
    segs: &[Range<usize>],
    scale: f32,
    g: &[f32],
) -> [Vec<f32>; 3] {
    let c = q.cols;
    let mut grads = [q, k, v].map(|t| vec![0.0f32; t.len()]);
    for seg in segs.iter().filter(|seg| !seg.is_empty()) {
        let [qs, ks, vs] = [q, k, v].map(|t| kernels::select_rows(t, seg.start, seg.len()));
        let alphas = kernels::softmax_rows(&kernels::scale(&kernels::matmul_nt(&qs, &ks), scale));
        let go = Tensor::from_vec(seg.len(), c, g[seg.start * c..seg.end * c].to_vec());
        let mut ds = kernels::matmul(&go, &transposed(&vs));
        let l = seg.len();
        for (y, gr) in alphas.data.chunks(l).zip(ds.data.chunks_mut(l)) {
            softmax_adjoint(y, gr);
        }
        let ds = kernels::scale(&ds, scale);
        let parts = [
            kernels::matmul(&ds, &ks),
            kernels::matmul(&transposed(&ds), &qs),
            kernels::matmul(&transposed(&alphas), &go),
        ];
        for (grad, part) in grads.iter_mut().zip(parts) {
            grad[seg.start * c..seg.end * c].copy_from_slice(&part.data);
        }
    }
    grads
}

/// The adjoint of [`kernels::segmented_additive_attention`] with respect to
/// `[hk, gq, v, keys]`. Per segment it recomputes `T = tanh(hk[seg] + gq[s])`
/// and `α = softmax(v·Tᵀ)` on the kernels; then with `dμ = softmax′(α,
/// dO·Kᵀ)`: `dkeys_j += α_j·dO`, `dv += Σ_j dμ_j·T_j`, and the
/// pre-activation gradient `dμ_j·v ⊙ (1 − T_j²)` goes to `hk` row `j` and,
/// summed over the segment, to `gq` row `s`.
fn additive_attention_adjoint(
    [hk, gq, v, keys]: [&Tensor; 4],
    segs: &[Range<usize>],
    g: &[f32],
) -> [Vec<f32>; 4] {
    let (d, c) = (hk.cols, keys.cols);
    let [mut ghk, mut ggq, mut gv, mut gkeys] = [hk, gq, v, keys].map(|t| vec![0.0f32; t.len()]);
    for (s, seg) in segs.iter().enumerate().filter(|(_, seg)| !seg.is_empty()) {
        let (q, go) = (&gq.data[s * d..(s + 1) * d], &g[s * c..(s + 1) * c]);
        let rows = hk.data[seg.start * d..seg.end * d].chunks(d);
        let pre = rows.flat_map(|row| row.iter().zip(q).map(|(x, y)| x + y));
        let mut t = Tensor::from_vec(seg.len(), d, pre.collect());
        kernels::tanh_in_place(&mut t);
        let alphas = kernels::softmax_rows(&kernels::matmul_nt(v, &t)).data;
        let key = |i: usize| &keys.data[i * c..(i + 1) * c];
        let dot = |i: usize| key(i).iter().zip(go).map(|(k, o)| k * o).sum::<f32>();
        let mut dmu: Vec<f32> = seg.clone().map(dot).collect();
        softmax_adjoint(&alphas, &mut dmu);
        for (j, i) in seg.clone().enumerate() {
            for (acc, &x) in gkeys[i * c..(i + 1) * c].iter_mut().zip(go) {
                *acc += alphas[j] * x;
            }
            for (col, &tj) in t.data[j * d..(j + 1) * d].iter().enumerate() {
                gv[col] += dmu[j] * tj;
                let dp = dmu[j] * v.data[col] * (1.0 - tj * tj);
                ghk[i * d + col] += dp;
                ggq[s * d + col] += dp;
            }
        }
    }
    [ghk, ggq, gv, gkeys]
}

/// The adjoint of [`kernels::segmented_norm`] with respect to
/// `[x, gamma, beta]`, from the scope statistics recomputed by
/// [`kernels::segmented_norm_stats`]. Per scope and column, with
/// `x̂ = (x − μ)·σ⁻¹`, `p = g·γ` and `N` rows: the gradient through the
/// centred value is `dc = σ⁻¹·(p − x̂·Σ(p·x̂)/N)` (the variance term
/// included), and as `μ` is the mean of the `G` graph means, a row of a
/// graph with `n` rows gets `dx = dc − Σ dc/(G·n)`. `dγ = Σ g·x̂`,
/// `dβ = Σ g`.
fn norm_adjoint(
    [x, gamma]: [&Tensor; 2],
    graph_segs: &[Range<usize>],
    scopes: &[Range<usize>],
    eps: f32,
    g: &[f32],
) -> [Vec<f32>; 3] {
    let c = x.cols;
    let (mu, inv_std) = kernels::segmented_norm_stats(x, graph_segs, scopes, eps);
    let mut gx = vec![0.0f32; x.len()];
    let (mut ggamma, mut gbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    for (m, scope) in scopes.iter().enumerate() {
        let graphs = &graph_segs[scope.clone()];
        let rows = || graphs.iter().flat_map(Range::clone);
        let (mu, inv) = (&mu.data[m * c..], &inv_std.data[m * c..]);
        let xh = |i: usize, k: usize| (x.data[i * c + k] - mu[k]) * inv[k];
        let (mut sum_pxh, mut sum_dc) = (vec![0.0f32; c], vec![0.0f32; c]);
        for i in rows() {
            for k in 0..c {
                let gi = g[i * c + k];
                sum_pxh[k] += gi * gamma.data[k] * xh(i, k);
                ggamma[k] += gi * xh(i, k);
                gbeta[k] += gi;
            }
        }
        let inv_n = 1.0 / rows().count() as f32;
        for i in rows() {
            for k in 0..c {
                let p = g[i * c + k] * gamma.data[k];
                let dc = inv[k] * (p - xh(i, k) * sum_pxh[k] * inv_n);
                gx[i * c + k] = dc;
                sum_dc[k] += dc;
            }
        }
        for graph in graphs {
            let share = 1.0 / (graphs.len() * graph.len()) as f32;
            for i in graph.clone() {
                for k in 0..c {
                    gx[i * c + k] -= share * sum_dc[k];
                }
            }
        }
    }
    [gx, ggamma, gbeta]
}

/// Recording executor: each op computes its value on [`crate::kernels`] —
/// the same call [`crate::Eager`] makes — and pushes the [`Op`] its
/// backward needs. A scoped reduction is one node over its fused kernel,
/// differentiated by its own adjoint above.
impl<'s> Exec<'s> for Tape {
    type H = NodeId;

    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), Op::Leaf { param: Some(id) })
    }
    fn input(&mut self, t: &'s Tensor) -> NodeId {
        self.constant(t.clone())
    }
    fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf { param: None })
    }
    fn value<'v>(&'v self, h: &'v NodeId) -> &'v Tensor {
        self.val(*h)
    }

    fn add(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        let t = kernels::add(self.val(*a), self.val(*b));
        self.push(t, Op::Add(*a, *b))
    }
    fn mul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        let t = kernels::mul(self.val(*a), self.val(*b));
        self.push(t, Op::Mul(*a, *b))
    }
    fn scale(&mut self, a: &NodeId, c: f32) -> NodeId {
        let t = kernels::scale(self.val(*a), c);
        self.push(t, Op::Scale(*a, c))
    }
    fn add_const(&mut self, a: &NodeId, c: f32) -> NodeId {
        let t = kernels::add_const(self.val(*a), c);
        self.push(t, Op::AddConst(*a, c))
    }
    fn add_rowvec(&mut self, m: &NodeId, v: &NodeId) -> NodeId {
        let t = kernels::add_rowvec(self.val(*m), self.val(*v));
        self.push(t, Op::AddRowVec(*m, *v))
    }
    fn mul_colvec(&mut self, m: &NodeId, v: &NodeId) -> NodeId {
        let t = kernels::mul_colvec(self.val(*m), self.val(*v));
        self.push(t, Op::MulColVec(*m, *v))
    }
    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        let t = kernels::matmul(self.val(*a), self.val(*b));
        self.push(t, Op::MatMul(*a, *b))
    }
    fn sigmoid(&mut self, a: &NodeId) -> NodeId {
        let t = kernels::sigmoid(self.val(*a));
        self.push(t, Op::Sigmoid(*a))
    }
    fn tanh(&mut self, a: NodeId) -> NodeId {
        let t = kernels::tanh(self.val(a));
        self.push(t, Op::Tanh(a))
    }
    fn relu(&mut self, a: &NodeId) -> NodeId {
        let t = kernels::relu(self.val(*a));
        self.push(t, Op::Relu(*a))
    }
    fn leaky_relu(&mut self, a: &NodeId, slope: f32) -> NodeId {
        let t = kernels::leaky_relu(self.val(*a), slope);
        self.push(t, Op::LeakyRelu(*a, slope))
    }
    /// The forward value is bit-identical to the composed primitive route;
    /// the backward is the op's own analytic gradient rather than nine
    /// chained adjoints.
    fn layer_norm(&mut self, x: &NodeId, gamma: &NodeId, beta: &NodeId, eps: f32) -> NodeId {
        let t = kernels::layer_norm(self.val(*x), self.val(*gamma), self.val(*beta), eps);
        self.push(t, Op::LayerNorm(*x, *gamma, *beta, eps))
    }

    fn concat_cols(&mut self, parts: &[&NodeId]) -> NodeId {
        let ids: Vec<NodeId> = parts.iter().map(|&&p| p).collect();
        let t = kernels::concat_cols(&ids.iter().map(|&p| self.val(p)).collect::<Vec<_>>());
        self.push(t, Op::ConcatCols(ids))
    }
    fn select_cols(&mut self, a: &NodeId, start: usize, len: usize) -> NodeId {
        let t = kernels::select_cols(self.val(*a), start, len);
        self.push(t, Op::SelectCols(*a, start, len))
    }
    fn concat_rows(&mut self, parts: &[&NodeId]) -> NodeId {
        let ids: Vec<NodeId> = parts.iter().map(|&&p| p).collect();
        let t = kernels::concat_rows(&ids.iter().map(|&p| self.val(p)).collect::<Vec<_>>());
        self.push(t, Op::ConcatRows(ids))
    }
    fn select_rows(&mut self, a: &NodeId, start: usize, len: usize) -> NodeId {
        let t = kernels::select_rows(self.val(*a), start, len);
        self.push(t, Op::SelectRows(*a, start, len))
    }
    fn gather_rows(&mut self, table: &NodeId, indices: &[usize]) -> NodeId {
        let t = kernels::gather_rows(self.val(*table), indices);
        self.push(t, Op::GatherRows(*table, Arc::new(indices.to_vec())))
    }

    fn edge_scores(&mut self, src: &NodeId, dst: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        let t = kernels::edge_scores(self.val(*src), self.val(*dst), csr);
        self.push(t, Op::EdgeScores(*src, *dst, Arc::clone(csr)))
    }
    fn segmented_softmax(&mut self, scores: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        let t = kernels::segmented_softmax(self.val(*scores), csr);
        self.push(t, Op::SegmentedSoftmax(*scores, Arc::clone(csr)))
    }
    fn neighbor_sum(&mut self, alphas: &NodeId, feats: &NodeId, csr: &Arc<GraphCsr>) -> NodeId {
        let t = kernels::neighbor_sum(self.val(*alphas), self.val(*feats), csr);
        self.push(t, Op::NeighborSum(*alphas, *feats, Arc::clone(csr)))
    }

    fn segmented_self_attention(
        &mut self,
        q: &NodeId,
        k: &NodeId,
        v: &NodeId,
        segs: &[Range<usize>],
        scale: f32,
    ) -> NodeId {
        let (tq, tk, tv) = (self.val(*q), self.val(*k), self.val(*v));
        let t = kernels::segmented_self_attention(tq, tk, tv, segs, scale);
        let op = Op::SegmentedSelfAttention(*q, *k, *v, segs.into(), scale);
        self.push(t, op)
    }

    fn segmented_additive_attention(
        &mut self,
        hk: &NodeId,
        gq: &NodeId,
        v: &NodeId,
        keys: &NodeId,
        segs: &[Range<usize>],
    ) -> NodeId {
        let [thk, tgq, tv, tkeys] = [hk, gq, v, keys].map(|&id| self.val(id));
        let t = kernels::segmented_additive_attention(thk, tgq, tv, tkeys, segs);
        let op = Op::SegmentedAdditiveAttention(*hk, *gq, *v, *keys, segs.into());
        self.push(t, op)
    }

    fn segmented_mean_rows(&mut self, a: &NodeId, segs: &[Range<usize>]) -> NodeId {
        let t = kernels::segmented_mean_rows(self.val(*a), segs);
        let w = segs
            .iter()
            .flat_map(|seg| std::iter::repeat_n(1.0 / seg.len() as f32, seg.len()));
        self.push(t, Op::Pool(*a, Arc::new(w.collect()), segs.into()))
    }

    fn segmented_weighted_mean_rows(
        &mut self,
        a: &NodeId,
        weights: &[f32],
        segs: &[Range<usize>],
    ) -> NodeId {
        let t = kernels::segmented_weighted_mean_rows(self.val(*a), weights, segs);
        let mut off = 0;
        let w = segs.iter().flat_map(|seg| {
            off += seg.len();
            kernels::normalized_weights(seg.len(), &weights[off - seg.len()..off])
        });
        self.push(t, Op::Pool(*a, Arc::new(w.collect()), segs.into()))
    }

    /// Statistics are differentiated exactly, matching the training-time
    /// behaviour of batch norm.
    fn segmented_norm(
        &mut self,
        x: &NodeId,
        gamma: &NodeId,
        beta: &NodeId,
        graph_segs: &[Range<usize>],
        scopes: &[Range<usize>],
        row_to_scope: &[usize],
        eps: f32,
    ) -> NodeId {
        let [tx, tg, tb] = [x, gamma, beta].map(|&id| self.val(id));
        let t = kernels::segmented_norm(tx, tg, tb, graph_segs, scopes, row_to_scope, eps);
        let op = Op::SegmentedNorm(*x, *gamma, *beta, graph_segs.into(), scopes.into(), eps);
        self.push(t, op)
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
        let tr_rep = self.gather_rows(tr, row_to_point);
        let a_rep = self.gather_rows(a, row_to_point);
        let s = self.add(&a_rep, b);
        let s = self.add_rowvec(&s, bz);
        let gate = self.sigmoid(&s);
        let take_tr = self.mul(&gate, &tr_rep);
        let neg = self.scale(&gate, -1.0);
        let inv_gate = self.add_const(&neg, 1.0);
        let keep_z = self.mul(&inv_gate, z);
        self.add(&take_tr, &keep_z)
    }
}
