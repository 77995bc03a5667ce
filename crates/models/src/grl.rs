//! Graph Refinement Layer (Section IV-D): gated fusion + graph forward +
//! graph normalisation, with ablation switches for Table V.
//!
//! Besides the tape `forward`, every sub-module has a tape-free
//! **batched** twin operating on one stacked `[Σn, d]` feature matrix for
//! a whole micro-batch of trajectories: projections run as single stacked
//! matmuls, the GAT pass runs over a block-diagonal CSR union of every
//! point's sub-graph, and GraphNorm's statistics stay **scoped per
//! member** through `kernels::segmented_norm_stats` — so batched refinement
//! is bit-identical to refining each trajectory alone, the invariant the
//! serving engine's batching contract rests on.

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::graph_layers::GatLayer;
use crate::layers::{FeedForward, LayerNorm, Linear};
use rntrajrec_nn::{kernels, GraphCsr, Init, NodeId, ParamId, ParamStore, Tape, Tensor};

/// Gated fusion (Eq. 7): adaptively mix the transformer output `tr_i`
/// (temporal) into every node of the point's sub-graph (spatial):
/// `z = σ(t̂r·W_z1 + Z·W_z2 + b_z)`, `Z̃ = z ⊙ t̂r + (1-z) ⊙ Z`.
#[derive(Debug, Clone)]
pub struct GatedFusion {
    wz1: ParamId,
    wz2: ParamId,
    bz: ParamId,
    pub dim: usize,
}

impl GatedFusion {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            wz1: store.add(format!("{name}.wz1"), dim, dim, Init::Xavier, rng),
            wz2: store.add(format!("{name}.wz2"), dim, dim, Init::Xavier, rng),
            bz: store.add(format!("{name}.bz"), 1, dim, Init::Zeros, rng),
            dim,
        }
    }

    /// `tr: [1,d]` (one timestamp), `z: [n,d]` (its sub-graph nodes).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, tr: NodeId, z: NodeId) -> NodeId {
        let n = tape.value(z).rows;
        let tr_rep = tape.repeat_rows(tr, n);
        let wz1 = tape.param(store, self.wz1);
        let wz2 = tape.param(store, self.wz2);
        let bz = tape.param(store, self.bz);
        let a = tape.matmul(tr_rep, wz1);
        let b = tape.matmul(z, wz2);
        let s = tape.add(a, b);
        let s = tape.add_rowvec(s, bz);
        let gate = tape.sigmoid(s);
        let take_tr = tape.mul(gate, tr_rep);
        let neg = tape.scale(gate, -1.0);
        let inv_gate = tape.add_const(neg, 1.0);
        let keep_z = tape.mul(inv_gate, z);
        tape.add(take_tr, keep_z)
    }

    /// Batched tape-free fusion over a whole stack: `tr_points` holds one
    /// `[1, d]` transformer row per point (`[P, d]`), `z` the stacked
    /// sub-graph features `[Σn, d]`, and `row_to_point[r]` the owning
    /// point of stacked row `r`. Both weight projections run as **one**
    /// matmul each (`W_z1` over the `P` point rows, then broadcast by a
    /// pure row-gather — matmul rows are independent, so projecting before
    /// repeating is bit-identical to repeating before projecting); the
    /// gate arithmetic is element-wise, so every row matches
    /// [`GatedFusion::forward`] on the point's own sub-graph exactly.
    pub fn infer_batch(
        &self,
        store: &ParamStore,
        tr_points: &Tensor,
        z: &Tensor,
        row_to_point: &[usize],
    ) -> Tensor {
        let tr_rep = kernels::gather_rows(tr_points, row_to_point);
        let a = kernels::gather_rows(
            &kernels::matmul(tr_points, store.value(self.wz1)),
            row_to_point,
        );
        let b = kernels::matmul(z, store.value(self.wz2));
        let s = kernels::add_rowvec(&kernels::add(&a, &b), store.value(self.bz));
        // Fused σ(s)⊙tr + (1−σ(s))⊙z epilogue: one pass over the stack
        // instead of five (bit-identical to the composed chain).
        kernels::gated_blend(&s, &tr_rep, z)
    }
}

/// Graph normalisation (Eq. 8–9): batch-norm for graph features with
/// temporal dependency. `μ_B` is the mean of the *graph-pooled* features
/// over the mini-batch; `σ_B` is the variance of all node features around
/// `μ_B`; every node feature is normalised and affinely transformed.
///
/// Statistics are differentiated exactly (they are composed from primitive
/// autograd ops), matching the training-time behaviour of batch norm.
#[derive(Debug, Clone)]
pub struct GraphNorm {
    gamma: ParamId,
    beta: ParamId,
    pub dim: usize,
    pub eps: f32,
}

impl GraphNorm {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            gamma: store.add(format!("{name}.gamma"), 1, dim, Init::Ones, rng),
            beta: store.add(format!("{name}.beta"), 1, dim, Init::Zeros, rng),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalise a mini-batch of sub-graph feature matrices jointly.
    /// `zs[k]` is `[n_k, d]`; returns matrices of identical shapes.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, zs: &[NodeId]) -> Vec<NodeId> {
        assert!(!zs.is_empty());
        // Eq. (8): per-graph mean pooling.
        let means: Vec<NodeId> = zs.iter().map(|&z| tape.mean_rows(z)).collect();
        let m = tape.concat_rows(&means); // [B·lτ, d]
        let mu = tape.mean_rows(m); // [1, d]
                                    // Eq. (9): variance of all node features around μ_B.
        let big = tape.concat_rows(zs); // [Σn_k, d]
        let neg_mu = tape.scale(mu, -1.0);
        let centered = tape.add_rowvec(big, neg_mu);
        let sq = tape.mul(centered, centered);
        let var = tape.mean_rows(sq); // [1, d]
        let var = tape.add_const(var, self.eps);
        let std = tape.sqrt(var);
        let inv = tape.recip(std);
        let norm = tape.mul_rowvec(centered, inv);
        let gamma = tape.param(store, self.gamma);
        let beta = tape.param(store, self.beta);
        let scaled = tape.mul_rowvec(norm, gamma);
        let out = tape.add_rowvec(scaled, beta);
        // Slice back to the per-graph shapes.
        let mut res = Vec::with_capacity(zs.len());
        let mut off = 0;
        for &z in zs {
            let n = tape.value(z).rows;
            res.push(tape.select_rows(out, off, n));
            off += n;
        }
        res
    }

    /// Batched tape-free GraphNorm over a stacked micro-batch, statistics
    /// **scoped per member**: `stacked` is `[Σn, d]`, `graph_segs[g]` the
    /// row range of sub-graph `g`, `members[m]` the range of graph indices
    /// owned by member `m`, and `row_to_member[r]` the owning member of
    /// stacked row `r`. `kernels::segmented_norm_stats` computes each
    /// member's `μ`/`1/σ` exactly as [`GraphNorm::forward`] would over that
    /// member's graphs alone (a training batch of just that trajectory);
    /// the normalise-and-affine chain (`(x + (−μ))·invσ·γ + β`, one
    /// rounding per step) then runs element-wise over the whole stack — so
    /// a member's output rows are bit-identical regardless of what else
    /// shares the batch.
    pub fn infer_segments(
        &self,
        store: &ParamStore,
        stacked: &Tensor,
        graph_segs: &[Range<usize>],
        members: &[Range<usize>],
        row_to_member: &[usize],
    ) -> Tensor {
        let (mu, inv) = kernels::segmented_norm_stats(stacked, graph_segs, members, self.eps);
        // Fused normalise-and-affine pass (one traversal; bit-identical to
        // the broadcast-and-compose route).
        kernels::segmented_norm_apply(
            stacked,
            &mu,
            &inv,
            row_to_member,
            store.value(self.gamma),
            store.value(self.beta),
        )
    }
}

/// Which normaliser a GRL sub-layer uses (Table V `w/o GN`).
#[derive(Debug, Clone)]
enum Norm {
    Graph(GraphNorm),
    Layer(LayerNorm),
}

impl Norm {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, zs: &[NodeId]) -> Vec<NodeId> {
        match self {
            Norm::Graph(gn) => gn.forward(tape, store, zs),
            Norm::Layer(ln) => zs.iter().map(|&z| ln.forward(tape, store, z)).collect(),
        }
    }

    /// Batched twin over a stacked micro-batch: GraphNorm scopes its
    /// statistics per member; LayerNorm is row-local, so the stacked call
    /// is already exact.
    fn infer_batch(&self, store: &ParamStore, stacked: &Tensor, layout: &GrlBatchLayout) -> Tensor {
        match self {
            Norm::Graph(gn) => gn.infer_segments(
                store,
                stacked,
                &layout.point_segs,
                &layout.members,
                &layout.row_to_member,
            ),
            Norm::Layer(ln) => ln.infer(store, stacked),
        }
    }
}

/// Ablation switches for the graph refinement layer (Table V).
#[derive(Debug, Clone, Copy)]
pub struct GrlConfig {
    pub dim: usize,
    /// GAT layers `P` in graph forward (paper: 1).
    pub gat_layers: usize,
    pub heads: usize,
    /// `false` → `w/o GF`: concat + feed-forward instead of gated fusion.
    pub gated_fusion: bool,
    /// `false` → `w/o GAT`: feed-forward instead of graph attention.
    pub gat: bool,
    /// `false` → `w/o GN`: layer norm instead of graph norm.
    pub graph_norm: bool,
}

impl GrlConfig {
    pub fn new(dim: usize, heads: usize) -> Self {
        Self {
            dim,
            gat_layers: 1,
            heads,
            gated_fusion: true,
            gat: true,
            graph_norm: true,
        }
    }
}

/// Row/graph layout of a fused GRL micro-batch: one stacked `[Σn, d]`
/// feature matrix holding every member's per-point sub-graphs in order.
/// Built once per batch (shapes never change across GPSFormer blocks) and
/// shared by every [`GraphRefinementLayer::infer_batch`] call.
pub struct GrlBatchLayout {
    /// Row range of each point's sub-graph in the stack (one per point,
    /// members' points concatenated in order).
    pub point_segs: Vec<Range<usize>>,
    /// For each member, its range of point indices into `point_segs` —
    /// the scope of that member's GraphNorm statistics.
    pub members: Vec<Range<usize>>,
    /// Stacked row → owning point index (broadcast gathers).
    pub row_to_point: Vec<usize>,
    /// Stacked row → owning member index (normalisation broadcasts).
    pub row_to_member: Vec<usize>,
    /// Block-diagonal union of every point's sub-graph adjacency: the GAT
    /// pass runs once over the union, and because every CSR kernel reduces
    /// per destination-node segment, union results equal per-graph results
    /// bit-for-bit.
    pub union_csr: Arc<GraphCsr>,
}

impl GrlBatchLayout {
    /// Assemble the layout from each member's per-point sub-graphs
    /// (`members_graphs[m]` lists member `m`'s `(rows, csr)` per point, in
    /// point order).
    pub fn new(members_graphs: &[Vec<(usize, Arc<GraphCsr>)>]) -> Self {
        let mut point_segs = Vec::new();
        let mut members = Vec::new();
        let mut row_to_point = Vec::new();
        let mut row_to_member = Vec::new();
        let mut csrs: Vec<Arc<GraphCsr>> = Vec::new();
        let mut row = 0usize;
        for (m, graphs) in members_graphs.iter().enumerate() {
            let first_point = point_segs.len();
            for &(rows, ref csr) in graphs {
                let point = point_segs.len();
                point_segs.push(row..row + rows);
                row_to_point.extend(std::iter::repeat_n(point, rows));
                row_to_member.extend(std::iter::repeat_n(m, rows));
                csrs.push(Arc::clone(csr));
                row += rows;
            }
            members.push(first_point..point_segs.len());
        }
        let union_csr = Arc::new(GraphCsr::block_diagonal(csrs.iter().map(Arc::as_ref)));
        Self {
            point_segs,
            members,
            row_to_point,
            row_to_member,
            union_csr,
        }
    }

    /// Total stacked rows `Σn`.
    pub fn total_rows(&self) -> usize {
        self.row_to_point.len()
    }
}

/// The graph refinement layer: the spatial half of each GPSFormer block.
pub struct GraphRefinementLayer {
    fusion: Option<GatedFusion>,
    /// `w/o GF` replacement: FFN over `[tr ∥ z]`.
    fusion_ffn: Option<Linear>,
    gats: Vec<GatLayer>,
    /// `w/o GAT` replacement.
    forward_ffn: Option<FeedForward>,
    norm1: Norm,
    norm2: Norm,
    pub config: GrlConfig,
}

impl GraphRefinementLayer {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, config: GrlConfig) -> Self {
        let d = config.dim;
        let (fusion, fusion_ffn) = if config.gated_fusion {
            (
                Some(GatedFusion::new(store, rng, &format!("{name}.gf"), d)),
                None,
            )
        } else {
            (
                None,
                Some(Linear::new(
                    store,
                    rng,
                    &format!("{name}.gf_ffn"),
                    2 * d,
                    d,
                    true,
                )),
            )
        };
        let (gats, forward_ffn) = if config.gat {
            (
                (0..config.gat_layers)
                    .map(|l| {
                        GatLayer::new(store, rng, &format!("{name}.gat{l}"), d, d, config.heads)
                    })
                    .collect(),
                None,
            )
        } else {
            (
                Vec::new(),
                Some(FeedForward::new(
                    store,
                    rng,
                    &format!("{name}.fwd_ffn"),
                    d,
                    2 * d,
                )),
            )
        };
        let mk_norm = |store: &mut ParamStore, rng: &mut StdRng, n: String| {
            if config.graph_norm {
                Norm::Graph(GraphNorm::new(store, rng, &n, d))
            } else {
                Norm::Layer(LayerNorm::new(store, rng, &n, d))
            }
        };
        let norm1 = mk_norm(store, rng, format!("{name}.norm1"));
        let norm2 = mk_norm(store, rng, format!("{name}.norm2"));
        Self {
            fusion,
            fusion_ffn,
            gats,
            forward_ffn,
            norm1,
            norm2,
            config,
        }
    }

    /// Refine a mini-batch of sub-graphs.
    ///
    /// * `tr_rows[k]`: the transformer output `[1,d]` for point `k`,
    /// * `zs[k]`: its sub-graph features `[n_k, d]`,
    /// * `csrs[k]`: its sub-graph adjacency.
    ///
    /// Returns the refined `[n_k, d]` matrices (same shapes — the module is
    /// stackable, Section II advantage iii).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tr_rows: &[NodeId],
        zs: &[NodeId],
        csrs: &[Arc<GraphCsr>],
    ) -> Vec<NodeId> {
        assert_eq!(tr_rows.len(), zs.len());
        assert_eq!(zs.len(), csrs.len());
        // Sub-layer 1: GraphNorm(x + GatedFusion(x)).
        let fused: Vec<NodeId> = zs
            .iter()
            .zip(tr_rows)
            .map(|(&z, &tr)| {
                let f = match (&self.fusion, &self.fusion_ffn) {
                    (Some(gf), _) => gf.forward(tape, store, tr, z),
                    (None, Some(ffn)) => {
                        let n = tape.value(z).rows;
                        let tr_rep = tape.repeat_rows(tr, n);
                        let cat = tape.concat_cols(&[tr_rep, z]);
                        let y = ffn.forward(tape, store, cat);
                        tape.relu(y)
                    }
                    _ => unreachable!(),
                };
                tape.add(z, f)
            })
            .collect();
        let x = self.norm1.forward(tape, store, &fused);

        // Sub-layer 2: GraphNorm(x + GraphForward(x)).
        let refined: Vec<NodeId> = x
            .iter()
            .zip(csrs)
            .map(|(&xi, csr)| {
                let f = if let Some(ffn) = &self.forward_ffn {
                    ffn.forward(tape, store, xi)
                } else {
                    let mut h = xi;
                    for gat in &self.gats {
                        h = gat.forward(tape, store, h, csr);
                    }
                    h
                };
                tape.add(xi, f)
            })
            .collect();
        self.norm2.forward(tape, store, &refined)
    }

    /// Batched tape-free twin of [`GraphRefinementLayer::forward`] over one
    /// stacked `[Σn, d]` matrix: `tr_points` carries each point's `[1, d]`
    /// transformer row (`[P, d]`), `z` the stacked sub-graph features,
    /// `layout` the member/point scoping. Gated fusion and the FFN
    /// variants run as stacked matmuls, the GAT pass runs once over the
    /// block-diagonal CSR union, and both norms scope their statistics per
    /// member — every output row bit-identical to refining the member
    /// alone (the encoder-parity proptest pins this end to end).
    pub fn infer_batch(
        &self,
        store: &ParamStore,
        tr_points: &Tensor,
        z: &Tensor,
        layout: &GrlBatchLayout,
    ) -> Tensor {
        assert_eq!(tr_points.rows, layout.point_segs.len());
        assert_eq!(z.rows, layout.total_rows());
        // Sub-layer 1: Norm(z + Fusion(tr, z)).
        let f = match (&self.fusion, &self.fusion_ffn) {
            (Some(gf), _) => gf.infer_batch(store, tr_points, z, &layout.row_to_point),
            (None, Some(ffn)) => {
                let tr_rep = kernels::gather_rows(tr_points, &layout.row_to_point);
                let cat = kernels::concat_cols(&[&tr_rep, z]);
                kernels::relu(&ffn.infer(store, &cat))
            }
            _ => unreachable!(),
        };
        let fused = kernels::add(z, &f);
        let x = self.norm1.infer_batch(store, &fused, layout);

        // Sub-layer 2: Norm(x + GraphForward(x)).
        let f = if let Some(ffn) = &self.forward_ffn {
            ffn.infer(store, &x)
        } else {
            let mut h = x.clone();
            for gat in &self.gats {
                h = gat.infer(store, &h, &layout.union_csr);
            }
            h
        };
        let refined = kernels::add(&x, &f);
        self.norm2.infer_batch(store, &refined, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::Tensor;

    fn csr(n: usize) -> Arc<GraphCsr> {
        // Simple path graph.
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        Arc::new(GraphCsr::from_neighbor_lists(&lists, true))
    }

    #[test]
    fn gated_fusion_blends_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gf = GatedFusion::new(&mut store, &mut rng, "gf", 4);
        let mut tape = Tape::new();
        let tr = tape.leaf(Tensor::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]));
        let z = tape.leaf(Tensor::zeros(3, 4));
        let out = gf.forward(&mut tape, &store, tr, z);
        let v = tape.value(out);
        assert_eq!(v.shape(), (3, 4));
        // With zero bias the gate starts near 0.5: output strictly between
        // the two inputs (0 and 1).
        assert!(v.data.iter().all(|&x| x > 0.0 && x < 1.0), "{:?}", v.data);
    }

    #[test]
    fn graph_norm_standardises_the_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gn = GraphNorm::new(&mut store, &mut rng, "gn", 3);
        let mut tape = Tape::new();
        let z1 = tape.leaf(Tensor::from_vec(
            2,
            3,
            vec![10.0, -4.0, 3.0, 14.0, -8.0, 5.0],
        ));
        let z2 = tape.leaf(Tensor::from_vec(
            3,
            3,
            vec![6.0, 0.0, 1.0, 8.0, -2.0, 7.0, 12.0, -6.0, 3.0],
        ));
        let out = gn.forward(&mut tape, &store, &[z1, z2]);
        assert_eq!(out.len(), 2);
        assert_eq!(tape.value(out[0]).shape(), (2, 3));
        assert_eq!(tape.value(out[1]).shape(), (3, 3));
        // Concatenated output: near-zero variance shift (gamma=1, beta=0 at
        // init) — check each column has ~unit std around the pooled mean.
        let all: Vec<f32> = tape
            .value(out[0])
            .data
            .iter()
            .chain(&tape.value(out[1]).data)
            .copied()
            .collect();
        for c in 0..3 {
            let col: Vec<f32> = all.iter().skip(c).step_by(3).copied().collect();
            let var: f32 = col.iter().map(|x| x * x).sum::<f32>() / col.len() as f32;
            assert!((0.3..3.0).contains(&var), "col {c} var {var}");
        }
    }

    #[test]
    fn grl_preserves_shapes_all_variants() {
        for (gf, gat, gn) in [
            (true, true, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut store = ParamStore::new();
            let cfg = GrlConfig {
                dim: 8,
                gat_layers: 1,
                heads: 2,
                gated_fusion: gf,
                gat,
                graph_norm: gn,
            };
            let grl = GraphRefinementLayer::new(&mut store, &mut rng, "grl", cfg);
            let mut tape = Tape::new();
            let tr1 = tape.leaf(Tensor::uniform(1, 8, 1.0, &mut rng));
            let tr2 = tape.leaf(Tensor::uniform(1, 8, 1.0, &mut rng));
            let z1 = tape.leaf(Tensor::uniform(4, 8, 1.0, &mut rng));
            let z2 = tape.leaf(Tensor::uniform(2, 8, 1.0, &mut rng));
            let out = grl.forward(&mut tape, &store, &[tr1, tr2], &[z1, z2], &[csr(4), csr(2)]);
            assert_eq!(
                tape.value(out[0]).shape(),
                (4, 8),
                "variant {gf}/{gat}/{gn}"
            );
            assert_eq!(tape.value(out[1]).shape(), (2, 8));
            assert!(tape.value(out[0]).all_finite());
        }
    }

    #[test]
    fn grl_is_stackable() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cfg = GrlConfig::new(8, 2);
        let a = GraphRefinementLayer::new(&mut store, &mut rng, "a", cfg);
        let b = GraphRefinementLayer::new(&mut store, &mut rng, "b", cfg);
        let mut tape = Tape::new();
        let tr = tape.leaf(Tensor::uniform(1, 8, 1.0, &mut rng));
        let z = tape.leaf(Tensor::uniform(3, 8, 1.0, &mut rng));
        let c = csr(3);
        let out1 = a.forward(&mut tape, &store, &[tr], &[z], std::slice::from_ref(&c));
        let out2 = b.forward(&mut tape, &store, &[tr], &[out1[0]], &[c]);
        assert_eq!(tape.value(out2[0]).shape(), (3, 8));
    }

    #[test]
    fn grl_gradients_reach_fusion_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let cfg = GrlConfig::new(8, 2);
        let grl = GraphRefinementLayer::new(&mut store, &mut rng, "g", cfg);
        let mut tape = Tape::new();
        let tr = tape.leaf(Tensor::uniform(1, 8, 1.0, &mut rng));
        let z = tape.leaf(Tensor::uniform(3, 8, 1.0, &mut rng));
        let out = grl.forward(&mut tape, &store, &[tr], &[z], &[csr(3)]);
        let loss = tape.mean_all(out[0]);
        store.zero_grad();
        tape.backward(loss, &mut store);
        let gf = grl.fusion.as_ref().unwrap();
        assert!(store.grad(gf.wz1).data.iter().any(|&g| g != 0.0));
        assert!(store.grad(gf.wz2).data.iter().any(|&g| g != 0.0));
    }
}
