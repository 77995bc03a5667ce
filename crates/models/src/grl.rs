//! Graph Refinement Layer (Section IV-D): gated fusion + graph forward +
//! graph normalisation, with ablation switches for Table V.
//!
//! Every sub-module is written once, over an [`Exec`] executor, on one
//! stacked `[Σn, d]` feature matrix holding the per-point sub-graphs of a
//! whole batch ([`GrlBatchLayout`]): projections run as single stacked
//! matmuls and the GAT pass runs over a block-diagonal CSR union of every
//! point's sub-graph. What the stack must not mix is GraphNorm's
//! statistics (Eq. 8–9 are *batch* statistics), so their scope is part of
//! the layout: **the whole mini-batch in training** (one scope — the
//! paper's batch norm over graphs), **one member in serving** (one scope
//! per request — so batched refinement is bit-identical to refining each
//! trajectory alone, the invariant the serving engine's batching contract
//! rests on).

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::graph_layers::GatLayer;
use crate::layers::{FeedForward, LayerNorm, Linear};
use rntrajrec_nn::{Exec, GraphCsr, Init, ParamId, ParamStore};

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

    /// Fusion over a whole stack: `tr_points` holds one `[1, d]`
    /// transformer row per point (`[P, d]`), `z` the stacked sub-graph
    /// features `[Σn, d]`, and `row_to_point[r]` the owning point of
    /// stacked row `r`. Both weight projections run as **one** matmul each
    /// — `W_z1` over the `P` point rows, not the `Σn` repeated ones: matmul
    /// rows are independent, so projecting before broadcasting is
    /// bit-identical to broadcasting before projecting — and the broadcast,
    /// the bias and the gate arithmetic are one op
    /// ([`Exec::gated_fusion`]).
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        tr_points: &E::H,
        z: &E::H,
        row_to_point: &[usize],
    ) -> E::H {
        let wz1 = ex.param(store, self.wz1);
        let wz2 = ex.param(store, self.wz2);
        let bz = ex.param(store, self.bz);
        let a = ex.matmul(tr_points, &wz1);
        let b = ex.matmul(z, &wz2);
        ex.gated_fusion(&a, &b, &bz, tr_points, z, row_to_point)
    }
}

/// Graph normalisation (Eq. 8–9): batch-norm for graph features with
/// temporal dependency. `μ` is the mean of the *graph-pooled* features
/// over a scope of graphs; `σ` is the variance of all the scope's node
/// features around `μ`; every node feature is normalised and affinely
/// transformed. The scope is the layout's (see the module docs).
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

    /// Normalise the stacked sub-graph features `[Σn, d]` within each of
    /// the layout's scopes ([`Exec::segmented_norm`]); a scope's output
    /// rows do not depend on what else shares the stack.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        stacked: &E::H,
        layout: &GrlBatchLayout,
    ) -> E::H {
        let gamma = ex.param(store, self.gamma);
        let beta = ex.param(store, self.beta);
        ex.segmented_norm(
            stacked,
            &gamma,
            &beta,
            &layout.point_segs,
            &layout.scopes,
            &layout.row_to_scope,
            self.eps,
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
    /// GraphNorm scopes its statistics by the layout; LayerNorm is
    /// row-local, so the stacked call is already exact.
    fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        stacked: &E::H,
        layout: &GrlBatchLayout,
    ) -> E::H {
        match self {
            Norm::Graph(gn) => gn.forward(ex, store, stacked, layout),
            Norm::Layer(ln) => ln.forward(ex, store, stacked),
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

/// Row/graph layout of a stacked GRL batch: one `[Σn, d]` feature matrix
/// holding every point's sub-graph in order. Built once per batch (shapes
/// never change across GPSFormer blocks) and shared by every
/// [`GraphRefinementLayer::forward`] call.
pub struct GrlBatchLayout {
    /// Row range of each point's sub-graph in the stack (one per point,
    /// members' points concatenated in order).
    pub point_segs: Vec<Range<usize>>,
    /// GraphNorm scopes: ranges of point indices into `point_segs` whose
    /// graphs are normalised jointly.
    pub scopes: Vec<Range<usize>>,
    /// Stacked row → owning point index (broadcast gathers).
    pub row_to_point: Vec<usize>,
    /// Stacked row → owning scope index (normalisation broadcasts).
    pub row_to_scope: Vec<usize>,
    /// Block-diagonal union of every point's sub-graph adjacency: the GAT
    /// pass runs once over the union, and because every CSR kernel reduces
    /// per destination-node segment, union results equal per-graph results
    /// bit-for-bit.
    pub union_csr: Arc<GraphCsr>,
}

impl GrlBatchLayout {
    /// Assemble the layout from the per-point sub-graphs of each GraphNorm
    /// scope (`scope_graphs[m]` lists scope `m`'s `(rows, csr)` per point,
    /// in point order): one entry per request when serving, a single entry
    /// holding the whole mini-batch when training.
    pub fn new(scope_graphs: &[Vec<(usize, Arc<GraphCsr>)>]) -> Self {
        let mut point_segs = Vec::new();
        let mut scopes = Vec::new();
        let mut row_to_point = Vec::new();
        let mut row_to_scope = Vec::new();
        let mut csrs: Vec<Arc<GraphCsr>> = Vec::new();
        let mut row = 0usize;
        for (m, graphs) in scope_graphs.iter().enumerate() {
            let first_point = point_segs.len();
            for &(rows, ref csr) in graphs {
                let point = point_segs.len();
                point_segs.push(row..row + rows);
                row_to_point.extend(std::iter::repeat_n(point, rows));
                row_to_scope.extend(std::iter::repeat_n(m, rows));
                csrs.push(Arc::clone(csr));
                row += rows;
            }
            scopes.push(first_point..point_segs.len());
        }
        let union_csr = Arc::new(GraphCsr::block_diagonal(csrs.iter().map(Arc::as_ref)));
        Self {
            point_segs,
            scopes,
            row_to_point,
            row_to_scope,
            union_csr,
        }
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

    /// Refine every sub-graph of a batch over one stacked `[Σn, d]`
    /// matrix: `tr_points` carries each point's `[1, d]` transformer row
    /// (`[P, d]`), `z` the stacked sub-graph features, `layout` the
    /// point/scope structure. Gated fusion and the FFN variants run as
    /// stacked matmuls, the GAT pass runs once over the block-diagonal CSR
    /// union, and both norms scope their statistics by the layout.
    ///
    /// Returns the refined `[Σn, d]` matrix (same shape — the module is
    /// stackable, Section II advantage iii).
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        tr_points: &E::H,
        z: &E::H,
        layout: &GrlBatchLayout,
    ) -> E::H {
        // Sub-layer 1: Norm(z + Fusion(tr, z)).
        let f = match (&self.fusion, &self.fusion_ffn) {
            (Some(gf), _) => gf.forward(ex, store, tr_points, z, &layout.row_to_point),
            (None, Some(ffn)) => {
                let tr_rep = ex.gather_rows(tr_points, &layout.row_to_point);
                let cat = ex.concat_cols(&[&tr_rep, z]);
                let y = ffn.forward(ex, store, &cat);
                ex.relu(&y)
            }
            _ => unreachable!(),
        };
        let fused = ex.add(z, &f);
        let x = self.norm1.forward(ex, store, &fused, layout);

        // Sub-layer 2: Norm(x + GraphForward(x)).
        let f = match &self.forward_ffn {
            Some(ffn) => Some(ffn.forward(ex, store, &x)),
            None => {
                let mut h = None;
                for gat in &self.gats {
                    let input = h.as_ref().unwrap_or(&x);
                    h = Some(gat.forward(ex, store, input, &layout.union_csr));
                }
                h
            }
        };
        let refined = ex.add(&x, f.as_ref().unwrap_or(&x));
        self.norm2.forward(ex, store, &refined, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Tape, Tensor};

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

    /// One GraphNorm scope over path graphs of the given sizes.
    fn layout(sizes: &[usize]) -> GrlBatchLayout {
        GrlBatchLayout::new(&[sizes.iter().map(|&n| (n, csr(n))).collect()])
    }

    #[test]
    fn gated_fusion_blends_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gf = GatedFusion::new(&mut store, &mut rng, "gf", 4);
        let mut tape = Tape::new();
        let tr = tape.constant(Tensor::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]));
        let z = tape.constant(Tensor::zeros(3, 4));
        let out = gf.forward(&mut tape, &store, &tr, &z, &[0, 0, 0]);
        let v = tape.value(&out);
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
        // Two graphs (2 and 3 nodes) stacked, one scope.
        let z = tape.constant(Tensor::from_vec(
            5,
            3,
            vec![
                10.0, -4.0, 3.0, 14.0, -8.0, 5.0, 6.0, 0.0, 1.0, 8.0, -2.0, 7.0, 12.0, -6.0, 3.0,
            ],
        ));
        let out = gn.forward(&mut tape, &store, &z, &layout(&[2, 3]));
        let all = tape.value(&out);
        assert_eq!(all.shape(), (5, 3));
        // Near-zero variance shift (gamma=1, beta=0 at init) — check each
        // column has ~unit std around the pooled mean.
        for c in 0..3 {
            let col: Vec<f32> = all.data.iter().skip(c).step_by(3).copied().collect();
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
            let tr = tape.constant(Tensor::uniform(2, 8, 1.0, &mut rng));
            let z = tape.constant(Tensor::uniform(6, 8, 1.0, &mut rng));
            let out = grl.forward(&mut tape, &store, &tr, &z, &layout(&[4, 2]));
            assert_eq!(tape.value(&out).shape(), (6, 8), "variant {gf}/{gat}/{gn}");
            assert!(tape.value(&out).all_finite());
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
        let tr = tape.constant(Tensor::uniform(1, 8, 1.0, &mut rng));
        let z = tape.constant(Tensor::uniform(3, 8, 1.0, &mut rng));
        let l = layout(&[3]);
        let out1 = a.forward(&mut tape, &store, &tr, &z, &l);
        let out2 = b.forward(&mut tape, &store, &tr, &out1, &l);
        assert_eq!(tape.value(&out2).shape(), (3, 8));
    }

    #[test]
    fn grl_gradients_reach_fusion_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let cfg = GrlConfig::new(8, 2);
        let grl = GraphRefinementLayer::new(&mut store, &mut rng, "g", cfg);
        let mut tape = Tape::new();
        let tr = tape.constant(Tensor::uniform(1, 8, 1.0, &mut rng));
        let z = tape.constant(Tensor::uniform(3, 8, 1.0, &mut rng));
        let out = grl.forward(&mut tape, &store, &tr, &z, &layout(&[3]));
        let loss = tape.mean_all(out);
        store.zero_grad();
        tape.backward(loss, &mut store);
        let gf = grl.fusion.as_ref().unwrap();
        assert!(store.grad(gf.wz1).data.iter().any(|&g| g != 0.0));
        assert!(store.grad(gf.wz2).data.iter().any(|&g| g != 0.0));
    }
}
