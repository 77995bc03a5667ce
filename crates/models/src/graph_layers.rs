//! Graph neural layers: GAT (Eq. 3–4), GCN and GIN (Fig. 7(a) backbones).
//!
//! Each layer is one `forward` over an [`Exec`] executor — the tape
//! records it for training, the eager executor evaluates it for serving —
//! and either way the numeric work runs on the unified
//! `rntrajrec_nn::kernels` compute core: the per-head feature transforms
//! are row-partitioned matmuls and the CSR gather/scatter (edge scores →
//! segmented softmax → neighbour aggregation) partitions by
//! destination-node segment ranges, so multi-threaded aggregation is
//! bit-identical to the sequential loop. Every CSR op reduces within one
//! destination node's edge segment, so running a layer over a
//! block-diagonal union of graphs (`GraphCsr::block_diagonal`) gives each
//! node exactly its own graph's values.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::layers::Linear;
use rntrajrec_nn::{Exec, GraphCsr, Init, ParamId, ParamStore, Tensor};

/// Multi-head graph attention layer exactly as Eq. (3)–(4):
/// per head `k`, scores `a_ij = softmax_j(LeakyReLU(a_kᵀ[Ŵ_k h_i ∥ Ŵ_k h_j]))`
/// and outputs `∥_k LeakyReLU(Σ_j a_ij W_k h_j)`.
///
/// The paper distinguishes `Ŵ_k` (score transform) from `W_k` (feature
/// transform); both are learned here.
#[derive(Debug, Clone)]
pub struct GatLayer {
    /// Feature transform `W_k` per head.
    w: Vec<ParamId>,
    /// Score transform `Ŵ_k` per head.
    w_hat: Vec<ParamId>,
    /// Attention vector halves: `a_k = [a_src ∥ a_dst]`.
    a_src: Vec<ParamId>,
    a_dst: Vec<ParamId>,
    pub heads: usize,
    pub in_dim: usize,
    pub out_dim: usize,
    pub slope: f32,
}

impl GatLayer {
    /// `out_dim` must be divisible by `heads`; each head produces
    /// `out_dim / heads` features which are concatenated.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        heads: usize,
    ) -> Self {
        assert!(
            out_dim.is_multiple_of(heads),
            "out_dim {out_dim} must divide into {heads} heads"
        );
        let dh = out_dim / heads;
        let mut w = Vec::with_capacity(heads);
        let mut w_hat = Vec::with_capacity(heads);
        let mut a_src = Vec::with_capacity(heads);
        let mut a_dst = Vec::with_capacity(heads);
        for k in 0..heads {
            w.push(store.add(format!("{name}.w{k}"), in_dim, dh, Init::Xavier, rng));
            w_hat.push(store.add(format!("{name}.what{k}"), in_dim, dh, Init::Xavier, rng));
            a_src.push(store.add(format!("{name}.asrc{k}"), dh, 1, Init::Xavier, rng));
            a_dst.push(store.add(format!("{name}.adst{k}"), dh, 1, Init::Xavier, rng));
        }
        Self {
            w,
            w_hat,
            a_src,
            a_dst,
            heads,
            in_dim,
            out_dim,
            slope: 0.2,
        }
    }

    /// `h: [n, in_dim]` with adjacency `csr` → `[n, out_dim]`.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: &E::H,
        csr: &Arc<GraphCsr>,
    ) -> E::H {
        let outs: Vec<E::H> = (0..self.heads)
            .map(|k| {
                let w = ex.param(store, self.w[k]);
                let w_hat = ex.param(store, self.w_hat[k]);
                let hw = ex.matmul(h, &w); // [n, dh]
                let hw_hat = ex.matmul(h, &w_hat); // [n, dh]
                let a_src = ex.param(store, self.a_src[k]);
                let a_dst = ex.param(store, self.a_dst[k]);
                let s_src = ex.matmul(&hw_hat, &a_src); // [n,1]
                let s_dst = ex.matmul(&hw_hat, &a_dst); // [n,1]
                let scores = ex.edge_scores(&s_src, &s_dst, csr);
                let scores = ex.leaky_relu(&scores, self.slope);
                let alphas = ex.segmented_softmax(&scores, csr);
                let agg = ex.neighbor_sum(&alphas, &hw, csr);
                ex.leaky_relu(&agg, self.slope)
            })
            .collect();
        ex.concat_cols(&outs.iter().collect::<Vec<_>>())
    }
}

/// Mean-aggregation GCN layer: `h' = ReLU(mean_{j∈N(i)∪{i}} h_j · W + b)`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    pub lin: Linear,
}

impl GcnLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self {
            lin: Linear::new(store, rng, name, in_dim, out_dim, true),
        }
    }

    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: &E::H,
        csr: &Arc<GraphCsr>,
    ) -> E::H {
        let alphas = ex.constant(mean_alphas(csr));
        let agg = ex.neighbor_sum(&alphas, h, csr);
        let y = self.lin.forward(ex, store, &agg);
        ex.relu(&y)
    }
}

/// GIN layer: `h' = MLP((1+ε)·h_i + Σ_{j∈N(i)} h_j)` with learnable ε
/// folded into the sum weights being 1 and ε fixed small (ε=0 variant).
#[derive(Debug, Clone)]
pub struct GinLayer {
    pub l1: Linear,
    pub l2: Linear,
}

impl GinLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.1"), in_dim, out_dim, true),
            l2: Linear::new(store, rng, &format!("{name}.2"), out_dim, out_dim, true),
        }
    }

    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: &E::H,
        csr: &Arc<GraphCsr>,
    ) -> E::H {
        let ones = ex.constant(Tensor::full(csr.num_edges(), 1, 1.0));
        let agg = ex.neighbor_sum(&ones, h, csr); // Σ_j h_j (self-loop in csr adds h_i)
        let y = self.l1.forward(ex, store, &agg);
        let y = ex.relu(&y);
        self.l2.forward(ex, store, &y)
    }
}

/// Uniform `1/deg(i)` attention weights for mean aggregation.
fn mean_alphas(csr: &GraphCsr) -> Tensor {
    let mut t = Tensor::zeros(csr.num_edges(), 1);
    for i in 0..csr.num_nodes() {
        let seg = csr.segment(i);
        let w = 1.0 / seg.len().max(1) as f32;
        for e in seg {
            t.data[e] = w;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Adam, NodeId, Tape};

    fn path_csr() -> Arc<GraphCsr> {
        Arc::new(GraphCsr::from_neighbor_lists(
            &[vec![1], vec![0, 2], vec![1]],
            true,
        ))
    }

    #[test]
    fn gat_shapes_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gat = GatLayer::new(&mut store, &mut rng, "g", 6, 8, 2);
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::uniform(3, 6, 1.0, &mut rng));
        let y = gat.forward(&mut tape, &store, &h, &path_csr());
        assert_eq!(tape.value(&y).shape(), (3, 8));
        assert!(tape.value(&y).all_finite());
    }

    #[test]
    fn gat_aggregates_neighbourhood_information() {
        // Node 0's output must depend on node 1's features (its neighbour)
        // but node 2 is not adjacent to 0, so changing node 2 must leave
        // node 0's output unchanged.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gat = GatLayer::new(&mut store, &mut rng, "g", 4, 4, 1);
        let csr = path_csr();
        let base = Tensor::uniform(3, 4, 1.0, &mut rng);
        let mut tweak_n1 = base.clone();
        tweak_n1.set(1, 0, 5.0);
        let mut tweak_n2 = base.clone();
        tweak_n2.set(2, 0, 5.0);

        let mut tape = Tape::new();
        let h0 = tape.constant(base);
        let h1 = tape.constant(tweak_n1);
        let h2 = tape.constant(tweak_n2);
        let y0 = gat.forward(&mut tape, &store, &h0, &csr);
        let y1 = gat.forward(&mut tape, &store, &h1, &csr);
        let y2 = gat.forward(&mut tape, &store, &h2, &csr);
        let row0 = |n: NodeId, tape: &Tape| tape.value(&n).row_slice(0).to_vec();
        assert_ne!(
            row0(y0, &tape),
            row0(y1, &tape),
            "neighbour change must propagate"
        );
        assert_eq!(
            row0(y0, &tape),
            row0(y2, &tape),
            "non-neighbour change must not"
        );
    }

    #[test]
    fn gat_learns_simple_node_task() {
        // Distinguish node 1 (degree 2) from nodes 0/2 using features that
        // only become separable after aggregation.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gat = GatLayer::new(&mut store, &mut rng, "g", 2, 4, 1);
        let head = Linear::new(&mut store, &mut rng, "h", 4, 1, true);
        let csr = path_csr();
        let x = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let target = Tensor::from_vec(3, 1, vec![0.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.03);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut tape = Tape::new();
            let h = tape.constant(x.clone());
            let z = gat.forward(&mut tape, &store, &h, &csr);
            let y = head.forward(&mut tape, &store, &z);
            let y = tape.sigmoid(&y);
            let t = tape.constant(target.clone());
            let d = tape.sub(y, t);
            let sq = tape.mul(&d, &d);
            let loss = tape.mean_all(sq);
            last = tape.value(&loss).item();
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.03, "GAT failed to fit node task: {last}");
    }

    #[test]
    fn gcn_mean_aggregation_exact() {
        // With identity-like weights check the aggregation itself: use the
        // raw neighbor_sum with mean alphas.
        let csr = path_csr();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_vec(3, 1, vec![3.0, 6.0, 9.0]));
        let alphas = tape.constant(mean_alphas(&csr));
        let agg = tape.neighbor_sum(&alphas, &h, &csr);
        let v = tape.value(&agg);
        // Node 0: mean(h1, h0) = 4.5; node 1: mean(h0,h2,h1)=6; node 2: mean(h1,h2)=7.5.
        assert_eq!(v.data, vec![4.5, 6.0, 7.5]);
    }

    #[test]
    fn gcn_and_gin_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gcn = GcnLayer::new(&mut store, &mut rng, "gcn", 5, 7);
        let gin = GinLayer::new(&mut store, &mut rng, "gin", 5, 7);
        let csr = path_csr();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::uniform(3, 5, 1.0, &mut rng));
        let a = gcn.forward(&mut tape, &store, &h, &csr);
        let b = gin.forward(&mut tape, &store, &h, &csr);
        assert_eq!(tape.value(&a).shape(), (3, 7));
        assert_eq!(tape.value(&b).shape(), (3, 7));
    }
}
