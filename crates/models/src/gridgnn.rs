//! GridGNN — grid-partitioned road-network representation (Section IV-B).
//!
//! Each road segment is a sequence of 50 m grid cells; a GRU folds the grid
//! embeddings into a segment vector (Eq. 1), which is added to a learned
//! segment-ID embedding (Eq. 2) and refined by `M` GAT layers over the road
//! graph (Eq. 3–4); finally static features are concatenated and projected
//! (end of Section IV-B). Produces `X_road ∈ R^{|V|×d}`.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::graph_layers::{GatLayer, GcnLayer, GinLayer};
use crate::layers::Linear;
use crate::rnn::GruCell;
use rntrajrec_geo::GridSpec;
use rntrajrec_nn::{Exec, GraphCsr, Init, ParamId, ParamStore, Tensor};
use rntrajrec_roadnet::{RoadNetwork, NUM_ROAD_LEVELS};

/// Graph backbone selector for the Fig. 7(a) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnBackbone {
    Gat,
    Gcn,
    Gin,
}

enum BackboneLayers {
    Gat(Vec<GatLayer>),
    Gcn(Vec<GcnLayer>),
    Gin(Vec<GinLayer>),
}

/// Configuration of the road-network representation module.
#[derive(Debug, Clone)]
pub struct GridGnnConfig {
    pub dim: usize,
    /// Number of stacked graph layers `M` (paper: 2).
    pub layers: usize,
    /// Attention heads `h` (paper: 8; must divide `dim`).
    pub heads: usize,
    pub backbone: GnnBackbone,
    /// `false` → skip the grid-GRU of Eq. (1)–(2): the plain GCN/GIN/GAT
    /// comparison of Fig. 7(a) ("GridGNN consistently performs the best,
    /// which shows the effectiveness of integrating grid information").
    pub use_grid: bool,
}

impl Default for GridGnnConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            layers: 2,
            heads: 4,
            backbone: GnnBackbone::Gat,
            use_grid: true,
        }
    }
}

/// The GridGNN module bound to one road network.
pub struct GridGnn {
    grid_emb: ParamId,
    road_emb: ParamId,
    gru: GruCell,
    backbone: BackboneLayers,
    out: Linear,
    /// Flat grid-cell index sequences per segment.
    grid_seqs: Vec<Vec<usize>>,
    /// Segments grouped by sequence length (for batched GRU steps).
    length_groups: Vec<Vec<usize>>,
    /// Row permutation restoring original segment order after grouping.
    perm: Vec<usize>,
    /// Full road-graph adjacency (undirected + self loops).
    csr: Arc<GraphCsr>,
    /// Constant static features `f_road_s` `[|V|, 11]`.
    static_feats: Tensor,
    pub config: GridGnnConfig,
}

impl GridGnn {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        net: &RoadNetwork,
        grid: &GridSpec,
        config: GridGnnConfig,
    ) -> Self {
        let d = config.dim;
        let n = net.num_segments();
        let grid_emb = store.add(
            "gridgnn.grid_emb",
            grid.num_cells(),
            d,
            Init::Uniform(0.1),
            rng,
        );
        let road_emb = store.add("gridgnn.road_emb", n, d, Init::Uniform(0.1), rng);
        let gru = GruCell::new(store, rng, "gridgnn.gru", d, d);
        let backbone = match config.backbone {
            GnnBackbone::Gat => BackboneLayers::Gat(
                (0..config.layers)
                    .map(|l| {
                        GatLayer::new(store, rng, &format!("gridgnn.gat{l}"), d, d, config.heads)
                    })
                    .collect(),
            ),
            GnnBackbone::Gcn => BackboneLayers::Gcn(
                (0..config.layers)
                    .map(|l| GcnLayer::new(store, rng, &format!("gridgnn.gcn{l}"), d, d))
                    .collect(),
            ),
            GnnBackbone::Gin => BackboneLayers::Gin(
                (0..config.layers)
                    .map(|l| GinLayer::new(store, rng, &format!("gridgnn.gin{l}"), d, d))
                    .collect(),
            ),
        };
        let out = Linear::new(store, rng, "gridgnn.out", d + NUM_ROAD_LEVELS + 3, d, true);

        let grid_seqs: Vec<Vec<usize>> = net
            .grid_sequences(grid)
            .into_iter()
            .map(|seq| seq.into_iter().map(|c| grid.flat_index(c)).collect())
            .collect();
        // Group segments by grid-sequence length so GRU steps batch.
        let max_len = grid_seqs.iter().map(Vec::len).max().unwrap_or(1);
        let mut length_groups: Vec<Vec<usize>> = vec![Vec::new(); max_len + 1];
        for (i, s) in grid_seqs.iter().enumerate() {
            length_groups[s.len()].push(i);
        }
        length_groups.retain(|g| !g.is_empty());
        let mut perm = vec![0usize; n];
        let mut row = 0;
        for g in &length_groups {
            for &seg in g {
                perm[seg] = row;
                row += 1;
            }
        }

        let lists: Vec<Vec<usize>> = net
            .segment_ids()
            .map(|id| {
                net.neighbors_undirected(id)
                    .iter()
                    .map(|s| s.index())
                    .collect()
            })
            .collect();
        let csr = Arc::new(GraphCsr::from_neighbor_lists(&lists, true));

        let mut static_feats = Tensor::zeros(n, NUM_ROAD_LEVELS + 3);
        for id in net.segment_ids() {
            let f = net.static_features(id);
            for (c, v) in f.iter().enumerate() {
                static_feats.set(id.index(), c, *v);
            }
        }

        Self {
            grid_emb,
            road_emb,
            gru,
            backbone,
            out,
            grid_seqs,
            length_groups,
            perm,
            csr,
            static_feats,
            config,
        }
    }

    /// Compute `X_road` `[|V|, d]` from the current weights. The result is
    /// input-independent (the paper notes it can be computed in advance at
    /// inference time): training runs it once per mini-batch on the tape,
    /// serving runs it once per road network on the eager executor and
    /// shares it read-only across worker threads — see `rntrajrec-serve`'s
    /// road-embedding cache.
    ///
    /// All of it runs through `rntrajrec_nn::kernels`, whose kernels run
    /// on the caller's thread: the grouped-GRU matmuls, the graph layers
    /// over destination-node CSR segments, and the final projection.
    pub fn forward<'s, E: Exec<'s>>(&'s self, ex: &mut E, store: &'s ParamStore) -> E::H {
        let road = ex.param(store, self.road_emb);
        let mut x = if self.config.use_grid {
            let grid_table = ex.param(store, self.grid_emb);
            // Batched GRU over grid sequences, grouped by length.
            let group_outputs: Vec<E::H> = self
                .length_groups
                .iter()
                .map(|group| {
                    let len = self.grid_seqs[group[0]].len();
                    let mut state = ex.constant(Tensor::zeros(group.len(), self.config.dim));
                    for t in 0..len {
                        let idx: Vec<usize> =
                            group.iter().map(|&seg| self.grid_seqs[seg][t]).collect();
                        let x = ex.gather_rows(&grid_table, &idx);
                        state = self.gru.step(ex, store, &x, &state);
                    }
                    state
                })
                .collect();
            let stacked = ex.concat_rows(&group_outputs.iter().collect::<Vec<_>>());
            // Back to the original segment order.
            let grid_repr = ex.gather_rows(&stacked, &self.perm);
            // Eq. (2): r⁰ = ReLU(s^{(φ)} + σ_road).
            let sum = ex.add(&grid_repr, &road);
            ex.relu(&sum)
        } else {
            // Fig. 7(a) plain-GNN comparison: ID embeddings only.
            ex.relu(&road)
        };

        // Eq. (3)–(4): M graph layers.
        match &self.backbone {
            BackboneLayers::Gat(layers) => {
                for l in layers {
                    x = l.forward(ex, store, &x, &self.csr);
                }
            }
            BackboneLayers::Gcn(layers) => {
                for l in layers {
                    x = l.forward(ex, store, &x, &self.csr);
                }
            }
            BackboneLayers::Gin(layers) => {
                for l in layers {
                    x = l.forward(ex, store, &x, &self.csr);
                }
            }
        }

        // Static features + linear projection.
        let stat = ex.input(&self.static_feats);
        let cat = ex.concat_cols(&[&x, &stat]);
        self.out.forward(ex, store, &cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Adam, Eager, Tape};
    use rntrajrec_roadnet::{CityConfig, SyntheticCity};

    fn setup(backbone: GnnBackbone) -> (SyntheticCity, ParamStore, GridGnn) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        let cfg = GridGnnConfig {
            dim: 16,
            layers: 2,
            heads: 2,
            backbone,
            use_grid: true,
        };
        let gg = GridGnn::new(&mut store, &mut rng, &city.net, &grid, cfg);
        (city, store, gg)
    }

    #[test]
    fn forward_shape_matches_network() {
        let (city, store, gg) = setup(GnnBackbone::Gat);
        let mut tape = Tape::new();
        let x = gg.forward(&mut tape, &store);
        assert_eq!(tape.value(&x).shape(), (city.net.num_segments(), 16));
        assert!(tape.value(&x).all_finite());
    }

    #[test]
    fn all_backbones_run() {
        for b in [GnnBackbone::Gat, GnnBackbone::Gcn, GnnBackbone::Gin] {
            let (city, store, gg) = setup(b);
            let mut tape = Tape::new();
            let x = gg.forward(&mut tape, &store);
            assert_eq!(tape.value(&x).rows, city.net.num_segments());
        }
    }

    #[test]
    fn permutation_restores_segment_order() {
        let (_, store, gg) = setup(GnnBackbone::Gat);
        // The permutation must be a bijection.
        let mut seen = vec![false; gg.perm.len()];
        for &p in &gg.perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let _ = store;
    }

    #[test]
    fn representation_is_trainable() {
        // Fit a scalar head to distinguish segment 0 from segment 1:
        // gradients must reach the grid and road embedding tables.
        let (_, mut store, gg) = setup(GnnBackbone::Gat);
        let mut rng = StdRng::seed_from_u64(2);
        let head = Linear::new(&mut store, &mut rng, "head", 16, 1, true);
        let mut opt = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let mut tape = Tape::new();
            let x = gg.forward(&mut tape, &store);
            let y = head.forward(&mut tape, &store, &x);
            let s0 = tape.select_rows(&y, 0, 1);
            let s1 = tape.select_rows(&y, 1, 1);
            // loss = (s0 - 1)² + (s1 + 1)²
            let t0 = tape.add_const(&s0, -1.0);
            let t1 = tape.add_const(&s1, 1.0);
            let q0 = tape.mul(&t0, &t0);
            let q1 = tape.mul(&t1, &t1);
            let l = tape.add(&q0, &q1);
            let loss = tape.mean_all(l);
            last = tape.value(&loss).item();
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.1, "GridGNN head failed to fit: {last}");
    }

    #[test]
    fn eager_forward_matches_tape_forward() {
        for b in [GnnBackbone::Gat, GnnBackbone::Gcn, GnnBackbone::Gin] {
            let (_, store, gg) = setup(b);
            let mut tape = Tape::new();
            let x = gg.forward(&mut tape, &store);
            let fast = gg.forward(&mut Eager, &store);
            assert_eq!(fast.shape(), tape.value(&x).shape());
            assert_eq!(
                fast.data,
                tape.value(&x).data,
                "{b:?}: eager not bit-identical"
            );
        }
    }

    #[test]
    fn grid_embedding_receives_gradient() {
        let (_, mut store, gg) = setup(GnnBackbone::Gat);
        let mut tape = Tape::new();
        let x = gg.forward(&mut tape, &store);
        let loss = tape.mean_all(x);
        store.zero_grad();
        tape.backward(loss, &mut store);
        let g = store.grad(gg.grid_emb);
        assert!(
            g.data.iter().any(|&v| v != 0.0),
            "grid embedding got no gradient"
        );
        let g = store.grad(gg.road_emb);
        assert!(
            g.data.iter().any(|&v| v != 0.0),
            "road embedding got no gradient"
        );
    }
}
