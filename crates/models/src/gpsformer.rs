//! GPSFormer (Section IV-F) and the complete RNTrajRec encoder.
//!
//! The encoder is **one definition run by two executors**
//! (`rntrajrec_nn::Exec`): tape `encode` records it for training, the
//! tape-free `infer_batch` evaluates it eagerly for serving. Either way
//! the whole batch is stacked — every Linear / attention projection is one
//! matmul over all members' rows — and the reductions whose scope defines
//! the result stay scoped through the executor's segmented ops: attention
//! and trajectory pooling per member, Eq. 6 pooling and graph readout per
//! sub-graph, and GraphNorm statistics over the **mini-batch** in training
//! but over **one member** in serving (Eq. 8–9 are batch statistics; a
//! request's answer must not depend on what else shares its micro-batch).
//! All numeric work executes on `rntrajrec_nn::kernels` — see `nn`'s
//! crate docs for the determinism contract.
//!
//! Per mini-batch: GridGNN produces `X_road`; the Sub-Graph Generation
//! features (precomputed in [`crate::features`]) select and weight rows of
//! `X_road` per GPS point (Eq. 6); `N` GPSFormer blocks alternate a
//! transformer encoder layer (temporal) with a graph refinement layer
//! (spatial), connected by graph readout (Eq. 13). The final sub-graph
//! features drive the graph-classification loss `L_enc` (Eq. 18).

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::attention::PositionalEncoding;
use crate::encoder::{BatchEncoderOutput, EncoderOutput, InferOutput, TrajEncoder};
use crate::features::SampleInput;
use crate::gridgnn::{GridGnn, GridGnnConfig};
use crate::grl::{GraphRefinementLayer, GrlBatchLayout, GrlConfig};
use crate::layers::Linear;
use crate::transformer::TransformerEncoderLayer;
use rntrajrec_geo::GridSpec;
use rntrajrec_nn::{Eager, Exec, GraphCsr, Init, ParamId, ParamStore, Tape, Tensor};
use rntrajrec_roadnet::RoadNetwork;

/// Hyper-parameters of the full RNTrajRec encoder.
#[derive(Debug, Clone)]
pub struct RnTrajRecConfig {
    /// Hidden size `d` (paper: 256–512; here 16–64 for CPU scale).
    pub dim: usize,
    /// GPSFormer blocks `N` (paper default 2).
    pub n_blocks: usize,
    /// Attention heads (paper: 8).
    pub heads: usize,
    /// Transformer FFN hidden size.
    pub ffn_hidden: usize,
    /// GridGNN settings (M layers, backbone).
    pub gridgnn: GridGnnConfig,
    /// GRL ablation switches (Table V).
    pub grl: GrlConfig,
    /// `false` → Table V `w/o GRL`: plain stacked transformer, graph input
    /// ignored after pooling.
    pub use_grl: bool,
}

impl RnTrajRecConfig {
    pub fn small(dim: usize) -> Self {
        let heads = if dim.is_multiple_of(4) { 4 } else { 2 };
        Self {
            dim,
            n_blocks: 2,
            heads,
            ffn_hidden: 2 * dim,
            gridgnn: GridGnnConfig {
                dim,
                layers: 2,
                heads,
                backbone: crate::GnnBackbone::Gat,
                use_grid: true,
            },
            grl: GrlConfig::new(dim, heads),
            use_grl: true,
        }
    }
}

/// The complete RNTrajRec encoder: GridGNN + GPSFormer.
pub struct RnTrajRecEncoder {
    pub gridgnn: GridGnn,
    input_proj: Linear,
    pe: PositionalEncoding,
    blocks: Vec<(TransformerEncoderLayer, Option<GraphRefinementLayer>)>,
    traj_head: Linear,
    /// Weight `w` of the graph classification loss (Eq. 18).
    w_enc: ParamId,
    pub config: RnTrajRecConfig,
}

impl RnTrajRecEncoder {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        net: &RoadNetwork,
        grid: &GridSpec,
        config: RnTrajRecConfig,
    ) -> Self {
        let d = config.dim;
        let gridgnn = GridGnn::new(store, rng, net, grid, config.gridgnn.clone());
        let input_proj = Linear::new(store, rng, "former.in", d + 3, d, true);
        let pe = PositionalEncoding::new(d);
        let blocks = (0..config.n_blocks)
            .map(|l| {
                let te = TransformerEncoderLayer::new(
                    store,
                    rng,
                    &format!("former.b{l}.te"),
                    d,
                    config.heads,
                    config.ffn_hidden,
                );
                let grl = config.use_grl.then(|| {
                    GraphRefinementLayer::new(store, rng, &format!("former.b{l}.grl"), config.grl)
                });
                (te, grl)
            })
            .collect();
        let traj_head = Linear::new(store, rng, "former.traj", d + 25, d, true);
        let w_enc = store.add("former.w_enc", 1, d, Init::Xavier, rng);
        Self {
            gridgnn,
            input_proj,
            pe,
            blocks,
            traj_head,
            w_enc,
            config,
        }
    }

    /// The encoder body, stacked over `samples` (non-empty): every
    /// member's per-point rows in one `[ΣL, d]` matrix, every point's
    /// sub-graph in one `[Σn, d]` matrix laid out by `layout` (whose scopes
    /// decide what GraphNorm's statistics cover). Every projection (input,
    /// q/k/v/output, FFNs, gated fusion, GAT transforms, trajectory head)
    /// is **one** matmul for the whole batch, so the launch count does not
    /// depend on the batch size (pinned in
    /// `crates/core/tests/fusion_gates.rs`), and because every scoped op
    /// keeps the member's own accumulation order, a member's rows are
    /// bit-identical whatever shares the stack (the encoder-parity
    /// proptest in `tests/batch_decode_parity.rs`).
    fn run<'s, E: Exec<'s>>(
        &'s self,
        ex: &mut E,
        store: &'s ParamStore,
        samples: &[&SampleInput],
        xroad: &E::H,
        layout: &GrlBatchLayout,
    ) -> Encoded<E::H> {
        let d = self.config.dim;
        // Member row ranges of the [ΣL, d] per-point stack.
        let mut traj_segs: Vec<Range<usize>> = Vec::with_capacity(samples.len());
        let mut points = 0usize;
        for s in samples {
            traj_segs.push(points..points + s.input_len());
            points += s.input_len();
        }

        // Z⁽⁰⁾ and pooled inputs Ĥ⁽⁰⁾ (Eq. 6): one gather and one
        // segmented weighted mean for every point of every member.
        let subgraphs = || samples.iter().flat_map(|s| &s.subgraphs);
        let all_nodes: Vec<usize> = subgraphs()
            .flat_map(|sg| sg.nodes.iter().copied())
            .collect();
        let all_weights: Vec<f32> = subgraphs()
            .flat_map(|sg| sg.weights.iter().copied())
            .collect();
        let mut zs = ex.gather_rows(xroad, &all_nodes);
        let gp = ex.segmented_weighted_mean_rows(&zs, &all_weights, &layout.point_segs);
        // Concat timestamp + grid index (base_feats columns 2..5).
        let mut extra = Vec::with_capacity(points * 3);
        // Positional encodings restart per member (Eq. 12).
        let mut pe = Vec::with_capacity(points * d);
        let mut env = Vec::with_capacity(samples.len() * 25);
        for s in samples {
            for r in 0..s.input_len() {
                extra.extend_from_slice(&s.base_feats.row_slice(r)[2..5]);
            }
            pe.extend(self.pe.table(s.input_len()).data);
            env.extend_from_slice(&s.env);
        }
        let extra = ex.constant(Tensor::from_vec(points, 3, extra));
        let cat = ex.concat_cols(&[&gp, &extra]);
        let h0 = self.input_proj.forward(ex, store, &cat);
        let pe = ex.constant(Tensor::from_vec(points, d, pe));
        let mut h = ex.add(&h0, &pe);

        // N GPSFormer blocks (Eq. 13), the whole batch per block.
        for (te, grl) in &self.blocks {
            let tr = te.forward(ex, store, &h, &traj_segs);
            match grl {
                Some(grl) => {
                    let refined = grl.forward(ex, store, &tr, &zs, layout);
                    h = ex.segmented_mean_rows(&refined, &layout.point_segs);
                    zs = refined;
                }
                // w/o GRL: the transformer output feeds the next block.
                None => h = tr,
            }
        }

        // Trajectory-level vectors: member-scoped mean pool + environmental
        // context, one stacked trajectory-head matmul.
        let mean = ex.segmented_mean_rows(&h, &traj_segs);
        let env = ex.constant(Tensor::from_vec(samples.len(), 25, env));
        let cat = ex.concat_cols(&[&mean, &env]);
        let traj = self.traj_head.forward(ex, store, &cat);

        let outputs = traj_segs
            .iter()
            .enumerate()
            .map(|(i, seg)| EncoderOutput {
                per_point: ex.select_rows(&h, seg.start, seg.len()),
                traj: ex.select_rows(&traj, i, 1),
            })
            .collect();
        Encoded { outputs, zs }
    }
}

/// What [`RnTrajRecEncoder::run`] hands back.
struct Encoded<H> {
    outputs: Vec<EncoderOutput<H>>,
    /// The final stacked sub-graph features `Z⁽ᴺ⁾` `[Σn, d]`.
    zs: H,
}

/// `(rows, adjacency)` of every point's sub-graph, in stack order.
fn subgraph_shapes(samples: &[&SampleInput]) -> Vec<(usize, Arc<GraphCsr>)> {
    samples
        .iter()
        .flat_map(|s| &s.subgraphs)
        .map(|sg| (sg.nodes.len(), Arc::clone(&sg.csr)))
        .collect()
}

impl TrajEncoder for RnTrajRecEncoder {
    fn name(&self) -> &'static str {
        "RNTrajRec"
    }

    /// The body on the tape, GraphNorm scoped to the whole mini-batch
    /// (true batch statistics), plus the tape-only auxiliary loss.
    fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &[&SampleInput],
    ) -> BatchEncoderOutput {
        // X_road once per batch.
        let xroad = self.gridgnn.forward(tape, store);
        let layout = GrlBatchLayout::new(&[subgraph_shapes(batch)]);
        let Encoded { outputs, zs } = self.run(tape, store, batch, &xroad, &layout);

        // Graph classification loss L_enc (Eq. 18) on the final Z⁽ᴺ⁾: one
        // stacked score product, then a per-point softmax over its rows.
        let aux_loss = if self.config.use_grl {
            let w = tape.param(store, self.w_enc); // [1, d]
            let scores = tape.matmul_nt(w, zs); // [1, Σn]
            let mut terms = Vec::new();
            let subgraphs = batch.iter().flat_map(|s| &s.subgraphs);
            for (sg, seg) in subgraphs.zip(&layout.point_segs) {
                let Some(true_row) = sg.true_row else {
                    continue;
                };
                let scores = tape.select_cols(scores, seg.start, seg.len()); // [1, n]
                let log_w = tape.leaf(Tensor::row(
                    sg.weights.iter().map(|&x| x.max(1e-6).ln()).collect(),
                ));
                let masked = tape.add(scores, log_w);
                let logp = tape.log_softmax_rows(masked);
                let picked = tape.select_cols(logp, true_row, 1);
                terms.push(tape.scale(picked, -1.0));
            }
            (!terms.is_empty()).then(|| {
                let all = tape.concat_rows(&terms);
                tape.mean_all(all)
            })
        } else {
            None
        };

        BatchEncoderOutput { outputs, aux_loss }
    }

    fn precompute_road(&self, store: &ParamStore) -> Option<Tensor> {
        Some(self.gridgnn.forward(&mut Eager, store).into_owned())
    }

    /// The body on the eager executor, GraphNorm scoped to each member —
    /// so every member's outputs are **bit-identical** to tape `encode`
    /// with a batch of exactly that member, regardless of batch
    /// composition. A single request is a batch of one.
    fn infer_batch(
        &self,
        store: &ParamStore,
        samples: &[&SampleInput],
        road: Option<&Tensor>,
    ) -> Option<Vec<InferOutput>> {
        if samples.is_empty() {
            return Some(Vec::new());
        }
        let ex = &mut Eager;
        let xroad = match road {
            Some(t) => ex.input(t),
            None => self.gridgnn.forward(ex, store),
        };
        let scopes: Vec<_> = samples
            .iter()
            .map(|s| subgraph_shapes(std::slice::from_ref(s)))
            .collect();
        let enc = self.run(ex, store, samples, &xroad, &GrlBatchLayout::new(&scopes));
        let owned = enc.outputs.into_iter().map(|o| InferOutput {
            per_point: o.per_point.into_owned(),
            traj: o.traj.into_owned(),
        });
        Some(owned.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureExtractor;
    use rand::SeedableRng;
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    fn build() -> (SyntheticCity, RTree) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        (city, rtree)
    }

    fn inputs(city: &SyntheticCity, rtree: &RTree, n: usize) -> Vec<SampleInput> {
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, rtree, grid);
        let mut sim = Simulator::new(
            &city.net,
            SimConfig {
                target_len: 17,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        (0..n)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect()
    }

    #[test]
    fn encoder_output_shapes() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        let enc = RnTrajRecEncoder::new(
            &mut store,
            &mut rng,
            &city.net,
            &grid,
            RnTrajRecConfig::small(16),
        );
        let ins = inputs(&city, &rtree, 2);
        let refs: Vec<&SampleInput> = ins.iter().collect();
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, &refs);
        assert_eq!(out.outputs.len(), 2);
        for (o, s) in out.outputs.iter().zip(&ins) {
            assert_eq!(tape.value(o.per_point).shape(), (s.input_len(), 16));
            assert_eq!(tape.value(o.traj).shape(), (1, 16));
            assert!(tape.value(o.per_point).all_finite());
        }
        let aux = out.aux_loss.expect("L_enc expected with GRL enabled");
        assert!(tape.value(aux).item().is_finite());
        assert!(tape.value(aux).item() >= 0.0);
    }

    #[test]
    fn without_grl_has_no_aux_loss() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        let mut cfg = RnTrajRecConfig::small(16);
        cfg.use_grl = false;
        let enc = RnTrajRecEncoder::new(&mut store, &mut rng, &city.net, &grid, cfg);
        let ins = inputs(&city, &rtree, 1);
        let refs: Vec<&SampleInput> = ins.iter().collect();
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, &refs);
        assert!(out.aux_loss.is_none());
        assert_eq!(
            tape.value(out.outputs[0].per_point).shape(),
            (ins[0].input_len(), 16)
        );
    }

    #[test]
    fn tape_encode_normalises_over_the_mini_batch() {
        // GraphNorm's scope in training is the whole batch (Eq. 8–9 are
        // batch statistics): a member encoded with company differs from
        // the member encoded alone — unless the variant normalises per row.
        let (city, rtree) = build();
        let grid = city.net.grid(50.0);
        let ins = inputs(&city, &rtree, 2);
        for graph_norm in [true, false] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut store = ParamStore::new();
            let mut cfg = RnTrajRecConfig::small(16);
            cfg.grl.graph_norm = graph_norm;
            let enc = RnTrajRecEncoder::new(&mut store, &mut rng, &city.net, &grid, cfg);
            let mut tape = Tape::new();
            let both = enc.encode(&mut tape, &store, &[&ins[0], &ins[1]]);
            let alone = enc.encode(&mut tape, &store, &[&ins[0]]);
            let same = tape.value(both.outputs[0].per_point).data
                == tape.value(alone.outputs[0].per_point).data;
            assert_eq!(same, !graph_norm, "graph_norm={graph_norm}");
        }
    }

    #[test]
    fn infer_batch_member_matches_batch_of_one_bitwise() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        // Exercise every ablation the batch path must honour: full model,
        // w/o GF (fusion FFN), w/o GAT (forward FFN), w/o GN (LayerNorm).
        for (gf, gat, gn) in [
            (true, true, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let mut cfg = RnTrajRecConfig::small(16);
            cfg.grl.gated_fusion = gf;
            cfg.grl.gat = gat;
            cfg.grl.graph_norm = gn;
            let enc = RnTrajRecEncoder::new(&mut store, &mut rng, &city.net, &grid, cfg);
            let ins = inputs(&city, &rtree, 3);
            let refs: Vec<&SampleInput> = ins.iter().collect();
            let xroad = enc.precompute_road(&store).expect("X_road");
            let infer = |batch: &[&SampleInput]| {
                enc.infer_batch(&store, batch, Some(&xroad))
                    .expect("tape-free path")
            };
            let batch = infer(&refs);
            assert_eq!(batch.len(), refs.len());
            for (i, (got, sample)) in batch.iter().zip(&ins).enumerate() {
                let want = &infer(&[sample])[0];
                assert_eq!(
                    got.per_point.data, want.per_point.data,
                    "variant {gf}/{gat}/{gn}: member {i} per-point diverged"
                );
                assert_eq!(
                    got.traj.data, want.traj.data,
                    "variant {gf}/{gat}/{gn}: member {i} traj diverged"
                );
            }
            store = ParamStore::new();
        }
    }

    #[test]
    fn infer_batch_without_cache_recomputes_road() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        let enc = RnTrajRecEncoder::new(
            &mut store,
            &mut rng,
            &city.net,
            &grid,
            RnTrajRecConfig::small(16),
        );
        let ins = inputs(&city, &rtree, 1);
        let xroad = enc
            .precompute_road(&store)
            .expect("RNTrajRec precomputes X_road");
        let cached = enc.infer_batch(&store, &[&ins[0]], Some(&xroad)).unwrap();
        let uncached = enc.infer_batch(&store, &[&ins[0]], None).unwrap();
        assert_eq!(cached[0].per_point.data, uncached[0].per_point.data);
        assert_eq!(cached[0].traj.data, uncached[0].traj.data);
    }

    #[test]
    fn backward_reaches_road_embeddings() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let grid = city.net.grid(50.0);
        let enc = RnTrajRecEncoder::new(
            &mut store,
            &mut rng,
            &city.net,
            &grid,
            RnTrajRecConfig::small(16),
        );
        let ins = inputs(&city, &rtree, 1);
        let refs: Vec<&SampleInput> = ins.iter().collect();
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &store, &refs);
        let loss = out.aux_loss.unwrap();
        store.zero_grad();
        tape.backward(loss, &mut store);
        // The aux loss must reach all the way down to GridGNN's tables.
        let any_grid_grad = store
            .ids()
            .filter(|&id| store.name(id).starts_with("gridgnn"))
            .any(|id| store.grad(id).data.iter().any(|&g| g != 0.0));
        assert!(any_grid_grad, "no gradient reached GridGNN parameters");
    }
}
