//! GPSFormer (Section IV-F) and the complete RNTrajRec encoder.
//!
//! All numeric work in both the tape `encode` and the tape-free
//! `infer_batch` paths (attention products, FFNs, pooling, GRL graph
//! ops) executes on `rntrajrec_nn::kernels`, the workspace's single
//! parallel compute core — see `nn`'s crate docs for the determinism
//! contract.
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
use rntrajrec_nn::{kernels, Init, NodeId, ParamId, ParamStore, Tape, Tensor};
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

    /// Tape-free twin of the `encode` path, fused over a micro-batch:
    /// encode every member in one pass, with every member's per-point rows
    /// stacked into a single matrix per block. Each Linear / attention
    /// projection (input projection, q/k/v/output, FFNs, gated fusion,
    /// GAT transforms, trajectory head) runs as **one** stacked matmul for
    /// the whole batch instead of one call per member (or per point, for
    /// the GRL) — while every reduction whose scope defines the result
    /// stays per member: self-attention rows via
    /// `kernels::segmented_self_attention`, graph readout via
    /// `kernels::segmented_mean_rows`, the GAT pass via a block-diagonal CSR
    /// union, and GraphNorm statistics (the reason naive cross-request
    /// fusion would change results — Eq. 8–9 are *batch* statistics) via
    /// `kernels::segmented_norm_stats` scoped to each member's own
    /// sub-graphs.
    ///
    /// Because every fused kernel keeps the member's own accumulation
    /// order, each member's outputs are **bit-identical** to tape `encode`
    /// with a batch of exactly that member (the GRL's GraphNorm statistics
    /// then cover only its own sub-graphs), regardless of batch
    /// composition — the invariant an online service must never break,
    /// pinned by the encoder-parity proptest in
    /// `tests/batch_decode_parity.rs`; that stacking keeps the matmul
    /// launch count independent of the batch size is pinned in
    /// `crates/core/tests/fusion_gates.rs`. A single request is a batch
    /// of one.
    pub fn infer_batch(
        &self,
        store: &ParamStore,
        samples: &[&SampleInput],
        xroad: &Tensor,
    ) -> Vec<InferOutput> {
        if samples.is_empty() {
            return Vec::new();
        }
        // Stacked layout: members' points concatenated in order, each
        // point owning its sub-graph's row range of the z stack.
        let members_graphs: Vec<Vec<(usize, Arc<rntrajrec_nn::GraphCsr>)>> = samples
            .iter()
            .map(|s| {
                s.subgraphs
                    .iter()
                    .map(|sg| (sg.nodes.len(), Arc::clone(&sg.csr)))
                    .collect()
            })
            .collect();
        let layout = GrlBatchLayout::new(&members_graphs);
        // Member row ranges of the [ΣL, d] per-point stack.
        let mut traj_segs: Vec<Range<usize>> = Vec::with_capacity(samples.len());
        let mut off = 0usize;
        for s in samples {
            traj_segs.push(off..off + s.input_len());
            off += s.input_len();
        }

        // Z⁽⁰⁾ and pooled inputs Ĥ⁽⁰⁾ (Eq. 6): one gather and one
        // segmented weighted mean for every point of every member.
        let all_nodes: Vec<usize> = samples
            .iter()
            .flat_map(|s| s.subgraphs.iter().flat_map(|sg| sg.nodes.iter().copied()))
            .collect();
        let all_weights: Vec<f32> = samples
            .iter()
            .flat_map(|s| s.subgraphs.iter().flat_map(|sg| sg.weights.iter().copied()))
            .collect();
        let mut zs = kernels::gather_rows(xroad, &all_nodes);
        let gp = kernels::segmented_weighted_mean_rows(&zs, &all_weights, &layout.point_segs);
        let extras: Vec<Tensor> = samples
            .iter()
            .map(|s| select_columns(&s.base_feats, &[2, 3, 4]))
            .collect();
        let extra_refs: Vec<&Tensor> = extras.iter().collect();
        let extra = kernels::concat_rows(&extra_refs);
        let cat = kernels::concat_cols(&[&gp, &extra]);
        let h0 = self.input_proj.infer(store, &cat);
        // Positional encodings restart per member (Eq. 12).
        let pes: Vec<Tensor> = samples
            .iter()
            .map(|s| self.pe.table(s.input_len()))
            .collect();
        let pe_refs: Vec<&Tensor> = pes.iter().collect();
        let mut h = kernels::add(&h0, &kernels::concat_rows(&pe_refs));

        // N GPSFormer blocks (Eq. 13), the whole batch per block.
        for (te, grl) in &self.blocks {
            let tr = te.infer_segments(store, &h, &traj_segs);
            match grl {
                Some(grl) => {
                    let refined = grl.infer_batch(store, &tr, &zs, &layout);
                    h = kernels::segmented_mean_rows(&refined, &layout.point_segs);
                    zs = refined;
                }
                None => h = tr,
            }
        }

        // Trajectory-level vectors: member-scoped mean pool + environment,
        // one stacked trajectory-head matmul.
        let mean = kernels::segmented_mean_rows(&h, &traj_segs);
        let envs: Vec<Tensor> = samples
            .iter()
            .map(|s| Tensor::row(s.env.to_vec()))
            .collect();
        let env_refs: Vec<&Tensor> = envs.iter().collect();
        let env = kernels::concat_rows(&env_refs);
        let traj_all = self
            .traj_head
            .infer(store, &kernels::concat_cols(&[&mean, &env]));

        traj_segs
            .iter()
            .enumerate()
            .map(|(i, seg)| InferOutput {
                per_point: kernels::select_rows(&h, seg.start, seg.len()),
                traj: kernels::select_rows(&traj_all, i, 1),
            })
            .collect()
    }
}

impl TrajEncoder for RnTrajRecEncoder {
    fn name(&self) -> &'static str {
        "RNTrajRec"
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &[&SampleInput],
        _training: bool,
        _rng: &mut StdRng,
    ) -> BatchEncoderOutput {
        let _ = self.config.dim;
        // X_road once per batch.
        let xroad = self.gridgnn.forward(tape, store);

        // Per-sample sub-graph features Z⁽⁰⁾ and pooled inputs Ĥ⁽⁰⁾.
        struct SampleState {
            h: NodeId,       // [lτ, d]
            zs: Vec<NodeId>, // per-point [n_i, d]
        }
        let mut states = Vec::with_capacity(batch.len());
        for sample in batch {
            let l = sample.input_len();
            let mut zs = Vec::with_capacity(l);
            let mut pooled = Vec::with_capacity(l);
            for sg in &sample.subgraphs {
                let z = tape.gather_rows(xroad, &sg.nodes);
                pooled.push(tape.weighted_mean_rows(z, &sg.weights)); // Eq. (6)
                zs.push(z);
            }
            let gp = tape.concat_rows(&pooled); // [lτ, d]
                                                // Concat timestamp + grid index (base_feats columns 2..5).
            let extra = tape.leaf(select_columns(&sample.base_feats, &[2, 3, 4]));
            let cat = tape.concat_cols(&[gp, extra]);
            let h0 = self.input_proj.forward(tape, store, cat);
            let h = self.pe.add_to(tape, h0); // Eq. (12)
            states.push(SampleState { h, zs });
        }

        // N GPSFormer blocks (Eq. 13). The GRL runs over the whole batch so
        // GraphNorm sees true mini-batch statistics.
        for (te, grl) in &self.blocks {
            // Temporal: transformer per trajectory.
            let trs: Vec<NodeId> = states
                .iter()
                .map(|s| te.forward(tape, store, s.h))
                .collect();
            match grl {
                Some(grl) => {
                    // Flatten (trajectory, point) pairs for the batched GRL.
                    let mut tr_rows = Vec::new();
                    let mut zs = Vec::new();
                    let mut csrs = Vec::new();
                    for (state, (&tr, sample)) in states.iter().zip(trs.iter().zip(batch.iter())) {
                        for (i, &z) in state.zs.iter().enumerate() {
                            tr_rows.push(tape.select_rows(tr, i, 1));
                            zs.push(z);
                            csrs.push(sample.subgraphs[i].csr.clone());
                        }
                    }
                    let refined = grl.forward(tape, store, &tr_rows, &zs, &csrs);
                    // Scatter back + graph readout per point.
                    let mut k = 0;
                    for state in states.iter_mut() {
                        let mut rows = Vec::with_capacity(state.zs.len());
                        for z_slot in state.zs.iter_mut() {
                            *z_slot = refined[k];
                            rows.push(tape.mean_rows(refined[k]));
                            k += 1;
                        }
                        state.h = tape.concat_rows(&rows);
                    }
                }
                None => {
                    // w/o GRL: the transformer output feeds the next block.
                    for (state, tr) in states.iter_mut().zip(trs) {
                        state.h = tr;
                    }
                }
            }
        }

        // Trajectory-level vector: mean pool + environmental context.
        let mut outputs = Vec::with_capacity(batch.len());
        for (state, sample) in states.iter().zip(batch) {
            let mean = tape.mean_rows(state.h);
            let env = tape.leaf(Tensor::row(sample.env.to_vec()));
            let cat = tape.concat_cols(&[mean, env]);
            let traj = self.traj_head.forward(tape, store, cat);
            outputs.push(EncoderOutput {
                per_point: state.h,
                traj,
            });
        }

        // Graph classification loss L_enc (Eq. 18) on the final Z⁽ᴺ⁾.
        let aux_loss = if self.config.use_grl {
            let w = tape.param(store, self.w_enc); // [1, d]
            let mut terms = Vec::new();
            for (state, sample) in states.iter().zip(batch) {
                for (i, &z) in state.zs.iter().enumerate() {
                    let sg = &sample.subgraphs[i];
                    let Some(true_row) = sg.true_row else {
                        continue;
                    };
                    let scores = tape.matmul_nt(w, z); // [1, n]
                    let log_w = tape.leaf(Tensor::row(
                        sg.weights.iter().map(|&x| x.max(1e-6).ln()).collect(),
                    ));
                    let masked = tape.add(scores, log_w);
                    let logp = tape.log_softmax_rows(masked);
                    let picked = tape.select_cols(logp, true_row, 1);
                    terms.push(tape.scale(picked, -1.0));
                }
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

    fn has_infer(&self) -> bool {
        true
    }

    fn precompute_road(&self, store: &ParamStore) -> Option<Tensor> {
        Some(self.gridgnn.infer(store))
    }

    fn infer_batch(
        &self,
        store: &ParamStore,
        samples: &[&SampleInput],
        road: Option<&Tensor>,
    ) -> Option<Vec<InferOutput>> {
        let owned;
        let xroad = match road {
            Some(t) => t,
            None => {
                owned = self.gridgnn.infer(store);
                &owned
            }
        };
        Some(RnTrajRecEncoder::infer_batch(self, store, samples, xroad))
    }
}

/// Copy selected columns of a constant tensor (feature slicing outside the
/// tape — no gradient needed).
fn select_columns(t: &Tensor, cols: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(t.rows, cols.len());
    for r in 0..t.rows {
        for (i, &c) in cols.iter().enumerate() {
            out.set(r, i, t.get(r, c));
        }
    }
    out
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
        let out = enc.encode(&mut tape, &store, &refs, true, &mut rng);
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
        let out = enc.encode(&mut tape, &store, &refs, true, &mut rng);
        assert!(out.aux_loss.is_none());
        assert_eq!(
            tape.value(out.outputs[0].per_point).shape(),
            (ins[0].input_len(), 16)
        );
    }

    #[test]
    fn infer_batch_of_one_matches_tape_encode() {
        let (city, rtree) = build();
        let mut rng = StdRng::seed_from_u64(5);
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
        let xroad = enc.gridgnn.infer(&store);
        assert!(enc.infer_batch(&store, &[], &xroad).is_empty());
        for sample in &ins {
            // Batch of exactly this sample: GraphNorm statistics match.
            let mut tape = Tape::new();
            let out = enc.encode(&mut tape, &store, &[sample], false, &mut rng);
            let fast = &enc.infer_batch(&store, &[sample], &xroad)[0];
            let pp = tape.value(out.outputs[0].per_point);
            let tj = tape.value(out.outputs[0].traj);
            assert_eq!(fast.per_point.shape(), pp.shape());
            // The twins mirror the tape op-for-op: bit-identical, not
            // merely close (the documented serving contract).
            assert_eq!(
                fast.per_point.data, pp.data,
                "per-point infer not bit-identical"
            );
            assert_eq!(fast.traj.data, tj.data, "traj infer not bit-identical");
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
            let xroad = enc.gridgnn.infer(&store);
            let batch = enc.infer_batch(&store, &refs, &xroad);
            assert_eq!(batch.len(), refs.len());
            for (i, (got, sample)) in batch.iter().zip(&ins).enumerate() {
                let want = &enc.infer_batch(&store, &[sample], &xroad)[0];
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
        let cached = TrajEncoder::infer_batch(&enc, &store, &[&ins[0]], Some(&xroad)).unwrap();
        let uncached = TrajEncoder::infer_batch(&enc, &store, &[&ins[0]], None).unwrap();
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
        let out = enc.encode(&mut tape, &store, &refs, true, &mut rng);
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
