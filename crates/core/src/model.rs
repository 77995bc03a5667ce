//! The end-to-end recovery model and the method registry.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec_geo::GridSpec;
use rntrajrec_models::{
    BatchMember, DecodeState, Decoder, DecoderConfig, GnnBackbone, GtsEncoder, MTrajRecEncoder,
    NeuTrajEncoder, RnTrajRecConfig, RnTrajRecEncoder, SampleInput, SegmentHead, T2vecEncoder,
    T3sEncoder, TrajEncoder, TransformerBaseline,
};
use rntrajrec_nn::{NodeId, ParamStore, Tape, Tensor};
use rntrajrec_roadnet::RoadNetwork;

/// Every method of the paper's comparison (Tables III/IV) plus the
/// RNTrajRec ablations (Table V) and parameter variants (Fig. 6/7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// Two-stage: linear interpolation + HMM (no learning).
    LinearHmm,
    /// Two-stage: seq2seq position regression + Kalman + HMM.
    DhtrHmm,
    T2vec,
    Transformer,
    MTrajRec,
    T3s,
    Gts,
    NeuTraj,
    RnTrajRec,
    /// Table V ablations.
    RnTrajRecWoGrl,
    RnTrajRecWoGf,
    RnTrajRecWoGat,
    RnTrajRecWoGn,
    RnTrajRecWoGcl,
    /// Extra ablation: decoder constraint mask disabled.
    RnTrajRecNoMask,
    /// Fig. 7(a): road-network representation backbone.
    RnTrajRecBackbone(GnnBackbone),
    /// Fig. 7(a): plain GNN over segment-ID embeddings (no grid GRU).
    RnTrajRecPlainGnn(GnnBackbone),
    /// Fig. 6 / Fig. 7(b): number of GPSFormer blocks.
    RnTrajRecN(usize),
    /// Fig. 6: RNTrajRec* (w/o GRL) with N blocks.
    RnTrajRecWoGrlN(usize),
}

impl MethodSpec {
    /// Display name matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            MethodSpec::LinearHmm => "Linear + HMM".into(),
            MethodSpec::DhtrHmm => "DHTR + HMM".into(),
            MethodSpec::T2vec => "t2vec + Decoder".into(),
            MethodSpec::Transformer => "Transformer + Decoder".into(),
            MethodSpec::MTrajRec => "MTrajRec".into(),
            MethodSpec::T3s => "T3S + Decoder".into(),
            MethodSpec::Gts => "GTS + Decoder".into(),
            MethodSpec::NeuTraj => "NeuTraj + Decoder".into(),
            MethodSpec::RnTrajRec => "RNTrajRec (Ours)".into(),
            MethodSpec::RnTrajRecWoGrl => "w/o GRL".into(),
            MethodSpec::RnTrajRecWoGf => "w/o GF".into(),
            MethodSpec::RnTrajRecWoGat => "w/o GAT".into(),
            MethodSpec::RnTrajRecWoGn => "w/o GN".into(),
            MethodSpec::RnTrajRecWoGcl => "w/o GCL".into(),
            MethodSpec::RnTrajRecNoMask => "w/o Mask".into(),
            MethodSpec::RnTrajRecBackbone(b) => format!("GridGNN->{b:?}"),
            MethodSpec::RnTrajRecPlainGnn(b) => format!("{b:?} (no grid)"),
            MethodSpec::RnTrajRecN(n) => format!("RNTrajRec (N={n})"),
            MethodSpec::RnTrajRecWoGrlN(n) => format!("RNTrajRec* (N={n})"),
        }
    }

    /// The nine Table III rows, in the paper's order.
    pub fn table3() -> Vec<MethodSpec> {
        vec![
            MethodSpec::LinearHmm,
            MethodSpec::DhtrHmm,
            MethodSpec::T2vec,
            MethodSpec::Transformer,
            MethodSpec::MTrajRec,
            MethodSpec::T3s,
            MethodSpec::Gts,
            MethodSpec::NeuTraj,
            MethodSpec::RnTrajRec,
        ]
    }

    /// The Table V ablation rows.
    pub fn table5() -> Vec<MethodSpec> {
        vec![
            MethodSpec::RnTrajRecWoGrl,
            MethodSpec::RnTrajRecWoGf,
            MethodSpec::RnTrajRecWoGat,
            MethodSpec::RnTrajRecWoGn,
            MethodSpec::RnTrajRecWoGcl,
            MethodSpec::RnTrajRec,
        ]
    }

    /// Is this a learned, end-to-end "A + Decoder" method?
    pub fn is_end_to_end(&self) -> bool {
        !matches!(self, MethodSpec::LinearHmm | MethodSpec::DhtrHmm)
    }
}

/// An encoder + the shared decoder + its parameters and loss weights.
pub struct EndToEnd {
    pub store: ParamStore,
    pub encoder: Box<dyn TrajEncoder>,
    pub decoder: Decoder,
    /// λ₁ (rate loss weight; paper: 10).
    pub lambda1: f32,
    /// λ₂ (graph classification loss weight; paper: 0.1; 0 disables).
    pub lambda2: f32,
    pub name: String,
}

impl EndToEnd {
    /// Build the model for an end-to-end [`MethodSpec`].
    ///
    /// # Panics
    /// Panics for the two-stage specs (`LinearHmm`, `DhtrHmm`) — those are
    /// handled by [`crate::twostage`].
    pub fn build(
        spec: &MethodSpec,
        net: &RoadNetwork,
        grid: &GridSpec,
        dim: usize,
        seed: u64,
    ) -> Self {
        assert!(spec.is_end_to_end(), "{spec:?} is a two-stage method");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let cells = grid.num_cells();
        let heads = if dim.is_multiple_of(4) { 4 } else { 2 };
        let mut lambda2 = 0.1;
        let mut use_mask = true;

        let encoder: Box<dyn TrajEncoder> = match spec {
            MethodSpec::T2vec => {
                lambda2 = 0.0;
                Box::new(T2vecEncoder::new(&mut store, &mut rng, cells, dim))
            }
            MethodSpec::Transformer => {
                lambda2 = 0.0;
                Box::new(TransformerBaseline::new(
                    &mut store, &mut rng, cells, dim, 2, heads,
                ))
            }
            MethodSpec::MTrajRec => {
                lambda2 = 0.0;
                Box::new(MTrajRecEncoder::new(&mut store, &mut rng, cells, dim))
            }
            MethodSpec::T3s => {
                lambda2 = 0.0;
                Box::new(T3sEncoder::new(&mut store, &mut rng, cells, dim, heads))
            }
            MethodSpec::Gts => {
                lambda2 = 0.0;
                Box::new(GtsEncoder::new(&mut store, &mut rng, net, dim))
            }
            MethodSpec::NeuTraj => {
                lambda2 = 0.0;
                Box::new(NeuTrajEncoder::new(
                    &mut store,
                    &mut rng,
                    grid.cols as usize,
                    grid.rows as usize,
                    dim,
                ))
            }
            MethodSpec::RnTrajRec
            | MethodSpec::RnTrajRecWoGrl
            | MethodSpec::RnTrajRecWoGf
            | MethodSpec::RnTrajRecWoGat
            | MethodSpec::RnTrajRecWoGn
            | MethodSpec::RnTrajRecWoGcl
            | MethodSpec::RnTrajRecNoMask
            | MethodSpec::RnTrajRecBackbone(_)
            | MethodSpec::RnTrajRecPlainGnn(_)
            | MethodSpec::RnTrajRecN(_)
            | MethodSpec::RnTrajRecWoGrlN(_) => {
                let mut cfg = RnTrajRecConfig::small(dim);
                match spec {
                    MethodSpec::RnTrajRecWoGrl => cfg.use_grl = false,
                    MethodSpec::RnTrajRecWoGf => cfg.grl.gated_fusion = false,
                    MethodSpec::RnTrajRecWoGat => cfg.grl.gat = false,
                    MethodSpec::RnTrajRecWoGn => cfg.grl.graph_norm = false,
                    MethodSpec::RnTrajRecWoGcl => lambda2 = 0.0,
                    MethodSpec::RnTrajRecNoMask => use_mask = false,
                    MethodSpec::RnTrajRecBackbone(b) => cfg.gridgnn.backbone = *b,
                    MethodSpec::RnTrajRecPlainGnn(b) => {
                        cfg.gridgnn.backbone = *b;
                        cfg.gridgnn.use_grid = false;
                    }
                    MethodSpec::RnTrajRecN(n) => cfg.n_blocks = *n,
                    MethodSpec::RnTrajRecWoGrlN(n) => {
                        cfg.n_blocks = *n;
                        cfg.use_grl = false;
                    }
                    _ => {}
                }
                if matches!(
                    spec,
                    MethodSpec::RnTrajRecWoGrl | MethodSpec::RnTrajRecWoGrlN(_)
                ) {
                    lambda2 = 0.0; // no graph output to classify
                }
                Box::new(RnTrajRecEncoder::new(&mut store, &mut rng, net, grid, cfg))
            }
            MethodSpec::LinearHmm | MethodSpec::DhtrHmm => unreachable!(),
        };
        let decoder = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim,
                num_segments: net.num_segments(),
                use_mask,
            },
        );
        EndToEnd {
            store,
            encoder,
            decoder,
            lambda1: 10.0,
            lambda2,
            name: spec.label(),
        }
    }

    /// Number of learnable scalars (Fig. 6's "#Para").
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Total batch loss `Σ_samples (L_id + λ₁·L_rate) + λ₂·L_enc` on the
    /// tape (full teacher forcing).
    pub fn batch_loss(&self, tape: &mut Tape, batch: &[&SampleInput], rng: &mut StdRng) -> NodeId {
        self.batch_loss_scheduled(tape, batch, 1.0, rng)
    }

    /// Batch loss with scheduled sampling: each decoder step conditions on
    /// the ground truth with probability `tf_prob`, otherwise on the
    /// model's own prediction (exposure-bias mitigation; observed steps
    /// always use the truth — they are given in the input). `rng` draws
    /// only those coins ([`Decoder::scheduled_loss`]).
    pub fn batch_loss_scheduled(
        &self,
        tape: &mut Tape,
        batch: &[&SampleInput],
        tf_prob: f32,
        rng: &mut StdRng,
    ) -> NodeId {
        let enc = self.encoder.encode(tape, &self.store, batch);
        let (l_id, l_rate) =
            self.decoder
                .scheduled_loss(tape, &self.store, &enc.outputs, batch, tf_prob, rng);
        let l_rate = tape.scale(l_rate, self.lambda1);
        let mut total = tape.add(l_id, l_rate);
        if self.lambda2 > 0.0 {
            if let Some(aux) = enc.aux_loss {
                let aux = tape.scale(aux, self.lambda2);
                total = tape.add(total, aux);
            }
        }
        total
    }

    /// Greedy inference on the tape: predicted `(segment, rate)` per target
    /// step. The reference that [`EndToEnd::infer_predict_batch`] is pinned
    /// bit-identical to.
    pub fn predict(&self, input: &SampleInput) -> Vec<(usize, f32)> {
        let mut tape = Tape::new();
        let enc = self.encoder.encode(&mut tape, &self.store, &[input]);
        let mut state = DecodeState::on_tape(&self.decoder, &self.store, tape);
        state.admit(&[BatchMember::new(&enc.outputs[0], input)]);
        state.finish_greedy().remove(0)
    }

    /// Precompute the input-independent road representation (`X_road`) for
    /// serving; `None` for encoders without one.
    pub fn precompute_road(&self) -> Option<Tensor> {
        self.encoder.precompute_road(&self.store)
    }

    /// Tape-free greedy inference over a closed batch, fused end to end —
    /// the forward-only twin of [`EndToEnd::predict`] with no autograd
    /// allocation, the same path for every end-to-end method: one encoder
    /// pass over the whole batch
    /// ([`rntrajrec_models::TrajEncoder::infer_batch`] — RNTrajRec stacks
    /// every member's per-point rows in one matmul per projection with
    /// GraphNorm statistics scoped per member, the baselines encode each
    /// member alone, so cross-request batching cannot change results),
    /// then the closed fused decode
    /// ([`Decoder::recover_batch_infer_with`]) — one stacked matmul per
    /// head per step. Each member's result is bit-identical to recovering
    /// it alone, for any batch composition; a single request is a batch of
    /// one. A caller that admits, cancels or streams mid-decode (the
    /// serving engine) runs the same two halves itself, stepping a
    /// [`rntrajrec_models::DecodeState`].
    ///
    /// `road` is the cached [`EndToEnd::precompute_road`] output (pass
    /// `None` to recompute per call); `head` picks the decoder
    /// [`SegmentHead`] (dense reference, sparse default, or quantized).
    pub fn infer_predict_batch(
        &self,
        inputs: &[&SampleInput],
        road: Option<&Tensor>,
        head: SegmentHead<'_>,
    ) -> Vec<Vec<(usize, f32)>> {
        let encs = self
            .encoder
            .infer_batch(&self.store, inputs, road)
            .expect("every encoder has an eager path");
        let members: Vec<BatchMember> = encs
            .iter()
            .zip(inputs)
            .map(|(enc, &sample)| BatchMember::new(enc, sample))
            .collect();
        self.decoder
            .recover_batch_infer_with(&self.store, &members, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rntrajrec_models::FeatureExtractor;
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    fn fixture() -> (SyntheticCity, Vec<SampleInput>, GridSpec) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let mut sim = Simulator::new(
            &city.net,
            SimConfig {
                target_len: 9,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let inputs = (0..3)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect();
        (city, inputs, grid)
    }

    #[test]
    fn every_end_to_end_method_builds_and_losses() {
        let (city, inputs, grid) = fixture();
        let refs: Vec<&SampleInput> = inputs.iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        for spec in MethodSpec::table3()
            .into_iter()
            .filter(|s| s.is_end_to_end())
        {
            let model = EndToEnd::build(&spec, &city.net, &grid, 16, 7);
            let mut tape = Tape::new();
            let loss = model.batch_loss(&mut tape, &refs, &mut rng);
            let v = tape.value(loss).item();
            assert!(v.is_finite() && v > 0.0, "{}: loss {v}", model.name);
        }
    }

    #[test]
    fn ablation_variants_build() {
        let (city, inputs, grid) = fixture();
        let refs: Vec<&SampleInput> = inputs.iter().collect();
        let mut rng = StdRng::seed_from_u64(2);
        for spec in MethodSpec::table5() {
            let model = EndToEnd::build(&spec, &city.net, &grid, 16, 7);
            let mut tape = Tape::new();
            let loss = model.batch_loss(&mut tape, &refs[..1], &mut rng);
            assert!(tape.value(loss).item().is_finite(), "{}", model.name);
        }
    }

    #[test]
    fn predictions_have_target_length_and_valid_values() {
        let (city, inputs, grid) = fixture();
        let model = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        let preds = model.predict(&inputs[0]);
        assert_eq!(preds.len(), inputs[0].target_len());
        for &(seg, rate) in &preds {
            assert!(seg < city.net.num_segments());
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// Every end-to-end method of Tables III and V, plus the unmasked
    /// decoder.
    fn end_to_end_specs() -> Vec<MethodSpec> {
        let mut specs: Vec<MethodSpec> = MethodSpec::table3()
            .into_iter()
            .filter(|s| s.is_end_to_end())
            .collect();
        for spec in MethodSpec::table5()
            .into_iter()
            .chain([MethodSpec::RnTrajRecNoMask])
        {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
        specs
    }

    #[test]
    fn tape_free_inference_matches_tape_predict() {
        let (city, inputs, grid) = fixture();
        for spec in end_to_end_specs() {
            let model = EndToEnd::build(&spec, &city.net, &grid, 16, 7);
            let road = model.precompute_road();
            // Only RNTrajRec's GridGNN has an input-independent part.
            assert_eq!(road.is_some(), model.encoder.name() == "RNTrajRec");
            for (i, input) in inputs.iter().enumerate() {
                let slow = model.predict(input);
                let fast = model
                    .infer_predict_batch(&[input], road.as_ref(), SegmentHead::Sparse)
                    .remove(0);
                assert_eq!(slow.len(), fast.len(), "{}: input {i}", model.name);
                for (j, (&(s_seg, s_rate), &(f_seg, f_rate))) in slow.iter().zip(&fast).enumerate()
                {
                    let at = format!("{}: input {i} step {j}", model.name);
                    assert_eq!(s_seg, f_seg, "{at}: segment diverged");
                    // Tape-free mirrors the tape op-for-op: bit-identical.
                    assert_eq!(s_rate.to_bits(), f_rate.to_bits(), "{at}: rate bits");
                }
            }
        }
    }

    #[test]
    fn batched_inference_matches_per_input_bitwise() {
        let (city, inputs, grid) = fixture();
        let refs: Vec<&SampleInput> = inputs.iter().collect();
        for spec in end_to_end_specs() {
            let model = EndToEnd::build(&spec, &city.net, &grid, 16, 7);
            let road = model.precompute_road();
            let one_by_one: Vec<Vec<(usize, f32)>> = refs
                .iter()
                .map(|&i| {
                    model
                        .infer_predict_batch(&[i], road.as_ref(), SegmentHead::Sparse)
                        .remove(0)
                })
                .collect();
            let batched = model.infer_predict_batch(&refs, road.as_ref(), SegmentHead::Sparse);
            let bits = |paths: &[Vec<(usize, f32)>]| -> Vec<Vec<(usize, u32)>> {
                paths
                    .iter()
                    .map(|p| p.iter().map(|&(s, r)| (s, r.to_bits())).collect())
                    .collect()
            };
            assert_eq!(
                bits(&batched),
                bits(&one_by_one),
                "{}: fused decode diverged",
                model.name
            );
            // Empty batch is a no-op.
            assert!(model
                .infer_predict_batch(&[], road.as_ref(), SegmentHead::Sparse)
                .is_empty());
        }
    }

    #[test]
    fn rntrajrec_has_more_params_than_mtrajrec() {
        // Fig. 6: RNTrajRec is the largest model in the comparison.
        let (city, _, grid) = fixture();
        let rn = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);
        let mt = EndToEnd::build(&MethodSpec::MTrajRec, &city.net, &grid, 16, 7);
        assert!(rn.num_params() > mt.num_params());
    }

    #[test]
    #[should_panic(expected = "two-stage")]
    fn two_stage_specs_cannot_build_end_to_end() {
        let (city, _, grid) = fixture();
        let _ = EndToEnd::build(&MethodSpec::LinearHmm, &city.net, &grid, 16, 7);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<String> = MethodSpec::table3().iter().map(|s| s.label()).collect();
        labels.extend(MethodSpec::table5().iter().map(|s| s.label()));
        let n = labels.len();
        labels.sort();
        labels.dedup();
        // table5 contains RnTrajRec which is also in table3.
        assert_eq!(labels.len(), n - 1);
    }
}
