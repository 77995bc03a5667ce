//! Baseline encoders (Section VI-A4), each re-implemented at the level the
//! paper uses them: as a trajectory encoder in front of the shared
//! multi-task decoder ("A + Decoder", Remark 2).
//!
//! * [`MTrajRecEncoder`] — grid embedding + GRU (the paper's strongest
//!   published end-to-end baseline \[11\]).
//! * [`TransformerBaseline`] — vanilla transformer over grid/time features.
//! * [`T2vecEncoder`] — BiLSTM (\[6\]).
//! * [`NeuTrajEncoder`] — LSTM with a spatial-attention memory over the
//!   neighbouring grid cells (\[7\]).
//! * [`T3sEncoder`] — self-attention + spatial LSTM, gated mix (\[8\]).
//! * [`GtsEncoder`] — GCN over the road graph anchored at the nearest
//!   segment ("POI") + GRU (\[10\]).
//! * [`DhtrSeq2Seq`] — the learned interpolator of DHTR \[19\]: seq2seq
//!   position regression (its Kalman/HMM post-processing lives in
//!   `rntrajrec-mapmatch` / the evaluation harness).
//!
//! The six encoders each write one member's forward once over
//! [`Exec`] (`MemberEncoder`); one blanket [`TrajEncoder`] impl runs it
//! on the tape for `encode` and on [`Eager`] for `infer_batch`.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::attention::{AdditiveAttention, MultiHeadAttention, PositionalEncoding};
use crate::encoder::{BatchEncoderOutput, EncoderOutput, InferOutput, TrajEncoder};
use crate::features::SampleInput;
use crate::graph_layers::GcnLayer;
use crate::layers::Linear;
use crate::rnn::{BiLstm, GruCell, LstmCell};
use crate::transformer::TransformerEncoderLayer;
use rntrajrec_nn::{Eager, Exec, GraphCsr, Init, NodeId, ParamId, ParamStore, Tape, Tensor};
use rntrajrec_roadnet::RoadNetwork;

/// A baseline encoder: each member of a batch is encoded on its own by
/// one [`Exec`]-generic body, so batch composition cannot change a
/// member's outputs.
trait MemberEncoder: Send + Sync {
    const NAME: &'static str;

    /// Input-independent work run once per call and shared by every
    /// member (GTS's road GCN).
    fn shared<'s, E: Exec<'s>>(&self, _ex: &mut E, _store: &'s ParamStore) -> Option<E::H> {
        None
    }

    /// One member's per-point and trajectory-level states.
    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        shared: Option<&E::H>,
    ) -> EncoderOutput<E::H>;
}

impl<T: MemberEncoder> TrajEncoder for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &[&SampleInput],
    ) -> BatchEncoderOutput {
        let shared = self.shared(tape, store);
        let outputs = batch
            .iter()
            .map(|sample| self.member(tape, store, sample, shared.as_ref()))
            .collect();
        BatchEncoderOutput {
            outputs,
            aux_loss: None,
        }
    }

    fn infer_batch(
        &self,
        store: &ParamStore,
        samples: &[&SampleInput],
        _road: Option<&Tensor>,
    ) -> Option<Vec<InferOutput>> {
        let ex = &mut Eager;
        let shared = self.shared(ex, store);
        let outputs = samples.iter().map(|sample| {
            let out = self.member(ex, store, sample, shared.as_ref());
            InferOutput {
                per_point: out.per_point.into_owned(),
                traj: out.traj.into_owned(),
            }
        });
        Some(outputs.collect())
    }
}

/// Shared input pipeline: grid-cell embedding ++ 5 base features → linear.
struct GridInput {
    grid_emb: ParamId,
    proj: Linear,
}

impl GridInput {
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        num_cells: usize,
        dim: usize,
    ) -> Self {
        Self {
            grid_emb: store.add(
                format!("{name}.grid_emb"),
                num_cells,
                dim,
                Init::Uniform(0.1),
                rng,
            ),
            proj: Linear::new(store, rng, &format!("{name}.in"), dim + 5, dim, true),
        }
    }

    /// `[l_τ, dim]` point features.
    fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
    ) -> E::H {
        let table = ex.param(store, self.grid_emb);
        let emb = ex.gather_rows(&table, &sample.grid_flat);
        let base = ex.input(&sample.base_feats);
        let cat = ex.concat_cols(&[&emb, &base]);
        self.proj.forward(ex, store, &cat)
    }
}

/// Shared trajectory-level head: mean pooled states ++ env context → d.
struct TrajHead {
    head: Linear,
}

impl TrajHead {
    fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            head: Linear::new(store, rng, &format!("{name}.traj"), dim + 25, dim, true),
        }
    }

    /// `per_point` with its `[1, d]` trajectory-level state.
    fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        per_point: E::H,
        sample: &SampleInput,
    ) -> EncoderOutput<E::H> {
        let mean = ex.mean_rows(&per_point);
        let env = ex.constant(Tensor::row(sample.env.to_vec()));
        let cat = ex.concat_cols(&[&mean, &env]);
        let traj = self.head.forward(ex, store, &cat);
        EncoderOutput { per_point, traj }
    }
}

// ---------------------------------------------------------------- MTrajRec

/// MTrajRec's encoder: a single GRU over grid/time features.
pub struct MTrajRecEncoder {
    input: GridInput,
    gru: GruCell,
    traj: TrajHead,
}

impl MTrajRecEncoder {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, num_cells: usize, dim: usize) -> Self {
        Self {
            input: GridInput::new(store, rng, "mtraj", num_cells, dim),
            gru: GruCell::new(store, rng, "mtraj.gru", dim, dim),
            traj: TrajHead::new(store, rng, "mtraj", dim),
        }
    }
}

impl MemberEncoder for MTrajRecEncoder {
    const NAME: &'static str = "MTrajRec";

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        _shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let x = self.input.forward(ex, store, sample);
        let per_point = self.gru.run_sequence(ex, store, &x);
        self.traj.forward(ex, store, per_point, sample)
    }
}

// ------------------------------------------------------------- Transformer

/// The "Transformer + Decoder" baseline: vanilla transformer encoder over
/// grid/time features with positional encoding.
pub struct TransformerBaseline {
    input: GridInput,
    pe: PositionalEncoding,
    layers: Vec<TransformerEncoderLayer>,
    traj: TrajHead,
}

impl TransformerBaseline {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        num_cells: usize,
        dim: usize,
        n_layers: usize,
        heads: usize,
    ) -> Self {
        Self {
            input: GridInput::new(store, rng, "tf", num_cells, dim),
            pe: PositionalEncoding::new(dim),
            layers: (0..n_layers)
                .map(|l| {
                    TransformerEncoderLayer::new(
                        store,
                        rng,
                        &format!("tf.l{l}"),
                        dim,
                        heads,
                        2 * dim,
                    )
                })
                .collect(),
            traj: TrajHead::new(store, rng, "tf", dim),
        }
    }
}

impl MemberEncoder for TransformerBaseline {
    const NAME: &'static str = "Transformer";

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        _shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let x = self.input.forward(ex, store, sample);
        let mut h = self.pe.add_to(ex, &x);
        let whole = 0..sample.input_len();
        for l in &self.layers {
            h = l.forward(ex, store, &h, std::slice::from_ref(&whole));
        }
        self.traj.forward(ex, store, h, sample)
    }
}

// ------------------------------------------------------------------- t2vec

/// t2vec's encoder: a bidirectional LSTM over grid/time features.
pub struct T2vecEncoder {
    input: GridInput,
    bilstm: BiLstm,
    traj: TrajHead,
}

impl T2vecEncoder {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, num_cells: usize, dim: usize) -> Self {
        Self {
            input: GridInput::new(store, rng, "t2vec", num_cells, dim),
            bilstm: BiLstm::new(store, rng, "t2vec.bilstm", dim, dim),
            traj: TrajHead::new(store, rng, "t2vec", dim),
        }
    }
}

impl MemberEncoder for T2vecEncoder {
    const NAME: &'static str = "t2vec";

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        _shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let x = self.input.forward(ex, store, sample);
        let per_point = self.bilstm.run_sequence(ex, store, &x);
        self.traj.forward(ex, store, per_point, sample)
    }
}

// ----------------------------------------------------------------- NeuTraj

/// NeuTraj's encoder: LSTM augmented with a spatial-attention memory —
/// the embedding of each point's grid cell is blended (gated) with the
/// mean embedding of the 4-neighbourhood cells before entering the LSTM.
pub struct NeuTrajEncoder {
    input: GridInput,
    gate: Linear,
    lstm: LstmCell,
    traj: TrajHead,
    grid_cols: usize,
    grid_rows: usize,
}

impl NeuTrajEncoder {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        grid_cols: usize,
        grid_rows: usize,
        dim: usize,
    ) -> Self {
        let num_cells = grid_cols * grid_rows;
        Self {
            input: GridInput::new(store, rng, "neutraj", num_cells, dim),
            gate: Linear::new(store, rng, "neutraj.gate", 2 * dim, dim, true),
            lstm: LstmCell::new(store, rng, "neutraj.lstm", 2 * dim, dim),
            traj: TrajHead::new(store, rng, "neutraj", dim),
            grid_cols,
            grid_rows,
        }
    }

    fn neighbor_cells(&self, flat: usize) -> Vec<usize> {
        let (c, r) = (flat % self.grid_cols, flat / self.grid_cols);
        let mut out = Vec::with_capacity(4);
        if c > 0 {
            out.push(flat - 1);
        }
        if c + 1 < self.grid_cols {
            out.push(flat + 1);
        }
        if r > 0 {
            out.push(flat - self.grid_cols);
        }
        if r + 1 < self.grid_rows {
            out.push(flat + self.grid_cols);
        }
        if out.is_empty() {
            out.push(flat);
        }
        out
    }
}

impl MemberEncoder for NeuTrajEncoder {
    const NAME: &'static str = "NeuTraj";

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        _shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let x = self.input.forward(ex, store, sample);
        // Spatial memory: gated mean of neighbour-cell embeddings.
        let table = ex.param(store, self.input.grid_emb);
        let mem_rows: Vec<E::H> = sample
            .grid_flat
            .iter()
            .map(|&flat| {
                let emb = ex.gather_rows(&table, &self.neighbor_cells(flat));
                ex.mean_rows(&emb)
            })
            .collect();
        let mem = ex.concat_rows(&mem_rows.iter().collect::<Vec<_>>()); // [lτ, d]
        let cat = ex.concat_cols(&[&x, &mem]);
        let g_lin = self.gate.forward(ex, store, &cat);
        let g = ex.sigmoid(&g_lin);
        let gated_mem = ex.mul(&g, &mem);
        let lstm_in = ex.concat_cols(&[&x, &gated_mem]);
        let per_point = self.lstm.run_sequence(ex, store, &lstm_in);
        self.traj.forward(ex, store, per_point, sample)
    }
}

// --------------------------------------------------------------------- T3S

/// T3S: a self-attention branch for structural features and an LSTM branch
/// for spatial features, mixed with a learned scalar gate.
pub struct T3sEncoder {
    input: GridInput,
    mha: MultiHeadAttention,
    lstm: LstmCell,
    mix: ParamId,
    traj: TrajHead,
}

impl T3sEncoder {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        num_cells: usize,
        dim: usize,
        heads: usize,
    ) -> Self {
        Self {
            input: GridInput::new(store, rng, "t3s", num_cells, dim),
            mha: MultiHeadAttention::new(store, rng, "t3s.mha", dim, heads),
            lstm: LstmCell::new(store, rng, "t3s.lstm", dim, dim),
            mix: store.add("t3s.mix", 1, 1, Init::Zeros, rng),
            traj: TrajHead::new(store, rng, "t3s", dim),
        }
    }
}

impl MemberEncoder for T3sEncoder {
    const NAME: &'static str = "T3S";

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        _shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let x = self.input.forward(ex, store, sample);
        let l = sample.input_len();
        let attn = self
            .mha
            .forward(ex, store, &x, std::slice::from_ref(&(0..l)));
        let lstm = self.lstm.run_sequence(ex, store, &x);
        let mix = ex.param(store, self.mix);
        let g = ex.sigmoid(&mix); // scalar in (0,1)
        let ones = ex.constant(Tensor::full(l, 1, 1.0));
        let g_col = ex.matmul(&ones, &g); // [lτ,1]
        let a_part = ex.mul_colvec(&attn, &g_col);
        let neg = ex.scale(&g_col, -1.0);
        let inv = ex.add_const(&neg, 1.0);
        let l_part = ex.mul_colvec(&lstm, &inv);
        let per_point = ex.add(&a_part, &l_part);
        self.traj.forward(ex, store, per_point, sample)
    }
}

// --------------------------------------------------------------------- GTS

/// GTS adapted to our setting (Section VI-A4 item vii): road-graph GCN over
/// segment ("POI") embeddings, each GPS point anchored at its nearest
/// segment, then a GRU over the sequence.
pub struct GtsEncoder {
    road_emb: ParamId,
    gcns: Vec<GcnLayer>,
    proj: Linear,
    gru: GruCell,
    traj: TrajHead,
    csr: Arc<GraphCsr>,
}

impl GtsEncoder {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, net: &RoadNetwork, dim: usize) -> Self {
        let lists: Vec<Vec<usize>> = net
            .segment_ids()
            .map(|id| {
                net.neighbors_undirected(id)
                    .iter()
                    .map(|s| s.index())
                    .collect()
            })
            .collect();
        Self {
            road_emb: store.add(
                "gts.road_emb",
                net.num_segments(),
                dim,
                Init::Uniform(0.1),
                rng,
            ),
            gcns: (0..2)
                .map(|l| GcnLayer::new(store, rng, &format!("gts.gcn{l}"), dim, dim))
                .collect(),
            proj: Linear::new(store, rng, "gts.in", dim + 5, dim, true),
            gru: GruCell::new(store, rng, "gts.gru", dim, dim),
            traj: TrajHead::new(store, rng, "gts", dim),
            csr: Arc::new(GraphCsr::from_neighbor_lists(&lists, true)),
        }
    }
}

impl MemberEncoder for GtsEncoder {
    const NAME: &'static str = "GTS";

    /// The road graph's representation, once per call.
    fn shared<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore) -> Option<E::H> {
        let mut x = ex.param(store, self.road_emb);
        for gcn in &self.gcns {
            x = gcn.forward(ex, store, &x, &self.csr);
        }
        Some(x)
    }

    fn member<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s SampleInput,
        shared: Option<&E::H>,
    ) -> EncoderOutput<E::H> {
        let road = shared.expect("GtsEncoder::shared is always Some");
        let emb = ex.gather_rows(road, &sample.nearest_seg);
        let base = ex.input(&sample.base_feats);
        let cat = ex.concat_cols(&[&emb, &base]);
        let h = self.proj.forward(ex, store, &cat);
        let per_point = self.gru.run_sequence(ex, store, &h);
        self.traj.forward(ex, store, per_point, sample)
    }
}

// -------------------------------------------------------------------- DHTR

/// DHTR's learned interpolator: encoder GRU over the low-sample input,
/// decoder GRU with additive attention regressing the *position* of every
/// target step (normalised coordinates). Kalman smoothing and HMM map
/// matching post-process the regressed positions (two-stage method).
pub struct DhtrSeq2Seq {
    in_proj: Linear,
    enc_gru: GruCell,
    attn: AdditiveAttention,
    dec_gru: GruCell,
    out: Linear,
    pub dim: usize,
}

impl DhtrSeq2Seq {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, dim: usize) -> Self {
        Self {
            in_proj: Linear::new(store, rng, "dhtr.in", 5, dim, true),
            enc_gru: GruCell::new(store, rng, "dhtr.enc", dim, dim),
            attn: AdditiveAttention::new(store, rng, "dhtr.attn", dim),
            dec_gru: GruCell::new(store, rng, "dhtr.dec", dim + 2, dim),
            out: Linear::new(store, rng, "dhtr.out", dim, 2, true),
            dim,
        }
    }

    /// Predict `[l_ρ, 2]` normalised coordinates.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, sample: &SampleInput) -> NodeId {
        let base = tape.leaf(sample.base_feats.clone());
        let x = self.in_proj.forward(tape, store, &base);
        let enc = self.enc_gru.run_sequence(tape, store, &x);
        let l = sample.input_len();
        let mut h = tape.select_rows(enc, l - 1, 1);
        // First "previous position" = first observed point.
        let mut prev = tape.leaf(Tensor::row(vec![
            sample.base_feats.get(0, 0),
            sample.base_feats.get(0, 1),
        ]));
        let hk = self.attn.project_keys(tape, store, &enc);
        let whole = 0..l;
        let segs = std::slice::from_ref(&whole);
        let mut outs = Vec::with_capacity(sample.target_len());
        for _ in 0..sample.target_len() {
            let ctx = self.attn.forward(tape, store, &h, &enc, &hk, segs);
            let input = tape.concat_cols(&[ctx, prev]);
            h = self.dec_gru.step(tape, store, &input, &h);
            let xy = self.out.forward(tape, store, &h);
            let xy = tape.sigmoid(xy); // coordinates are normalised to [0,1]
            outs.push(xy);
            prev = xy;
        }
        tape.concat_rows(&outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureExtractor;
    use rand::SeedableRng;
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    struct Fixture {
        city: SyntheticCity,
        inputs: Vec<SampleInput>,
        grid_cells: usize,
        grid_cols: usize,
        grid_rows: usize,
    }

    fn fixture() -> Fixture {
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
        let mut rng = StdRng::seed_from_u64(11);
        let inputs = (0..2)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect();
        Fixture {
            city,
            inputs,
            grid_cells: grid.num_cells(),
            grid_cols: grid.cols as usize,
            grid_rows: grid.rows as usize,
        }
    }

    fn check_encoder(enc: &dyn TrajEncoder, f: &Fixture) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store_rng = StdRng::seed_from_u64(2);
        let _ = &mut store_rng;
        let store = ParamStore::new();
        let _ = store;
        // Encoders are constructed by callers; here we just run them.
        let refs: Vec<&SampleInput> = f.inputs.iter().collect();
        let mut tape = Tape::new();
        // Trick: the encoder was constructed with its own store which the
        // caller passes here; tests call through `run_encoder` instead.
        let _ = (&mut tape, refs, &mut rng, enc);
    }

    #[test]
    fn all_sequence_encoders_produce_correct_shapes() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let d = 16;
        let encoders: Vec<Box<dyn TrajEncoder>> = vec![
            Box::new(MTrajRecEncoder::new(&mut store, &mut rng, f.grid_cells, d)),
            Box::new(TransformerBaseline::new(
                &mut store,
                &mut rng,
                f.grid_cells,
                d,
                2,
                2,
            )),
            Box::new(T2vecEncoder::new(&mut store, &mut rng, f.grid_cells, d)),
            Box::new(NeuTrajEncoder::new(
                &mut store,
                &mut rng,
                f.grid_cols,
                f.grid_rows,
                d,
            )),
            Box::new(T3sEncoder::new(&mut store, &mut rng, f.grid_cells, d, 2)),
            Box::new(GtsEncoder::new(&mut store, &mut rng, &f.city.net, d)),
        ];
        let refs: Vec<&SampleInput> = f.inputs.iter().collect();
        for enc in &encoders {
            let mut tape = Tape::new();
            let out = enc.encode(&mut tape, &store, &refs);
            assert_eq!(out.outputs.len(), refs.len(), "{}", enc.name());
            for (o, s) in out.outputs.iter().zip(&refs) {
                assert_eq!(
                    tape.value(o.per_point).shape(),
                    (s.input_len(), d),
                    "{} per-point",
                    enc.name()
                );
                assert_eq!(tape.value(o.traj).shape(), (1, d), "{} traj", enc.name());
                assert!(tape.value(o.per_point).all_finite(), "{}", enc.name());
            }
            assert!(
                out.aux_loss.is_none(),
                "{} must not have aux loss",
                enc.name()
            );
        }
        let _ = check_encoder;
    }

    #[test]
    fn encoder_names_are_distinct() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let encoders: Vec<Box<dyn TrajEncoder>> = vec![
            Box::new(MTrajRecEncoder::new(&mut store, &mut rng, f.grid_cells, 8)),
            Box::new(TransformerBaseline::new(
                &mut store,
                &mut rng,
                f.grid_cells,
                8,
                1,
                2,
            )),
            Box::new(T2vecEncoder::new(&mut store, &mut rng, f.grid_cells, 8)),
            Box::new(NeuTrajEncoder::new(
                &mut store,
                &mut rng,
                f.grid_cols,
                f.grid_rows,
                8,
            )),
            Box::new(T3sEncoder::new(&mut store, &mut rng, f.grid_cells, 8, 2)),
            Box::new(GtsEncoder::new(&mut store, &mut rng, &f.city.net, 8)),
        ];
        let names: std::collections::HashSet<&str> = encoders.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), encoders.len());
    }

    #[test]
    fn dhtr_outputs_normalised_positions() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let dhtr = DhtrSeq2Seq::new(&mut store, &mut rng, 16);
        let mut tape = Tape::new();
        let xy = dhtr.forward(&mut tape, &store, &f.inputs[0]);
        assert_eq!(tape.value(xy).shape(), (f.inputs[0].target_len(), 2));
        assert!(tape
            .value(xy)
            .data
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn dhtr_is_trainable_on_positions() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let dhtr = DhtrSeq2Seq::new(&mut store, &mut rng, 16);
        let mut opt = rntrajrec_nn::Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            let mut tape = Tape::new();
            let pred = dhtr.forward(&mut tape, &store, &f.inputs[0]);
            let target = tape.leaf(f.inputs[0].target_xy_norm.clone());
            let d = tape.sub(pred, target);
            let sq = tape.mul(d, d);
            let loss = tape.mean_all(sq);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(
            last < first.unwrap(),
            "DHTR loss did not decrease: {first:?} -> {last}"
        );
    }

    #[test]
    fn neutraj_neighbor_cells_respect_borders() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let enc = NeuTrajEncoder::new(&mut store, &mut rng, f.grid_cols, f.grid_rows, 8);
        // Corner cell 0 has exactly two neighbours (right, up).
        let n = enc.neighbor_cells(0);
        assert_eq!(n.len(), 2);
        assert!(n.contains(&1) && n.contains(&f.grid_cols));
        // Interior cell has four.
        let interior = f.grid_cols + 1;
        assert_eq!(enc.neighbor_cells(interior).len(), 4);
        // All indices in range.
        for flat in [0, interior, f.grid_cols * f.grid_rows - 1] {
            for c in enc.neighbor_cells(flat) {
                assert!(c < f.grid_cols * f.grid_rows);
            }
        }
    }
}
