//! The multi-task decoder (Section IV-G + V), proposed in MTrajRec \[11\] and
//! shared by every method in the comparison ("A + Decoder", Remark 2).
//!
//! A GRU with additive attention over the encoder outputs (Eq. 14–15)
//! predicts, per target timestamp, the road segment (classification with a
//! constraint mask, Eq. 16) and the moving ratio (regression, Eq. 17).

use std::ops::Range;

use rand::rngs::StdRng;

use crate::attention::AdditiveAttention;
use crate::encoder::{EncoderOutput, InferOutput};
use crate::features::SampleInput;

use crate::rnn::GruCell;
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::{kernels, Eager, Exec, Init, NodeId, ParamId, ParamStore, Tape, Tensor};

/// Log-weight assigned to segments outside the constraint mask
/// (`exp(-30) ≈ 1e-13`: effectively zero probability, numerically safe).
const MASKED_OUT_LOGW: f32 = -30.0;

/// One member's per-step sparse mask log-weights (`None` for unmasked
/// steps), precomputed once per batched decode.
type StepLogMasks = Vec<Option<Vec<(usize, f32)>>>;

/// Which implementation computes the Eq. 16 road-segment head on the
/// tape-free decode path.
///
/// `Sparse` is the default: the constraint mask already enumerates the
/// allowed segments, so [`kernels::masked_matmul_cols`] computes only those
/// columns of the `[B,d]×[d,|V|]` product (an algorithmic FLOP reduction
/// proportional to the mask's skip ratio) and normalises over them alone.
/// Recovery outputs (argmax segment + rate) match the dense route —
/// pinned in `batch_decode_parity.rs`, with the ≥ 3× head-FLOP reduction
/// gated in `crates/core/tests/fusion_gates.rs` — while masked-out columns become exact `-∞` log-probabilities instead of the
/// soft `exp(-30)` leakage. `Dense` keeps the historical full-matmul
/// route (reference + unmasked workloads); `Quantized` runs the sparse
/// route over int8 per-channel weights ([`QuantizedLinear`]), trading a
/// bounded accuracy drift (segment agreement ≥ 0.95, rate drift ≤ 0.05,
/// gated in `fusion_gates.rs`) for a smaller, faster weight matrix.
#[derive(Clone, Copy)]
pub enum SegmentHead<'a> {
    /// Dense `[B,d]×[d,|V|]` matmul + fused soft-mask log-softmax.
    Dense,
    /// Mask-allowed columns only, fused with the allowed-column
    /// log-softmax (the serving default).
    Sparse,
    /// Sparse-aware int8 head over pre-quantized weights.
    Quantized(&'a QuantizedLinear),
}

/// Decoder configuration.
#[derive(Debug, Clone)]
pub struct DecoderConfig {
    pub dim: usize,
    pub num_segments: usize,
    /// Apply the constraint mask of Section V (ablation toggle).
    pub use_mask: bool,
}

/// One member of a fused decode batch ([`DecodeState::admit`]): its
/// tape-free encoder outputs plus the request's step metadata. Borrowed
/// for the call only — the state copies what it keeps.
pub struct BatchMember<'a> {
    /// `[l_τ, d]` per-point encoder states (decoder attention keys).
    pub per_point: &'a Tensor,
    /// `[1, d]` trajectory-level state (initial decoder hidden state).
    pub traj: &'a Tensor,
    /// The request (target length and constraint masks).
    pub sample: &'a SampleInput,
}

impl<'a> BatchMember<'a> {
    /// `sample` with its tape-free encoder outputs.
    pub fn new(enc: &'a InferOutput, sample: &'a SampleInput) -> Self {
        Self {
            per_point: &enc.per_point,
            traj: &enc.traj,
            sample,
        }
    }
}

/// A member handed over by the [`DecodeHooks::admit`] hook: its encoder
/// pass ran *inside* the hook, so the tensors come owned — unlike
/// [`BatchMember`], which borrows from a batch encoded before the call.
pub struct GrownMember<'a> {
    /// `[l_τ, d]` per-point encoder states (decoder attention keys).
    pub per_point: Tensor,
    /// `[1, d]` trajectory-level state (initial decoder hidden state).
    pub traj: Tensor,
    /// The request (target length and constraint masks).
    pub sample: &'a SampleInput,
}

/// One decoded step of one member, as [`DecodeState::tick`] produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOut {
    /// Member index, in admission order.
    pub member: usize,
    /// The member's own step index (0-based; a member admitted mid-decode
    /// runs its step 0 at whatever tick it joined).
    pub step: usize,
    /// Predicted road segment (Eq. 16 argmax).
    pub segment: usize,
    /// Predicted moving ratio (Eq. 17).
    pub rate: f32,
    /// Log-probability of the predicted segment under the (masked) head.
    pub logprob: f32,
}

/// Callback form of the [`DecodeState`] verbs, for
/// [`Decoder::recover_batch_infer_stream`].
pub struct DecodeHooks<'h> {
    /// `cancel(member, step)` — asked before each of the member's steps
    /// whether it should retire ([`DecodeState::retire`]).
    pub cancel: &'h mut dyn FnMut(usize, usize) -> bool,
    /// Called before each tick with the live batch size; returned members
    /// are admitted ([`DecodeState::admit`]) and decode from their own
    /// step 0. Return an empty vec to keep the batch closed.
    pub admit: &'h mut dyn FnMut(usize) -> Vec<GrownMember<'h>>,
    /// Observes every decoded step in production order.
    pub on_step: &'h mut dyn FnMut(StepOut),
}

/// The result of decoding one trajectory.
pub struct DecoderRun {
    /// Per-step log-probabilities over segments `[1, |V|]` (post-mask).
    pub logps: Vec<NodeId>,
    /// Per-step predicted moving ratio `[1, 1]`.
    pub rates: Vec<NodeId>,
    /// Per-step argmax segment prediction.
    pub preds: Vec<usize>,
}

/// The multi-task GRU decoder.
pub struct Decoder {
    seg_emb: ParamId,
    start_emb: ParamId,
    attn: AdditiveAttention,
    gru: GruCell,
    w_id: ParamId,
    b_id: ParamId,
    w_rate: ParamId,
    pub config: DecoderConfig,
}

impl Decoder {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, config: DecoderConfig) -> Self {
        let d = config.dim;
        Self {
            seg_emb: store.add(
                "dec.seg_emb",
                config.num_segments,
                d,
                Init::Uniform(0.1),
                rng,
            ),
            start_emb: store.add("dec.start", 1, d, Init::Uniform(0.1), rng),
            attn: AdditiveAttention::new(store, rng, "dec.attn", d),
            // Input: [x_{j-1} ∥ r_{j-1} ∥ a_j] (Eq. 15).
            gru: GruCell::new(store, rng, "dec.gru", 2 * d + 1, d),
            w_id: store.add("dec.w_id", d, config.num_segments, Init::Xavier, rng),
            b_id: store.add("dec.b_id", 1, config.num_segments, Init::Zeros, rng),
            w_rate: store.add("dec.w_rate", 2 * d, 1, Init::Xavier, rng),
            config,
        }
    }

    /// The constraint-mask log-weight row of Eq. (16): allowed segments
    /// carry `ln w`, everything else the effectively-zero
    /// [`MASKED_OUT_LOGW`]. Used by the tape path; the tape-free path
    /// feeds the same log-weights sparsely into the fused
    /// `masked_log_softmax_rows` kernel via [`Decoder::mask_logw_entries`].
    fn mask_logw_row(&self, entries: &[(usize, f32)]) -> Tensor {
        let mut logw = vec![MASKED_OUT_LOGW; self.config.num_segments];
        for &(seg, w) in entries {
            logw[seg] = w.max(1e-6).ln();
        }
        Tensor::row(logw)
    }

    /// Sparse `(segment, log-weight)` mask entries for one decode step —
    /// `None` when masking is off or the step carries no mask. The same
    /// `ln(max(w, 1e-6))` transform as [`Decoder::mask_logw_row`], without
    /// materialising the `[1, |V|]` row, and in the canonical form the
    /// masked kernels require (segments ascending, the last write to a
    /// segment wins — what `mask_logw_row`'s overwrites produce), so the
    /// kernels never sort or dedup inside the step loop.
    fn mask_logw_entries(&self, mask: &Option<Vec<(usize, f32)>>) -> Option<Vec<(usize, f32)>> {
        match (self.config.use_mask, mask) {
            (true, Some(entries)) => Some(kernels::canonical_mask_entries(
                entries
                    .iter()
                    .map(|&(seg, w)| (seg, w.max(1e-6).ln()))
                    .collect(),
            )),
            _ => None,
        }
    }

    /// Quantize this decoder's segment-head weights to int8 for
    /// [`SegmentHead::Quantized`]; done once at model load, not per
    /// request.
    pub fn quantized_segment_head(&self, store: &ParamStore) -> QuantizedLinear {
        QuantizedLinear::from_weights(store.value(self.w_id))
    }

    /// Decode all `l_ρ` steps. With `teacher_forcing` the ground-truth
    /// segment/rate feed the next step (training); otherwise the model's
    /// own predictions do (inference).
    pub fn run(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        enc: &EncoderOutput,
        sample: &SampleInput,
        teacher_forcing: bool,
    ) -> DecoderRun {
        self.run_scheduled(tape, store, enc, sample, |_| teacher_forcing)
    }

    /// Decode with per-step scheduled sampling: `use_truth(j)` decides
    /// whether step `j` conditions on the ground truth (true) or on the
    /// model's own prediction (false). Decaying the teacher-forcing
    /// probability over training mitigates exposure bias at small data
    /// scale (DHTR \[19\] trains its seq2seq the same way).
    pub fn run_scheduled(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        enc: &EncoderOutput,
        sample: &SampleInput,
        mut use_truth: impl FnMut(usize) -> bool,
    ) -> DecoderRun {
        let l_rho = sample.target_len();
        let seg_table = tape.param(store, self.seg_emb);
        let w_id = tape.param(store, self.w_id);
        let b_id = tape.param(store, self.b_id);
        let w_rate = tape.param(store, self.w_rate);

        let mut h = enc.traj;
        let mut x_prev = tape.param(store, self.start_emb);
        let mut r_prev = tape.leaf(Tensor::scalar(0.0));
        let mut logps = Vec::with_capacity(l_rho);
        let mut rates = Vec::with_capacity(l_rho);
        let mut preds = Vec::with_capacity(l_rho);

        for j in 0..l_rho {
            // Eq. (14): attention over encoder outputs.
            let a = self.attn.forward(tape, store, h, enc.per_point);
            // Eq. (15): GRU update.
            let input = tape.concat_cols(&[x_prev, r_prev, a]);
            h = self.gru.step(tape, store, &input, &h);

            // Road-segment head with constraint mask (Eq. 16).
            let logits = tape.matmul(h, w_id);
            let logits = tape.add_rowvec(logits, b_id);
            let masked = match (self.config.use_mask, &sample.masks[j]) {
                (true, Some(entries)) => {
                    let lw = tape.leaf(self.mask_logw_row(entries));
                    tape.add(logits, lw)
                }
                _ => logits,
            };
            let logp = tape.log_softmax_rows(masked);
            let pred = tape.value(logp).argmax_row(0);

            // Next-step conditioning (teacher forcing vs. own prediction).
            let teach = use_truth(j);
            let cond_seg = if teach { sample.target_segs[j] } else { pred };
            let x_j = tape.gather_rows(seg_table, &[cond_seg]);

            // Moving-ratio head (Eq. 17): σ([x_j ∥ h_j]·w_rate).
            let rate_in = tape.concat_cols(&[x_j, h]);
            let rate_lin = tape.matmul(rate_in, w_rate);
            let rate = tape.sigmoid(rate_lin);

            logps.push(logp);
            rates.push(rate);
            preds.push(pred);

            x_prev = x_j;
            r_prev = if teach {
                tape.leaf(Tensor::scalar(sample.target_rates[j]))
            } else {
                rate
            };
        }
        DecoderRun {
            logps,
            rates,
            preds,
        }
    }

    /// Closed-batch fused greedy decode: admit `members`, tick until
    /// everyone has finished. Returns the predicted `(segment, rate)` per
    /// target step, per member.
    pub fn recover_batch_infer_with(
        &self,
        store: &ParamStore,
        members: &[BatchMember<'_>],
        head: SegmentHead<'_>,
    ) -> Vec<Vec<(usize, f32)>> {
        let mut state = DecodeState::new(self, store, head);
        state.admit(members);
        while state.live() > 0 {
            state.tick();
        }
        state.finish().0
    }

    /// [`DecodeState`] driven by callbacks: before every tick `admit` may
    /// hand over new members and `cancel` may retire live ones; every
    /// decoded step goes to `on_step`. Returns per-member outputs and
    /// cancelled flags, `members` first, admitted members after, in
    /// admission order.
    pub fn recover_batch_infer_stream(
        &self,
        store: &ParamStore,
        members: &[BatchMember<'_>],
        head: SegmentHead<'_>,
        hooks: &mut DecodeHooks<'_>,
    ) -> (Vec<Vec<(usize, f32)>>, Vec<bool>) {
        let mut state = DecodeState::new(self, store, head);
        state.admit(members);
        loop {
            let wave = (hooks.admit)(state.live());
            if !wave.is_empty() {
                let wave: Vec<BatchMember> = wave
                    .iter()
                    .map(|g| BatchMember {
                        per_point: &g.per_point,
                        traj: &g.traj,
                        sample: g.sample,
                    })
                    .collect();
                state.admit(&wave);
            }
            if state.live() == 0 {
                break;
            }
            state.retire(&mut *hooks.cancel);
            for &step in state.tick() {
                (hooks.on_step)(step);
            }
        }
        state.finish()
    }
}

/// What a [`DecodeState`] keeps per member, in admission order.
struct Slot {
    target_len: usize,
    /// The member's own step cursor: a member admitted at tick `t` is at
    /// step 0 while the first wave is at step `t`.
    step: usize,
    /// The member's rows in the stacked attention keys.
    keys: Range<usize>,
    logw: StepLogMasks,
    out: Vec<(usize, f32)>,
    cancelled: bool,
}

/// The tape-free greedy decode (the serving hot path) as a state the
/// caller steps: the twin of [`Decoder::run`] with
/// `teacher_forcing = false`, evaluated with plain tensor ops over a
/// whole micro-batch in lock-step. The caller owns the loop —
/// [`DecodeState::admit`] members, [`DecodeState::retire`] the ones whose
/// budget is gone, [`DecodeState::tick`] one step for everyone live,
/// [`DecodeState::finish`] — so a serving engine can take newcomers and
/// fan steps out between ticks without callbacks.
///
/// Every live member's hidden state is stacked into one `[B, d]` matrix
/// so each tick runs **one** stacked matmul per head — the
/// `[B,d]×[d,|V|]` segment head, the `[B,2d]×[2d,1]` rate head, the
/// three GRU gates, the attention query projection — instead of `B`
/// separate `[1, d]` products. Members attend over their own
/// (ragged-length) encoder outputs through the segmented kernels, the key
/// projection `W_h·H_traj` is computed once per admission wave (it is
/// input-constant; the tape path recomputes it every step), and the stack
/// shrinks as members finish. A single request is a batch of one.
///
/// Because every kernel involved computes each output row/segment with
/// exactly the accumulation order of the member's own `[1, d]` call, and
/// none mixes rows across members, each member's result is
/// **bit-identical** to decoding it alone — at any thread count, for any
/// batch composition, whoever is admitted or retired around it, at
/// whatever tick — property-tested in `tests/batch_decode_parity.rs`. A
/// retired member keeps the prefix decoded before its cut, itself
/// bit-identical to the uncut run's prefix. All heavy math runs on
/// `rntrajrec_nn::kernels`, which parallelises wide outputs by disjoint
/// column ranges — `NN_THREADS` cuts per-step latency without changing a
/// bit of the output.
pub struct DecodeState<'a> {
    decoder: &'a Decoder,
    store: &'a ParamStore,
    head: SegmentHead<'a>,
    members: Vec<Slot>,
    /// Members still decoding; row `s` of `h` / `x_prev` / `r_prev`
    /// belongs to member `active[s]`.
    active: Vec<usize>,
    /// Every admitted member's attention keys, stacked, and their
    /// projection `W_h·keys`.
    keys_all: Tensor,
    hk_all: Tensor,
    h: Tensor,
    x_prev: Tensor,
    r_prev: Tensor,
    tick: u32,
    /// The steps the last tick produced (its return value).
    stepped: Vec<StepOut>,
}

/// Append `new`'s rows under `dst`'s (a move while `dst` is empty).
fn append_rows(dst: &mut Tensor, new: Tensor) {
    *dst = if dst.rows == 0 {
        new
    } else {
        kernels::concat_rows(&[dst, &new])
    };
}

impl<'a> DecodeState<'a> {
    /// An empty decode over `decoder`'s weights in `store`.
    pub fn new(decoder: &'a Decoder, store: &'a ParamStore, head: SegmentHead<'a>) -> Self {
        let d = decoder.config.dim;
        Self {
            decoder,
            store,
            head,
            members: Vec::new(),
            active: Vec::new(),
            keys_all: Tensor::zeros(0, d),
            hk_all: Tensor::zeros(0, d),
            h: Tensor::zeros(0, d),
            x_prev: Tensor::zeros(0, d),
            r_prev: Tensor::zeros(0, 1),
            tick: 0,
            stepped: Vec::new(),
        }
    }

    /// Members still decoding.
    pub fn live(&self) -> usize {
        self.active.len()
    }

    /// Splice a wave of members into the stack; they decode from their own
    /// step 0 at the next tick and are numbered on from the members already
    /// admitted. The first wave is the initial batch. The wave is fused —
    /// one stacked `W_h·keys` matmul over every newcomer's rows and one
    /// append per state tensor. A fresh member's rows are what a batch of
    /// it alone would have initialised (`traj` / `start_emb` / rate 0):
    /// matmul and row concatenation are row-scoped, so stacking the wave,
    /// or appending it under incumbents, changes nothing.
    pub fn admit(&mut self, wave: &[BatchMember<'_>]) {
        let mut key_off = self.keys_all.rows;
        let mut keys: Vec<&Tensor> = Vec::with_capacity(wave.len());
        let mut trajs: Vec<&Tensor> = Vec::with_capacity(wave.len());
        self.members.reserve(wave.len());
        for m in wave {
            let target_len = m.sample.target_len();
            let rows = if target_len == 0 { 0 } else { m.per_point.rows };
            self.members.push(Slot {
                target_len,
                step: 0,
                keys: key_off..key_off + rows,
                logw: m
                    .sample
                    .masks
                    .iter()
                    .map(|mk| self.decoder.mask_logw_entries(mk))
                    .collect(),
                out: Vec::with_capacity(target_len),
                cancelled: false,
            });
            if target_len == 0 {
                continue;
            }
            key_off += rows;
            keys.push(m.per_point);
            trajs.push(m.traj);
            self.active.push(self.members.len() - 1);
        }
        if keys.is_empty() {
            return;
        }
        let start = self.store.value(self.decoder.start_emb);
        let stacked = kernels::concat_rows(&keys);
        let projected = kernels::matmul(&stacked, self.store.value(self.decoder.attn.wh));
        append_rows(&mut self.keys_all, stacked);
        append_rows(&mut self.hk_all, projected);
        append_rows(&mut self.h, kernels::concat_rows(&trajs));
        append_rows(&mut self.x_prev, kernels::repeat_rows(start, keys.len()));
        append_rows(&mut self.r_prev, Tensor::zeros(keys.len(), 1));
    }

    /// Ask `cut(member, step)` of every live member, before its next step
    /// runs, whether it should stop (the serving engine passes a deadline
    /// and dropped-handle check). Members it cuts leave through the same
    /// row compaction that retires finished members — a pure row copy, so
    /// surviving rows keep their exact values — and are flagged cancelled.
    pub fn retire(&mut self, mut cut: impl FnMut(usize, usize) -> bool) {
        let mut keep = Vec::with_capacity(self.active.len());
        for (s, &i) in self.active.iter().enumerate() {
            let m = &mut self.members[i];
            if cut(i, m.step) {
                m.cancelled = true;
            } else {
                keep.push(s);
            }
        }
        if keep.len() < self.active.len() {
            self.compact(&keep);
        }
    }

    /// Keep only the state rows in `keep`.
    fn compact(&mut self, keep: &[usize]) {
        self.h = kernels::gather_rows(&self.h, keep);
        self.x_prev = kernels::gather_rows(&self.x_prev, keep);
        self.r_prev = kernels::gather_rows(&self.r_prev, keep);
        self.active = keep.iter().map(|&s| self.active[s]).collect();
    }

    /// One lock-step decode step for every live member (none: no-op);
    /// returns what it produced, one [`StepOut`] per live member in stack
    /// order. Members that reach their target length leave the stack.
    pub fn tick(&mut self) -> &[StepOut] {
        self.stepped.clear();
        let b = self.active.len();
        if b == 0 {
            return &self.stepped;
        }
        let (dec, store) = (self.decoder, self.store);
        // One observability span per tick (rendered `decoder.step[t]`);
        // no-op unless tracing is enabled.
        let _step_span = rntrajrec_obs::span_indexed("decoder.step", self.tick);
        // Eq. (14): additive attention, all members in lock-step — one
        // stacked query projection, one stacked score product, then
        // the per-member softmax/context over ragged segments.
        let gq = kernels::matmul(&self.h, store.value(dec.attn.wg));
        let segs: Vec<Range<usize>> = self
            .active
            .iter()
            .map(|&i| self.members[i].keys.clone())
            .collect();
        let mut t = kernels::segments_add_rowvec(&self.hk_all, &gq, &segs);
        kernels::tanh_in_place(&mut t);
        let mu = kernels::matmul_nt(store.value(dec.attn.v), &t);
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        let alphas = kernels::softmax_segments(&mu, &lens);
        let a = kernels::segmented_attn_context(&alphas, &self.keys_all, &segs);

        // Eq. (15): one stacked GRU update.
        let input = kernels::concat_cols(&[&self.x_prev, &self.r_prev, &a]);
        self.h = {
            let (x, s) = (Eager.input(&input), Eager.input(&self.h));
            dec.gru.step(&mut Eager, store, &x, &s).into_owned()
        };
        let h = &self.h;

        // Eq. (16): one stacked segment head — sparse by default,
        // computing only each row's mask-allowed columns.
        let (w_id, b_id) = (store.value(dec.w_id), store.value(dec.b_id));
        let masks: Vec<Option<kernels::SparseLogMask>> = self
            .active
            .iter()
            .map(|&i| {
                let m = &self.members[i];
                m.logw[m.step]
                    .as_deref()
                    .map(|entries| kernels::SparseLogMask {
                        default: MASKED_OUT_LOGW,
                        entries,
                    })
            })
            .collect();
        let logp = match self.head {
            SegmentHead::Dense => {
                let logits = kernels::add_rowvec(&kernels::matmul(h, w_id), b_id);
                kernels::masked_log_softmax_rows(&logits, &masks)
            }
            SegmentHead::Sparse => kernels::masked_matmul_cols(h, w_id, b_id, &masks),
            SegmentHead::Quantized(q) => q.forward_masked(h, b_id, &masks),
        };
        let preds: Vec<usize> = (0..b).map(|r| logp.argmax_row(r)).collect();
        let x_j = kernels::gather_rows(store.value(dec.seg_emb), &preds);

        // Eq. (17): one stacked rate head.
        let rate_in = kernels::concat_cols(&[&x_j, h]);
        let rate = kernels::sigmoid(&kernels::matmul(&rate_in, store.value(dec.w_rate)));

        self.stepped.reserve(b);
        for (s, &i) in self.active.iter().enumerate() {
            let m = &mut self.members[i];
            m.out.push((preds[s], rate.data[s]));
            self.stepped.push(StepOut {
                member: i,
                step: m.step,
                segment: preds[s],
                rate: rate.data[s],
                logprob: logp.data[s * logp.cols + preds[s]],
            });
            m.step += 1;
        }
        self.x_prev = x_j;
        self.r_prev = rate;
        self.tick += 1;

        // Retire finished members (the batch shrinks).
        let members = &self.members;
        let unfinished = |i: usize| members[i].step < members[i].target_len;
        if !self.active.iter().all(|&i| unfinished(i)) {
            let keep: Vec<usize> = (0..b).filter(|&s| unfinished(self.active[s])).collect();
            self.compact(&keep);
        }
        &self.stepped
    }

    /// End the decode: per-member outputs (a retired member's is the
    /// prefix it got to) and cancelled flags, in admission order.
    pub fn finish(self) -> (Vec<Vec<(usize, f32)>>, Vec<bool>) {
        self.members
            .into_iter()
            .map(|m| (m.out, m.cancelled))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureExtractor;
    use rand::SeedableRng;
    use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    fn sample_input() -> (SyntheticCity, SampleInput) {
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
        let mut rng = StdRng::seed_from_u64(5);
        let s = sim.sample(&mut rng, 8);
        let input = fx.extract(&s);
        (city, input)
    }

    fn fake_encoder_output(tape: &mut Tape, l: usize, d: usize) -> EncoderOutput {
        let mut rng = StdRng::seed_from_u64(9);
        let per_point = tape.leaf(Tensor::uniform(l, d, 0.5, &mut rng));
        let traj = tape.leaf(Tensor::uniform(1, d, 0.5, &mut rng));
        EncoderOutput { per_point, traj }
    }

    #[test]
    fn decoder_step_outputs_are_consistent() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, true);
        assert_eq!(run.logps.len(), input.target_len());
        assert_eq!(run.rates.len(), input.target_len());
        assert_eq!(run.preds.len(), input.target_len());
        for (&lp, &r) in run.logps.iter().zip(&run.rates) {
            assert_eq!(tape.value(lp).shape(), (1, city.net.num_segments()));
            let rate = tape.value(r).item();
            assert!((0.0..=1.0).contains(&rate));
            // Log-probs must be ≤ 0 and normalised.
            let sum: f32 = tape.value(lp).data.iter().map(|x| x.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-3, "probs sum {sum}");
        }
    }

    #[test]
    fn constraint_mask_restricts_observed_steps() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, true);
        for (j, mask) in input.masks.iter().enumerate() {
            if let Some(entries) = mask {
                let allowed: std::collections::HashSet<usize> =
                    entries.iter().map(|&(s, _)| s).collect();
                assert!(
                    allowed.contains(&run.preds[j]),
                    "step {j}: prediction {} outside the constraint mask",
                    run.preds[j]
                );
            }
        }
    }

    #[test]
    fn without_mask_probabilities_unconstrained() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: false,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, true);
        // At initialisation (near-uniform logits) every segment should get
        // non-negligible probability on observed steps when unmasked.
        let lp = tape.value(run.logps[0]);
        let min = lp.data.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(
            min > MASKED_OUT_LOGW,
            "unmasked probs should not be pinned to -30"
        );
    }

    #[test]
    fn inference_mode_feeds_back_predictions() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, false);
        assert_eq!(run.preds.len(), input.target_len());
        // All predictions are valid segment indices.
        assert!(run.preds.iter().all(|&p| p < city.net.num_segments()));
    }

    #[test]
    fn fused_batch_of_one_matches_tape_inference() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, false);

        let member = BatchMember {
            per_point: tape.value(enc.per_point),
            traj: tape.value(enc.traj),
            sample: &input,
        };
        let fast = &dec.recover_batch_infer_with(&store, &[member], SegmentHead::Sparse)[0];

        assert_eq!(fast.len(), run.preds.len());
        for (j, &(seg, rate)) in fast.iter().enumerate() {
            assert_eq!(seg, run.preds[j], "step {j}: segment prediction diverged");
            let tape_rate = tape.value(run.rates[j]).item();
            assert_eq!(rate, tape_rate, "step {j}: rate not bit-identical");
        }
    }

    #[test]
    fn teacher_forcing_gradients_reach_embeddings() {
        let (city, input) = sample_input();
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let dec = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: 16,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        let mut tape = Tape::new();
        let enc = fake_encoder_output(&mut tape, input.input_len(), 16);
        let run = dec.run(&mut tape, &store, &enc, &input, true);
        // Simple loss: sum of selected true-class negative log-probs.
        let mut terms = Vec::new();
        for (j, &lp) in run.logps.iter().enumerate() {
            let picked = tape.select_cols(lp, input.target_segs[j], 1);
            terms.push(tape.scale(picked, -1.0));
        }
        let all = tape.concat_rows(&terms);
        let loss = tape.mean_all(all);
        store.zero_grad();
        tape.backward(loss, &mut store);
        assert!(store.grad(dec.w_id).data.iter().any(|&g| g != 0.0));
        assert!(store.grad(dec.seg_emb).data.iter().any(|&g| g != 0.0));
    }
}
