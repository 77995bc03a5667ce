//! The multi-task decoder (Section IV-G + V), proposed in MTrajRec \[11\] and
//! shared by every method in the comparison ("A + Decoder", Remark 2).
//!
//! A GRU with additive attention over the encoder outputs (Eq. 14–15)
//! predicts, per target timestamp, the road segment (classification with a
//! constraint mask, Eq. 16) and the moving ratio (regression, Eq. 17).

use std::ops::Range;

use rand::rngs::StdRng;

use crate::attention::AdditiveAttention;
use crate::encoder::EncoderOutput;
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

/// One member of a fused decode batch
/// ([`Decoder::recover_batch_infer_stream`]):
/// its tape-free encoder outputs plus the request's step metadata.
pub struct BatchMember<'a> {
    /// `[l_τ, d]` per-point encoder states (decoder attention keys).
    pub per_point: &'a Tensor,
    /// `[1, d]` trajectory-level state (initial decoder hidden state).
    pub traj: &'a Tensor,
    /// The request (target length and constraint masks).
    pub sample: &'a SampleInput,
}

/// A member admitted into a live decode mid-flight (continuous
/// batching): its encoder pass ran *during* the decode, so the decode
/// owns its tensors — unlike [`BatchMember`], which borrows from a batch
/// assembled before the decode started.
pub struct GrownMember {
    /// `[l_τ, d]` per-point encoder states (decoder attention keys).
    pub per_point: Tensor,
    /// `[1, d]` trajectory-level state (initial decoder hidden state).
    pub traj: Tensor,
    /// Number of decode steps this member wants.
    pub target_len: usize,
    /// Per-step constraint masks (same layout as `SampleInput::masks`).
    pub masks: Vec<Option<Vec<(usize, f32)>>>,
}

/// One decoded step of one member, streamed out of
/// [`Decoder::recover_batch_infer_stream`] as it is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOut {
    /// Member index: initial members first (batch order), then grown
    /// members in admission order.
    pub member: usize,
    /// The member's own step index (0-based; a grown member's step 0 may
    /// run at any global tick).
    pub step: usize,
    /// Predicted road segment (Eq. 16 argmax).
    pub segment: usize,
    /// Predicted moving ratio (Eq. 17).
    pub rate: f32,
    /// Log-probability of the predicted segment under the (masked) head.
    pub logprob: f32,
}

/// Control hooks for [`Decoder::recover_batch_infer_stream`].
pub struct DecodeHooks<'h> {
    /// `cancel(member, step)` — asked before each of the member's steps
    /// whether it should retire (deadline / dropped-handle propagation).
    pub cancel: &'h mut dyn FnMut(usize, usize) -> bool,
    /// Called between decode steps with the live batch size; returned
    /// members are spliced into the stacked state and decode from their
    /// own step 0. Return an empty vec to keep the batch closed.
    pub admit: &'h mut dyn FnMut(usize) -> Vec<GrownMember>,
    /// Observes every decoded step in production order (streaming sink).
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

    /// Closed-batch fused greedy decode: [`Decoder::recover_batch_infer_stream`]
    /// with no cancellation, no admission and no step sink. Returns the
    /// predicted `(segment, rate)` per target step, per member.
    pub fn recover_batch_infer_with(
        &self,
        store: &ParamStore,
        members: &[BatchMember<'_>],
        head: SegmentHead<'_>,
    ) -> Vec<Vec<(usize, f32)>> {
        self.recover_batch_infer_stream(
            store,
            members,
            head,
            &mut DecodeHooks {
                cancel: &mut |_, _| false,
                admit: &mut |_| Vec::new(),
                on_step: &mut |_| {},
            },
        )
        .0
    }

    /// The tape-free greedy decode loop (the serving hot path): the twin
    /// of [`Decoder::run`] with `teacher_forcing = false`, evaluated with
    /// plain tensor ops over a whole micro-batch in lock-step. Every
    /// member's current hidden state is stacked into one `[B, d]` matrix
    /// so each decode step runs **one** stacked matmul per head — the
    /// `[B,d]×[d,|V|]` segment head, the `[B,2d]×[2d,1]` rate head, the
    /// three GRU gates, the attention query projection — instead of `B`
    /// separate `[1, d]` products. Members attend over their own
    /// (ragged-length) encoder outputs through the segmented kernels, the
    /// key projection `W_h·H_traj` is hoisted out of the step loop (it is
    /// input-constant), and the active stack shrinks as shorter members
    /// finish. A single request is a batch of one.
    ///
    /// Because every kernel involved computes each output row/segment with
    /// exactly the accumulation order of the member's own `[1, d]` call,
    /// each member's result is **bit-identical** to decoding it alone, at
    /// any thread count and for any batch composition — property-tested in
    /// `tests/batch_decode_parity.rs`. All heavy math runs on
    /// `rntrajrec_nn::kernels`, which parallelises wide outputs by disjoint
    /// column ranges — the `NN_THREADS` knob cuts per-step latency without
    /// changing a bit of the output.
    ///
    /// **Mid-decode cancellation**: before each of a member's steps,
    /// `cancel(member, step)` is asked whether it should stop decoding
    /// (the serving engine passes a deadline check; tests pass arbitrary
    /// step predicates). Cancelled members are retired through the *same*
    /// `gather_rows` compaction that retires finished members, so every
    /// surviving row keeps its exact value and survivors stay
    /// bit-identical to an uncancelled run; a cancelled member holds the
    /// prefix decoded before its cut, itself bit-identical to the
    /// uncancelled run's prefix.
    ///
    /// **Continuous batching** plus **streamed steps**: between lock-step
    /// decode ticks the `admit` hook may splice new members into the live
    /// `[B, d]` stack — their attention keys and key projections append as
    /// fresh rows (matmul and every other kernel here is
    /// row/member-segment-scoped, so incumbents' rows are untouched
    /// bit-for-bit and the newcomer's rows are exactly its solo products),
    /// their hidden state starts from `traj` / `start_emb` / rate 0 just
    /// as a closed batch would — and every produced
    /// `(segment, rate, logprob)` is handed to `on_step` in production
    /// order.
    ///
    /// Each member advances its **own** step counter: a grown member's
    /// step 0 runs at whatever global tick it was admitted. Because no
    /// kernel mixes rows across members, incumbents decode bit-identically
    /// whether or not anyone joins.
    ///
    /// Returns per-member outputs and cancelled flags, indexed with the
    /// initial members first and grown members after, in admission order.
    pub fn recover_batch_infer_stream(
        &self,
        store: &ParamStore,
        members: &[BatchMember<'_>],
        head: SegmentHead<'_>,
        hooks: &mut DecodeHooks<'_>,
    ) -> (Vec<Vec<(usize, f32)>>, Vec<bool>) {
        let d = self.config.dim;
        let n = members.len();
        let mut cancelled = vec![false; n];
        let mut out: Vec<Vec<(usize, f32)>> = members
            .iter()
            .map(|m| Vec::with_capacity(m.sample.target_len()))
            .collect();
        let mut target_lens: Vec<usize> = members.iter().map(|m| m.sample.target_len()).collect();
        // Per-member step cursor: equals the global tick for initial
        // members, but a grown member admitted at tick t is at step 0.
        let mut steps: Vec<usize> = vec![0; n];
        let mut active: Vec<usize> = (0..n).filter(|&i| target_lens[i] > 0).collect();

        let seg_table = store.value(self.seg_emb);
        let w_id = store.value(self.w_id);
        let b_id = store.value(self.b_id);
        let w_rate = store.value(self.w_rate);
        let wg = store.value(self.attn.wg);
        let wh = store.value(self.attn.wh);
        let v_attn = store.value(self.attn.v);

        // Loop-invariant hoists: the stacked attention keys, their
        // projection `W_h·H_traj` (one matmul for the whole batch — the
        // tape path recomputes it every step), per-member row ranges
        // into both stacks, and the sparse mask log-weights per step.
        // All grow by appended rows when a member is admitted mid-decode.
        let keys: Vec<&Tensor> = members.iter().map(|m| m.per_point).collect();
        let mut keys_all = if keys.is_empty() {
            Tensor::zeros(0, d)
        } else {
            kernels::concat_rows(&keys)
        };
        let mut hk_all = kernels::matmul(&keys_all, wh);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(n);
        let mut off = 0;
        for m in members {
            ranges.push(off..off + m.per_point.rows);
            off += m.per_point.rows;
        }
        let mut logw: Vec<StepLogMasks> = members
            .iter()
            .map(|m| {
                m.sample
                    .masks
                    .iter()
                    .map(|mk| self.mask_logw_entries(mk))
                    .collect()
            })
            .collect();

        // Stacked decoder state over the active members (rows in `active`
        // order).
        let trajs: Vec<&Tensor> = active.iter().map(|&i| members[i].traj).collect();
        let mut h = if trajs.is_empty() {
            Tensor::zeros(0, d)
        } else {
            kernels::concat_rows(&trajs)
        };
        let mut x_prev = kernels::repeat_rows(store.value(self.start_emb), active.len());
        let mut r_prev = Tensor::zeros(active.len(), 1);

        let mut tick: u32 = 0;
        loop {
            // Admission gate (continuous batching): splice newcomers into
            // the live stack before the next lock-step tick. The whole
            // arrival wave is fused — one stacked `W_h·keys` matmul over
            // every newcomer's rows and one concat round per state tensor,
            // instead of one matmul and four concats per newcomer. A fresh
            // member's state rows are byte-for-byte what a closed batch
            // would have initialised: matmul and row concatenation are
            // row-scoped, so stacking the wave changes nothing.
            let wave = (hooks.admit)(active.len());
            if !wave.is_empty() {
                let mut key_off = keys_all.rows;
                let mut new_keys: Vec<&Tensor> = Vec::with_capacity(wave.len());
                let mut new_trajs: Vec<&Tensor> = Vec::with_capacity(wave.len());
                for g in &wave {
                    let i = target_lens.len();
                    target_lens.push(g.target_len);
                    logw.push(
                        g.masks
                            .iter()
                            .map(|mk| self.mask_logw_entries(mk))
                            .collect(),
                    );
                    steps.push(0);
                    out.push(Vec::with_capacity(g.target_len));
                    cancelled.push(false);
                    if g.target_len == 0 {
                        ranges.push(0..0);
                        continue;
                    }
                    ranges.push(key_off..key_off + g.per_point.rows);
                    key_off += g.per_point.rows;
                    new_keys.push(&g.per_point);
                    new_trajs.push(&g.traj);
                    active.push(i);
                }
                if !new_keys.is_empty() {
                    let stacked_keys = kernels::concat_rows(&new_keys);
                    let hk_new = kernels::matmul(&stacked_keys, wh);
                    let stacked_trajs = kernels::concat_rows(&new_trajs);
                    let grown = new_keys.len();
                    keys_all = kernels::concat_rows(&[&keys_all, &stacked_keys]);
                    hk_all = kernels::concat_rows(&[&hk_all, &hk_new]);
                    h = kernels::concat_rows(&[&h, &stacked_trajs]);
                    x_prev = kernels::concat_rows(&[
                        &x_prev,
                        &kernels::repeat_rows(store.value(self.start_emb), grown),
                    ]);
                    r_prev = kernels::concat_rows(&[&r_prev, &Tensor::zeros(grown, 1)]);
                }
            }
            if active.is_empty() {
                break;
            }
            // Cancellation gate (deadline / dropped-handle propagation):
            // members whose budget expired are retired *before* the step
            // runs, through the same gather_rows compaction that retires
            // finished members below — a pure row copy, so surviving rows
            // keep their exact values and decode on bit-identically.
            let cut: Vec<bool> = active
                .iter()
                .map(|&i| (hooks.cancel)(i, steps[i]))
                .collect();
            if cut.iter().any(|&c| c) {
                let keep: Vec<usize> = (0..active.len()).filter(|&s| !cut[s]).collect();
                for (s, &i) in active.iter().enumerate() {
                    if cut[s] {
                        cancelled[i] = true;
                    }
                }
                h = kernels::gather_rows(&h, &keep);
                x_prev = kernels::gather_rows(&x_prev, &keep);
                r_prev = kernels::gather_rows(&r_prev, &keep);
                active = keep.iter().map(|&s| active[s]).collect();
                if active.is_empty() {
                    continue; // the admit hook may still have members to run
                }
            }
            let b = active.len();
            // One observability span per lock-step decode tick (rendered
            // `decoder.step[t]`); no-op unless tracing is enabled.
            let _step_span = rntrajrec_obs::span_indexed("decoder.step", tick);
            // Eq. (14): additive attention, all members in lock-step — one
            // stacked query projection, one stacked score product, then
            // the per-member softmax/context over ragged segments.
            let gq = kernels::matmul(&h, wg);
            let segs: Vec<Range<usize>> = active.iter().map(|&i| ranges[i].clone()).collect();
            let mut t = kernels::segments_add_rowvec(&hk_all, &gq, &segs);
            kernels::tanh_in_place(&mut t);
            let mu = kernels::matmul_nt(v_attn, &t);
            let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
            let alphas = kernels::softmax_segments(&mu, &lens);
            let a = kernels::segmented_attn_context(&alphas, &keys_all, &segs);

            // Eq. (15): one stacked GRU update.
            let input = kernels::concat_cols(&[&x_prev, &r_prev, &a]);
            h = {
                let (x, s) = (Eager.input(&input), Eager.input(&h));
                self.gru.step(&mut Eager, store, &x, &s).into_owned()
            };

            // Eq. (16): one stacked segment head — sparse by default,
            // computing only each row's mask-allowed columns.
            let masks: Vec<Option<kernels::SparseLogMask>> = active
                .iter()
                .map(|&i| {
                    logw[i][steps[i]]
                        .as_deref()
                        .map(|entries| kernels::SparseLogMask {
                            default: MASKED_OUT_LOGW,
                            entries,
                        })
                })
                .collect();
            let logp = match head {
                SegmentHead::Dense => {
                    let logits = kernels::add_rowvec(&kernels::matmul(&h, w_id), b_id);
                    kernels::masked_log_softmax_rows(&logits, &masks)
                }
                SegmentHead::Sparse => kernels::masked_matmul_cols(&h, w_id, b_id, &masks),
                SegmentHead::Quantized(q) => q.forward_masked(&h, b_id, &masks),
            };
            let preds: Vec<usize> = (0..b).map(|r| logp.argmax_row(r)).collect();
            let x_j = kernels::gather_rows(seg_table, &preds);

            // Eq. (17): one stacked rate head.
            let rate_in = kernels::concat_cols(&[&x_j, &h]);
            let rate = kernels::sigmoid(&kernels::matmul(&rate_in, w_rate));

            for (s, &i) in active.iter().enumerate() {
                out[i].push((preds[s], rate.data[s]));
                (hooks.on_step)(StepOut {
                    member: i,
                    step: steps[i],
                    segment: preds[s],
                    rate: rate.data[s],
                    logprob: logp.data[s * logp.cols + preds[s]],
                });
            }
            x_prev = x_j;
            r_prev = rate;
            for &i in &active {
                steps[i] += 1;
            }
            tick += 1;

            // Retire finished members, compacting the stacked state rows
            // (the batch shrinks; remaining rows keep their exact values —
            // gather_rows is a pure row copy).
            if active.iter().any(|&i| target_lens[i] <= steps[i]) {
                let keep: Vec<usize> = (0..b)
                    .filter(|&s| target_lens[active[s]] > steps[active[s]])
                    .collect();
                h = kernels::gather_rows(&h, &keep);
                x_prev = kernels::gather_rows(&x_prev, &keep);
                r_prev = kernels::gather_rows(&r_prev, &keep);
                active = keep.iter().map(|&s| active[s]).collect();
            }
        }
        (out, cancelled)
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
