//! The multi-task decoder (Section IV-G + V), proposed in MTrajRec \[11\] and
//! shared by every method in the comparison ("A + Decoder", Remark 2).
//!
//! A GRU with additive attention over the encoder outputs (Eq. 14–15)
//! predicts, per target timestamp, the road segment (classification with a
//! constraint mask, Eq. 16) and the moving ratio (regression, Eq. 17).
//!
//! The decode loop is written once, as [`DecodeState`] over an executor
//! (`rntrajrec_nn::Exec`). On the tape it teacher-forces for the training
//! loss ([`Decoder::scheduled_loss`]) and decodes greedily for the tape
//! `predict`; on `Eager` it is the serving path. The two executors differ
//! on purpose only in the Eq. 16 segment head ([`DecodeExec`]).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use crate::attention::AdditiveAttention;
use crate::encoder::EncoderOutput;
use crate::features::SampleInput;

use crate::rnn::GruCell;
use rntrajrec_nn::kernels::{self, SparseLogMask};
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::{Eager, Exec, Init, NodeId, ParamId, ParamStore, Tape, Tensor};

/// Log-weight assigned to segments outside the constraint mask
/// (`exp(-30) ≈ 1e-13`: effectively zero probability, numerically safe).
const MASKED_OUT_LOGW: f32 = -30.0;

/// One member's per-step sparse mask log-weights (`None` for unmasked
/// steps), precomputed once per batched decode.
type StepLogMasks = Vec<Option<Vec<(usize, f32)>>>;

/// Which implementation computes the Eq. 16 road-segment head on the
/// tape-free decode path. The dense soft-mask head exists once, on the
/// tape ([`DecodeState::on_tape`]): training's head and the reference the
/// served heads are pinned against.
///
/// `Sparse` is the default: the constraint mask already enumerates the
/// allowed segments, so [`kernels::masked_matmul_cols`] computes only those
/// columns of the `[B,d]×[d,|V|]` product (an algorithmic FLOP reduction
/// proportional to the mask's skip ratio) and normalises over them alone.
/// Recovery outputs (argmax segment + rate) match the tape decode's —
/// pinned in `batch_decode_parity.rs`, with the ≥ 3× head-FLOP reduction
/// gated in `crates/core/tests/fusion_gates.rs` — while masked-out
/// columns become exact `-∞` log-probabilities instead of the soft
/// `exp(-30)` leakage. `Quantized` runs the same masked-row driver over
/// int8 per-channel weights ([`QuantizedLinear`]), trading a bounded
/// accuracy drift (segment agreement ≥ 0.95, rate drift ≤ 0.05, gated in
/// `fusion_gates.rs`) for a smaller weight matrix.
#[derive(Clone, Copy)]
pub enum SegmentHead<'a> {
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

/// One member of a decode wave ([`DecodeState::admit`]): its encoder
/// outputs plus the request's step metadata. `M` is how the executor holds
/// encoder outputs ([`DecodeExec::Member`]): tensors from the tape-free
/// encoder (the default), tape nodes from `encode`. Borrowed for the call
/// only — the state copies what it keeps.
pub struct BatchMember<'a, M = Tensor> {
    /// `[l_τ, d]` per-point encoder states (decoder attention keys).
    pub per_point: &'a M,
    /// `[1, d]` trajectory-level state (initial decoder hidden state).
    pub traj: &'a M,
    /// The request (target length and constraint masks).
    pub sample: &'a SampleInput,
}

impl<'a, M> BatchMember<'a, M> {
    /// `sample` with its encoder outputs.
    pub fn new(enc: &'a EncoderOutput<M>, sample: &'a SampleInput) -> Self {
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

    /// The constraint mask of Eq. (16) for one decode step as sparse
    /// `(segment, ln w)` entries, `w` floored at `1e-6`; every other
    /// segment carries the effectively-zero `MASKED_OUT_LOGW` (−30). `None`
    /// when masking is off or the step carries no mask. The entries come in
    /// the canonical form the masked kernels require (segments ascending,
    /// the last entry for a segment wins), so no kernel sorts or dedups
    /// inside the step loop.
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

    /// The decoder's share of the training loss over a mini-batch encoded
    /// on `tape`: `(L_id, L_rate)`, the mean `−log p(true segment)` and the
    /// mean squared rate error over every member's every step, from one
    /// stacked [`DecodeState`] on the tape.
    ///
    /// Scheduled sampling: each step conditions the next on the ground
    /// truth with probability `tf_prob`, otherwise on the model's own
    /// prediction; observed steps always use the truth (they are given in
    /// the input). Decaying `tf_prob` over training mitigates exposure bias
    /// at small data scale (DHTR \[19\] trains its seq2seq the same way).
    /// The coins are drawn from `rng` before the decode, member by member
    /// and step by step, with no draw for an observed step or at
    /// `tf_prob ≥ 1`; the loss terms are averaged in the same member-major
    /// order.
    pub fn scheduled_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        encoded: &[EncoderOutput],
        batch: &[&SampleInput],
        tf_prob: f32,
        rng: &mut StdRng,
    ) -> (NodeId, NodeId) {
        let teach: Vec<Vec<bool>> = batch
            .iter()
            .map(|s| {
                (0..s.target_len())
                    .map(|j| {
                        s.obs_step.contains(&j) || tf_prob >= 1.0 || rng.gen::<f32>() < tf_prob
                    })
                    .collect()
            })
            .collect();
        let members: Vec<BatchMember<NodeId>> = encoded
            .iter()
            .zip(batch)
            .map(|(enc, &sample)| BatchMember::new(enc, sample))
            .collect();
        let mut state = DecodeState::on_tape(self, store, std::mem::take(tape));
        state.admit(&members);
        // Per tick: its outputs and each row's targets. Per member: where
        // each of its steps sits in the ticks' rows, concatenated.
        let (mut ticks, mut rows) = (Vec::new(), 0);
        let mut member_rows: Vec<Vec<usize>> = vec![Vec::new(); batch.len()];
        while state.live() > 0 {
            let steps = state.tick(|m, j| {
                let s = batch[m];
                teach[m][j].then(|| (s.target_segs[j], s.target_rates[j]))
            });
            let (mut segs, mut rates) = (Vec::new(), Vec::new());
            for st in steps {
                member_rows[st.member].push(rows + segs.len());
                segs.push(batch[st.member].target_segs[st.step]);
                rates.push(batch[st.member].target_rates[st.step]);
            }
            rows += segs.len();
            ticks.push((state.last_outputs(), segs, rates));
        }
        *tape = state.into_tape();

        let (mut nll, mut sq_err) = (Vec::new(), Vec::new());
        for ((logp, rate), segs, rates) in ticks {
            let picked = tape.pick_cols(logp, &segs);
            nll.push(tape.scale(&picked, -1.0));
            let truth = tape.constant(Tensor::from_vec(rates.len(), 1, rates));
            let diff = tape.sub(rate, truth);
            sq_err.push(tape.mul(&diff, &diff));
        }
        let member_major = member_rows.concat();
        let mut mean = |terms: &[NodeId]| {
            let all = tape.concat_rows(&terms.iter().collect::<Vec<_>>());
            let all = tape.gather_rows(&all, &member_major);
            tape.mean_all(all)
        };
        (mean(&nll), mean(&sq_err))
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
        state.finish_greedy()
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
            for &step in state.tick(|_, _| None) {
                (hooks.on_step)(step);
            }
        }
        state.finish()
    }
}

/// The executor side of [`DecodeState`]: the parts of a decode step where
/// the tape and the serving path differ on purpose. Everything else in a
/// step is one body over [`Exec`].
pub trait DecodeExec<'a>: Exec<'a> {
    /// The Eq. 16 head to run: the caller's [`SegmentHead`] on `Eager`;
    /// nothing to choose on `Tape`, which always runs training's dense head
    /// with −30 soft-mask rows.
    type Head: Copy;
    /// How a [`BatchMember`] holds its encoder outputs.
    type Member;
    /// What [`DecodeState`] keeps of its last tick for the caller: nothing
    /// on `Eager`; on `Tape` the stacked `[B, |V|]` log-prob rows and
    /// `[B, 1]` rates, for the loss to pick from.
    type Outputs: Copy;

    /// Row count of a member's encoder output.
    fn member_rows(&self, m: &Self::Member) -> usize;
    /// Members' rows stacked into one handle.
    fn stack_rows(&mut self, parts: &[&Self::Member]) -> Self::H;
    /// Eq. 16: per-row log-probabilities of `h·W_id + b_id`, row `r` under
    /// `masks[r]` (`None`: unmasked).
    fn segment_head(
        &mut self,
        head: Self::Head,
        h: &Self::H,
        w_id: &Self::H,
        b_id: &Self::H,
        masks: &[Option<SparseLogMask<'_>>],
    ) -> Self::H;
    /// What to keep of a tick's log-prob rows and rates.
    fn outputs(logp: &Self::H, rate: &Self::H) -> Self::Outputs;
}

impl<'a> DecodeExec<'a> for Eager {
    type Head = SegmentHead<'a>;
    type Member = Tensor;
    type Outputs = ();

    fn member_rows(&self, m: &Tensor) -> usize {
        m.rows
    }
    fn stack_rows(&mut self, parts: &[&Tensor]) -> Self::H {
        Self::H::Owned(kernels::concat_rows(parts))
    }
    fn segment_head(
        &mut self,
        head: SegmentHead<'a>,
        h: &Self::H,
        w_id: &Self::H,
        b_id: &Self::H,
        masks: &[Option<SparseLogMask<'_>>],
    ) -> Self::H {
        Self::H::Owned(match head {
            SegmentHead::Sparse => kernels::masked_matmul_cols(h, w_id, b_id, masks),
            SegmentHead::Quantized(q) => q.forward_masked(h, b_id, masks),
        })
    }
    fn outputs(_: &Self::H, _: &Self::H) {}
}

impl<'a> DecodeExec<'a> for Tape {
    type Head = ();
    type Member = NodeId;
    type Outputs = (NodeId, NodeId);

    fn member_rows(&self, m: &NodeId) -> usize {
        self.value(m).rows
    }
    fn stack_rows(&mut self, parts: &[&NodeId]) -> NodeId {
        self.concat_rows(parts)
    }
    /// Training's head: the dense logits plus a dense log-weight row per
    /// masked row (−30 off the mask; unmasked rows add `-0.0`, the exact
    /// additive identity), then a full log-softmax. Off-mask segments keep
    /// their `e⁻³⁰` share of the normaliser and their gradient; a sparse
    /// head would drop both and change the training loss.
    fn segment_head(
        &mut self,
        _: (),
        h: &NodeId,
        w_id: &NodeId,
        b_id: &NodeId,
        masks: &[Option<SparseLogMask<'_>>],
    ) -> NodeId {
        let logits = self.matmul(h, w_id);
        let mut logits = self.add_rowvec(&logits, b_id);
        if masks.iter().any(Option::is_some) {
            let cols = self.value(&logits).cols;
            let mut logw = Vec::with_capacity(masks.len() * cols);
            for mask in masks {
                let row = logw.len();
                match mask {
                    Some(m) => {
                        logw.resize(row + cols, m.default);
                        for &(c, w) in m.entries {
                            logw[row + c] = w;
                        }
                    }
                    None => logw.resize(row + cols, -0.0),
                }
            }
            let logw = self.constant(Tensor::from_vec(masks.len(), cols, logw));
            logits = self.add(&logits, &logw);
        }
        self.log_softmax_rows(logits)
    }
    fn outputs(logp: &NodeId, rate: &NodeId) -> (NodeId, NodeId) {
        (*logp, *rate)
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

/// The decode loop as a state the caller steps, over executor `E`: on
/// [`Eager`] (the default, [`DecodeState::new`]) it is the tape-free
/// serving hot path; on [`Tape`] ([`DecodeState::on_tape`]) the same body
/// records training's teacher-forced decode and the tape `predict`. The
/// caller owns the loop — [`DecodeState::admit`] members,
/// [`DecodeState::retire`] the ones whose budget is gone,
/// [`DecodeState::tick`] one step for everyone live, conditioning each on
/// the truth or on its own prediction, [`DecodeState::finish`] — so a
/// serving engine can take newcomers and fan steps out between ticks
/// without callbacks.
///
/// Every live member's hidden state is stacked into one `[B, d]` matrix
/// so each tick runs **one** stacked matmul per head — the
/// `[B,d]×[d,|V|]` segment head, the `[B,2d]×[2d,1]` rate head, the
/// three GRU gates, the attention query projection — instead of `B`
/// separate `[1, d]` products. Members attend over their own
/// (ragged-length) encoder outputs through
/// [`Exec::segmented_additive_attention`], the key projection `W_h·H_traj`
/// is computed once per admission wave (it is input-constant), and the
/// stack shrinks as members finish. A single request is a batch of one.
///
/// Because every kernel involved computes each output row/segment with
/// exactly the accumulation order of the member's own `[1, d]` call, and
/// none mixes rows across members, each member's result is
/// **bit-identical** to decoding it alone — for any batch composition,
/// whoever is admitted or retired around it, at whatever tick —
/// property-tested in `tests/batch_decode_parity.rs`. A retired member
/// keeps the prefix decoded before its cut, itself bit-identical to the
/// uncut run's prefix. All heavy math runs on `rntrajrec_nn::kernels`,
/// whose kernels run on the caller's thread.
pub struct DecodeState<'a, E: DecodeExec<'a> = Eager> {
    decoder: &'a Decoder,
    store: &'a ParamStore,
    ex: E,
    head: E::Head,
    members: Vec<Slot>,
    /// Members still decoding; row `s` of `h` / `x_prev` / `r_prev`
    /// belongs to member `active[s]`.
    active: Vec<usize>,
    /// Every admitted member's attention keys, stacked, and their
    /// projection `W_h·keys`.
    keys_all: E::H,
    hk_all: E::H,
    h: E::H,
    x_prev: E::H,
    r_prev: E::H,
    /// `seg_emb`, `W_id`, `b_id` and `w_rate`, taken from the store once.
    params: [E::H; 4],
    tick: u32,
    /// The steps the last tick produced (its return value).
    stepped: Vec<StepOut>,
    last: Option<E::Outputs>,
}

/// Append `new`'s rows under `dst`'s (a move while `dst` is empty).
fn append_rows<'a, E: Exec<'a>>(ex: &mut E, dst: &mut E::H, new: E::H) {
    *dst = if ex.value(dst).rows == 0 {
        new
    } else {
        ex.concat_rows(&[dst, &new])
    };
}

impl<'a> DecodeState<'a> {
    /// An empty tape-free decode over `decoder`'s weights in `store`.
    pub fn new(decoder: &'a Decoder, store: &'a ParamStore, head: SegmentHead<'a>) -> Self {
        Self::with_exec(decoder, store, Eager, head)
    }
}

impl<'a> DecodeState<'a, Tape> {
    /// An empty decode recorded on `tape`, the tape that holds the
    /// members' encoder nodes: training's dense head, every op
    /// differentiable. [`DecodeState::into_tape`] hands the tape back.
    pub fn on_tape(decoder: &'a Decoder, store: &'a ParamStore, tape: Tape) -> Self {
        Self::with_exec(decoder, store, tape, ())
    }

    /// The last tick's stacked `[B, |V|]` log-prob rows and `[B, 1]` rates;
    /// row `s` belongs to the tick's `s`-th [`StepOut`].
    pub fn last_outputs(&self) -> (NodeId, NodeId) {
        self.last.expect("last_outputs before the first tick")
    }

    /// The tape, with the decode recorded on it.
    pub fn into_tape(self) -> Tape {
        self.ex
    }
}

impl<'a, E: DecodeExec<'a>> DecodeState<'a, E> {
    fn with_exec(decoder: &'a Decoder, store: &'a ParamStore, mut ex: E, head: E::Head) -> Self {
        let d = decoder.config.dim;
        let mut empty = |cols| ex.constant(Tensor::zeros(0, cols));
        let (keys_all, hk_all, h, x_prev, r_prev) =
            (empty(d), empty(d), empty(d), empty(d), empty(1));
        let params = [decoder.seg_emb, decoder.w_id, decoder.b_id, decoder.w_rate]
            .map(|id| ex.param(store, id));
        Self {
            decoder,
            store,
            ex,
            head,
            members: Vec::new(),
            active: Vec::new(),
            keys_all,
            hk_all,
            h,
            x_prev,
            r_prev,
            params,
            tick: 0,
            stepped: Vec::new(),
            last: None,
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
    pub fn admit(&mut self, wave: &[BatchMember<'_, E::Member>]) {
        let mut key_off = self.ex.value(&self.keys_all).rows;
        let mut keys: Vec<&E::Member> = Vec::with_capacity(wave.len());
        let mut trajs: Vec<&E::Member> = Vec::with_capacity(wave.len());
        self.members.reserve(wave.len());
        for m in wave {
            let target_len = m.sample.target_len();
            let rows = if target_len == 0 {
                0
            } else {
                self.ex.member_rows(m.per_point)
            };
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
        let (dec, store, ex) = (self.decoder, self.store, &mut self.ex);
        let stacked = ex.stack_rows(&keys);
        let projected = dec.attn.project_keys(ex, store, &stacked);
        let trajs = ex.stack_rows(&trajs);
        let start = ex.param(store, dec.start_emb);
        let starts = ex.gather_rows(&start, &vec![0; keys.len()]);
        let rates = ex.constant(Tensor::zeros(keys.len(), 1));
        append_rows(ex, &mut self.keys_all, stacked);
        append_rows(ex, &mut self.hk_all, projected);
        append_rows(ex, &mut self.h, trajs);
        append_rows(ex, &mut self.x_prev, starts);
        append_rows(ex, &mut self.r_prev, rates);
    }

    /// Ask `cut(member, step)` of every live member, before its next step
    /// runs, whether it should stop (the serving engine passes a
    /// dropped-handle check). Members it cuts leave through the same
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
        let ex = &mut self.ex;
        self.h = ex.gather_rows(&self.h, keep);
        self.x_prev = ex.gather_rows(&self.x_prev, keep);
        self.r_prev = ex.gather_rows(&self.r_prev, keep);
        self.active = keep.iter().map(|&s| self.active[s]).collect();
    }

    /// One lock-step decode step for every live member (none: no-op);
    /// returns what it produced, one [`StepOut`] per live member in stack
    /// order. Members that reach their target length leave the stack.
    ///
    /// `teach(member, step)` picks what conditions the member after this
    /// step: `Some((segment, rate))`, its ground truth (teacher forcing),
    /// or `None`, its own prediction (greedy decoding; serving always
    /// passes `None`). As in MTrajRec, the conditioning segment's embedding
    /// also feeds this step's rate head (Eq. 17).
    pub fn tick(
        &mut self,
        mut teach: impl FnMut(usize, usize) -> Option<(usize, f32)>,
    ) -> &[StepOut] {
        self.stepped.clear();
        let b = self.active.len();
        if b == 0 {
            return &self.stepped;
        }
        let (dec, store, ex) = (self.decoder, self.store, &mut self.ex);
        let [seg_emb, w_id, b_id, w_rate] = &self.params;
        // One observability span per tick (rendered `decoder.step[t]`);
        // no-op unless tracing is enabled.
        let _step_span = rntrajrec_obs::span_indexed("decoder.step", self.tick);
        // Eq. (14): additive attention, all members in lock-step, each over
        // its own keys.
        let segs: Vec<Range<usize>> = self
            .active
            .iter()
            .map(|&i| self.members[i].keys.clone())
            .collect();
        let a = dec
            .attn
            .forward(ex, store, &self.h, &self.keys_all, &self.hk_all, &segs);

        // Eq. (15): one stacked GRU update.
        let input = ex.concat_cols(&[&self.x_prev, &self.r_prev, &a]);
        self.h = dec.gru.step(ex, store, &input, &self.h);

        // Eq. (16): one stacked segment head.
        let masks: Vec<Option<SparseLogMask>> = self
            .active
            .iter()
            .map(|&i| {
                let m = &self.members[i];
                m.logw[m.step].as_deref().map(|entries| SparseLogMask {
                    default: MASKED_OUT_LOGW,
                    entries,
                })
            })
            .collect();
        let logp = ex.segment_head(self.head, &self.h, w_id, b_id, &masks);
        let preds: Vec<usize> = {
            let lp = ex.value(&logp);
            (0..b).map(|r| lp.argmax_row(r)).collect()
        };

        // What conditions each member next: the truth where the caller
        // teaches, else the prediction.
        let mut taught = Vec::new();
        for (s, &i) in self.active.iter().enumerate() {
            if let Some(truth) = teach(i, self.members[i].step) {
                taught.push((s, truth));
            }
        }
        let x_j = if taught.is_empty() {
            ex.gather_rows(seg_emb, &preds)
        } else {
            let mut cond = preds.clone();
            for &(s, (seg, _)) in &taught {
                cond[s] = seg;
            }
            ex.gather_rows(seg_emb, &cond)
        };

        // Eq. (17): one stacked rate head.
        let rate_in = ex.concat_cols(&[&x_j, &self.h]);
        let rate_lin = ex.matmul(&rate_in, w_rate);
        let rate = ex.sigmoid(&rate_lin);
        self.last = Some(E::outputs(&logp, &rate));

        let (lp, rt) = (ex.value(&logp), ex.value(&rate));
        self.stepped.reserve(b);
        for (s, &i) in self.active.iter().enumerate() {
            let m = &mut self.members[i];
            m.out.push((preds[s], rt.data[s]));
            self.stepped.push(StepOut {
                member: i,
                step: m.step,
                segment: preds[s],
                rate: rt.data[s],
                logprob: lp.data[s * lp.cols + preds[s]],
            });
            m.step += 1;
        }
        self.x_prev = x_j;
        self.r_prev = if taught.is_empty() {
            rate
        } else {
            // Taught rows take the true rate: rows `b..2b` of the stack.
            let mut truth = Tensor::zeros(b, 1);
            let mut rows: Vec<usize> = (0..b).collect();
            for &(s, (_, r)) in &taught {
                truth.data[s] = r;
                rows[s] = b + s;
            }
            let truth = ex.constant(truth);
            let both = ex.concat_rows(&[&rate, &truth]);
            ex.gather_rows(&both, &rows)
        };
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

    /// Tick every live member greedily to its end, then
    /// [`DecodeState::finish`]: the per-member outputs.
    pub fn finish_greedy(mut self) -> Vec<Vec<(usize, f32)>> {
        while self.live() > 0 {
            self.tick(|_, _| None);
        }
        self.finish().0
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
    use proptest::prelude::*;
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
        let per_point = tape.constant(Tensor::uniform(l, d, 0.5, &mut rng));
        let traj = tape.constant(Tensor::uniform(1, d, 0.5, &mut rng));
        EncoderOutput { per_point, traj }
    }

    /// One member's decode on the tape, per step.
    #[derive(Default)]
    struct DecoderRun {
        /// `[1, |V|]` log-probabilities over segments (post-mask).
        logps: Vec<NodeId>,
        /// `[1, 1]` predicted moving ratio.
        rates: Vec<NodeId>,
        /// Argmax segment prediction.
        preds: Vec<usize>,
    }

    /// The reference for `DecodeState<Tape>`: the per-member tape loop it
    /// replaced — one member and one step at a time, `W_h·keys` recomputed
    /// every step, Eq. 14 over the member's one segment `[0..L]`, a dense
    /// `[1, |V|]` mask row. `use_truth(j)` conditions the step after `j`
    /// (and step `j`'s rate head) on the ground truth.
    fn reference(
        dec: &Decoder,
        tape: &mut Tape,
        store: &ParamStore,
        enc: &EncoderOutput,
        sample: &SampleInput,
        mut use_truth: impl FnMut(usize) -> bool,
    ) -> DecoderRun {
        let seg_table = tape.param(store, dec.seg_emb);
        let w_id = tape.param(store, dec.w_id);
        let b_id = tape.param(store, dec.b_id);
        let w_rate = tape.param(store, dec.w_rate);

        let mut h = enc.traj;
        let mut x_prev = tape.param(store, dec.start_emb);
        let mut r_prev = tape.constant(Tensor::scalar(0.0));
        let mut run = DecoderRun::default();
        for j in 0..sample.target_len() {
            // Eq. (14): attention over encoder outputs.
            let wg = tape.param(store, dec.attn.wg);
            let wh = tape.param(store, dec.attn.wh);
            let v = tape.param(store, dec.attn.v);
            let gq = tape.matmul(&h, &wg); // [1, d]
            let hk = tape.matmul(&enc.per_point, &wh); // [L, d]
            let keys = 0..tape.value(&enc.per_point).rows;
            let keys = std::slice::from_ref(&keys);
            let a = tape.segmented_additive_attention(&hk, &gq, &v, &enc.per_point, keys);
            // Eq. (15): GRU update.
            let input = tape.concat_cols(&[&x_prev, &r_prev, &a]);
            h = dec.gru.step(tape, store, &input, &h);

            // Road-segment head with constraint mask (Eq. 16).
            let logits = tape.matmul(&h, &w_id);
            let logits = tape.add_rowvec(&logits, &b_id);
            let masked = match (dec.config.use_mask, &sample.masks[j]) {
                (true, Some(entries)) => {
                    let mut logw = vec![MASKED_OUT_LOGW; dec.config.num_segments];
                    for &(seg, w) in entries {
                        logw[seg] = w.max(1e-6).ln();
                    }
                    let lw = tape.constant(Tensor::row(logw));
                    tape.add(&logits, &lw)
                }
                _ => logits,
            };
            let logp = tape.log_softmax_rows(masked);
            let pred = tape.value(&logp).argmax_row(0);

            // Next-step conditioning (teacher forcing vs. own prediction).
            let teach = use_truth(j);
            let cond_seg = if teach { sample.target_segs[j] } else { pred };
            let x_j = tape.gather_rows(&seg_table, &[cond_seg]);

            // Moving-ratio head (Eq. 17): σ([x_j ∥ h_j]·w_rate).
            let rate_in = tape.concat_cols(&[&x_j, &h]);
            let rate_lin = tape.matmul(&rate_in, &w_rate);
            let rate = tape.sigmoid(&rate_lin);

            run.logps.push(logp);
            run.rates.push(rate);
            run.preds.push(pred);

            x_prev = x_j;
            r_prev = if teach {
                tape.constant(Tensor::scalar(sample.target_rates[j]))
            } else {
                rate
            };
        }
        run
    }

    /// Members decoded together by one `DecodeState<Tape>`, step `j` of
    /// member `m` conditioned on the truth where `teach[m][j]`: per member,
    /// per step, its tick's (log-prob rows, rates), its row in them and its
    /// prediction.
    fn stacked_decode(
        dec: &Decoder,
        store: &ParamStore,
        tape: &mut Tape,
        encs: &[EncoderOutput],
        samples: &[&SampleInput],
        teach: &[Vec<bool>],
    ) -> Vec<Vec<(NodeId, NodeId, usize, usize)>> {
        let members: Vec<BatchMember<NodeId>> = encs
            .iter()
            .zip(samples)
            .map(|(enc, &sample)| BatchMember::new(enc, sample))
            .collect();
        let mut state = DecodeState::on_tape(dec, store, std::mem::take(tape));
        state.admit(&members);
        let mut steps = vec![Vec::new(); samples.len()];
        while state.live() > 0 {
            let outs = state
                .tick(|m, j| {
                    let s = samples[m];
                    teach[m][j].then(|| (s.target_segs[j], s.target_rates[j]))
                })
                .to_vec();
            let (logp, rate) = state.last_outputs();
            for (row, st) in outs.iter().enumerate() {
                assert_eq!(st.step, steps[st.member].len());
                steps[st.member].push((logp, rate, row, st.segment));
            }
        }
        *tape = state.into_tape();
        steps
    }

    /// `sample` alone through `DecodeState<Tape>`, teacher-forced or greedy.
    fn tape_decode(
        dec: &Decoder,
        store: &ParamStore,
        tape: &mut Tape,
        enc: &EncoderOutput,
        sample: &SampleInput,
        teacher_forcing: bool,
    ) -> DecoderRun {
        let teach = [vec![teacher_forcing; sample.target_len()]];
        let steps = stacked_decode(dec, store, tape, &[*enc], &[sample], &teach).remove(0);
        DecoderRun {
            logps: steps.iter().map(|s| s.0).collect(),
            rates: steps.iter().map(|s| s.1).collect(),
            preds: steps.iter().map(|s| s.3).collect(),
        }
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, true);
        assert_eq!(run.logps.len(), input.target_len());
        assert_eq!(run.rates.len(), input.target_len());
        assert_eq!(run.preds.len(), input.target_len());
        for (&lp, &r) in run.logps.iter().zip(&run.rates) {
            assert_eq!(tape.value(&lp).shape(), (1, city.net.num_segments()));
            let rate = tape.value(&r).item();
            assert!((0.0..=1.0).contains(&rate));
            // Log-probs must be ≤ 0 and normalised.
            let sum: f32 = tape.value(&lp).data.iter().map(|x| x.exp()).sum();
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, true);
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, true);
        // At initialisation (near-uniform logits) every segment should get
        // non-negligible probability on observed steps when unmasked.
        let lp = tape.value(&run.logps[0]);
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, false);
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, false);

        let member = BatchMember {
            per_point: tape.value(&enc.per_point),
            traj: tape.value(&enc.traj),
            sample: &input,
        };
        let fast = &dec.recover_batch_infer_with(&store, &[member], SegmentHead::Sparse)[0];

        assert_eq!(fast.len(), run.preds.len());
        for (j, &(seg, rate)) in fast.iter().enumerate() {
            assert_eq!(seg, run.preds[j], "step {j}: segment prediction diverged");
            let tape_rate = tape.value(&run.rates[j]).item();
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
        let run = tape_decode(&dec, &store, &mut tape, &enc, &input, true);
        // Simple loss: sum of selected true-class negative log-probs.
        let mut terms = Vec::new();
        for (j, &lp) in run.logps.iter().enumerate() {
            let picked = tape.select_cols(&lp, input.target_segs[j], 1);
            terms.push(tape.scale(&picked, -1.0));
        }
        let all = tape.concat_rows(&terms.iter().collect::<Vec<_>>());
        let loss = tape.mean_all(all);
        store.zero_grad();
        tape.backward(loss, &mut store);
        assert!(store.grad(dec.w_id).data.iter().any(|&g| g != 0.0));
        assert!(store.grad(dec.seg_emb).data.iter().any(|&g| g != 0.0));
    }

    const DIM: usize = 16;
    const POOL: usize = 6;
    const TF_PROBS: [f32; 3] = [0.0, 0.5, 1.0];

    /// A decoder and a ragged pool of `(per_point, traj, sample)` members:
    /// target lengths 3..12, input lengths 4..10.
    struct Pool {
        store: ParamStore,
        decoder: Decoder,
        members: Vec<(Tensor, Tensor, SampleInput)>,
    }

    fn pool() -> Pool {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let mut rng = StdRng::seed_from_u64(43);
        let shapes: [(usize, usize); POOL] = [(3, 4), (5, 8), (7, 6), (9, 10), (9, 8), (12, 5)];
        let members = shapes
            .iter()
            .map(|&(target_len, raw_len)| {
                let sim_config = SimConfig {
                    target_len,
                    ..Default::default()
                };
                let mut sim = Simulator::new(&city.net, sim_config);
                let input = fx.extract(&sim.sample(&mut rng, raw_len));
                let per_point = Tensor::uniform(input.input_len(), DIM, 0.5, &mut rng);
                let traj = Tensor::uniform(1, DIM, 0.5, &mut rng);
                (per_point, traj, input)
            })
            .collect();
        let mut store = ParamStore::new();
        let config = DecoderConfig {
            dim: DIM,
            num_segments: city.net.num_segments(),
            use_mask: true,
        };
        let decoder = Decoder::new(&mut store, &mut rng, config);
        Pool {
            store,
            decoder,
            members,
        }
    }

    impl Pool {
        /// Member `p`'s encoder outputs as leaves of `tape`.
        fn leaves(&self, tape: &mut Tape, p: usize) -> EncoderOutput {
            let (per_point, traj, _) = &self.members[p];
            EncoderOutput {
                per_point: tape.constant(per_point.clone()),
                traj: tape.constant(traj.clone()),
            }
        }
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any composition of 1–5 members, teacher-forced with probability
        /// 0, ½ or 1 (observed steps always): `DecodeState<Tape>` gives every
        /// member the reference loop's log-prob rows, rates and predictions,
        /// bit for bit.
        #[test]
        fn stacked_tape_decode_equals_the_per_member_loop(
            batch_size in 1usize..6,
            tf in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let fix = pool();
            let mut rng = StdRng::seed_from_u64(seed);
            let picks: Vec<usize> = (0..batch_size).map(|_| rng.gen_range(0..POOL)).collect();
            let samples: Vec<&SampleInput> = picks.iter().map(|&p| &fix.members[p].2).collect();
            let teach: Vec<Vec<bool>> = samples
                .iter()
                .map(|s| {
                    (0..s.target_len())
                        .map(|j| s.obs_step.contains(&j) || rng.gen::<f32>() < TF_PROBS[tf])
                        .collect()
                })
                .collect();

            let mut tape = Tape::new();
            let encs: Vec<EncoderOutput> = picks.iter().map(|&p| fix.leaves(&mut tape, p)).collect();
            let steps = stacked_decode(&fix.decoder, &fix.store, &mut tape, &encs, &samples, &teach);
            for (m, &p) in picks.iter().enumerate() {
                let mut alone = Tape::new();
                let enc = fix.leaves(&mut alone, p);
                let want = reference(&fix.decoder, &mut alone, &fix.store, &enc, samples[m], |j| teach[m][j]);
                prop_assert_eq!(steps[m].len(), want.preds.len());
                for (j, &(logp, rate, row, pred)) in steps[m].iter().enumerate() {
                    prop_assert!(pred == want.preds[j], "member {m} step {j}: prediction");
                    prop_assert!(
                        bits(tape.value(&logp).row_slice(row)) == bits(&alone.value(&want.logps[j]).data),
                        "member {m} step {j}: log-prob row"
                    );
                    prop_assert!(
                        tape.value(&rate).data[row].to_bits() == alone.value(&want.rates[j]).item().to_bits(),
                        "member {m} step {j}: rate"
                    );
                }
            }
        }

        /// `Decoder::scheduled_loss` equals the loss assembled member by
        /// member from the reference with the same seeded `rng` — the same
        /// coins in the same order, the same terms averaged in the same
        /// order: both losses bitwise, the same number of draws, and
        /// gradients equal up to summation order.
        #[test]
        fn scheduled_loss_equals_the_per_member_loss(
            batch_size in 1usize..6,
            tf in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let mut fix = pool();
            let tf_prob = TF_PROBS[tf];
            let mut picker = StdRng::seed_from_u64(seed ^ 0x9e37);
            let picks: Vec<usize> = (0..batch_size).map(|_| picker.gen_range(0..POOL)).collect();
            let grads = |store: &ParamStore| -> Vec<Tensor> {
                store.ids().map(|id| store.grad(id).clone()).collect()
            };

            let mut rng = StdRng::seed_from_u64(seed);
            let mut tape = Tape::new();
            let encs: Vec<EncoderOutput> = picks.iter().map(|&p| fix.leaves(&mut tape, p)).collect();
            let samples: Vec<&SampleInput> = picks.iter().map(|&p| &fix.members[p].2).collect();
            let (l_id, l_rate) = fix
                .decoder
                .scheduled_loss(&mut tape, &fix.store, &encs, &samples, tf_prob, &mut rng);
            let total = tape.add(&l_id, &l_rate);
            fix.store.zero_grad();
            tape.backward(total, &mut fix.store);
            let got = grads(&fix.store);

            let mut want_rng = StdRng::seed_from_u64(seed);
            let mut alone = Tape::new();
            let (mut id_terms, mut rate_terms) = (Vec::new(), Vec::new());
            for (&p, sample) in picks.iter().zip(&samples) {
                let enc = fix.leaves(&mut alone, p);
                let run = reference(&fix.decoder, &mut alone, &fix.store, &enc, sample, |j| {
                    sample.obs_step.contains(&j) || tf_prob >= 1.0 || want_rng.gen::<f32>() < tf_prob
                });
                for (j, (&lp, &rate)) in run.logps.iter().zip(&run.rates).enumerate() {
                    let picked = alone.select_cols(&lp, sample.target_segs[j], 1);
                    id_terms.push(alone.scale(&picked, -1.0));
                    let target = alone.constant(Tensor::scalar(sample.target_rates[j]));
                    let diff = alone.sub(rate, target);
                    rate_terms.push(alone.mul(&diff, &diff));
                }
            }
            let id_all = alone.concat_rows(&id_terms.iter().collect::<Vec<_>>());
            let want_id = alone.mean_all(id_all);
            let rate_all = alone.concat_rows(&rate_terms.iter().collect::<Vec<_>>());
            let want_rate = alone.mean_all(rate_all);
            let want_total = alone.add(&want_id, &want_rate);
            fix.store.zero_grad();
            alone.backward(want_total, &mut fix.store);
            let want = grads(&fix.store);

            prop_assert_eq!(tape.value(&l_id).item().to_bits(), alone.value(&want_id).item().to_bits());
            prop_assert_eq!(tape.value(&l_rate).item().to_bits(), alone.value(&want_rate).item().to_bits());
            prop_assert!(rng.gen::<u64>() == want_rng.gen::<u64>(), "coin draws differ in number");
            for (id, (g, w)) in fix.store.ids().zip(got.iter().zip(&want)) {
                for (&a, &b) in g.data.iter().zip(&w.data) {
                    prop_assert!(
                        (a - b).abs() <= 1e-5 + 1e-3 * b.abs(),
                        "{}: gradient {} vs {}", fix.store.name(id), a, b
                    );
                }
            }
        }
    }
}
