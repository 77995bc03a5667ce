//! The trajectory-encoder interface shared by RNTrajRec and every baseline.
//!
//! The paper's comparison protocol (Remark 2) is "A + Decoder": each
//! method's *encoder* feeds the same multi-task decoder. This trait is that
//! protocol: an encoder maps a mini-batch of [`SampleInput`]s to per-point
//! hidden states `H_traj` `[l_τ, d]` and a trajectory-level vector
//! `ĥ_traj` `[1, d]` (plus, for RNTrajRec, the graph-classification
//! auxiliary loss of Eq. 18).
//!
//! Every encoder is **one `forward` over `rntrajrec_nn::Exec`** with two
//! entry points: [`TrajEncoder::encode`] records it on the tape for
//! training, [`TrajEncoder::infer_batch`] evaluates the same body on
//! `Eager` — plain tensor ops (`rntrajrec_nn::kernels`), no autograd
//! bookkeeping — over a whole batch (a single request is a batch of one).
//! RNTrajRec stacks the batch and scopes GraphNorm to the mini-batch on
//! the tape and to each member on `Eager`; the baselines encode each
//! member on its own.
//! Input-independent work (GridGNN's `X_road`) is split out into
//! [`TrajEncoder::precompute_road`] so a serving engine can compute it once
//! per road network and share it read-only across requests.

use crate::features::SampleInput;
use rntrajrec_nn::{NodeId, ParamStore, Tape, Tensor};

/// Encoder outputs for one trajectory, as handles of the executor that
/// ran the encoder: tape nodes from [`TrajEncoder::encode`], plain tensors
/// ([`InferOutput`]) from [`TrajEncoder::infer_batch`].
#[derive(Debug, Clone, Copy)]
pub struct EncoderOutput<H = NodeId> {
    /// `[l_τ, d]` per-point hidden states (decoder attention keys).
    pub per_point: H,
    /// `[1, d]` trajectory-level state (decoder initial hidden state).
    pub traj: H,
}

/// Encoder outputs for a mini-batch.
pub struct BatchEncoderOutput {
    pub outputs: Vec<EncoderOutput>,
    /// Auxiliary encoder loss, already averaged (RNTrajRec's `L_enc`).
    pub aux_loss: Option<NodeId>,
}

/// Tape-free encoder outputs for one trajectory (plain tensors, no tape).
pub type InferOutput = EncoderOutput<Tensor>;

/// A trajectory encoder ("A" in the paper's "A + Decoder" convention).
///
/// `Send + Sync` so a trained encoder can be shared read-only (`Arc`)
/// across serving worker threads.
pub trait TrajEncoder: Send + Sync {
    fn name(&self) -> &'static str;

    /// Encode a mini-batch on the given tape.
    fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &[&SampleInput],
    ) -> BatchEncoderOutput;

    /// Precompute the input-independent road representation (`X_road` for
    /// RNTrajRec), if this encoder has one. Serving engines call this once
    /// per road network and pass the result to every [`TrajEncoder::infer_batch`].
    fn precompute_road(&self, _store: &ParamStore) -> Option<Tensor> {
        None
    }

    /// Tape-free inference over a whole micro-batch: the body of
    /// [`TrajEncoder::encode`] on `Eager`. Every encoder has one, so this
    /// is always `Some`; the `Option` stays only while
    /// `benchmark/src/adapter.rs` still `expect`s it.
    ///
    /// `road` is the cached [`TrajEncoder::precompute_road`] output; pass
    /// `None` to recompute it for this call.
    ///
    /// The contract every implementation must honour: the output for each
    /// member is **bit-identical** to a batch of that member alone — batch
    /// composition must be unobservable in the results (the serving engine
    /// batches requests from unrelated clients). RNTrajRec stacks all
    /// members' rows per block and scopes GraphNorm statistics per member.
    fn infer_batch(
        &self,
        store: &ParamStore,
        samples: &[&SampleInput],
        road: Option<&Tensor>,
    ) -> Option<Vec<InferOutput>>;
}
