//! Neural modules for the RNTrajRec reproduction.
//!
//! Built on the `rntrajrec-nn` autograd engine, this crate implements every
//! learned component of the paper plus the baseline encoders:
//!
//! * [`layers`] — Linear, LayerNorm, FeedForward.
//! * [`rnn`] — the GRU cell of Eq. (1), LSTM, BiLSTM.
//! * [`attention`] — multi-head self-attention (Eq. 10), positional
//!   encoding (Eq. 12), additive decoder attention (Eq. 14).
//! * [`transformer`] — the transformer encoder layer (Section IV-E).
//! * [`graph_layers`] — GAT (Eq. 3–4), GCN, GIN (Fig. 7(a) backbones).
//! * [`gridgnn`] — GridGNN road-network representation (Section IV-B).
//! * [`features`] — Sub-Graph Generation (Section IV-C), constraint masks
//!   (Section V) and all precomputed per-sample features.
//! * [`grl`] — gated fusion, graph norm, Graph Refinement Layer
//!   (Section IV-D) with Table V ablation switches.
//! * [`gpsformer`] — GPSFormer and the complete RNTrajRec encoder
//!   (Section IV-F) incl. the graph classification loss (Eq. 18).
//! * [`decoder`] — the multi-task decoder with constraint mask
//!   (Sections IV-G and V).
//! * [`baselines`] — MTrajRec, Transformer, t2vec, NeuTraj, T3S, GTS
//!   encoders and DHTR's seq2seq interpolator (Section VI-A4).

pub mod attention;
pub mod baselines;
pub mod decoder;
pub mod encoder;
pub mod features;
pub mod gpsformer;
pub mod graph_layers;
pub mod gridgnn;
pub mod grl;
pub mod layers;
pub mod rnn;
pub mod transformer;

pub use attention::{AdditiveAttention, MultiHeadAttention, PositionalEncoding};
pub use baselines::{
    DhtrSeq2Seq, GtsEncoder, MTrajRecEncoder, NeuTrajEncoder, T2vecEncoder, T3sEncoder,
    TransformerBaseline,
};
pub use decoder::{
    BatchMember, DecodeExec, DecodeHooks, DecodeState, Decoder, DecoderConfig, GrownMember,
    SegmentHead, StepOut,
};
pub use encoder::{BatchEncoderOutput, EncoderOutput, InferOutput, TrajEncoder};
pub use features::{FeatureExtractor, QueryError, SampleInput, SubGraph};
pub use gpsformer::{RnTrajRecConfig, RnTrajRecEncoder};
pub use graph_layers::{GatLayer, GcnLayer, GinLayer};
pub use gridgnn::{GnnBackbone, GridGnn, GridGnnConfig};
pub use grl::{GatedFusion, GraphNorm, GraphRefinementLayer, GrlBatchLayout, GrlConfig};
pub use layers::{FeedForward, LayerNorm, Linear};
pub use rnn::{BiLstm, GruCell, LstmCell};
pub use transformer::TransformerEncoderLayer;
