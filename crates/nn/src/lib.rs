//! A from-scratch dense-f32 tensor engine with reverse-mode autograd.
//!
//! This crate is the substitute for PyTorch/DGL (see "Deviations from the
//! paper" in EXPERIMENTS.md): it
//! provides exactly the operation set RNTrajRec's computation graph needs —
//! matrix products, element-wise activations, broadcast row-vector ops,
//! softmax / log-softmax, concatenation & slicing (multi-head attention),
//! gather (embedding lookup), segmented graph-attention kernels (GAT over
//! CSR adjacency), and mean/weighted-mean pooling — each with an exact,
//! finite-difference-verified backward.
//!
//! Design:
//! * [`Tensor`] — a 2-D row-major `f32` matrix. Vectors are `[1, C]` rows,
//!   scalars `[1, 1]`. Two dimensions are all the model needs (a batch is
//!   its members' rows stacked into one matrix, with row ranges saying
//!   which rows a scoped reduction may mix).
//! * [`kernels`] — the **single home of every numeric kernel**: the matmul
//!   family, softmax, layer-norm statistics, element-wise maps, gathers,
//!   and the CSR graph-attention gather/scatter. Both executors below
//!   call into it, so every kernel has one body to optimise and
//!   parity-test. Heavy kernels parallelise over [`pool`] by disjoint
//!   output partitions and are **bit-identical at any thread count**.
//! * [`Exec`] — the executor trait model code is written against: ops take
//!   and return handles, so a layer is **one** generic `forward` that runs
//!   on either executor. [`Tape`] records (`H = NodeId`, training);
//!   [`Eager`] evaluates at once and keeps nothing (`H = Cow<Tensor>`,
//!   parameters and inputs borrowed — serving). Reductions whose scope is
//!   a member or a sub-graph of a stacked batch are executor ops too
//!   (`segmented_*`, `gated_fusion`). Each `segmented_*` op is one fused
//!   kernel on both executors; `Tape` records it as one node with its own
//!   analytic backward, and composes only the Eq. 7 gate.
//! * [`pool`] — a small dependency-free persistent thread pool (`rayon` is
//!   unavailable here) with a scoped chunked-range API; the intra-op
//!   thread count is a process-wide knob (`NN_THREADS` env /
//!   [`pool::set_num_threads`]).
//! * [`Tape`] — a dynamic computation graph ("define-by-run"): every op
//!   pushes a node holding its value and an [`Op`] record; backward walks
//!   the tape in reverse, accumulating gradients. No closures, no RefCell
//!   gymnastics — ops are a plain enum, so the whole engine is easy to
//!   audit and test. The ops it shares with `Eager` exist once, as its
//!   `Exec` impl; only the training-only ops (`sub`, `matmul_nt`,
//!   `log_softmax_rows`, `mean_all`, `pick_cols`) are inherent methods.
//!   The backward runs on the forward's kernels: a product's adjoints are
//!   `kernels::matmul` over a transposed copy, a scoped reduction's
//!   adjoint recomputes its softmax, `tanh` or statistics on the kernels,
//!   and a slice's adjoint adds into its parent's gradient in place.
//! * [`ParamStore`] / [`ParamId`] — learnable parameters live outside the
//!   tape; `Exec::param` imports them as leaves, `Tape::backward` routes
//!   leaf gradients back into the store, and [`Adam`] / [`Sgd`] update them.
//! * [`GraphCsr`] — shared immutable adjacency used by the fused GAT ops.
//! * [`kernels::backend`] — runtime-dispatched SIMD backend selection
//!   (`NN_BACKEND` env: scalar reference vs AVX2+FMA inner loops).
//! * [`quant`] — int8 per-channel weight quantization for the decoder
//!   segment head ([`quant::QuantizedLinear`]).

mod csr;
mod exec;
pub mod kernels;
mod optim;
mod param;
pub mod pool;
pub mod quant;
mod tape;
mod tensor;

pub use csr::GraphCsr;
pub use exec::{Eager, Exec};
pub use optim::{clip_global_norm, Adam, Sgd};
pub use param::{Init, ParamId, ParamStore};
pub use tape::{NodeId, Op, Tape};
pub use tensor::Tensor;
