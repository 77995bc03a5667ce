//! The single home of every numeric kernel in the workspace.
//!
//! Both execution paths of the engine call into this module — the autograd
//! [`crate::Tape`] (forward *and* backward) and the tape-free serving
//! path, which calls these functions directly on [`Tensor`]s — so each
//! kernel has exactly one body to optimise and parity-test. The kernels
//! cover the model's entire compute
//! profile: the matmul family (GPSFormer attention, decoder steps),
//! row-wise softmax / log-softmax, layer-norm statistics, element-wise
//! maps and broadcasts, embedding gathers, and the CSR graph-attention
//! gather/scatter used by GridGNN (edge scores, segmented softmax,
//! neighbour aggregation).
//!
//! # Tape-free inference
//!
//! The tape eagerly computes values *and* records an [`crate::Op`] node
//! per operation so `backward` can run later. Online serving never calls
//! `backward`, so every prediction through the tape would pay for node
//! bookkeeping (an `Op` clone, a `Vec` push, a retained copy of every
//! intermediate) it never uses. The serving hot path therefore applies
//! these kernels straight to tensors with no graph allocation; names
//! follow the executor ops (`kernels::add_rowvec` ≡ `Exec::add_rowvec`).
//! Because both paths share one kernel body, results are bit-identical to
//! a forward pass on the tape — property-tested in `tests/kernel_parity.rs`
//! and end-to-end in `rntrajrec-models` / `rntrajrec-serve`.
//!
//! # Determinism
//!
//! Kernels run on the caller's thread, one plain loop over the whole
//! output; parallelism lives across requests, in the serving engine's
//! workers. Every output element is accumulated in ascending-index order
//! and every reduction covers exactly its own row, segment or node, so a
//! row's bits do not depend on what else is in the batch — the property
//! the serving stack's "batched ≡ sequential" contract is built on, and
//! what the `kernel_parity` proptest suite pins down.
//!
//! # Backends
//!
//! The hot inner loops dispatch between the scalar reference path and an
//! AVX2+FMA path (see [`backend`]). Each public kernel reads the backend
//! **once at entry**, so a single invocation never mixes backends and
//! [`backend::with_backend`] pins reliably. The two backends differ from
//! each other only by FMA/partial-lane rounding in the matmul family and
//! norm statistics
//! (the softmax family, [`sigmoid`], the Eq. 7 gate [`gated_fusion`], the
//! GAT pair [`segmented_softmax`] / [`neighbor_sum`] and [`tanh`] are
//! bit-identical across backends — see `backend`'s module docs for the
//! full contract). [`tanh`] and every `exp` are also host-independent:
//! [`tanhf`] transcribes fdlibm's `tanhf` and [`expf`] glibc's `expf` in
//! its FMA form, eight lanes at a time under AVX2, not calls into
//! whichever libm the machine has. Only the element-wise `exp` runs in
//! lanes; every `Σ exp(·)` stays one scalar accumulator fed in ascending
//! order, because that order is part of the pinned bits.

#![deny(missing_docs)]

pub mod backend;
pub mod expf;
pub mod tanhf;

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{GraphCsr, Tensor};

/// Process-wide count of matmul-family kernel invocations
/// ([`matmul`] + [`matmul_nt`], forward and backward).
static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);

/// Monotone process-wide counter of matmul-family kernel invocations.
/// Exported on `/metrics`; for benchmark accounting use [`profile_scope`]
/// instead — a global delta is racy the moment any other thread computes.
pub fn matmul_invocations() -> u64 {
    MATMUL_CALLS.load(Ordering::Relaxed)
}

thread_local! {
    /// Per-thread `(invocations, flop estimate)` totals for the matmul
    /// family, the basis of [`profile_scope`] deltas.
    static KERNEL_TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// One matmul-family invocation entered on this thread: bump the global
/// counter, the thread-local totals, and (when tracing is enabled) the
/// innermost open observability span. `flops` is the `2·R·K·C`
/// multiply-add estimate — sparsity-aware kernels
/// ([`masked_matmul_cols`], the quantized head) pass `2·K·(computed
/// columns)` so attribution reflects work actually done, not the dense
/// shape.
#[inline]
fn note_matmul(flops: u64) {
    // Fault point at the kernel-dispatch chokepoint: an injected panic
    // unwinds the caller (exercising batch fallback / worker healing),
    // an injected delay models a stalled kernel (exercising the engine
    // watchdog). One relaxed load when chaos is disarmed.
    rntrajrec_chaos::point_infallible("kernel.dispatch");
    MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
    let _ = KERNEL_TOTALS.try_with(|t| {
        let (m, f) = t.get();
        t.set((m + 1, f + flops));
    });
    rntrajrec_obs::kernel_event(1, flops);
}

/// What a [`profile_scope`] measured: matmul invocations, their FLOP
/// estimate, and wall time between open and [`ProfileScope::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelProfile {
    /// The tag the scope was opened with.
    pub tag: &'static str,
    /// Matmul-family invocations issued from this thread in the scope.
    pub matmuls: u64,
    /// Estimated floating-point operations (`2·R·K·C` per invocation).
    pub flops: u64,
    /// Wall-clock time the scope was open.
    pub wall: Duration,
}

/// Scoped kernel profiler; see [`profile_scope`].
#[must_use = "call finish() to read the measured profile"]
pub struct ProfileScope {
    tag: &'static str,
    started: Instant,
    at_open: (u64, u64),
    /// Keeps the section visible as a span (with its kernel counts) when
    /// tracing is enabled; a no-op otherwise.
    _span: rntrajrec_obs::SpanGuard,
}

/// Open a profiling scope that attributes matmul count, FLOP estimate,
/// and wall time to the code it encloses. Deltas come from *thread-local*
/// totals, so concurrent work on other threads cannot pollute the
/// measurement (the race the old global-counter reset dance had); the
/// invocations counted are those issued from the calling thread, which is
/// exact because every kernel runs on its caller's thread. When tracing
/// is enabled the scope also records an observability span named `tag`.
pub fn profile_scope(tag: &'static str) -> ProfileScope {
    ProfileScope {
        tag,
        started: Instant::now(),
        at_open: KERNEL_TOTALS.with(Cell::get),
        _span: rntrajrec_obs::span(tag),
    }
}

impl ProfileScope {
    /// Close the scope and return what it measured.
    pub fn finish(self) -> KernelProfile {
        let (m0, f0) = self.at_open;
        let (m1, f1) = KERNEL_TOTALS.with(Cell::get);
        KernelProfile {
            tag: self.tag,
            matmuls: m1 - m0,
            flops: f1 - f0,
            wall: self.started.elapsed(),
        }
    }
}

// ----- matrix products -------------------------------------------------------

/// The row-at-a-time matmul inner kernel: `orow[j] += Σ_k arow[k] · b[k, j]`
/// over a `[k, orow.len()]` `b`, four `k` per pass (four `a` values held in
/// registers, one pass over the output row per block) so the output row is
/// traversed 4× less often and four rows of `B` stream through cache
/// together. Per
/// output element the floating-point work is still `+= a_k·b_kj` in
/// ascending `k` with zero entries of `arow` skipped — one rounding step
/// per product, in the same order as the scalar loop, so blocked and
/// unblocked results are bit-identical (pinned by the `kernel_parity`
/// suite).
///
/// `bk` is the backend read at the calling kernel's entry; on the AVX2
/// path every element is a chain of fused multiply-adds in ascending `k`
/// with no zero-skip (see [`backend`]).
pub(crate) fn matmul_axpy(bk: backend::Backend, arow: &[f32], b: &[f32], orow: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` only ever becomes active after runtime
        // feature detection (see `backend::is_supported`).
        unsafe { backend::matmul_axpy(arow, b, orow) };
        return;
    }
    let _ = bk;
    let k = arow.len();
    let w = orow.len();
    let mut kk = 0;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            let base = kk * w;
            let b0 = &b[base..base + w];
            let b1 = &b[base + w..base + 2 * w];
            let b2 = &b[base + 2 * w..base + 3 * w];
            let b3 = &b[base + 3 * w..base + 4 * w];
            for j in 0..w {
                let mut o = orow[j];
                o += a0 * b0[j];
                o += a1 * b1[j];
                o += a2 * b2[j];
                o += a3 * b3[j];
                orow[j] = o;
            }
        } else {
            // A zero inside the block: fall back to the per-k loop with the
            // zero-skip (same accumulation order either way).
            for t in 0..4 {
                let av = arow[kk + t];
                if av == 0.0 {
                    continue;
                }
                let base = (kk + t) * w;
                let brow = &b[base..base + w];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        kk += 4;
    }
    while kk < k {
        let av = arow[kk];
        if av != 0.0 {
            let base = kk * w;
            let brow = &b[base..base + w];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        kk += 1;
    }
}

/// `A[R,K] × B[K,C]`. The scalar backend runs `matmul_axpy` row by row
/// (zero entries of `A` skipped). Under AVX2 the rows go six at a time
/// through the register-tiled `backend::matmul_tile` — a 6 × 16 block of
/// accumulators held in registers across the whole `k` loop — and the
/// rows left over through `matmul_axpy`. Either way every output element
/// is one chain accumulated from 0 in ascending `k`, so a row's bits do
/// not depend on which path computed it (pinned against the row-at-a-time
/// route by `kernel_parity.rs::matmul_tile_edges_match_row_at_a_time`).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.rows, "matmul: inner dimension mismatch");
    let (r, k, c) = (a.rows, a.cols, b.cols);
    note_matmul(2 * (r * k * c) as u64);
    let bk = backend::active();
    let mut out = Tensor::zeros(r, c);
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        const T: usize = backend::TILE_ROWS;
        while done + T <= r {
            // SAFETY: `Avx2Fma` only ever becomes active after runtime
            // feature detection (see `backend::is_supported`); the slices
            // are exactly one `[6, k]` / `[k, c]` / `[6, c]` tile (the
            // kernel asserts it).
            unsafe {
                backend::matmul_tile(
                    &a.data[done * k..(done + T) * k],
                    &b.data,
                    k,
                    c,
                    &mut out.data[done * c..(done + T) * c],
                );
            }
            done += T;
        }
    }
    for i in done..r {
        let arow = &a.data[i * k..(i + 1) * k];
        matmul_axpy(bk, arow, &b.data, &mut out.data[i * c..(i + 1) * c]);
    }
    out
}

/// `A[R,K] × B[C,K]ᵀ → [R,C]` without materialising the transpose.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.cols, "matmul_nt: inner dimension mismatch");
    let (r, k, c) = (a.rows, a.cols, b.rows);
    note_matmul(2 * (r * k * c) as u64);
    let bk = backend::active();
    let mut out = Tensor::zeros(r, c);
    for i in 0..r {
        let arow = &a.data[i * k..(i + 1) * k];
        for j in 0..c {
            out.data[i * c + j] = row_dot(bk, arow, &b.data[j * k..(j + 1) * k]);
        }
    }
    out
}

// ----- element-wise maps -----------------------------------------------------

/// Apply `f` element-wise.
pub fn unary_map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::from_vec(a.rows, a.cols, a.data.iter().map(|&x| f(x)).collect())
}

/// Apply `f` element-wise over two same-shaped tensors.
pub fn binary_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "binary_map: shape mismatch");
    let data = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
    Tensor::from_vec(a.rows, a.cols, data)
}

/// `out[r,c] = f(m[r,c], v[c])` for a `[1,C]` row vector `v`.
pub fn rowvec_map(m: &Tensor, v: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (r, c) = m.shape();
    assert_eq!((v.rows, v.cols), (1, c), "rowvec_map: v must be [1,C]");
    let mut out = Tensor::zeros(r, c);
    for (drow, src) in out
        .data
        .chunks_exact_mut(c.max(1))
        .zip(m.data.chunks_exact(c.max(1)))
    {
        for ((d, &x), &y) in drow.iter_mut().zip(src).zip(&v.data) {
            *d = f(x, y);
        }
    }
    out
}

/// `out[r,c] = f(m[r,c], v[r])` for an `[R,1]` column vector `v`.
pub fn colvec_map(m: &Tensor, v: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (r, c) = m.shape();
    assert_eq!((v.rows, v.cols), (r, 1), "colvec_map: v must be [R,1]");
    let mut out = Tensor::zeros(r, c);
    for ((drow, src), &y) in out
        .data
        .chunks_exact_mut(c.max(1))
        .zip(m.data.chunks_exact(c.max(1)))
        .zip(&v.data)
    {
        for (d, &x) in drow.iter_mut().zip(src) {
            *d = f(x, y);
        }
    }
    out
}

/// Element-wise `a + b` (same shape).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    binary_map(a, b, |x, y| x + y)
}

/// Element-wise `a - b` (same shape).
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "sub: shape mismatch");
    binary_map(a, b, |x, y| x - y)
}

/// Element-wise (Hadamard) `a ⊙ b` (same shape).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "mul: shape mismatch");
    binary_map(a, b, |x, y| x * y)
}

/// `a · c` for a constant scalar.
pub fn scale(a: &Tensor, c: f32) -> Tensor {
    unary_map(a, |x| x * c)
}

/// `a + c` for a constant scalar.
pub fn add_const(a: &Tensor, c: f32) -> Tensor {
    unary_map(a, |x| x + c)
}

/// `[R,C] + [1,C]` broadcast over rows.
pub fn add_rowvec(m: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(v.rows, 1, "add_rowvec: v must be [1,C]");
    assert_eq!(m.cols, v.cols, "add_rowvec: column mismatch");
    rowvec_map(m, v, |x, y| x + y)
}

/// `[R,C] ⊙ [1,C]` broadcast over rows.
pub fn mul_rowvec(m: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(v.rows, 1, "mul_rowvec: v must be [1,C]");
    assert_eq!(m.cols, v.cols, "mul_rowvec: column mismatch");
    rowvec_map(m, v, |x, y| x * y)
}

/// `[R,C] + [R,1]` broadcast over columns.
pub fn add_colvec(m: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(v.cols, 1, "add_colvec: v must be [R,1]");
    assert_eq!(m.rows, v.rows, "add_colvec: row mismatch");
    colvec_map(m, v, |x, y| x + y)
}

/// `[R,C] ⊙ [R,1]` broadcast over columns.
pub fn mul_colvec(m: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(v.cols, 1, "mul_colvec: v must be [R,1]");
    assert_eq!(m.rows, v.rows, "mul_colvec: row mismatch");
    colvec_map(m, v, |x, y| x * y)
}

/// Element-wise logistic sigmoid `1 / (1 + e^{−x})` on the in-repo
/// [`expf::expf`]: the same bits on both backends and on any host.
pub fn sigmoid(a: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows, a.cols);
    expf::sigmoid_slice(backend::active(), &a.data, &mut out.data);
    out
}

/// `xs[i] = e^{xs[i]}` in place on the in-repo [`expf::expf`], eight lanes
/// at a time under AVX2 — for callers outside this crate that hold a
/// plain slice (feature extraction's distance weights).
pub fn exp_in_place(xs: &mut [f32]) {
    expf::exp_slice(backend::active(), xs);
}

/// Element-wise hyperbolic tangent: [`tanhf::tanhf`] of every element,
/// the same bits on both backends and on any host.
pub fn tanh(a: &Tensor) -> Tensor {
    let mut out = a.clone();
    tanh_in_place(&mut out);
    out
}

/// [`tanh`] overwriting its operand, for callers that own a temporary.
pub fn tanh_in_place(a: &mut Tensor) {
    tanhf::tanh_slice(backend::active(), &mut a.data);
}

/// Element-wise `max(x, 0)`.
pub fn relu(a: &Tensor) -> Tensor {
    unary_map(a, |x| x.max(0.0))
}

/// Element-wise leaky ReLU with the given negative slope.
pub fn leaky_relu(a: &Tensor, slope: f32) -> Tensor {
    unary_map(a, move |x| if x > 0.0 { x } else { slope * x })
}

/// Element-wise `sqrt(max(x, 0))`.
pub fn sqrt(a: &Tensor) -> Tensor {
    unary_map(a, |x| x.max(0.0).sqrt())
}

/// Element-wise reciprocal.
pub fn recip(a: &Tensor) -> Tensor {
    unary_map(a, |x| 1.0 / x)
}

// ----- softmax & norm statistics ---------------------------------------------

/// Numerically stable in-place softmax over one contiguous slice, with the
/// backend captured at the calling kernel's entry: max scan, `x − max`,
/// [`expf::expf`] of every element, one ascending scalar sum, scale by its
/// reciprocal. The AVX2 path runs the scan, the subtraction, the `exp`s
/// and the scaling in lanes and keeps the sum scalar, so both backends
/// produce **bit-identical** softmax output (max is order-insensitive for
/// non-NaN data, and the element-wise steps round identically).
pub(crate) fn softmax_in_place_bk(bk: backend::Backend, row: &mut [f32]) {
    let max = row_max(bk, row);
    row_add(bk, row, -max);
    expf::exp_slice(bk, row);
    let mut sum = 0.0;
    for &x in row.iter() {
        sum += x;
    }
    row_scale(bk, row, 1.0 / sum);
}

/// Stable log-softmax epilogue over one contiguous slice: max scan,
/// ascending `Σ exp(x − max)`, `ln + max`, subtract. Shared by
/// [`log_softmax_rows`] and the served segment heads' row driver
/// ([`masked_head_rows`]); the AVX2 path takes the max, the `exp`s and
/// the subtract pass in lanes and the sum one term at a time, so output
/// is bit-identical across backends.
pub(crate) fn log_softmax_slice(bk: backend::Backend, row: &mut [f32]) {
    let max = row_max(bk, row);
    let lse = expf::sum_exp_shifted(bk, row, max).ln() + max;
    row_add(bk, row, -lse);
}

/// `row[i] += c` in place, backend-dispatched (identical bits either way;
/// `x − m` is written `x + (−m)`, the same operation).
fn row_add(bk: backend::Backend, row: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        unsafe { backend::add_in_place(row, c) };
        return;
    }
    let _ = bk;
    row.iter_mut().for_each(|x| *x += c);
}

/// `row[i] *= c` in place, backend-dispatched (identical bits either way).
fn row_scale(bk: backend::Backend, row: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        unsafe { backend::scale_in_place(row, c) };
        return;
    }
    let _ = bk;
    row.iter_mut().for_each(|x| *x *= c);
}

/// Max over a slice, backend-dispatched (identical bits either way).
fn row_max(bk: backend::Backend, row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::vmax(row) };
    }
    let _ = bk;
    row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// Row-wise softmax (each row one self-contained reduction).
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let mut t = a.clone();
    if t.cols == 0 {
        return t;
    }
    let bk = backend::active();
    for row in t.data.chunks_exact_mut(a.cols) {
        softmax_in_place_bk(bk, row);
    }
    t
}

/// Row-wise stable log-softmax.
pub fn log_softmax_rows(a: &Tensor) -> Tensor {
    let mut t = a.clone();
    if t.cols == 0 {
        return t;
    }
    let bk = backend::active();
    for row in t.data.chunks_exact_mut(a.cols) {
        log_softmax_slice(bk, row);
    }
    t
}

/// Sparse per-row constraint mask: the dense mask row is `default`
/// everywhere except at the `(column, log-weight)` `entries`. This is the
/// decoder's Eq. 16 constraint mask without ever materialising the
/// `[1, |V|]` row.
///
/// `entries` must be in **canonical form**: columns strictly ascending
/// (hence no duplicates) and in range. [`canonical_mask_entries`] builds it
/// from an arbitrary list with the semantics of a dense build by
/// overwrites (the last write to a column wins); the decoder does so once
/// per member per step, when it turns weights into log-weights. The masked
/// heads ([`masked_matmul_cols`], [`crate::quant::QuantizedLinear::forward_masked`])
/// verify the form in one linear pass up front and panic
/// otherwise — they never sort, dedup or copy the list. Ascending order is what makes the sparse
/// head's packed log-sum-exp equal a dense sweep of the full row with the
/// masked-out columns at exact `-∞`.
#[derive(Clone, Copy, Debug)]
pub struct SparseLogMask<'a> {
    /// Log-weight at every column not named by an entry.
    pub default: f32,
    /// `(column, log-weight)` overrides in canonical form.
    pub entries: &'a [(usize, f32)],
}

/// Put mask entries into the canonical form [`SparseLogMask`] requires:
/// columns strictly ascending, and where the input names a column more
/// than once its **last** entry survives — what a dense row built by
/// overwriting in input order would hold. Already-canonical input (what
/// feature extraction emits) costs one linear pass.
pub fn canonical_mask_entries(mut entries: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
    // Stable, so equal columns keep input order and `later` below really
    // is the later write.
    entries.sort_by_key(|&(col, _)| col);
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
    entries
}

/// Verify every mask of a masked kernel — canonical form and column
/// range — and return the number of head columns the sparse kernels will compute (a row
/// without a usable mask computes all `c`).
fn check_masks(kernel: &str, masks: &[Option<SparseLogMask<'_>>], c: usize) -> u64 {
    let mut computed = 0u64;
    for mask in masks {
        match mask {
            Some(m) if !m.entries.is_empty() => {
                assert!(
                    m.entries.windows(2).all(|w| w[0].0 < w[1].0),
                    "{kernel}: mask entries must be strictly ascending by column \
                     (build them with canonical_mask_entries)"
                );
                let last = m.entries[m.entries.len() - 1].0;
                assert!(last < c, "{kernel}: column {last} out of {c}");
                computed += m.entries.len() as u64;
            }
            _ => computed += c as u64,
        }
    }
    computed
}

/// Strided column dot `Σ_k arow[k] · b[k·stride + col]` with exactly the
/// per-element chain of the dense matmul under `bk` (scalar: ascending
/// `k`, zero entries of `arow` skipped; AVX2: ascending-`k` FMA, no
/// skip), so each computed logit is bit-identical to the dense head's.
#[inline]
fn col_dot(bk: backend::Backend, arow: &[f32], b: &[f32], stride: usize, col: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::dot_col(arow, b, stride, col) };
    }
    let _ = bk;
    let mut acc = 0.0f32;
    for (kk, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        acc += av * b[kk * stride + col];
    }
    acc
}

/// [`backend::DOT_LANES`] column dots at once: lane `l` is exactly
/// [`col_dot`]'s chain for `cols[l]` under `bk`, but the lanes are
/// independent accumulators, so their multiply-add latencies overlap
/// instead of one dependent chain per column running alone.
#[inline]
fn col_dots(
    bk: backend::Backend,
    arow: &[f32],
    b: &[f32],
    stride: usize,
    cols: &[usize; backend::DOT_LANES],
) -> [f32; backend::DOT_LANES] {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::dot_cols(arow, b, stride, cols) };
    }
    let _ = bk;
    let mut acc = [0.0f32; backend::DOT_LANES];
    for (&av, brow) in arow.iter().zip(b.chunks_exact(stride)) {
        if av == 0.0 {
            continue;
        }
        for (o, &col) in acc.iter_mut().zip(cols) {
            *o += av * brow[col];
        }
    }
    acc
}

/// The sparse-aware decoder segment head (Eq. 15–16 fused): for each row
/// `i` of `a[R,K]`, compute `log_softmax(a_i · B + bias + mask_i)` —
/// but for rows whose constraint mask names allowed columns, compute
/// **only those columns** and normalise over them alone; every other
/// column is an exact zero probability (`-∞` log-probability). This
/// replaces the dense `[R,K]×[K,C]` matmul + `add_rowvec` + mask +
/// `log_softmax_rows` sequence of the tape's head with work proportional
/// to the mask support instead of `C = |V|`. The row epilogue is
/// `masked_head_rows`'s, shared with the int8 head.
///
/// Per computed column the dot is exactly the dense matmul's chain (see
/// `col_dot`; the dots run `backend::DOT_LANES` columns at a time through
/// `col_dots`), and the mask entries are taken as given — they must be
/// in the canonical form [`SparseLogMask`] documents, which is verified
/// up front. What differs from the soft dense route *by design* is the
/// normaliser: the dense route's log-sum-exp includes the
/// `e^{x + default}` leakage of every masked-out column, while this
/// kernel treats masked-out columns as true zeros — the sharper reading
/// of the paper's constraint mask. Equivalently: the output is
/// bit-identical to the dense route run with a *hard* mask (`-∞` on
/// masked-out columns), which `kernel_parity.rs` proptest-pins. The
/// decoder's recovery outputs (argmax + rate head) are pinned equal to
/// the tape decode's in the `batch_decode_parity` suite.
pub fn masked_matmul_cols(
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
    masks: &[Option<SparseLogMask<'_>>],
) -> Tensor {
    assert_eq!(a.cols, b.rows, "masked_matmul_cols: inner dimension");
    let (k, c) = (a.cols, b.cols);
    masked_head_rows(
        "masked_matmul_cols",
        a,
        c,
        bias,
        masks,
        |bk, i, cols, out| {
            let arow = &a.data[i * k..(i + 1) * k];
            let Some(entries) = cols else {
                return matmul_axpy(bk, arow, &b.data, out);
            };
            let split = entries.len() - entries.len() % backend::DOT_LANES;
            let (lanes, tail) = entries.split_at(split);
            let (out_lanes, out_tail) = out.split_at_mut(split);
            for (chunk, o) in lanes
                .chunks_exact(backend::DOT_LANES)
                .zip(out_lanes.chunks_exact_mut(backend::DOT_LANES))
            {
                let cols = std::array::from_fn(|l| chunk[l].0);
                o.copy_from_slice(&col_dots(bk, arow, &b.data, c, &cols));
            }
            for (&(col, _), o) in tail.iter().zip(out_tail) {
                *o = col_dot(bk, arow, &b.data, c, col);
            }
        },
    )
}

/// The row driver of both served Eq. 16 heads ([`masked_matmul_cols`] and
/// [`crate::quant::QuantizedLinear::forward_masked`]): `kernel` names the
/// head in panics, `a` is its `[R, K]` input and `C` its width. The head
/// supplies only raw column dots through `dots(bk, i, cols, out)`: row
/// `i`'s dots of the mask entries' columns, in entry order, when `cols`
/// is `Some` (`out` has one slot per entry), or of every column when it
/// is `None` (`out` is the whole row); `out` arrives zeroed. Everything
/// else is written here once: the masks are verified up front
/// ([`check_masks`]), the FLOPs counted as `2·K·(columns computed)`, and
/// each row finished as
///
/// * a row whose mask names columns: `(dot + bias) + log-weight` per
///   entry, log-softmax over those alone, in the entries' canonical
///   ascending order — which makes the packed log-sum-exp identical to a
///   dense sweep of the full row with masked-out columns at exact `-∞`
///   (adding `e^{-∞} = 0` terms never perturbs the sum) — scattered into
///   a `-∞` row;
/// * any other row: `(dot + bias)`, `+ default` when it has a mask with
///   no entries, then log-softmax over the whole row.
pub(crate) fn masked_head_rows<D>(
    kernel: &str,
    a: &Tensor,
    c: usize,
    bias: &Tensor,
    masks: &[Option<SparseLogMask<'_>>],
    dots: D,
) -> Tensor
where
    D: Fn(backend::Backend, usize, Option<&[(usize, f32)]>, &mut [f32]),
{
    let (r, k) = a.shape();
    assert_eq!(
        (bias.rows, bias.cols),
        (1, c),
        "{kernel}: bias must be [1,C]"
    );
    assert_eq!(masks.len(), r, "{kernel}: one mask per row");
    // Verify the masks and count the columns actually computed, up front:
    // exact FLOP attribution, and no half-written output on a bad mask.
    let computed = check_masks(kernel, masks, c);
    note_matmul(2 * k as u64 * computed);
    let bk = backend::active();
    let mut out = Tensor::zeros(r, c);
    if c == 0 {
        return out;
    }
    let mut scratch: Vec<f32> = Vec::new();
    for (i, row) in out.data.chunks_exact_mut(c).enumerate() {
        match masks[i] {
            Some(mask) if !mask.entries.is_empty() => {
                scratch.clear();
                scratch.resize(mask.entries.len(), 0.0);
                dots(bk, i, Some(mask.entries), &mut scratch);
                for (x, &(col, lw)) in scratch.iter_mut().zip(mask.entries) {
                    *x = *x + bias.data[col] + lw;
                }
                log_softmax_slice(bk, &mut scratch);
                row.fill(f32::NEG_INFINITY);
                for (&(col, _), &x) in mask.entries.iter().zip(&scratch) {
                    row[col] = x;
                }
            }
            mask => {
                dots(bk, i, None, row);
                match mask {
                    Some(m) => {
                        for (o, &bv) in row.iter_mut().zip(&bias.data) {
                            *o = (*o + bv) + m.default;
                        }
                    }
                    None => {
                        for (o, &bv) in row.iter_mut().zip(&bias.data) {
                            *o += bv;
                        }
                    }
                }
                log_softmax_slice(bk, row);
            }
        }
    }
    out
}

/// Per-row layer-norm statistics: `(mean, 1/sqrt(var + eps))`, each
/// `[R,1]`. On the scalar backend this follows
/// the exact accumulation order of the composed tape/infer layer-norm
/// route (ascending-index sums, `Σ·(1/d)`, `x + (-μ)` centering), so the
/// fused statistics are bit-identical to the op-by-op computation; the
/// AVX2 backend uses partial-lane sums and fused square-accumulate,
/// within the backend ULP budget of scalar.
pub fn row_norm_stats(a: &Tensor, eps: f32) -> (Tensor, Tensor) {
    let (r, c) = a.shape();
    assert!(c > 0, "row_norm_stats: empty rows");
    let mut mean = Tensor::zeros(r, 1);
    let mut inv_std = Tensor::zeros(r, 1);
    let bk = backend::active();
    let inv_d = 1.0 / c as f32;
    for (i, row) in a.data.chunks_exact(c).enumerate() {
        // Row sum: the AVX2 partial-lane sum rounds differently from the
        // scalar ascending fold — part of the backend ULP budget.
        let mu = row_sum(bk, row) * inv_d;
        let sq = row_sumsq(bk, row, -mu);
        let var = sq * inv_d + eps;
        mean.data[i] = mu;
        inv_std.data[i] = 1.0 / var.max(0.0).sqrt();
    }
    (mean, inv_std)
}

/// Slice sum under `bk`: scalar = ascending fold (the historical
/// accumulation, bit for bit); AVX2 = 8 partial lanes + tail.
#[inline]
fn row_sum(bk: backend::Backend, row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::vsum(row) };
    }
    let _ = bk;
    let mut sum = 0.0f32;
    for &x in row {
        sum += x;
    }
    sum
}

/// Sum of squared deviations `Σ (x + (−μ))²` under `bk` (scalar:
/// ascending, one rounding per step; AVX2: fused square-accumulate).
#[inline]
fn row_sumsq(bk: backend::Backend, row: &[f32], neg_mu: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::vsumsq(row, neg_mu) };
    }
    let _ = bk;
    let mut sq = 0.0f32;
    for &x in row {
        let d = x + neg_mu;
        sq += d * d;
    }
    sq
}

/// Fused layer normalisation `y = γ ⊙ (x − μ)/σ + β` over each row:
/// [`row_norm_stats`] plus a single normalise-and-affine pass, replacing
/// the nine-op composed route (two matmuls with a ones column, scales,
/// centre, square, sqrt, recip, broadcasts). Per element the arithmetic is
/// `((x + (−μ)) · inv_std) · γ + β` — the composed route's exact operation
/// chain — so on the scalar backend results are bit-identical to it
/// (under AVX2 the statistics carry that backend's reduction rounding).
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let (r, c) = x.shape();
    assert_eq!(
        (gamma.rows, gamma.cols),
        (1, c),
        "layer_norm: gamma must be [1,C]"
    );
    assert_eq!(
        (beta.rows, beta.cols),
        (1, c),
        "layer_norm: beta must be [1,C]"
    );
    let (mean, inv_std) = row_norm_stats(x, eps);
    let bk = backend::active();
    let mut out = Tensor::zeros(r, c);
    for (i, drow) in out.data.chunks_exact_mut(c).enumerate() {
        let neg_mu = -mean.data[i];
        let inv = inv_std.data[i];
        let src = &x.data[i * c..(i + 1) * c];
        #[cfg(target_arch = "x86_64")]
        if bk == backend::Backend::Avx2Fma {
            // SAFETY: `Avx2Fma` is only active after detection. The vector
            // epilogue keeps the scalar operation chain (no fusing), so it
            // matches the scalar loop bit for bit.
            unsafe { backend::norm_affine(src, neg_mu, inv, &gamma.data, &beta.data, drow) };
            continue;
        }
        let _ = bk;
        for ((d, &xv), (&g, &b)) in drow
            .iter_mut()
            .zip(src)
            .zip(gamma.data.iter().zip(&beta.data))
        {
            *d = ((xv + neg_mu) * inv) * g + b;
        }
    }
    out
}

// ----- shape & gather ops ----------------------------------------------------

/// Horizontal concatenation (same row count).
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty());
    let rows = parts[0].rows;
    let total: usize = parts.iter().map(|p| p.cols).sum();
    let mut t = Tensor::zeros(rows, total);
    let mut off = 0;
    for p in parts {
        assert_eq!(p.rows, rows, "concat_cols: row mismatch");
        for r in 0..rows {
            let dst = r * total + off;
            t.data[dst..dst + p.cols].copy_from_slice(&p.data[r * p.cols..(r + 1) * p.cols]);
        }
        off += p.cols;
    }
    t
}

/// Columns `[start, start+len)`.
pub fn select_cols(a: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start + len <= a.cols, "select_cols out of range");
    let mut t = Tensor::zeros(a.rows, len);
    for r in 0..a.rows {
        t.data[r * len..(r + 1) * len]
            .copy_from_slice(&a.data[r * a.cols + start..r * a.cols + start + len]);
    }
    t
}

/// Vertical concatenation (same column count).
pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty());
    let cols = parts[0].cols;
    let total: usize = parts.iter().map(|p| p.rows).sum();
    let mut data = Vec::with_capacity(total * cols);
    for p in parts {
        assert_eq!(p.cols, cols, "concat_rows: column mismatch");
        data.extend_from_slice(&p.data);
    }
    Tensor::from_vec(total, cols, data)
}

/// Rows `[start, start+len)`.
pub fn select_rows(a: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start + len <= a.rows, "select_rows out of range");
    Tensor::from_vec(
        len,
        a.cols,
        a.data[start * a.cols..(start + len) * a.cols].to_vec(),
    )
}

/// Column means → `[1,C]` (rows accumulated in ascending order).
pub fn mean_rows(a: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; a.cols];
    for row in a.data.chunks_exact(a.cols) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    let inv = 1.0 / a.rows as f32;
    out.iter_mut().for_each(|x| *x *= inv);
    Tensor::row(out)
}

/// Normalise positive pooling weights for `rows` rows so they sum to one
/// (the paper's Eq. 6 / Eq. 8 weighting).
pub fn normalized_weights(rows: usize, weights: &[f32]) -> Vec<f32> {
    assert_eq!(weights.len(), rows, "weighted_mean_rows: weight count");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    weights.iter().map(|w| w / total).collect()
}

/// Weighted column means with pre-normalised weights (see
/// [`normalized_weights`]) → `[1,C]`.
pub fn weighted_mean_rows(a: &Tensor, norm: &[f32]) -> Tensor {
    assert_eq!(norm.len(), a.rows, "weighted_mean_rows: weight count");
    let mut out = vec![0.0f32; a.cols];
    for (row, &w) in a.data.chunks_exact(a.cols).zip(norm) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += w * x;
        }
    }
    Tensor::row(out)
}

/// Row gather `table[indices[i], :] → [n, C]` (embedding lookup).
pub fn gather_rows(table: &Tensor, indices: &[usize]) -> Tensor {
    let c = table.cols;
    for &i in indices {
        assert!(
            i < table.rows,
            "gather_rows: index {i} out of {} rows",
            table.rows
        );
    }
    let mut data = Vec::with_capacity(indices.len() * c);
    for &i in indices {
        data.extend_from_slice(&table.data[i * c..(i + 1) * c]);
    }
    Tensor::from_vec(indices.len(), c, data)
}

// ----- segmented fusion ops --------------------------------------------------
//
// A batch runs as one stacked matrix per projection; what cannot be naively
// stacked is anything whose *reduction scope* is per member or per
// sub-graph: the decoder's additive attention over each member's own
// encoder rows, the encoder's self-attention rows, graph readout means, and
// GraphNorm's statistics (Eq. 8–9), which at serving time must cover
// exactly one request's sub-graphs or batching would change results. These
// kernels run those scoped reductions over the whole stack in one launch,
// each segment computed with exactly the per-segment op sequence's
// accumulation order, so the stacked result is bit-identical to one call
// per segment (pinned in `tests/kernel_parity.rs`).

/// Validate `segs` against `rows` rows and return the rows they cover
/// in total.
fn check_segments(segs: &[Range<usize>], rows: usize) -> usize {
    segs.iter()
        .map(|seg| {
            assert!(
                seg.start <= seg.end && seg.end <= rows,
                "segment {seg:?} out of {rows} rows"
            );
            seg.len()
        })
        .sum()
}

/// `Σ_k a[k]·b[k]` under `bk`: [`matmul_nt`]'s dot (ascending `k` from 0 on
/// the scalar path, [`backend`]'s lane reduction under AVX2).
fn row_dot(bk: backend::Backend, a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        return unsafe { backend::dot(a, b) };
    }
    let _ = bk;
    let mut s = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `acc += alpha·x` under `bk`: one step of [`matmul`]'s ascending-`k`
/// accumulation (the scalar path skips a zero `alpha`, the AVX2 path
/// fuses every step).
fn row_axpy(bk: backend::Backend, alpha: f32, x: &[f32], acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        unsafe { backend::axpy(alpha, x, acc) };
        return;
    }
    let _ = bk;
    if alpha == 0.0 {
        return;
    }
    for (o, &xv) in acc.iter_mut().zip(x) {
        *o += alpha * xv;
    }
}

/// Additive attention (Eq. 14) for every query at once: with
/// `seg = segs[s]`, output row `s` is
/// `softmax(v · tanh(hk[seg] + gq[s])ᵀ) · keys[seg]` — the batched
/// decoder's context vectors, one launch for the whole micro-batch. `hk` is
/// `keys` projected by `W_h`, `gq` one projected query per segment, `v` the
/// `[1, d]` scoring vector. Per segment: `hk` rows plus the query into a
/// scratch `[L, d]` block, one `tanh` over it, the scores as [`matmul_nt`]'s
/// dots, [`softmax_rows`]'s chain on the `[1, L]` row, then [`matmul`]'s
/// ascending-key accumulation — so each row is bit-identical to the
/// segment's own composed route on either backend. Segments may skip or
/// share rows (the decoder's retired members); an empty one gives a zero
/// row.
pub fn segmented_additive_attention(
    hk: &Tensor,
    gq: &Tensor,
    v: &Tensor,
    keys: &Tensor,
    segs: &[Range<usize>],
) -> Tensor {
    let (n, d) = hk.shape();
    let c = keys.cols;
    assert_eq!(keys.rows, n, "segmented_additive_attention: keys rows");
    assert_eq!(
        gq.shape(),
        (segs.len(), d),
        "segmented_additive_attention: gq must be [S,d]"
    );
    assert_eq!(
        v.shape(),
        (1, d),
        "segmented_additive_attention: v must be [1,d]"
    );
    check_segments(segs, n);
    let bk = backend::active();
    let mut out = Tensor::zeros(segs.len(), c);
    let longest = segs.iter().map(|seg| seg.len()).max().unwrap_or(0);
    let (mut t, mut scores) = (Vec::with_capacity(longest * d), Vec::with_capacity(longest));
    for (s, seg) in segs.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        let q = &gq.data[s * d..(s + 1) * d];
        t.clear();
        for row in hk.data[seg.start * d..seg.end * d].chunks_exact(d) {
            t.extend(row.iter().zip(q).map(|(&x, &y)| x + y));
        }
        tanhf::tanh_slice(bk, &mut t);
        scores.clear();
        scores.extend(t.chunks_exact(d).map(|row| row_dot(bk, &v.data, row)));
        softmax_in_place_bk(bk, &mut scores);
        let orow = &mut out.data[s * c..(s + 1) * c];
        for (&alpha, i) in scores.iter().zip(seg.clone()) {
            row_axpy(bk, alpha, &keys.data[i * c..(i + 1) * c], orow);
        }
    }
    out
}

/// Per-segment column means: output row `s` is [`mean_rows`] of
/// `a[segs[s], :]` — the batched encoder's graph readout (Eq. 13) and
/// trajectory-level pooling, one launch for every sub-graph / member.
/// Rows accumulate in ascending order and the `1/n` scaling matches
/// [`mean_rows`] exactly, so each output row is bit-identical to the
/// per-segment call. Segments may be arbitrary in-range row windows.
pub fn segmented_mean_rows(a: &Tensor, segs: &[Range<usize>]) -> Tensor {
    let c = a.cols;
    check_segments(segs, a.rows);
    let mut out = Tensor::zeros(segs.len(), c);
    for (s, seg) in segs.iter().enumerate() {
        let orow = &mut out.data[s * c..(s + 1) * c];
        for i in seg.clone() {
            let row = &a.data[i * c..(i + 1) * c];
            for (o, &x) in orow.iter_mut().zip(row) {
                *o += x;
            }
        }
        let inv = 1.0 / seg.len() as f32;
        orow.iter_mut().for_each(|x| *x *= inv);
    }
    out
}

/// Per-segment weighted column means with raw positive weights,
/// concatenated in segment order (`weights.len()` = Σ segment lengths):
/// output row `s` is [`weighted_mean_rows`] of `a[segs[s], :]` under
/// [`normalized_weights`] of its weight slice — the batched Eq. 6 pooling.
/// Normalisation (ascending-order sum, per-weight division) and the
/// weighted accumulation match the per-segment route exactly, so each
/// output row is bit-identical.
pub fn segmented_weighted_mean_rows(a: &Tensor, weights: &[f32], segs: &[Range<usize>]) -> Tensor {
    let c = a.cols;
    assert_eq!(
        weights.len(),
        check_segments(segs, a.rows),
        "segmented_weighted_mean_rows: weight count must match segment rows"
    );
    let mut out = Tensor::zeros(segs.len(), c);
    let mut rest = weights;
    for (s, seg) in segs.iter().enumerate() {
        let orow = &mut out.data[s * c..(s + 1) * c];
        let (wseg, tail) = rest.split_at(seg.len());
        rest = tail;
        // The per-segment route asserts this in `normalized_weights`.
        let total: f32 = wseg.iter().sum();
        assert!(total > 0.0, "weights must not all be zero (segment {s})");
        for (i, &w) in seg.clone().zip(wseg) {
            let norm = w / total;
            let row = &a.data[i * c..(i + 1) * c];
            for (o, &x) in orow.iter_mut().zip(row) {
                *o += norm * x;
            }
        }
    }
    out
}

/// GraphNorm statistics (Eq. 8–9) scoped per member of a stacked batch.
///
/// `a` is the `[Σn, C]` stack of every member's sub-graph features,
/// `graph_segs[g]` the row range of sub-graph `g`, and `members[m]` the
/// range of *graph indices* belonging to member `m`. For each member the
/// kernel computes exactly what `GraphNorm` computes over that member's
/// graphs alone: `μ_m` = mean of the per-graph mean-pooled rows (graph
/// means accumulated in graph order), and `inv_m` = `1/√(var + eps)` with
/// the variance of all the member's node rows around `μ_m` (`x + (−μ)`
/// centering, ascending-row accumulation, `Σ·(1/N)`, `+eps`,
/// `max(0)·sqrt`, reciprocal — the per-member op chain, one rounding per
/// step). Returns `(mu, inv_std)`, each `[M, C]`, bit-identical per row
/// to the member's own statistics.
pub fn segmented_norm_stats(
    a: &Tensor,
    graph_segs: &[Range<usize>],
    members: &[Range<usize>],
    eps: f32,
) -> (Tensor, Tensor) {
    let c = a.cols;
    check_segments(graph_segs, a.rows);
    for m in members {
        assert!(
            m.start <= m.end && m.end <= graph_segs.len(),
            "member {m:?} out of {} graphs",
            graph_segs.len()
        );
    }
    let mut mu = Tensor::zeros(members.len(), c);
    let mut inv_std = Tensor::zeros(members.len(), c);
    let mut graph_sum = vec![0.0f32; c];
    let mut sq = vec![0.0f32; c];
    for (m, member) in members.iter().enumerate() {
        let gs = &graph_segs[member.clone()];
        // Eq. (8): per-graph mean pooling, then the mean of the means.
        let mean_acc = &mut mu.data[m * c..(m + 1) * c];
        for seg in gs {
            graph_sum.fill(0.0);
            for i in seg.clone() {
                let row = &a.data[i * c..(i + 1) * c];
                for (o, &x) in graph_sum.iter_mut().zip(row) {
                    *o += x;
                }
            }
            let inv = 1.0 / seg.len() as f32;
            for (acc, &s) in mean_acc.iter_mut().zip(&graph_sum) {
                *acc += s * inv;
            }
        }
        let ginv = 1.0 / gs.len() as f32;
        mean_acc.iter_mut().for_each(|x| *x *= ginv);
        // Eq. (9): variance of every node row around μ_m.
        sq.fill(0.0);
        let mut nrows = 0usize;
        for seg in gs {
            for i in seg.clone() {
                let row = &a.data[i * c..(i + 1) * c];
                for (o, (&x, &mu_k)) in sq.iter_mut().zip(row.iter().zip(&*mean_acc)) {
                    let d = x + (-mu_k); // scale(μ, −1): −x ≡ x·(−1) bitwise
                    *o += d * d;
                }
            }
            nrows += seg.len();
        }
        let ninv = 1.0 / nrows as f32;
        for (inv, &sv) in inv_std.data[m * c..(m + 1) * c].iter_mut().zip(&sq) {
            let var = sv * ninv + eps;
            *inv = 1.0 / var.max(0.0).sqrt();
        }
    }
    (mu, inv_std)
}

/// The Eq. 7 gate in one pass over the **unexpanded** operands: with
/// `p = row_to_point[r]`,
/// `s = (a[p] + b[r]) + b_z`, `g = σ(s)`, `out[r] = g ⊙ tr[p] + (1 − g) ⊙ z[r]`.
///
/// `a` is `tr·W_z1` (`[P, d]`, one row per point), `b` is `z·W_z2`
/// (`[Σn, d]`), `bz` the bias row, `tr` the `[P, d]` transformer rows and
/// `z` the stacked sub-graph features. The composed route gathers `tr` and
/// `a` out to `[Σn, d]`, adds twice, and blends; here a row's point is
/// looked up where it is used, so none of those four temporaries exists.
/// Per element the arithmetic is exactly the composed route's — `a + b`,
/// `+ b_z`, `g = 1/(1+e^{−s})` on [`expf::expf`], `g·tr`, `g·(−1)+1`,
/// `(…)·z`, sum, one rounding per step, eight lanes at a time under AVX2 —
/// so results are bit-identical to it on both backends.
pub fn gated_fusion(
    a: &Tensor,
    b: &Tensor,
    bz: &Tensor,
    tr: &Tensor,
    z: &Tensor,
    row_to_point: &[usize],
) -> Tensor {
    let (r, c) = z.shape();
    assert_eq!(b.shape(), (r, c), "gated_fusion: b must match z");
    assert_eq!(a.shape(), tr.shape(), "gated_fusion: a must match tr");
    assert_eq!(tr.cols, c, "gated_fusion: tr width");
    assert_eq!((bz.rows, bz.cols), (1, c), "gated_fusion: bz must be [1,C]");
    assert_eq!(row_to_point.len(), r, "gated_fusion: one point per row");
    for &p in row_to_point {
        assert!(p < tr.rows, "gated_fusion: point {p} out of range");
    }
    let bk = backend::active();
    let mut out = Tensor::zeros(r, c);
    for (i, &p) in row_to_point.iter().enumerate() {
        let arow = &a.data[p * c..(p + 1) * c];
        let trrow = &tr.data[p * c..(p + 1) * c];
        let brow = &b.data[i * c..(i + 1) * c];
        let zrow = &z.data[i * c..(i + 1) * c];
        let drow = &mut out.data[i * c..(i + 1) * c];
        #[cfg(target_arch = "x86_64")]
        if bk == backend::Backend::Avx2Fma {
            // SAFETY: `Avx2Fma` is only active after runtime detection; all
            // six slices are `c` long.
            unsafe { backend::gate_row(arow, brow, &bz.data, trrow, zrow, drow) };
            continue;
        }
        let _ = bk;
        for (j, d) in drow.iter_mut().enumerate() {
            *d = backend::gate(arow[j], brow[j], bz.data[j], trrow[j], zrow[j]);
        }
    }
    out
}

/// Fused normalise-and-affine epilogue of the segment-scoped GraphNorm:
/// `out[r] = ((x[r] + (−μ[seg_of[r]])) ⊙ invσ[seg_of[r]]) ⊙ γ + β` in one
/// pass, instead of materialising the broadcast `−μ`/`invσ` row-gathers
/// and running four full-matrix traversals. `mu`/`inv_std` are the
/// `[M, C]` outputs of [`segmented_norm_stats`]; `seg_of[r]` names row
/// `r`'s member. Per element the chain (`μ·(−1)`, add, two products, add)
/// matches the composed route exactly, so results are bit-identical.
pub fn segmented_norm_apply(
    x: &Tensor,
    mu: &Tensor,
    inv_std: &Tensor,
    seg_of: &[usize],
    gamma: &Tensor,
    beta: &Tensor,
) -> Tensor {
    let (r, c) = x.shape();
    assert_eq!(seg_of.len(), r, "segmented_norm_apply: one member per row");
    assert_eq!(mu.shape(), inv_std.shape(), "segmented_norm_apply: stats");
    assert_eq!(mu.cols, c, "segmented_norm_apply: stat width");
    assert_eq!((gamma.rows, gamma.cols), (1, c), "gamma must be [1,C]");
    assert_eq!((beta.rows, beta.cols), (1, c), "beta must be [1,C]");
    for &m in seg_of {
        assert!(m < mu.rows, "segmented_norm_apply: member {m} out of range");
    }
    let mut out = Tensor::zeros(r, c);
    for (i, &m) in seg_of.iter().enumerate() {
        let murow = &mu.data[m * c..(m + 1) * c];
        let invrow = &inv_std.data[m * c..(m + 1) * c];
        let src = &x.data[i * c..(i + 1) * c];
        let drow = &mut out.data[i * c..(i + 1) * c];
        // Zipped slices, not indices: without bounds checks in the body the
        // loop vectorises (same ops, one rounding each).
        for (((d, &xv), (&mu_k, &inv_k)), (&g, &b)) in drow
            .iter_mut()
            .zip(src)
            .zip(murow.iter().zip(invrow))
            .zip(gamma.data.iter().zip(&beta.data))
        {
            let centered = xv + (-mu_k); // scale(μ, −1): −x ≡ x·(−1) bitwise
            let norm = centered * inv_k;
            *d = norm * g + b;
        }
    }
    out
}

/// GraphNorm (Eq. 8–9) with per-scope statistics:
/// [`segmented_norm_stats`] over `scopes` of `graph_segs`, then
/// [`segmented_norm_apply`] with `row_to_scope` naming each row's scope.
pub fn segmented_norm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    graph_segs: &[Range<usize>],
    scopes: &[Range<usize>],
    row_to_scope: &[usize],
    eps: f32,
) -> Tensor {
    let (mu, inv_std) = segmented_norm_stats(x, graph_segs, scopes, eps);
    segmented_norm_apply(x, &mu, &inv_std, row_to_scope, gamma, beta)
}

/// Per-segment scaled dot-product self-attention: for every row `i` of
/// segment `s`, output row `i` is `softmax(scale · q_i · K_sᵀ) · V_s` with
/// keys/values restricted to the segment's own rows — the batched
/// GPSFormer's temporal attention (Eq. 10), every member in one launch.
/// Per row the operation chain is exactly the per-member route's
/// ([`matmul_nt`] dots in ascending feature order, [`scale`],
/// [`softmax_rows`], [`matmul`]'s ascending-index zero-skip accumulation),
/// so each output row is bit-identical to the member's own attention.
pub fn segmented_self_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    segs: &[Range<usize>],
    scale: f32,
) -> Tensor {
    let (n, c) = q.shape();
    assert_eq!(k.shape(), (n, c), "segmented_self_attention: k shape");
    assert_eq!(v.shape(), (n, c), "segmented_self_attention: v shape");
    // Segments own their output rows, so they must be ordered and disjoint.
    let mut prev_end = 0usize;
    for seg in segs {
        assert!(
            prev_end <= seg.start && seg.start <= seg.end && seg.end <= n,
            "segments must be ordered, disjoint, and within {n} rows (got {seg:?})"
        );
        prev_end = seg.end;
    }
    let bk = backend::active();
    let mut out = Tensor::zeros(n, c);
    let mut scores: Vec<f32> = Vec::new();
    for seg in segs {
        scores.resize(seg.len(), 0.0);
        for i in seg.clone() {
            // Scores row (matmul_nt + scale): ascending-feature dots.
            let qrow = &q.data[i * c..(i + 1) * c];
            for (slot, j) in scores.iter_mut().zip(seg.clone()) {
                *slot = row_dot(bk, qrow, &k.data[j * c..(j + 1) * c]) * scale;
            }
            softmax_in_place_bk(bk, &mut scores);
            // Context row (matmul's accumulation under the same backend:
            // ascending keys; the scalar path skips zero weights, the AVX2
            // path FMA-accumulates all of them).
            let orow = &mut out.data[i * c..(i + 1) * c];
            for (&alpha, j) in scores.iter().zip(seg.clone()) {
                row_axpy(bk, alpha, &v.data[j * c..(j + 1) * c], orow);
            }
        }
    }
    out
}

// ----- CSR graph-attention gather/scatter ------------------------------------

/// GAT edge scores `out[e] = src[i] + dst[j_e]` for each edge slot `e` of
/// node `i` (`src`/`dst` are `[n,1]`; a node's edge slots are contiguous
/// in CSR order).
pub fn edge_scores(src: &Tensor, dst: &Tensor, csr: &GraphCsr) -> Tensor {
    let n = csr.num_nodes();
    assert_eq!(
        (src.rows, src.cols),
        (n, 1),
        "edge_scores: src must be [n,1]"
    );
    assert_eq!(
        (dst.rows, dst.cols),
        (n, 1),
        "edge_scores: dst must be [n,1]"
    );
    let mut out = Tensor::zeros(csr.num_edges(), 1);
    for i in 0..n {
        for e in csr.segment(i) {
            out.data[e] = src.data[i] + dst.data[csr.target(e)];
        }
    }
    out
}

/// Softmax within each node's edge segment (GAT attention normalisation);
/// each segment is one self-contained reduction. Empty segments (isolated
/// nodes without self-loops) are left untouched. Per element it is
/// [`softmax_rows`]'s chain on the segment's own slice; the AVX2 path lays
/// the same operations out flat over all the edges
/// (`backend::segmented_softmax_flat`), so the output is bit-identical
/// across backends.
pub fn segmented_softmax(scores: &Tensor, csr: &GraphCsr) -> Tensor {
    assert_eq!(
        (scores.rows, scores.cols),
        (csr.num_edges(), 1),
        "segmented_softmax: [E,1]"
    );
    let mut t = scores.clone();
    let n = csr.num_nodes();
    if n == 0 {
        return t;
    }
    let bk = backend::active();
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection.
        unsafe { backend::segmented_softmax_flat(&scores.data, &mut t.data, csr) };
        return t;
    }
    for i in 0..n {
        let seg = csr.segment(i);
        if !seg.is_empty() {
            softmax_in_place_bk(bk, &mut t.data[seg]);
        }
    }
    t
}

/// GAT attention aggregation `out[i] = Σ_{e ∈ seg(i)} α[e] · feats[j_e]`,
/// each output row accumulated in ascending edge order. Every term
/// is a product rounded, then added (`o + α·f` in two roundings, never a
/// fused one) on both backends, so the output is bit-identical across
/// them.
pub fn neighbor_sum(alphas: &Tensor, feats: &Tensor, csr: &GraphCsr) -> Tensor {
    assert_eq!(
        (alphas.rows, alphas.cols),
        (csr.num_edges(), 1),
        "neighbor_sum: alphas [E,1]"
    );
    assert_eq!(feats.rows, csr.num_nodes(), "neighbor_sum: feats [n,C]");
    let n = csr.num_nodes();
    let cols = feats.cols;
    let bk = backend::active();
    let mut out = Tensor::zeros(n, cols);
    #[cfg(target_arch = "x86_64")]
    if bk == backend::Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection; the
        // shapes were asserted above and `out` holds all `n` rows.
        unsafe { backend::neighbor_sum_rows(&alphas.data, &feats.data, cols, csr, &mut out.data) };
        return out;
    }
    let _ = bk;
    for i in 0..n {
        let orow = &mut out.data[i * cols..(i + 1) * cols];
        for e in csr.segment(i) {
            let aw = alphas.data[e];
            let j = csr.target(e);
            let frow = &feats.data[j * cols..(j + 1) * cols];
            for (o, &fv) in orow.iter_mut().zip(frow) {
                *o += aw * fv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 1.0, &mut rng)
    }

    /// Reference matmul: per element, ascending-k accumulation from 0.
    fn matmul_ref(a: &Tensor, b: &Tensor) -> Tensor {
        let (r, k, c) = (a.rows, a.cols, b.cols);
        let mut out = Tensor::zeros(r, c);
        for i in 0..r {
            for j in 0..c {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = a.data[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b.data[kk * c + j];
                }
                out.data[i * c + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_family_matches_reference() {
        // The reference is the scalar accumulation order, so pin the
        // scalar backend (thread-locally; other tests are unaffected).
        backend::with_backend(backend::Backend::Scalar, || {
            let a = t(70, 40, 1);
            let b = t(40, 60, 2);
            let row = t(1, 40, 3);
            assert_eq!(matmul(&a, &b).data, matmul_ref(&a, &b).data);
            assert_eq!(matmul(&row, &b).data, matmul_ref(&row, &b).data, "row");
        });
    }

    #[test]
    fn matmul_nt_is_dot_of_rows() {
        backend::with_backend(backend::Backend::Scalar, || {
            let a = t(6, 9, 6);
            let b = t(7, 9, 7);
            let got = matmul_nt(&a, &b);
            for i in 0..6 {
                for j in 0..7 {
                    let mut s = 0.0f32;
                    for kk in 0..9 {
                        s += a.data[i * 9 + kk] * b.data[j * 9 + kk];
                    }
                    assert_eq!(got.data[i * 7 + j], s);
                }
            }
        });
    }

    #[test]
    fn row_norm_stats_matches_composed_route() {
        backend::with_backend(backend::Backend::Scalar, || {
            let x = t(5, 16, 8);
            let eps = 1e-5;
            let (mean, inv_std) = row_norm_stats(&x, eps);
            // The composed route: Σ via matmul with a ones column, scale 1/d,
            // centre via x + (-μ), square, Σ, scale, + eps, sqrt, recip.
            let ones = Tensor::full(16, 1, 1.0);
            let mu = scale(&matmul(&x, &ones), 1.0 / 16.0);
            let centered = add_colvec(&x, &scale(&mu, -1.0));
            let var = add_const(
                &scale(&matmul(&mul(&centered, &centered), &ones), 1.0 / 16.0),
                eps,
            );
            let inv = recip(&sqrt(&var));
            assert_eq!(mean.data, mu.data, "means not bit-identical");
            assert_eq!(inv_std.data, inv.data, "inv-std not bit-identical");
        });
    }

    #[test]
    fn matmul_counter_is_monotone() {
        let before = matmul_invocations();
        let a = t(3, 4, 9);
        let b = t(4, 5, 10);
        let _ = matmul(&a, &b);
        let _ = matmul_nt(&a, &t(6, 4, 11));
        assert!(matmul_invocations() >= before + 2);
    }

    #[test]
    fn graph_kernels_handle_edgeless_csr() {
        // All-isolated graph without self-loops: zero edges.
        let csr = GraphCsr::from_neighbor_lists(&[vec![], vec![], vec![]], false);
        assert_eq!(csr.num_edges(), 0);
        let src = t(3, 1, 20);
        let dst = t(3, 1, 21);
        let empty = Tensor::zeros(0, 1);
        let feats = t(3, 4, 22);
        assert_eq!(edge_scores(&src, &dst, &csr).len(), 0);
        assert_eq!(segmented_softmax(&empty, &csr).len(), 0);
        let agg = neighbor_sum(&empty, &feats, &csr);
        assert!(agg.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn layer_norm_matches_composed_route() {
        backend::with_backend(backend::Backend::Scalar, || {
            let x = t(5, 16, 31);
            let gamma = t(1, 16, 32);
            let beta = t(1, 16, 33);
            let eps = 1e-5;
            // The composed route the tape/infer LayerNorm layer used to run.
            let ones = Tensor::full(16, 1, 1.0);
            let mu = scale(&matmul(&x, &ones), 1.0 / 16.0);
            let centered = add_colvec(&x, &scale(&mu, -1.0));
            let var = add_const(
                &scale(&matmul(&mul(&centered, &centered), &ones), 1.0 / 16.0),
                eps,
            );
            let inv = recip(&sqrt(&var));
            let norm = mul_colvec(&centered, &inv);
            let want = add_rowvec(&mul_rowvec(&norm, &gamma), &beta);
            let got = layer_norm(&x, &gamma, &beta, eps);
            assert_eq!(got.data, want.data, "not bit-identical");
        });
    }

    #[test]
    fn segmented_additive_attention_matches_per_member_route() {
        // Four ragged members over a shared stack: lengths 4, 0, 1 and 5,
        // with key row 5 belonging to none (a retired member's).
        let keys = t(11, 8, 34);
        let hk = t(11, 6, 35);
        let gq = t(4, 6, 36);
        let v = t(1, 6, 37);
        let segs = [0usize..4, 4..4, 4..5, 6..11];

        // Per-member reference: add_rowvec → tanh → matmul_nt →
        // softmax_rows → matmul.
        let mut want = Vec::new();
        for (s, seg) in segs.iter().enumerate() {
            let pre = add_rowvec(
                &select_rows(&hk, seg.start, seg.len()),
                &select_rows(&gq, s, 1),
            );
            let alphas = softmax_rows(&matmul_nt(&v, &tanh(&pre)));
            want.extend_from_slice(
                &matmul(&alphas, &select_rows(&keys, seg.start, seg.len())).data,
            );
        }

        let got = segmented_additive_attention(&hk, &gq, &v, &keys, &segs);
        assert_eq!(got.data, want, "segmented_additive_attention");
    }

    #[test]
    fn segmented_encoder_ops_match_per_member_route() {
        // Two members: member 0 owns graphs of 3+2 rows, member 1 a single
        // 4-row graph; plus the degenerate single-row graph case.
        let stack = t(10, 6, 40);
        let graph_segs = [0usize..3, 3..5, 5..9, 9..10];
        let members = [0usize..2, 2..4];
        let eps = 1e-5;
        let weights: Vec<f32> = (0..10).map(|i| 0.1 + 0.13 * i as f32).collect();

        // Per-member reference built from the existing primitive kernels —
        // the exact op chain GraphNorm / the readout run per member.
        let mut mu_want = Vec::new();
        let mut inv_want = Vec::new();
        for member in &members {
            let gs = &graph_segs[member.clone()];
            let means: Vec<Tensor> = gs
                .iter()
                .map(|g| mean_rows(&select_rows(&stack, g.start, g.len())))
                .collect();
            let mean_refs: Vec<&Tensor> = means.iter().collect();
            let mu = mean_rows(&concat_rows(&mean_refs));
            let rows: Vec<Tensor> = gs
                .iter()
                .map(|g| select_rows(&stack, g.start, g.len()))
                .collect();
            let row_refs: Vec<&Tensor> = rows.iter().collect();
            let big = concat_rows(&row_refs);
            let centered = add_rowvec(&big, &scale(&mu, -1.0));
            let var = add_const(&mean_rows(&mul(&centered, &centered)), eps);
            let inv = recip(&sqrt(&var));
            mu_want.extend_from_slice(&mu.data);
            inv_want.extend_from_slice(&inv.data);
        }
        let mut mean_want = Vec::new();
        let mut wmean_want = Vec::new();
        for g in &graph_segs {
            let rows = select_rows(&stack, g.start, g.len());
            mean_want.extend_from_slice(&mean_rows(&rows).data);
            let norm = normalized_weights(g.len(), &weights[g.start..g.end]);
            wmean_want.extend_from_slice(&weighted_mean_rows(&rows, &norm).data);
        }

        // Self-attention reference: per member, the composed
        // matmul_nt → scale → softmax_rows → matmul route.
        let (q, k, v) = (t(10, 6, 41), t(10, 6, 42), t(10, 6, 43));
        let attn_segs = [0usize..5, 5..6, 6..10];
        let att_scale = 0.5f32;
        let mut attn_want = Vec::new();
        for seg in &attn_segs {
            let qs = select_rows(&q, seg.start, seg.len());
            let ks = select_rows(&k, seg.start, seg.len());
            let vs = select_rows(&v, seg.start, seg.len());
            let alphas = softmax_rows(&scale(&matmul_nt(&qs, &ks), att_scale));
            attn_want.extend_from_slice(&matmul(&alphas, &vs).data);
        }

        let (mu, inv) = segmented_norm_stats(&stack, &graph_segs, &members, eps);
        assert_eq!(mu.data, mu_want, "segmented_norm_stats mu");
        assert_eq!(inv.data, inv_want, "segmented_norm_stats inv");
        let means = segmented_mean_rows(&stack, &graph_segs);
        assert_eq!(means.data, mean_want, "segmented_mean_rows");
        let wmeans = segmented_weighted_mean_rows(&stack, &weights, &graph_segs);
        assert_eq!(wmeans.data, wmean_want, "segmented_weighted_mean_rows");
        let attn = segmented_self_attention(&q, &k, &v, &attn_segs, att_scale);
        assert_eq!(attn.data, attn_want, "segmented_self_attention");
    }

    #[test]
    fn fused_elementwise_epilogues_match_composed_routes() {
        // gated_fusion ≡ gather ×2 → add → add_rowvec → sigmoid → mul →
        // scale/add_const → mul → add (width 11: one vector group and a
        // tail; point 1 owns one row, point 2 none).
        let row_to_point = [0usize, 0, 0, 1, 3, 3, 3, 3, 3];
        let ga = t(4, 11, 50);
        let tr = t(4, 11, 51);
        let gb = t(9, 11, 52);
        let z = t(9, 11, 58);
        let bz = t(1, 11, 59);
        let s = add_rowvec(&add(&gather_rows(&ga, &row_to_point), &gb), &bz);
        let gate = sigmoid(&s);
        let take_tr = mul(&gate, &gather_rows(&tr, &row_to_point));
        let inv = add_const(&scale(&gate, -1.0), 1.0);
        let blend_want = add(&take_tr, &mul(&inv, &z));

        // segmented_norm_apply ≡ scale(-1) → gather → add → gather → mul
        // → mul_rowvec → add_rowvec.
        let x = t(8, 5, 53);
        let mu = t(3, 5, 54);
        let istd = t(3, 5, 55);
        let gamma = t(1, 5, 56);
        let beta = t(1, 5, 57);
        let seg_of = [0usize, 0, 1, 1, 1, 2, 2, 0];
        let neg_mu = gather_rows(&scale(&mu, -1.0), &seg_of);
        let centered = add(&x, &neg_mu);
        let norm = mul(&centered, &gather_rows(&istd, &seg_of));
        let apply_want = add_rowvec(&mul_rowvec(&norm, &gamma), &beta);

        assert_eq!(
            gated_fusion(&ga, &gb, &bz, &tr, &z, &row_to_point).data,
            blend_want.data,
            "gated_fusion"
        );
        assert_eq!(
            segmented_norm_apply(&x, &mu, &istd, &seg_of, &gamma, &beta).data,
            apply_want.data,
            "segmented_norm_apply"
        );
    }

    #[test]
    fn segmented_self_attention_rejects_overlapping_segments() {
        let x = t(4, 3, 44);
        let r =
            std::panic::catch_unwind(|| segmented_self_attention(&x, &x, &x, &[0..3, 2..4], 1.0));
        assert!(r.is_err(), "overlapping segments must be rejected");
    }

    #[test]
    fn blocked_matmul_handles_zero_blocks_and_tails() {
        backend::with_backend(backend::Backend::Scalar, || {
            // Zeros placed to hit the all-nonzero block, the mixed block,
            // and the scalar tail of the register-blocked k-loop.
            let mut a = t(3, 11, 36);
            for kk in [1usize, 2, 3, 9] {
                a.data[11 + kk] = 0.0; // second row: zeros inside block + tail
            }
            let b = t(11, 7, 37);
            let row = Tensor::row(a.data[11..22].to_vec());
            assert_eq!(matmul(&a, &b).data, matmul_ref(&a, &b).data);
            assert_eq!(matmul(&row, &b).data, matmul_ref(&row, &b).data);
        });
    }

    #[test]
    fn gather_rows_validates_before_copying() {
        let table = t(4, 3, 12);
        let r = std::panic::catch_unwind(|| gather_rows(&table, &[1, 9]));
        assert!(r.is_err());
        let ok = gather_rows(&table, &[3, 0]);
        assert_eq!(ok.row_slice(0), table.row_slice(3));
        assert_eq!(ok.row_slice(1), table.row_slice(0));
    }

    /// Build the sparse head's reference per masked row from the *raw*
    /// entries: a dense row of log-weights built by overwrites, the dense
    /// logits gathered at its set columns in ascending order, log-softmax
    /// over that slice alone, scattered into a `-∞` row.
    fn sparse_head_row_ref(dense_logits: &[f32], entries: &[(usize, f32)], c: usize) -> Vec<f32> {
        let mut logw: Vec<Option<f32>> = vec![None; c];
        for &(col, lw) in entries {
            logw[col] = Some(lw);
        }
        let (kept_cols, vals): (Vec<usize>, Vec<f32>) = logw
            .iter()
            .enumerate()
            .filter_map(|(col, lw)| lw.map(|lw| (col, dense_logits[col] + lw)))
            .unzip();
        let lsm = log_softmax_rows(&Tensor::row(vals));
        let mut row = vec![f32::NEG_INFINITY; c];
        for (col, &v) in kept_cols.into_iter().zip(&lsm.data) {
            row[col] = v;
        }
        row
    }

    #[test]
    fn masked_matmul_cols_matches_gathered_dense_route() {
        backend::with_backend(backend::Backend::Scalar, || {
            let a = t(4, 10, 70);
            let b = t(10, 12, 71);
            let bias = t(1, 12, 72);
            // Row 0: no mask (dense fallback); row 1: sparse with a
            // duplicate column (later wins); row 2: empty entries (dense
            // fallback with default); row 3: single allowed column.
            let e1 = [(3usize, -0.5f32), (7, 0.25), (3, 0.1), (11, -1.0)];
            let c1 = canonical_mask_entries(e1.to_vec());
            assert_eq!(c1, [(3, 0.1), (7, 0.25), (11, -1.0)]);
            let e3 = [(0usize, 0.5f32)];
            let masks = [
                None,
                Some(SparseLogMask {
                    default: -30.0,
                    entries: &c1,
                }),
                Some(SparseLogMask {
                    default: -2.0,
                    entries: &[],
                }),
                Some(SparseLogMask {
                    default: -30.0,
                    entries: &e3,
                }),
            ];
            // Dense composed route for the fallback rows and raw logits.
            let logits = add_rowvec(&matmul(&a, &b), &bias);
            let dense = |r: usize, default: f32| {
                let row = logits.row_slice(r).iter().map(|&x| x + default).collect();
                log_softmax_rows(&Tensor::row(row)).data
            };
            let mut want = Tensor::zeros(4, 12);
            want.data[0..12].copy_from_slice(&log_softmax_rows(&select_rows(&logits, 0, 1)).data);
            want.data[12..24].copy_from_slice(&sparse_head_row_ref(&logits.data[12..24], &e1, 12));
            want.data[24..36].copy_from_slice(&dense(2, -2.0));
            want.data[36..48].copy_from_slice(&sparse_head_row_ref(&logits.data[36..48], &e3, 12));

            // Exact FLOP attribution: 3 effective + 12 + 12 + 1 columns.
            let scope = profile_scope("test.masked_matmul_cols");
            let got = masked_matmul_cols(&a, &b, &bias, &masks);
            let prof = scope.finish();
            assert_eq!(prof.matmuls, 1);
            assert_eq!(prof.flops, 2 * 10 * (3 + 12 + 12 + 1));
            assert_eq!(got.data, want.data, "sparse head not bit-identical");
        });
    }

    /// Signed ULP distance (0 when bit-identical; ±0 count as equal).
    fn ulps(x: f32, y: f32) -> u64 {
        fn key(v: f32) -> i64 {
            let b = v.to_bits() as i32;
            if b < 0 {
                i64::from(i32::MIN) - i64::from(b)
            } else {
                i64::from(b)
            }
        }
        key(x).abs_diff(key(y))
    }

    /// Max ULP distance, ignoring elements that agree within `abs_tol`:
    /// a near-zero dot product (catastrophic cancellation of O(1) terms)
    /// makes raw ULP distance meaningless, so tiny absolute differences
    /// get an escape hatch while O(1) values face the full ULP budget.
    fn max_ulps_tol(a: &[f32], b: &[f32], abs_tol: f32) -> u64 {
        a.iter()
            .zip(b)
            .filter(|(&x, &y)| (x - y).abs() > abs_tol)
            .map(|(&x, &y)| ulps(x, y))
            .max()
            .unwrap_or(0)
    }

    fn max_ulps(a: &[f32], b: &[f32]) -> u64 {
        max_ulps_tol(a, b, 0.0)
    }

    #[test]
    fn avx2_backend_is_within_ulp_of_scalar() {
        use backend::Backend;
        if !backend::is_supported(Backend::Avx2Fma) {
            eprintln!("skipping: CPU lacks AVX2+FMA");
            return;
        }
        let a = t(70, 40, 80);
        let b = t(40, 60, 81);
        let row = t(1, 40, 82);
        let bt = t(50, 40, 83);
        let gamma = t(1, 60, 84);
        let beta = t(1, 60, 85);
        let scalar = backend::with_backend(Backend::Scalar, || {
            (
                matmul(&a, &b),
                matmul(&row, &b),
                matmul_nt(&a, &bt),
                row_norm_stats(&a, 1e-5),
                layer_norm(&b, &gamma, &beta, 1e-5),
            )
        });
        let base = backend::with_backend(Backend::Avx2Fma, || {
            (
                matmul(&a, &b),
                matmul(&row, &b),
                matmul_nt(&a, &bt),
                row_norm_stats(&a, 1e-5),
                layer_norm(&b, &gamma, &beta, 1e-5),
            )
        });
        // Within an explicit ULP budget of the scalar reference. Matmul
        // outputs get an absolute escape hatch for cancellation-heavy
        // dots (a k≈40 sum of O(1) terms landing near zero has no
        // meaningful ULP distance); 1e-4 is ~10× the worst-case FMA
        // re-rounding bound for these shapes.
        const BUDGET: u64 = 256;
        const CANCEL: f32 = 1e-4;
        assert!(
            max_ulps_tol(&scalar.0.data, &base.0.data, CANCEL) <= BUDGET,
            "matmul ulp"
        );
        assert!(
            max_ulps_tol(&scalar.1.data, &base.1.data, CANCEL) <= BUDGET,
            "row ulp"
        );
        assert!(
            max_ulps_tol(&scalar.2.data, &base.2.data, CANCEL) <= BUDGET,
            "nt ulp"
        );
        assert!(
            max_ulps(&scalar.3 .1.data, &base.3 .1.data) <= BUDGET,
            "inv_std ulp"
        );
        assert!(
            max_ulps_tol(&scalar.4.data, &base.4.data, CANCEL) <= BUDGET,
            "ln ulp"
        );
    }

    #[test]
    fn softmax_family_is_bit_identical_across_backends() {
        use backend::Backend;
        if !backend::is_supported(Backend::Avx2Fma) {
            eprintln!("skipping: CPU lacks AVX2+FMA");
            return;
        }
        let x = t(9, 33, 90);
        let scalar =
            backend::with_backend(Backend::Scalar, || (softmax_rows(&x), log_softmax_rows(&x)));
        let avx2 = backend::with_backend(Backend::Avx2Fma, || {
            (softmax_rows(&x), log_softmax_rows(&x))
        });
        assert_eq!(scalar.0.data, avx2.0.data, "softmax_rows");
        assert_eq!(scalar.1.data, avx2.1.data, "log_softmax_rows");
    }
}
