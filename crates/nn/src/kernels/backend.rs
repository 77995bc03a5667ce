//! Runtime-dispatched SIMD kernel backends.
//!
//! Every hot inner loop in [`crate::kernels`] has two implementations:
//! the **scalar** reference (the exact code the crate has always run —
//! ascending-index accumulation, zero-skip in the matmul family, one
//! rounding per product) and an **AVX2+FMA** path written with
//! `core::arch::x86_64` intrinsics. Which one runs is a process-wide
//! setting resolved once from the `NN_BACKEND` environment variable
//! (`scalar` | `avx2` | `auto`, default `auto`) gated by
//! `is_x86_feature_detected!`; requesting `avx2` on hardware without it
//! falls back to scalar with a visible warning.
//!
//! # Determinism contract (per backend)
//!
//! * **Scalar** is bit-identical to the pre-backend kernels at any thread
//!   count — nothing about its arithmetic changed.
//! * **Avx2Fma** is *also* bit-identical at any thread count and for any
//!   batch composition: every matmul-family output element is computed as
//!   a chain of fused multiply-adds in ascending `k` (vector lanes and
//!   `f32::mul_add` tails round identically), independent of how the pool
//!   partitions the output. What changes versus scalar is the *rounding*
//!   — FMA fuses the multiply and add into one rounding step, and
//!   whole-slice reductions (dots, norm sums) use 8 partial lanes — so
//!   scalar vs AVX2 outputs differ within a small ULP budget, gated
//!   explicitly in the `kernels` unit test
//!   `avx2_backend_is_thread_deterministic_within_ulp_of_scalar`. What
//!   is bit-identical *across* backends: `tanh` and every `exp`, whose
//!   AVX2 lanes perform the scalar [`super::tanhf::tanhf`]'s /
//!   [`super::expf::expf`]'s operations one for one (`tanhf` has no FMA
//!   and the lanes use none; `expf` is pinned in glibc's FMA form and the
//!   lanes fuse exactly where it does; all 2³² inputs swept for each);
//!   and everything built on them with element-wise steps and scalar
//!   ascending sums — the softmax / log-softmax family, `sigmoid`, the
//!   Eq. 7 gate (`gate` / `gate_row`), and the GAT pair
//!   `segmented_softmax` / `neighbor_sum` (product rounded, then added —
//!   never fused).
//!
//! Kernels read the backend **once at entry on the caller thread** and
//! capture it into their pool closures, so one kernel invocation never
//! mixes backends across chunks. Tests pin a backend without races via
//! the thread-local [`with_backend`].

#![deny(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel backend. `Scalar` is the reference; `Avx2Fma` requires
/// runtime-detected AVX2 + FMA support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The portable reference path (bit-identical to the historical
    /// kernels).
    Scalar,
    /// `core::arch::x86_64` AVX2 + FMA inner loops.
    Avx2Fma,
}

impl Backend {
    /// Stable lowercase name (used by `NN_BACKEND`, `/metrics`, logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2",
        }
    }
}

/// Does the running CPU support the given backend?
pub fn is_supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => false,
    }
}

/// Global backend: 0 = uninitialised, 1 = scalar, 2 = avx2.
static GLOBAL: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Per-thread override installed by [`with_backend`]; 0 = none.
    static OVERRIDE: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2Fma => 2,
    }
}

fn decode(v: u8) -> Option<Backend> {
    match v {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Avx2Fma),
        _ => None,
    }
}

/// The `NN_BACKEND` environment override, when set to a recognised value
/// (`scalar`, `avx2`, or `auto`; `auto`/unset means "detect"). Single
/// source of truth for the variable's parsing.
pub fn env_backend() -> Option<Backend> {
    match std::env::var("NN_BACKEND")
        .ok()?
        .trim()
        .to_lowercase()
        .as_str()
    {
        "scalar" => Some(Backend::Scalar),
        "avx2" | "avx2fma" => Some(Backend::Avx2Fma),
        _ => None,
    }
}

fn resolve_default() -> Backend {
    match env_backend() {
        Some(Backend::Avx2Fma) if !is_supported(Backend::Avx2Fma) => {
            eprintln!(
                "rntrajrec-nn: NN_BACKEND=avx2 requested but the CPU lacks \
                 AVX2+FMA; falling back to the scalar backend"
            );
            Backend::Scalar
        }
        Some(b) => b,
        None if is_supported(Backend::Avx2Fma) => Backend::Avx2Fma,
        None => Backend::Scalar,
    }
}

/// The backend kernels on this thread will use: the [`with_backend`]
/// override when inside one, otherwise the process-wide setting
/// (initialised from `NN_BACKEND` + feature detection on first use).
pub fn active() -> Backend {
    if let Some(b) = OVERRIDE.with(|o| decode(o.get())) {
        return b;
    }
    if let Some(b) = decode(GLOBAL.load(Ordering::Relaxed)) {
        return b;
    }
    let b = resolve_default();
    // First initialiser wins.
    let _ = GLOBAL.compare_exchange(0, encode(b), Ordering::Relaxed, Ordering::Relaxed);
    decode(GLOBAL.load(Ordering::Relaxed)).unwrap_or(Backend::Scalar)
}

/// Name of the active backend (for logs / `/metrics`).
pub fn active_name() -> &'static str {
    active().name()
}

/// Run `f` with this thread's kernels pinned to `b` (degrading to scalar
/// when unsupported), restoring the previous setting afterwards — even on
/// panic. The override is thread-local, so concurrent tests pinning
/// different backends never race; pool worker chunks inherit the caller's
/// choice because kernels read the backend once at entry.
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let eff = if is_supported(b) { b } else { Backend::Scalar };
    let _restore = OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(encode(eff));
        Restore(prev)
    });
    f()
}

// ----- AVX2 + FMA inner loops -------------------------------------------------
//
// Safety note shared by every function below: callers must guarantee AVX2
// and FMA are available (enforced by dispatching on `active()`, which only
// yields `Avx2Fma` after `is_x86_feature_detected!`). All loads/stores are
// unaligned (`loadu`/`storeu`), so slice alignment is irrelevant.
//
// Determinism note: per output element the arithmetic chain depends only
// on the slice lengths, never on where a pool chunk starts — vector-lane
// FMA and the `f32::mul_add` tails round identically, so an element
// landing in a vector body in one partitioning and in a tail in another
// still produces the same bits.

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::expf::{exp_slice_avx2, sigmoid8};
    use super::DOT_LANES;
    use crate::GraphCsr;
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// Horizontal sum of the 8 lanes, fixed reduction tree:
    /// `(lo + hi)` 4-lane, then pairwise.
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
        _mm_cvtss_f32(s1)
    }

    /// Horizontal max of the 8 lanes.
    #[inline]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 0b01));
        _mm_cvtss_f32(m1)
    }

    /// `acc[j] = fma(a, x[j], acc[j])` — one fused rounding per element.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(a: f32, x: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(x.len(), acc.len());
        let n = acc.len();
        let av = _mm256_set1_ps(a);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(j));
            let ov = _mm256_loadu_ps(acc.as_ptr().add(j));
            _mm256_storeu_ps(acc.as_mut_ptr().add(j), _mm256_fmadd_ps(av, xv, ov));
            j += 8;
        }
        while j < n {
            *acc.get_unchecked_mut(j) = a.mul_add(*x.get_unchecked(j), *acc.get_unchecked(j));
            j += 1;
        }
    }

    /// Rows of the register tile [`matmul_tile`] computes at once.
    pub const TILE_ROWS: usize = 6;

    /// The register-tiled matmul micro-kernel: `out[6, c] = a[6, k] × b[k, c]`
    /// (all row-major, dense). Output columns go 16 at a time — a 6 × 16
    /// tile is 12 accumulator registers, held across the **whole** `k`
    /// loop, plus two `b` vectors and one broadcast, so each step of `k`
    /// costs 2 loads + 6 broadcasts for 12 FMAs and the output is stored
    /// once — then one 8-wide block, then `mul_add` columns. Every output
    /// element is the chain `fma(a[r,k], b[k,j], ·)` from 0 in ascending
    /// `k`, exactly [`matmul_axpy`]'s, so a row computed here and a row
    /// computed there agree bit for bit (vector-lane FMA and `mul_add`
    /// round identically).
    ///
    /// # Safety
    /// AVX2 and FMA must be available. The length asserts below make every
    /// pointer offset in the body in-bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_tile(a: &[f32], b: &[f32], k: usize, c: usize, out: &mut [f32]) {
        assert_eq!(a.len(), TILE_ROWS * k, "matmul_tile: a must be [6,k]");
        assert_eq!(b.len(), k * c, "matmul_tile: b must be [k,c]");
        assert_eq!(out.len(), TILE_ROWS * c, "matmul_tile: out must be [6,c]");
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 16 <= c {
            let mut acc = [[_mm256_setzero_ps(); 2]; TILE_ROWS];
            for kk in 0..k {
                let b0 = _mm256_loadu_ps(bp.add(kk * c + j));
                let b1 = _mm256_loadu_ps(bp.add(kk * c + j + 8));
                for (r, [lo, hi]) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*ap.add(r * k + kk));
                    *lo = _mm256_fmadd_ps(av, b0, *lo);
                    *hi = _mm256_fmadd_ps(av, b1, *hi);
                }
            }
            for (r, [lo, hi]) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * c + j), *lo);
                _mm256_storeu_ps(op.add(r * c + j + 8), *hi);
            }
            j += 16;
        }
        if j + 8 <= c {
            let mut acc = [_mm256_setzero_ps(); TILE_ROWS];
            for kk in 0..k {
                let b0 = _mm256_loadu_ps(bp.add(kk * c + j));
                for (r, o) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*ap.add(r * k + kk));
                    *o = _mm256_fmadd_ps(av, b0, *o);
                }
            }
            for (r, o) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * c + j), *o);
            }
            j += 8;
        }
        while j < c {
            let mut acc = [0.0f32; TILE_ROWS];
            for kk in 0..k {
                let bv = *bp.add(kk * c + j);
                for (r, o) in acc.iter_mut().enumerate() {
                    *o = (*ap.add(r * k + kk)).mul_add(bv, *o);
                }
            }
            for (r, o) in acc.iter().enumerate() {
                *op.add(r * c + j) = *o;
            }
            j += 1;
        }
    }

    /// The AVX2 twin of the scalar `matmul_axpy` inner kernel:
    /// `orow[j] = Σ_k fma(arow[k], b[k, col0 + j], ·)` in ascending `k`,
    /// one row at a time with four `k` per pass over `orow` (the `[1, C]`
    /// column-partitioned path and the rows a [`matmul_tile`] leaves over).
    /// No zero-skip — with FMA a zero weight contributes exactly nothing,
    /// and skipping would make the chain data-dependent for no gain.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_axpy(
        arow: &[f32],
        b: &[f32],
        stride: usize,
        col0: usize,
        orow: &mut [f32],
    ) {
        let k = arow.len();
        let w = orow.len();
        let mut kk = 0;
        while kk + 4 <= k {
            let a0 = _mm256_set1_ps(arow[kk]);
            let a1 = _mm256_set1_ps(arow[kk + 1]);
            let a2 = _mm256_set1_ps(arow[kk + 2]);
            let a3 = _mm256_set1_ps(arow[kk + 3]);
            let base = kk * stride + col0;
            let b0 = b.as_ptr().add(base);
            let b1 = b.as_ptr().add(base + stride);
            let b2 = b.as_ptr().add(base + 2 * stride);
            let b3 = b.as_ptr().add(base + 3 * stride);
            let mut j = 0;
            while j + 8 <= w {
                let mut o = _mm256_loadu_ps(orow.as_ptr().add(j));
                o = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0.add(j)), o);
                o = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1.add(j)), o);
                o = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b2.add(j)), o);
                o = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b3.add(j)), o);
                _mm256_storeu_ps(orow.as_mut_ptr().add(j), o);
                j += 8;
            }
            while j < w {
                let mut o = *orow.get_unchecked(j);
                o = arow[kk].mul_add(*b.get_unchecked(base + j), o);
                o = arow[kk + 1].mul_add(*b.get_unchecked(base + stride + j), o);
                o = arow[kk + 2].mul_add(*b.get_unchecked(base + 2 * stride + j), o);
                o = arow[kk + 3].mul_add(*b.get_unchecked(base + 3 * stride + j), o);
                *orow.get_unchecked_mut(j) = o;
                j += 1;
            }
            kk += 4;
        }
        while kk < k {
            let base = kk * stride + col0;
            axpy(arow[kk], &b[base..base + w], orow);
            kk += 1;
        }
    }

    /// Dot product: 8 partial FMA lanes over the body, a fixed horizontal
    /// reduction, then `mul_add` over the tail — the chain depends only on
    /// the slice length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            acc = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
                acc,
            );
            i += 8;
        }
        let mut s = hsum(acc);
        while i < n {
            s = a.get_unchecked(i).mul_add(*b.get_unchecked(i), s);
            i += 1;
        }
        s
    }

    /// Strided column dot `Σ_k arow[k] · b[k·stride + col]` with the same
    /// per-element FMA chain as the dense AVX2 matmul (ascending `k`, no
    /// zero-skip), so a sparse-head logit equals the dense-head logit bit
    /// for bit under this backend.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_col(arow: &[f32], b: &[f32], stride: usize, col: usize) -> f32 {
        let mut acc = 0.0f32;
        let mut idx = col;
        for &av in arow {
            acc = av.mul_add(*b.get_unchecked(idx), acc);
            idx += stride;
        }
        acc
    }

    /// [`DOT_LANES`] strided column dots interleaved: lane `l` is exactly
    /// [`dot_col`]'s chain for `cols[l]`, but the eight chains are
    /// independent, so their FMA latencies overlap instead of serialising
    /// one 4-cycle step per `k`.
    ///
    /// # Safety
    /// AVX2 and FMA must be available (the body is bounds-checked).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_cols(
        arow: &[f32],
        b: &[f32],
        stride: usize,
        cols: &[usize; DOT_LANES],
    ) -> [f32; DOT_LANES] {
        let mut acc = [0.0f32; DOT_LANES];
        for (&av, brow) in arow.iter().zip(b.chunks_exact(stride)) {
            for (o, &col) in acc.iter_mut().zip(cols) {
                *o = av.mul_add(brow[col], *o);
            }
        }
        acc
    }

    /// Max over a slice. Max is order-insensitive for non-NaN inputs, so
    /// this equals the scalar fold bit-for-bit on real data.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vmax(x: &[f32]) -> f32 {
        let n = x.len();
        let mut m = f32::NEG_INFINITY;
        let mut i = 0;
        if n >= 8 {
            let mut mv = _mm256_loadu_ps(x.as_ptr());
            i = 8;
            while i + 8 <= n {
                mv = _mm256_max_ps(mv, _mm256_loadu_ps(x.as_ptr().add(i)));
                i += 8;
            }
            m = hmax(mv);
        }
        while i < n {
            m = m.max(*x.get_unchecked(i));
            i += 1;
        }
        m
    }

    /// Sum over a slice: 8 partial lanes + horizontal + scalar tail.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vsum(x: &[f32]) -> f32 {
        let n = x.len();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i)));
            i += 8;
        }
        let mut s = hsum(acc);
        while i < n {
            s += *x.get_unchecked(i);
            i += 1;
        }
        s
    }

    /// Sum of squared deviations `Σ (x[i] + neg_mu)²` with fused
    /// square-accumulate lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vsumsq(x: &[f32], neg_mu: f32) -> f32 {
        let n = x.len();
        let nm = _mm256_set1_ps(neg_mu);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_add_ps(_mm256_loadu_ps(x.as_ptr().add(i)), nm);
            acc = _mm256_fmadd_ps(d, d, acc);
            i += 8;
        }
        let mut s = hsum(acc);
        while i < n {
            let d = *x.get_unchecked(i) + neg_mu;
            s = d.mul_add(d, s);
            i += 1;
        }
        s
    }

    /// `x[i] *= c` in place (element-wise multiply rounds identically to
    /// the scalar loop).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_in_place(x: &mut [f32], c: f32) {
        let n = x.len();
        let cv = _mm256_set1_ps(c);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(i)), cv);
            _mm256_storeu_ps(x.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            *x.get_unchecked_mut(i) *= c;
            i += 1;
        }
    }

    /// `x[i] += c` in place.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_in_place(x: &mut [f32], c: f32) {
        let n = x.len();
        let cv = _mm256_set1_ps(c);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(x.as_ptr().add(i)), cv);
            _mm256_storeu_ps(x.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            *x.get_unchecked_mut(i) += c;
            i += 1;
        }
    }

    /// The layer-norm affine epilogue
    /// `dst[j] = ((src[j] + neg_mu) * inv) * gamma[j] + beta[j]`, with the
    /// exact (non-fused) operation chain of the scalar loop so results are
    /// bit-identical to it.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn norm_affine(
        src: &[f32],
        neg_mu: f32,
        inv: f32,
        gamma: &[f32],
        beta: &[f32],
        dst: &mut [f32],
    ) {
        let n = dst.len();
        let nm = _mm256_set1_ps(neg_mu);
        let iv = _mm256_set1_ps(inv);
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_add_ps(_mm256_loadu_ps(src.as_ptr().add(j)), nm);
            let norm = _mm256_mul_ps(x, iv);
            let g = _mm256_mul_ps(norm, _mm256_loadu_ps(gamma.as_ptr().add(j)));
            let y = _mm256_add_ps(g, _mm256_loadu_ps(beta.as_ptr().add(j)));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), y);
            j += 8;
        }
        while j < n {
            *dst.get_unchecked_mut(j) = ((src.get_unchecked(j) + neg_mu) * inv)
                * gamma.get_unchecked(j)
                + beta.get_unchecked(j);
            j += 1;
        }
    }

    /// The [`_mm256_maskload_ps`] mask enabling lanes `0..n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_mask(n: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lanes)
    }

    /// Softmax within each node's edge segment, over one chunk's nodes:
    /// `scores` holds the scores of `nodes`' edges (edge slot `first` at
    /// index 0), `out` receives their softmax. A node has a handful of
    /// edges, far fewer than a vector holds, so the work is laid out flat:
    ///
    /// 1. segment by segment, `x − max` from `scores` into `out`;
    /// 2. **one** `exp` pass over all of `out`;
    /// 3. segment by segment, the ascending sum, its reciprocal written
    ///    once per edge into a scratch row;
    /// 4. one multiply pass, `out[e] · inv[e]`.
    ///
    /// Segments of up to eight edges go through masked vector loads — the
    /// max by a shuffle-reduce, the sum as a chain of scalar adds over the
    /// eight lanes **in edge order** (the dead lanes add `+0`, which
    /// changes nothing) — longer ones through plain loops. No step loads
    /// what the step before it, in the same pass, has just stored next to
    /// it: a masked store followed by an overlapping load of the
    /// neighbouring segment would serialise the segments on the store
    /// buffer. Per element the operations are the scalar route's (`x −
    /// max`, `exp`, ascending sum, `· 1/sum`), so the output is
    /// bit-identical to it.
    ///
    /// # Safety
    /// AVX2 and FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn segmented_softmax_flat(
        scores: &[f32],
        out: &mut [f32],
        first: usize,
        csr: &GraphCsr,
        nodes: Range<usize>,
    ) {
        assert_eq!(scores.len(), out.len(), "segmented_softmax_flat: lengths");
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        let segment = |i: usize| {
            let seg = csr.segment(i);
            seg.start - first..seg.end - first
        };
        for i in nodes.clone() {
            let (src, dst) = (&scores[segment(i)], &mut out[segment(i)]);
            if src.len() <= 8 {
                let mask = lane_mask(src.len());
                // SAFETY: the mask enables exactly the segment's lanes;
                // masked-off lanes are neither read nor written.
                let x = _mm256_maskload_ps(src.as_ptr(), mask);
                let m = _mm256_blendv_ps(neg_inf, x, _mm256_castsi256_ps(mask));
                let m = _mm256_max_ps(m, _mm256_permute2f128_ps::<1>(m, m));
                let m = _mm256_max_ps(m, _mm256_shuffle_ps::<0b0100_1110>(m, m));
                let m = _mm256_max_ps(m, _mm256_shuffle_ps::<0b1011_0001>(m, m));
                _mm256_maskstore_ps(dst.as_mut_ptr(), mask, _mm256_sub_ps(x, m));
            } else {
                let max = vmax(src);
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x - max;
                }
            }
        }
        exp_slice_avx2(out);
        let mut inv = vec![0.0f32; out.len()];
        for i in nodes {
            let (row, dst) = (&out[segment(i)], &mut inv[segment(i)]);
            if row.len() <= 8 {
                let mask = lane_mask(row.len());
                let mut lanes = [0.0f32; 8];
                // SAFETY: as above; masked-off lanes load as `+0`.
                _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_maskload_ps(row.as_ptr(), mask));
                let mut sum = 0.0f32;
                for l in lanes {
                    sum += l;
                }
                _mm256_maskstore_ps(dst.as_mut_ptr(), mask, _mm256_set1_ps(1.0 / sum));
            } else {
                let mut sum = 0.0f32;
                for &x in row {
                    sum += x;
                }
                dst.fill(1.0 / sum);
            }
        }
        for (o, &s) in out.iter_mut().zip(&inv) {
            *o *= s;
        }
    }

    /// GAT aggregation over one chunk's nodes: `dst` row `i − nodes.start`
    /// is `Σ_{e ∈ seg(i)} α[e] · feats[target(e)]`, the output row held in
    /// registers across the node's edges (16 columns at a time, then 8,
    /// then one). Every term is a product rounded, then added in ascending
    /// edge order from `+0` — the scalar `o += α * f` loop's two roundings,
    /// **not** [`axpy`]'s fused one — so results are bit-identical to that
    /// loop.
    ///
    /// # Safety
    /// AVX2 and FMA must be available; `alphas` must hold one weight per
    /// edge slot of `csr`, `feats` one `cols`-wide row per node of `csr`,
    /// and `dst` one per node of `nodes`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn neighbor_sum_rows(
        alphas: &[f32],
        feats: &[f32],
        cols: usize,
        csr: &GraphCsr,
        nodes: Range<usize>,
        dst: &mut [f32],
    ) {
        assert_eq!(alphas.len(), csr.num_edges(), "neighbor_sum_rows: alphas");
        assert_eq!(
            feats.len(),
            csr.num_nodes() * cols,
            "neighbor_sum_rows: feats"
        );
        assert_eq!(dst.len(), nodes.len() * cols, "neighbor_sum_rows: dst");
        // `feats` row of edge slot `e` from column `j` on: in bounds for
        // `j ≤ cols`, because every target is a node of `csr`.
        let frow = |e: usize, j: usize| feats[csr.target(e) * cols..][j..cols].as_ptr();
        for (orow, i) in dst.chunks_exact_mut(cols.max(1)).zip(nodes) {
            let seg = csr.segment(i);
            let mut j = 0;
            while j + 16 <= cols {
                let (mut lo, mut hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                for e in seg.clone() {
                    let a = _mm256_set1_ps(alphas[e]);
                    let f = frow(e, j);
                    // SAFETY: 16 columns from `j` are inside the row.
                    lo = _mm256_add_ps(lo, _mm256_mul_ps(a, _mm256_loadu_ps(f)));
                    hi = _mm256_add_ps(hi, _mm256_mul_ps(a, _mm256_loadu_ps(f.add(8))));
                }
                _mm256_storeu_ps(orow.as_mut_ptr().add(j), lo);
                _mm256_storeu_ps(orow.as_mut_ptr().add(j + 8), hi);
                j += 16;
            }
            if j + 8 <= cols {
                let mut acc = _mm256_setzero_ps();
                for e in seg.clone() {
                    let a = _mm256_set1_ps(alphas[e]);
                    // SAFETY: 8 columns from `j` are inside the row.
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(a, _mm256_loadu_ps(frow(e, j))));
                }
                _mm256_storeu_ps(orow.as_mut_ptr().add(j), acc);
                j += 8;
            }
            while j < cols {
                let mut acc = 0.0f32;
                for e in seg.clone() {
                    acc += alphas[e] * *frow(e, j);
                }
                orow[j] = acc;
                j += 1;
            }
        }
    }

    /// One row of the Eq. 7 gate, `dst[j] = gate(a[j], b[j], bz[j], tr[j],
    /// z[j])`: [`super::gate`]'s chain step for step (no fusing, the
    /// sigmoid on the in-repo `exp` lanes), so results are bit-identical
    /// to it.
    ///
    /// # Safety
    /// AVX2 and FMA must be available. The length assert below makes every
    /// pointer offset in the body in-bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gate_row(
        a: &[f32],
        b: &[f32],
        bz: &[f32],
        tr: &[f32],
        z: &[f32],
        dst: &mut [f32],
    ) {
        let n = dst.len();
        assert_eq!(
            [a.len(), b.len(), bz.len(), tr.len(), z.len()],
            [n; 5],
            "gate_row: all six slices must be equally long"
        );
        let one = _mm256_set1_ps(1.0);
        let sign_bit = _mm256_set1_ps(-0.0);
        let mut j = 0;
        while j + 8 <= n {
            let at = |x: &[f32]| _mm256_loadu_ps(x.as_ptr().add(j));
            let s = _mm256_add_ps(_mm256_add_ps(at(a), at(b)), at(bz));
            let g = sigmoid8(s);
            let take_tr = _mm256_mul_ps(g, at(tr));
            let keep = _mm256_add_ps(_mm256_xor_ps(g, sign_bit), one);
            let keep_z = _mm256_mul_ps(keep, at(z));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_add_ps(take_tr, keep_z));
            j += 8;
        }
        while j < n {
            *dst.get_unchecked_mut(j) = super::gate(
                *a.get_unchecked(j),
                *b.get_unchecked(j),
                *bz.get_unchecked(j),
                *tr.get_unchecked(j),
                *z.get_unchecked(j),
            );
            j += 1;
        }
    }

    /// Exact int8 dot with i32 accumulation: sign-extend 16 lanes at a
    /// time to i16 and `madd` into 8 i32 accumulators. Integer arithmetic
    /// is exact, so this equals the scalar i32 loop bit-for-bit.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, 0b0100_1110));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b1011_0001));
        let mut s = _mm_cvtsi128_si32(s1);
        while i < n {
            s += (*a.get_unchecked(i) as i32) * (*b.get_unchecked(i) as i32);
            i += 1;
        }
        s
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{
    add_in_place, axpy, dot, dot_col, dot_cols, dot_i8, gate_row, matmul_axpy, matmul_tile,
    neighbor_sum_rows, norm_affine, scale_in_place, segmented_softmax_flat, vmax, vsum, vsumsq,
    TILE_ROWS,
};

/// Column dots the sparse segment head computes at once (both backends).
pub(crate) const DOT_LANES: usize = 8;

/// One element of the Eq. 7 gate (both backends' reference chain):
/// `s = (a + b) + bz`, `g = σ(s)`, `g·tr + (1 − g)·z` with `1 − g` formed
/// as `g·(−1) + 1` (`−x ≡ x·(−1)` bitwise) — the composed route's
/// operations, one rounding each.
#[inline]
pub(crate) fn gate(a: f32, b: f32, bz: f32, tr: f32, z: f32) -> f32 {
    let g = super::expf::sigmoid((a + b) + bz);
    let take_tr = g * tr;
    let keep = (-g) + 1.0;
    take_tr + keep * z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_names_round_trip() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2Fma.name(), "avx2");
        assert!(is_supported(Backend::Scalar));
    }

    #[test]
    fn with_backend_restores_on_exit_and_panic() {
        let base = active();
        with_backend(Backend::Scalar, || {
            assert_eq!(active(), Backend::Scalar);
        });
        assert_eq!(active(), base);
        let r = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(active(), base);
    }

    #[test]
    fn unsupported_request_degrades_to_scalar() {
        // On machines without AVX2 the pin degrades; on machines with it
        // the pin holds. Either way the call must not panic and must
        // yield a supported backend.
        with_backend(Backend::Avx2Fma, || {
            assert!(is_supported(active()));
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_primitives_match_scalar_semantics() {
        if !is_supported(Backend::Avx2Fma) {
            eprintln!("skipping: CPU lacks AVX2+FMA");
            return;
        }
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        // Exact-by-design primitives.
        unsafe {
            let m = vmax(&x);
            assert_eq!(m, x.iter().cloned().fold(f32::NEG_INFINITY, f32::max));
            let mut sx = x.clone();
            scale_in_place(&mut sx, 1.7);
            let want: Vec<f32> = x.iter().map(|&v| v * 1.7).collect();
            assert_eq!(sx, want);
            let mut ax = x.clone();
            add_in_place(&mut ax, -0.3);
            let want: Vec<f32> = x.iter().map(|&v| v + -0.3).collect();
            assert_eq!(ax, want);
            // Reductions: within a loose tolerance of the scalar order.
            let d = dot(&x, &y);
            let want: f32 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
            assert!(
                (d - want).abs() <= 1e-4 * want.abs().max(1.0),
                "{d} vs {want}"
            );
            let s = vsum(&x);
            let want: f32 = x.iter().sum();
            assert!((s - want).abs() <= 1e-4 * want.abs().max(1.0));
            let q = vsumsq(&x, -0.5);
            let want: f32 = x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum();
            assert!((q - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
        // Integer dot is exact.
        let a: Vec<i8> = (0..53).map(|i| ((i * 7) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..53).map(|i| ((i * 13) % 255 - 127) as i8).collect();
        let want: i32 = a.iter().zip(&b).map(|(&p, &q)| p as i32 * q as i32).sum();
        unsafe {
            assert_eq!(dot_i8(&a, &b), want);
        }
    }
}
