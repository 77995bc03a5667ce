//! The repository's own `expf`: glibc's, transcribed.
//!
//! `sigmoid`, every softmax and the Eq. 7 gate used to call the host libm
//! through `f32::exp`, one scalar call per element, and their bits — so
//! every golden — depended on which libm the machine had. This module
//! replaces that call with a transcription of the function glibc 2.36
//! ships (`sysdeps/ieee754/flt-32/e_expf.c`, the table-driven `expf` of
//! Arm's Optimized Routines): the argument goes to binary64, `k =
//! round(x·32/ln2)` comes out of a shift-and-subtract, `2^(k/32)` out of a
//! 32-entry table, and a cubic in the remainder finishes in binary64
//! before one rounding back to binary32. No branch depends on the value
//! beyond the first range check, so eight lanes can run it at once:
//!
//! * [`expf`] is the scalar transcription and **is the specification**.
//!   It runs on the scalar backend, on non-x86 targets, for slice tails,
//!   and for every lane the vector body does not handle (`|x| ≥ 88`, ±∞,
//!   NaN).
//! * the AVX2 body runs eight lanes through the *same operation sequence*
//!   as two halves of four binary64 lanes: `cvtps_pd`, `mul`/`add`/`sub`,
//!   three `fmadd`s and one `fmsub`, a `vpgatherqq` on the table, and
//!   `cvtpd_ps` (which rounds a subnormal result as the scalar cast does;
//!   MXCSR is never touched).
//!
//! **Which `expf` — the FMA form.** glibc picks its `expf` at load time,
//! and on a machine with FMA the selected build contracts `z − kd` (with
//! `z = InvLn2N·x`) into one fused `fma(InvLn2N, x, −kd)` and the
//! polynomial into three more. That is the function the goldens were
//! taken from, so it is the one pinned here: every `fma` below is
//! [`f64::mul_add`], which is correctly rounded on every target (a libm
//! call where FMA is not compiled in). The plain form differs from it on
//! exactly two inputs, `x = 32.564632` and `x = −63.09946`; both are in
//! the anchor table of `tests/exp_bits.rs`, whose ignored test sweeps all
//! 2³² inputs (lanes against [`expf`], and [`expf`] against the host's
//! `f32::exp` where the host reproduces the anchors).
//!
//! **Why sums stay scalar.** Only the element-wise `exp` runs in lanes.
//! Every `Σ exp(·)` a softmax takes is still one scalar accumulator fed in
//! ascending index order, because a lane-partial sum rounds differently
//! and the served answers are pinned bit for bit.
//!
//! The flag-only statements of the C source (`__math_oflowf`,
//! `__math_uflowf`, errno) are reduced to the value they return, since
//! nothing here reads the floating-point flags.

#![deny(missing_docs)]

use super::backend::Backend;

/// `|x|`'s bit pattern from which the range filter applies: `top12(88.0)`.
const FILTER: u32 = 0x42b0_0000;
/// `0x1.62e42ep6` ≈ ln(2¹²⁸): above it the result overflows to +∞.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `−0x1.9fe368p6` ≈ ln(2⁻¹⁵⁰): below it the result underflows to 0.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// Table index bits: `N = 32` entries.
const TABLE_BITS: u32 = 5;
/// `0x1.8p+52`: adding it leaves `round(z)` in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `N/ln2` = `0x1.71547652b82fep+5`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.c6af84b912394p-5 / N³`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
/// `0x1.ebfce50fac4f3p-3 / N²`.
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
/// `0x1.62e42ff0c52d6p-1 / N`.
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// `T[i] = bits(2^(i/32)) − (i << 47)`, so that adding `k << 47` puts
/// `k / 32` in the exponent field and cancels the index bits below it.
static T: [u64; 1 << TABLE_BITS] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `exp(x)`, bit for bit what glibc 2.36's `expf` returns on a machine
/// with FMA (NaN inputs give a NaN; which one is the hardware's business).
#[inline]
pub fn expf(x: f32) -> f32 {
    if x.to_bits() & 0x7fff_ffff >= FILTER {
        // |x| >= 88 or x is NaN.
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if !x.is_finite() {
            return x + x;
        }
        if x > OVERFLOW {
            return f32::INFINITY;
        }
        if x < UNDERFLOW {
            return 0.0;
        }
    }
    // x·N/ln2 = k + r with k an integer and r in [−1/2, 1/2].
    let xd = f64::from(x);
    let z = INV_LN2_N * xd;
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(T[(ki % (1 << TABLE_BITS)) as usize].wrapping_add(ki << 47));
    let p = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = p.mul_add(r2, y);
    (y * s) as f32
}

/// `xs[i] = expf(xs[i])` in place, eight lanes at a time under
/// [`Backend::Avx2Fma`]. `bk` is the backend captured at the calling
/// kernel's entry; the result does not depend on it.
pub(crate) fn exp_slice(bk: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if bk == Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection of
        // AVX2 and FMA.
        unsafe { exp_slice_avx2(xs) };
        return;
    }
    let _ = bk;
    for x in xs {
        *x = expf(*x);
    }
}

/// `Σ expf(row[i] − shift)` with one scalar accumulator in ascending `i`
/// — a stable softmax's denominator — without storing the terms. The
/// AVX2 path takes the `exp`s eight at a time and still adds them one by
/// one, so both backends return the same bits.
pub(crate) fn sum_exp_shifted(bk: Backend, row: &[f32], shift: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if bk == Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection of
        // AVX2 and FMA.
        return unsafe { sum_exp_shifted_avx2(row, shift) };
    }
    let _ = bk;
    row.iter().map(|&x| expf(x - shift)).sum()
}

/// `dst[i] = 1 / (1 + expf(−src[i]))`, the logistic sigmoid with the
/// scalar chain's roundings (negate, `exp`, add, divide) on both backends.
pub(crate) fn sigmoid_slice(bk: Backend, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if bk == Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection of
        // AVX2 and FMA.
        unsafe { sigmoid_slice_avx2(src, dst) };
        return;
    }
    let _ = bk;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = sigmoid(x);
    }
}

/// The scalar sigmoid: `1 / (1 + expf(−x))`.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + expf(-x))
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{exp_slice_avx2, sigmoid8};

#[cfg(target_arch = "x86_64")]
use avx2::{sigmoid_slice_avx2, sum_exp_shifted_avx2};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{expf, C0, C1, C2, FILTER, INV_LN2_N, SHIFT, T, TABLE_BITS};
    use core::arch::x86_64::*;

    /// Four of [`expf`]'s middle sections, binary64 in and out: the
    /// reduction, the table lookup and the polynomial, operation for
    /// operation. The caller converts and rounds.
    #[target_feature(enable = "avx2,fma")]
    fn exp_half(xd: __m256d) -> __m256d {
        let pd = _mm256_set1_pd;
        let shift = pd(SHIFT);
        let inv_ln2_n = pd(INV_LN2_N);
        let z = _mm256_mul_pd(inv_ln2_n, xd);
        let kd = _mm256_add_pd(z, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x((1 << TABLE_BITS) - 1));
        // SAFETY: every index is masked to 0..32, within the 32-entry `T`;
        // the scale is the size of one entry.
        let t = unsafe { _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), index) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let p = _mm256_fmadd_pd(pd(C0), r, pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(pd(C2), r, pd(1.0));
        let y = _mm256_fmadd_pd(p, r2, y);
        _mm256_mul_pd(y, s)
    }

    /// Eight [`expf`]s. Returns the results and a bit mask of the lanes
    /// whose result must be ignored and recomputed by [`expf`]: those in
    /// its range filter (`|x| ≥ 88`, ±∞, NaN). Every other lane goes
    /// through [`expf`]'s operations in [`expf`]'s order.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn exp_lanes(x: __m256) -> (__m256, i32) {
        let lo = exp_half(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp_half(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        // |x| is non-negative as an integer, so the signed compare orders it.
        let ax = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
        let filtered = _mm256_cmpgt_epi32(ax, _mm256_set1_epi32(FILTER as i32 - 1));
        (y, _mm256_movemask_ps(_mm256_castsi256_ps(filtered)))
    }

    /// Eight [`expf`]s, every lane final: [`exp_lanes`], then [`expf`] on
    /// the lanes it flagged.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub(super) fn exp8(x: __m256) -> __m256 {
        let (y, filtered) = exp_lanes(x);
        if filtered == 0 {
            return y;
        }
        let (mut xs, mut ys) = ([0.0f32; 8], [0.0f32; 8]);
        // SAFETY: both arrays are exactly 8 `f32`s; the stores are unaligned.
        unsafe {
            _mm256_storeu_ps(xs.as_mut_ptr(), x);
            _mm256_storeu_ps(ys.as_mut_ptr(), y);
        }
        for (l, (y, &x)) in ys.iter_mut().zip(&xs).enumerate() {
            if filtered >> l & 1 == 1 {
                *y = expf(x);
            }
        }
        // SAFETY: `ys` is exactly 8 `f32`s; the load is unaligned.
        unsafe { _mm256_loadu_ps(ys.as_ptr()) }
    }

    /// Eight [`super::sigmoid`]s: `1 / (1 + exp(−x))`, one rounding per
    /// step as in the scalar chain (`−x` is a sign flip in both).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub(crate) fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp8(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    /// The AVX2 body of [`super::exp_slice`]: whole groups of eight
    /// through [`exp8`], the tail through [`expf`].
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn exp_slice_avx2(xs: &mut [f32]) {
        let mut groups = xs.chunks_exact_mut(8);
        for group in &mut groups {
            // SAFETY: `group` is exactly 8 `f32`s; load and store are
            // unaligned.
            unsafe {
                let y = exp8(_mm256_loadu_ps(group.as_ptr()));
                _mm256_storeu_ps(group.as_mut_ptr(), y);
            }
        }
        for x in groups.into_remainder() {
            *x = expf(*x);
        }
    }

    /// The AVX2 body of [`super::sum_exp_shifted`]: `x − shift` and the
    /// `exp`s in lanes, the additions one at a time in index order.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sum_exp_shifted_avx2(row: &[f32], shift: f32) -> f32 {
        let shifts = _mm256_set1_ps(shift);
        let mut sum = 0.0f32;
        let mut terms = [0.0f32; 8];
        let groups = row.chunks_exact(8);
        let tail = groups.remainder();
        for group in groups {
            // SAFETY: `group` and `terms` are exactly 8 `f32`s; load and
            // store are unaligned.
            unsafe {
                let y = exp8(_mm256_sub_ps(_mm256_loadu_ps(group.as_ptr()), shifts));
                _mm256_storeu_ps(terms.as_mut_ptr(), y);
            }
            for &t in &terms {
                sum += t;
            }
        }
        for &x in tail {
            sum += expf(x - shift);
        }
        sum
    }

    /// The AVX2 body of [`super::sigmoid_slice`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sigmoid_slice_avx2(src: &[f32], dst: &mut [f32]) {
        let mut outs = dst.chunks_exact_mut(8);
        let ins = src.chunks_exact(8);
        let tail = ins.remainder();
        for (out, group) in (&mut outs).zip(ins) {
            // SAFETY: `group` and `out` are exactly 8 `f32`s; load and
            // store are unaligned.
            unsafe {
                let y = sigmoid8(_mm256_loadu_ps(group.as_ptr()));
                _mm256_storeu_ps(out.as_mut_ptr(), y);
            }
        }
        for (d, &x) in outs.into_remainder().iter_mut().zip(tail) {
            *d = super::sigmoid(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_two_to_the_i_over_32_with_the_index_bits_removed() {
        for (i, &t) in T.iter().enumerate() {
            let want = 2f64.powf(i as f64 / 32.0);
            let got = f64::from_bits(t.wrapping_add((i as u64) << 47));
            assert!(
                (got - want).abs() <= want * 2.0 * f64::EPSILON,
                "T[{i}]: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn expf_is_exact_where_exp_is() {
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(expf(-0.0), 1.0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert_eq!(expf(f32::NEG_INFINITY), 0.0);
        assert!(expf(f32::NAN).is_nan());
        assert_eq!(expf(89.0), f32::INFINITY);
        assert_eq!(expf(-104.0), 0.0);
        // Finite at the overflow threshold, subnormal below ln(2⁻¹²⁶),
        // the smallest subnormal at the underflow threshold.
        assert!(expf(OVERFLOW).is_finite());
        assert!(expf(-87.4) > 0.0 && expf(-87.4) < f32::MIN_POSITIVE);
        assert_eq!(expf(UNDERFLOW).to_bits(), 1);
    }
}
