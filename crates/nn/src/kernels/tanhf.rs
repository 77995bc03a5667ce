//! The repository's own `tanhf`: fdlibm's, transcribed.
//!
//! [`crate::kernels::tanh`] used to call the host libm through
//! `f32::tanh`, one scalar call per element — the decoder's largest body
//! — and its bits depended on which libm the machine had. This module
//! replaces that call with a transcription of the function glibc 2.36
//! ships (`sysdeps/ieee754/flt-32/s_tanhf.c` over `s_expm1f.c`, i.e.
//! fdlibm's single-precision `tanhf` / `expm1f`). Those two functions are
//! plain IEEE binary32 `+ − × ÷` plus integer arithmetic on the exponent
//! field: no table, no FMA, no CPU-specific variant. So the same bits can
//! be produced anywhere, and eight at a time:
//!
//! * [`tanhf`] is the scalar transcription and **is the specification**.
//!   It runs on the scalar backend, on non-x86 targets, for slice tails,
//!   and for every lane the vector body does not handle (±0, |x| < 2⁻⁵⁵,
//!   |x| ≥ 22, ±∞, NaN).
//! * the AVX2 body runs eight lanes through the *same operation
//!   sequence* — every branch of the scalar function is computed and the
//!   taken one selected per lane by blend. It uses only `add/sub/mul/div`,
//!   `cvttps`/`cvtepi32` and integer shifts/adds.
//!
//! **Why no FMA:** a fused multiply-add rounds once where the scalar
//! function rounds twice, and the scalar function's roundings are the
//! contract. With none, each lane performs exactly [`tanhf`]'s roundings,
//! so the two paths agree bit for bit on all 2³² inputs (swept by the
//! ignored test in `tests/tanh_bits.rs`, which also sweeps [`tanhf`]
//! against the host's `f32::tanh` where the host libm is fdlibm's).
//!
//! The constants and the order of operations are fdlibm's; the flag-only
//! statements of the C source (`huge + x`, `tiny - one`, errno) are
//! reduced to the value they return, since nothing here reads the
//! floating-point flags.
//!
//! fdlibm's notice, which covers the algorithm and constants transcribed
//! below:
//!
//! ```text
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```
//!
//! (Conversion of the two functions to `float` by Ian Lance Taylor,
//! Cygnus Support.)

#![deny(missing_docs)]

use super::backend::Backend;

// tanhf's thresholds on `|x|`'s bit pattern.
/// 2⁻⁵⁵: below it `tanh(x) = x·(1 + x)`.
const TANH_TINY: i32 = 0x2400_0000;
/// 1.0: at or above it `tanh = 1 − 2/(expm1(2|x|) + 2)`, below it
/// `−t/(t + 2)` with `t = expm1(−2|x|)`.
const TANH_ONE: i32 = 0x3f80_0000;
/// 22.0: at or above it `tanh(x) = ±1`.
const TANH_SATURATED: i32 = 0x41b0_0000;

// expm1f's thresholds on `|x|`'s bit pattern.
/// 2⁻²⁵: below it `expm1(x) = x`.
const EXPM1_TINY: u32 = 0x3300_0000;
/// 0.5·ln2: at or below it no argument reduction (`k = 0`).
const HALF_LN2: u32 = 0x3eb1_7218;
/// 1.5·ln2: below it (and above [`HALF_LN2`]) `k = ±1` without the
/// multiply.
const THREE_HALVES_LN2: u32 = 0x3f85_1592;
/// 27·ln2: at or above it a negative argument gives −1.
const TWENTY_SEVEN_LN2: u32 = 0x4195_b844;
/// 88.72…: at or above it the overflow / ∞ / NaN filters apply.
const OVERFLOW_FILTER: u32 = 0x42b1_7218;

/// `o_threshold` = 8.8721679688e+01.
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
/// `ln2_hi` = 6.9313812256e-01.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln2_lo` = 9.0580006145e-06.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `invln2` = 1.4426950216e+00.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `Q1` = −3.3333335072e-02.
const Q1: f32 = f32::from_bits(0xbd08_8889);
/// `Q2` = 1.5873016091e-03.
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
/// `Q3` = −7.9365076090e-05.
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
/// `Q4` = 4.0082177293e-06.
const Q4: f32 = f32::from_bits(0x3686_7e54);
/// `Q5` = −2.0109921195e-07.
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Largest `k` for which `2ᵏ·(1 + x − e) − 1` is formed as
/// `2ᵏ·((1 − 2⁻ᵏ) + (x − e))`; from 23 on, `2⁻ᵏ` is added instead.
const K_SPLIT: i32 = 23;
/// Largest `k` for which the `− 1` is still visible in binary32.
const K_MAX: i32 = 56;

/// `tanh(x)`, bit for bit what glibc 2.36's `tanhf` returns (NaN inputs
/// give a NaN; which one is the hardware's business).
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±∞) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < TANH_SATURATED {
        if ix == 0 {
            return x;
        }
        if ix < TANH_TINY {
            return x * (1.0 + x);
        }
        if ix >= TANH_ONE {
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 // `one - tiny`, which rounds to one
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// Add `k` to `y`'s exponent field (`SET_FLOAT_WORD(y, i + (k << 23))`).
fn scale_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `exp(x) − 1`, transcribed from glibc 2.36's `expm1f` — the whole
/// function, although [`tanhf`] only reaches it with `2⁻⁵⁴ ≤ |x| < 44`
/// and never with `k = 1`.
fn expm1f(mut x: f32) -> f32 {
    let negative = x.to_bits() & 0x8000_0000 != 0;
    let hx = x.to_bits() & 0x7fff_ffff;

    // Filter out huge and non-finite arguments.
    if hx >= TWENTY_SEVEN_LN2 {
        if hx >= OVERFLOW_FILTER {
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x }; // exp(±∞) − 1
            }
            if x > O_THRESHOLD {
                return f32::INFINITY; // `huge * huge`
            }
        }
        if negative {
            return -1.0; // `tiny - one`
        }
    }

    // Argument reduction: x = k·ln2 + (hi − lo), c the rounding error of
    // `hi − lo`.
    let (k, c);
    if hx > HALF_LN2 {
        let (hi, lo);
        if hx < THREE_HALVES_LN2 {
            if negative {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            } else {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            }
        } else {
            k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t·ln2_hi is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < EXPM1_TINY {
        return x; // `x - (t - (huge + x))` with `t = huge + x`
    } else {
        k = 0;
        c = 0.0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > K_MAX {
        // Suffices to return exp(x) − 1.
        let y = 1.0 - (e - x);
        return scale_exponent(y, k) - 1.0;
    }
    if k < K_SPLIT {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 − 2⁻ᵏ
        let y = t - (e - x);
        scale_exponent(y, k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        let y = x - (e + t);
        scale_exponent(y + 1.0, k)
    }
}

/// `xs[i] = tanhf(xs[i])` in place, eight lanes at a time under
/// [`Backend::Avx2Fma`]. `bk` is the backend captured at the calling
/// kernel's entry; the result does not depend on it.
pub(crate) fn tanh_slice(bk: Backend, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if bk == Backend::Avx2Fma {
        // SAFETY: `Avx2Fma` is only active after runtime detection of AVX2.
        unsafe { tanh_slice_avx2(xs) };
        return;
    }
    let _ = bk;
    for x in xs {
        *x = tanhf(*x);
    }
}

/// The AVX2 body of [`tanh_slice`]: whole groups of eight through
/// [`tanh_lanes`], lanes it flags and the tail through [`tanhf`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_slice_avx2(xs: &mut [f32]) {
    use core::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
    let mut groups = xs.chunks_exact_mut(8);
    for group in &mut groups {
        // SAFETY: `group` is exactly 8 `f32`s; the load is unaligned.
        let (z, scalar_lanes) = tanh_lanes(unsafe { _mm256_loadu_ps(group.as_ptr()) });
        if scalar_lanes == 0 {
            // SAFETY: `group` is exactly 8 `f32`s; the store is unaligned.
            unsafe { _mm256_storeu_ps(group.as_mut_ptr(), z) };
            continue;
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly 8 `f32`s; the store is unaligned.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), z) };
        for (l, (x, &v)) in group.iter_mut().zip(&lanes).enumerate() {
            *x = if scalar_lanes >> l & 1 == 1 {
                tanhf(*x)
            } else {
                v
            };
        }
    }
    for x in groups.into_remainder() {
        *x = tanhf(*x);
    }
}

/// Eight [`tanhf`]s. Returns the results and a bit mask of the lanes whose
/// result must be ignored and recomputed by [`tanhf`]: those with `|x|`
/// outside [2⁻⁵⁵, 22) (including ±0, ±∞ and NaN), and any lane whose
/// reduction gave `k = 1` — which `±2|x|` cannot produce, since a positive
/// argument is at least 2 > 1.5·ln2.
///
/// Every other lane goes through [`tanhf`]'s operations in [`tanhf`]'s
/// order: `k` is forced to 0 / −1 in `expm1f`'s two short ranges so that
/// `hi`, `lo` and `c` come out of the general formulas with the same bits
/// (`x − (−1·ln2_hi) ≡ x + ln2_hi`, `x − 0·ln2_hi ≡ x`), every
/// reconstruction case is computed, and blends pick the one the scalar
/// function would have returned from.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_lanes(x: core::arch::x86_64::__m256) -> (core::arch::x86_64::__m256, i32) {
    use core::arch::x86_64::*;
    let ps = _mm256_set1_ps;
    let epi = _mm256_set1_epi32;
    let bits = _mm256_castps_si256;
    let float = _mm256_castsi256_ps;
    // Lane masks are all-ones / all-zeros, as floats for `blendv_ps`.
    let gt = |a, b| float(_mm256_cmpgt_epi32(a, b));
    let eq = |a, b| float(_mm256_cmpeq_epi32(a, b));
    let (one, two, half) = (ps(1.0), ps(2.0), ps(0.5));
    let sign_bit = ps(-0.0);

    // tanhf: |x| (non-negative as an integer, so signed compares order
    // it) and the branch on |x| >= 1.
    let ax = _mm256_andnot_ps(sign_bit, x);
    let ix = bits(ax);
    let ordinary = _mm256_and_ps(gt(ix, epi(TANH_TINY - 1)), gt(epi(TANH_SATURATED), ix));
    let ge_one = gt(ix, epi(TANH_ONE - 1));
    // arg = 2|x| where |x| >= 1, −2|x| below.
    let two_ax = _mm256_mul_ps(two, ax);
    let arg_sign = _mm256_andnot_ps(ge_one, sign_bit);
    let arg = _mm256_xor_ps(two_ax, arg_sign);
    let hx = bits(two_ax);

    // expm1f, argument reduction.
    let reduced = gt(hx, epi(HALF_LN2 as i32));
    let short = gt(epi(THREE_HALVES_LN2 as i32), hx);
    let k_general = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(ps(INVLN2), arg),
        _mm256_or_ps(half, arg_sign),
    ));
    // −1 for a negative argument, +1 for a positive one.
    let k_short = _mm256_or_si256(_mm256_srai_epi32(bits(arg_sign), 31), epi(1));
    let k = bits(_mm256_and_ps(
        _mm256_blendv_ps(float(k_general), float(k_short), short),
        reduced,
    ));
    let t = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(arg, _mm256_mul_ps(t, ps(LN2_HI)));
    let lo = _mm256_mul_ps(t, ps(LN2_LO));
    let xr = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

    // expm1f, primary range.
    let hfx = _mm256_mul_ps(half, xr);
    let hxs = _mm256_mul_ps(xr, hfx);
    let mut r1 = ps(Q5);
    for q in [Q4, Q3, Q2, Q1, 1.0] {
        r1 = _mm256_add_ps(ps(q), _mm256_mul_ps(hxs, r1));
    }
    let t = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(ps(6.0), _mm256_mul_ps(xr, t)),
        ),
    );

    // expm1f, reconstruction: every case, then the blends in reverse
    // order of the scalar function's early returns.
    let for_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
    let e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
        hxs,
    );
    let for_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
    let k_exponent = _mm256_slli_epi32(k, 23);
    let scale_exponent = |y| float(_mm256_add_epi32(bits(y), k_exponent));
    let e_minus_x = _mm256_sub_ps(e, xr);
    let for_far_k = _mm256_sub_ps(scale_exponent(_mm256_sub_ps(one, e_minus_x)), one);
    let one_minus_2_to_minus_k = float(_mm256_sub_epi32(
        epi(0x3f80_0000),
        _mm256_srlv_epi32(epi(0x0100_0000), k),
    ));
    let for_small_k = scale_exponent(_mm256_sub_ps(one_minus_2_to_minus_k, e_minus_x));
    let two_to_minus_k = float(_mm256_slli_epi32(_mm256_sub_epi32(epi(0x7f), k), 23));
    let for_large_k = scale_exponent(_mm256_add_ps(
        _mm256_sub_ps(xr, _mm256_add_ps(e, two_to_minus_k)),
        one,
    ));
    let far_k = _mm256_or_ps(gt(epi(-1), k), gt(k, epi(K_MAX)));
    let mut t = _mm256_blendv_ps(for_large_k, for_small_k, gt(epi(K_SPLIT), k));
    t = _mm256_blendv_ps(t, for_far_k, far_k);
    t = _mm256_blendv_ps(t, for_km1, eq(k, epi(-1)));
    t = _mm256_blendv_ps(t, for_k0, eq(k, epi(0)));
    t = _mm256_blendv_ps(t, arg, gt(epi(EXPM1_TINY as i32), hx));

    // tanhf: 1 − 2/(t + 2) or −t/(t + 2) through one division, then the
    // sign of x.
    let q = _mm256_div_ps(
        _mm256_blendv_ps(_mm256_xor_ps(t, sign_bit), two, ge_one),
        _mm256_add_ps(t, two),
    );
    let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge_one);
    let z = _mm256_xor_ps(z, _mm256_and_ps(sign_bit, x));

    let handled = _mm256_andnot_ps(eq(k, epi(1)), ordinary);
    (z, !_mm256_movemask_ps(handled) & 0xff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expm1f_matches_the_reference_values_outside_tanh_s_reach() {
        // `tanhf` never sends these to `expm1f`; they pin the parts of the
        // transcription only a direct call reaches (values are exact or
        // correctly rounded by construction, not host-libm output).
        assert_eq!(expm1f(f32::INFINITY), f32::INFINITY);
        assert_eq!(expm1f(f32::NEG_INFINITY), -1.0);
        assert!(expm1f(f32::NAN).is_nan());
        assert_eq!(expm1f(89.0), f32::INFINITY);
        assert_eq!(expm1f(-20.0), -1.0);
        assert_eq!(expm1f(1.0e-10), 1.0e-10);
        assert_eq!(expm1f(-0.0).to_bits(), (-0.0f32).to_bits());
        // k = 1, both sub-cases (reduced argument below and above −0.25):
        // e^0.4 − 1 and e^1 − 1 to 1 ULP.
        for (x, want) in [(0.4f32, 0.491_824_7_f32), (1.0, 1.718_281_8)] {
            let got = expm1f(x);
            assert!(
                (got.to_bits() as i64 - want.to_bits() as i64).abs() <= 1,
                "expm1f({x}) = {got}, want {want}"
            );
        }
    }
}
