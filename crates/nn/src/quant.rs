//! Int8 row-quantized linear layer for the decoder segment head.
//!
//! The segment head's weight `[d, |V|]` is the one serving-time matrix
//! whose column count scales with the road network, so it is the natural
//! first target for weight quantization: [`QuantizedLinear`] stores it as
//! **per-output-channel** symmetric int8 (`q = round(w / s_j)`, one scale
//! per segment column) in channel-major layout, quantizes each incoming
//! activation row once per call (per-row symmetric scale), accumulates in
//! `i32`, and dequantizes (`acc · (s_a · s_j)`). Bias, log-mask and the
//! allowed-columns log-softmax are the row driver it shares with
//! [`crate::kernels::masked_matmul_cols`]; only the dots differ.
//!
//! # Determinism
//!
//! The `i32` accumulation is exact integer arithmetic (`K·127² ≪
//! i32::MAX`), so the quantized head is bit-identical across backends
//! (the AVX2 `madd` path computes the same integers), thread counts, and
//! batch compositions — there is no rounding to re-order. Its output is
//! pinned bitwise against a per-row reference in this module's tests.
//! What moves is *accuracy* relative to the f32 head; that drift is gated
//! on recovery outputs in `crates/core/tests/fusion_gates.rs`.

#![deny(missing_docs)]

use crate::kernels::{self, backend, SparseLogMask};
use crate::Tensor;

/// A linear layer quantized to symmetric per-output-channel int8.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    k: usize,
    c: usize,
    /// Channel-major `[C, K]` int8 weights: channel `j`'s K weights are
    /// contiguous, so every output column is one contiguous i8 dot.
    qt: Vec<i8>,
    /// Per-output-channel dequantization scales (`s_j = max|w[:,j]|/127`).
    scales: Vec<f32>,
}

/// Quantize one value symmetrically to `[-127, 127]`.
#[inline]
fn q8(x: f32, inv_s: f32) -> i8 {
    (x * inv_s).round().clamp(-127.0, 127.0) as i8
}

/// A row's symmetric quantization scale (`max|x|/127`; 1.0 for all-zero
/// rows so the division is always well-defined).
#[inline]
fn row_scale(row: &[f32]) -> f32 {
    let amax = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if amax == 0.0 {
        1.0
    } else {
        amax / 127.0
    }
}

impl QuantizedLinear {
    /// Quantize a float weight matrix `w[K, C]` (the segment head's
    /// `[d, |V|]`) to per-output-channel int8.
    pub fn from_weights(w: &Tensor) -> Self {
        let (k, c) = w.shape();
        let mut qt = vec![0i8; c * k];
        let mut scales = vec![1.0f32; c];
        for j in 0..c {
            let mut amax = 0.0f32;
            for kk in 0..k {
                amax = amax.max(w.data[kk * c + j].abs());
            }
            let s = if amax == 0.0 { 1.0 } else { amax / 127.0 };
            scales[j] = s;
            let inv_s = 1.0 / s;
            for kk in 0..k {
                qt[j * k + kk] = q8(w.data[kk * c + j], inv_s);
            }
        }
        Self { k, c, qt, scales }
    }

    /// The raw quantized representation `(k, c, qt, scales)`: channel-major
    /// `[C, K]` int8 weights and per-channel scales. The artifact format
    /// serializes the head through this so a packed model reproduces the
    /// exact integers of the in-process quantization.
    pub fn to_parts(&self) -> (usize, usize, &[i8], &[f32]) {
        (self.k, self.c, &self.qt, &self.scales)
    }

    /// Rebuild a head from its raw parts (the inverse of
    /// [`QuantizedLinear::to_parts`]). Shapes are validated; the values
    /// are taken as-is, so a round trip is bit-exact.
    pub fn from_parts(k: usize, c: usize, qt: Vec<i8>, scales: Vec<f32>) -> Result<Self, String> {
        if qt.len() != k * c {
            return Err(format!(
                "quantized head: {} int8 weights for shape [{c}, {k}]",
                qt.len()
            ));
        }
        if scales.len() != c {
            return Err(format!(
                "quantized head: {} scales for {c} channels",
                scales.len()
            ));
        }
        if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err("quantized head: scales must be finite and positive".to_string());
        }
        Ok(Self { k, c, qt, scales })
    }

    /// Input features (the head's hidden dimension `d`).
    pub fn in_features(&self) -> usize {
        self.k
    }

    /// Output channels (the vocabulary / segment count `|V|`).
    pub fn out_features(&self) -> usize {
        self.c
    }

    /// Exact i8·i8→i32 dot under the active backend (identical integers
    /// either way; AVX2 is just faster).
    #[inline]
    fn dot_i8(bk: backend::Backend, a: &[i8], b: &[i8]) -> i32 {
        #[cfg(target_arch = "x86_64")]
        if bk == backend::Backend::Avx2Fma {
            // SAFETY: `Avx2Fma` is only active after runtime detection.
            return unsafe { backend::dot_i8(a, b) };
        }
        let _ = bk;
        let mut s = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            s += i32::from(x) * i32::from(y);
        }
        s
    }

    /// The quantized twin of [`crate::kernels::masked_matmul_cols`], on the
    /// same row driver (`kernels::masked_head_rows`): each row of
    /// `a[R, K]` is quantized once, and its mask-allowed logit columns (all
    /// `C` for rows without a usable mask) are int8 dots dequantized with
    /// `s_a · s_j`; the driver adds bias and the mask log-weight and
    /// log-softmaxes over the allowed columns (masked-out columns are exact
    /// `-∞`). Mask entries must be in [`SparseLogMask`]'s canonical form
    /// (verified on the caller thread). FLOP attribution counts
    /// `2·K·(computed columns)`, the same as the sparse float head.
    pub fn forward_masked(
        &self,
        a: &Tensor,
        bias: &Tensor,
        masks: &[Option<SparseLogMask<'_>>],
    ) -> Tensor {
        let k = self.k;
        assert_eq!(a.cols, k, "QuantizedLinear: input width");
        let mut qa = vec![0i8; a.data.len()];
        let mut s_a = Vec::with_capacity(a.rows);
        for i in 0..a.rows {
            let arow = &a.data[i * k..(i + 1) * k];
            let s = row_scale(arow);
            let inv_s = 1.0 / s;
            for (q, &x) in qa[i * k..(i + 1) * k].iter_mut().zip(arow) {
                *q = q8(x, inv_s);
            }
            s_a.push(s);
        }
        kernels::masked_head_rows(
            "QuantizedLinear",
            a,
            self.c,
            bias,
            masks,
            |bk, i, cols, out| {
                let qrow = &qa[i * k..(i + 1) * k];
                let deq = |col: usize| {
                    let qcol = &self.qt[col * k..(col + 1) * k];
                    Self::dot_i8(bk, qrow, qcol) as f32 * (s_a[i] * self.scales[col])
                };
                match cols {
                    Some(entries) => {
                        for (o, &(col, _)) in out.iter_mut().zip(entries) {
                            *o = deq(col);
                        }
                    }
                    None => {
                        for (col, o) in out.iter_mut().enumerate() {
                            *o = deq(col);
                        }
                    }
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::backend::{is_supported, with_backend, Backend};
    use crate::pool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn quantized_weights_round_trip_within_half_step() {
        let w = t(12, 9, 1);
        let q = QuantizedLinear::from_weights(&w);
        assert_eq!((q.in_features(), q.out_features()), (12, 9));
        for j in 0..9 {
            for kk in 0..12 {
                let deq = f32::from(q.qt[j * 12 + kk]) * q.scales[j];
                assert!(
                    (deq - w.data[kk * 9 + j]).abs() <= q.scales[j] * 0.5 + 1e-6,
                    "channel {j} weight {kk}"
                );
            }
        }
    }

    #[test]
    fn parts_round_trip_is_bit_exact_and_validated() {
        let w = t(16, 10, 8);
        let q = QuantizedLinear::from_weights(&w);
        let (k, c, qt, scales) = q.to_parts();
        let back = QuantizedLinear::from_parts(k, c, qt.to_vec(), scales.to_vec()).expect("valid");
        assert_eq!(back.qt, q.qt);
        assert_eq!(
            back.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            q.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        let a = t(2, 16, 9);
        let bias = t(1, 10, 10);
        let masks = [None, None];
        assert_eq!(
            back.forward_masked(&a, &bias, &masks).data,
            q.forward_masked(&a, &bias, &masks).data,
            "round-tripped head must be bit-identical"
        );
        assert!(QuantizedLinear::from_parts(16, 10, vec![0; 3], vec![1.0; 10]).is_err());
        assert!(QuantizedLinear::from_parts(2, 2, vec![0; 4], vec![1.0, 0.0]).is_err());
        assert!(QuantizedLinear::from_parts(2, 2, vec![0; 4], vec![1.0; 3]).is_err());
    }

    #[test]
    fn forward_masked_tracks_float_head_and_is_thread_invariant() {
        let a = t(3, 16, 2);
        let w = t(16, 10, 3);
        let bias = t(1, 10, 4);
        let e1 = kernels::canonical_mask_entries(vec![(2usize, -0.5f32), (7, 0.25), (2, 0.1)]);
        let masks = [
            None,
            Some(SparseLogMask {
                default: -30.0,
                entries: &e1,
            }),
            Some(SparseLogMask {
                default: -30.0,
                entries: &[(4usize, 0.0f32)],
            }),
        ];
        let q = QuantizedLinear::from_weights(&w);
        let got = q.forward_masked(&a, &bias, &masks);
        let float = kernels::masked_matmul_cols(&a, &w, &bias, &masks);
        // Same support: -∞ exactly where the float head is -∞.
        for (g, f) in got.data.iter().zip(&float.data) {
            assert_eq!(
                g.is_finite(),
                f.is_finite(),
                "quantized head changed the allowed-column support"
            );
            if f.is_finite() {
                assert!((g - f).abs() <= 0.15, "quantized logp drifted: {g} vs {f}");
            }
        }
        // Bit-identical at any thread count (integer accumulation).
        let before = pool::num_threads();
        for threads in [1, 2, 4] {
            pool::set_num_threads(threads);
            assert_eq!(
                q.forward_masked(&a, &bias, &masks).data,
                got.data,
                "t={threads}"
            );
        }
        pool::set_num_threads(before);
    }

    /// One row of the int8 head, written out: quantize the row with
    /// `row_scale` / `q8`, exact i32 dots against `qt`, dequantize as
    /// `acc · (s_a · s_j)`, add the bias and then the log-weight, and
    /// log-softmax the allowed columns (every column for a row without a
    /// usable mask), with `-∞` elsewhere.
    fn int8_row_ref(
        q: &QuantizedLinear,
        arow: &[f32],
        bias: &[f32],
        mask: Option<SparseLogMask<'_>>,
    ) -> Vec<f32> {
        let (k, c) = (q.k, q.c);
        let s_a = row_scale(arow);
        let inv_sa = 1.0 / s_a;
        let qa: Vec<i8> = arow.iter().map(|&x| q8(x, inv_sa)).collect();
        let logit = |j: usize| {
            let acc: i32 = qa
                .iter()
                .zip(&q.qt[j * k..(j + 1) * k])
                .map(|(&x, &w)| i32::from(x) * i32::from(w))
                .sum();
            acc as f32 * (s_a * q.scales[j]) + bias[j]
        };
        let (cols, mut vals): (Vec<usize>, Vec<f32>) = match mask {
            Some(m) if !m.entries.is_empty() => {
                m.entries.iter().map(|&(j, lw)| (j, logit(j) + lw)).unzip()
            }
            Some(m) => (0..c).map(|j| (j, logit(j) + m.default)).unzip(),
            None => (0..c).map(|j| (j, logit(j))).unzip(),
        };
        kernels::log_softmax_slice(backend::active(), &mut vals);
        let mut row = vec![f32::NEG_INFINITY; c];
        for (j, v) in cols.into_iter().zip(vals) {
            row[j] = v;
        }
        row
    }

    #[test]
    fn forward_masked_matches_the_per_row_reference_bitwise() {
        let a = t(5, 40, 11); // > 16 features: the AVX2 madd body + tail
        let w = t(40, 23, 12);
        let bias = t(1, 23, 13);
        let e = kernels::canonical_mask_entries(vec![(3usize, -0.5f32), (17, 0.25), (9, -1.0)]);
        // Unmasked, masked, default-only, single-column, masked again.
        let masks = [
            None,
            Some(SparseLogMask {
                default: -30.0,
                entries: &e,
            }),
            Some(SparseLogMask {
                default: -2.0,
                entries: &[],
            }),
            Some(SparseLogMask {
                default: -30.0,
                entries: &[(22usize, 0.5f32)],
            }),
            Some(SparseLogMask {
                default: -30.0,
                entries: &e,
            }),
        ];
        let q = QuantizedLinear::from_weights(&w);
        let before = pool::num_threads();
        for bk in [Backend::Scalar, Backend::Avx2Fma] {
            if !is_supported(bk) {
                continue;
            }
            with_backend(bk, || {
                let mut want = Vec::new();
                for (i, mask) in masks.iter().enumerate() {
                    want.extend(int8_row_ref(&q, a.row_slice(i), &bias.data, *mask));
                }
                for threads in [1, 4] {
                    pool::set_num_threads(threads);
                    let got = q.forward_masked(&a, &bias, &masks);
                    assert_eq!(
                        got.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{} at {threads} thread(s)",
                        bk.name()
                    );
                }
            });
        }
        pool::set_num_threads(before);
    }

    #[test]
    fn quantized_head_is_bit_identical_across_backends() {
        if !is_supported(Backend::Avx2Fma) {
            eprintln!("skipping: CPU lacks AVX2+FMA");
            return;
        }
        let a = t(4, 40, 5); // > 16 features: exercises the madd body + tail
        let w = t(40, 23, 6);
        let bias = t(1, 23, 7);
        let e = kernels::canonical_mask_entries(vec![(3usize, -0.5f32), (17, 0.25), (9, -1.0)]);
        let masks = [
            None,
            Some(SparseLogMask {
                default: -30.0,
                entries: &e,
            }),
            Some(SparseLogMask {
                default: -2.0,
                entries: &[],
            }),
            Some(SparseLogMask {
                default: -30.0,
                entries: &e,
            }),
        ];
        let q = QuantizedLinear::from_weights(&w);
        let scalar = with_backend(Backend::Scalar, || q.forward_masked(&a, &bias, &masks));
        let avx2 = with_backend(Backend::Avx2Fma, || q.forward_masked(&a, &bias, &masks));
        assert_eq!(
            scalar.data, avx2.data,
            "int8 head must not depend on backend"
        );
    }
}
