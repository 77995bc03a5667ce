//! Int8 row-quantized linear layer for the decoder segment head.
//!
//! The segment head's weight `[d, |V|]` is the one serving-time matrix
//! whose column count scales with the road network, so it is the natural
//! first target for weight quantization: [`QuantizedLinear`] stores it as
//! **per-output-channel** symmetric int8 (`q = round(w / s_j)`, one scale
//! per segment column) in channel-major layout, quantizes each incoming
//! activation row on the fly (per-row symmetric scale), accumulates in
//! `i32`, and dequantizes in the epilogue (`acc · s_a · s_j + bias +
//! log-mask`), fused with the same allowed-columns log-softmax as
//! [`crate::kernels::masked_matmul_cols`].
//!
//! # Determinism
//!
//! The `i32` accumulation is exact integer arithmetic (`K·127² ≪
//! i32::MAX`), so the quantized head is bit-identical across backends
//! (the AVX2 `madd` path computes the same integers), thread counts, and
//! batch compositions — there is no rounding to re-order. What moves is
//! *accuracy* relative to the f32 head; that drift is gated on recovery
//! outputs in `crates/core/tests/fusion_gates.rs`, not pinned bitwise.

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

    /// The quantized twin of [`crate::kernels::masked_matmul_cols`]: for
    /// each row of `a[R, K]`, quantize the row, compute the mask-allowed
    /// logit columns (all `C` for rows without a usable mask) as int8
    /// dots, dequantize with `s_a · s_j`, add bias and the mask
    /// log-weight, and log-softmax over the allowed columns (masked-out
    /// columns are exact `-∞`). Mask entries must be in
    /// [`SparseLogMask`]'s canonical form (verified on the caller thread).
    /// FLOP attribution counts `2·K·(computed columns)`, the same as the
    /// sparse float head.
    pub fn forward_masked(
        &self,
        a: &Tensor,
        bias: &Tensor,
        masks: &[Option<SparseLogMask<'_>>],
    ) -> Tensor {
        let (r, k) = a.shape();
        let c = self.c;
        assert_eq!(k, self.k, "QuantizedLinear: input width");
        assert_eq!(
            (bias.rows, bias.cols),
            (1, c),
            "QuantizedLinear: bias must be [1,C]"
        );
        assert_eq!(masks.len(), r, "QuantizedLinear: one mask per row");
        let computed = kernels::check_masks("QuantizedLinear", masks, c);
        kernels::note_matmul(2 * k as u64 * computed);
        let bk = backend::active();
        let mut out = Tensor::zeros(r, c);
        if c == 0 {
            return out;
        }
        // The head is cheap by design; rows are few (micro-batch size),
        // so chunk generously and usually run inline.
        let min_rows = (32 * 1024 / (k * c).max(1)).max(1);
        kernels::par_row_chunks(&mut out.data, c, r, min_rows, |rows, dst| {
            let mut qa = vec![0i8; k];
            let mut scratch: Vec<f32> = Vec::new();
            for (ri, i) in rows.enumerate() {
                let arow = &a.data[i * k..(i + 1) * k];
                let row = &mut dst[ri * c..(ri + 1) * c];
                let s_a = row_scale(arow);
                let inv_sa = 1.0 / s_a;
                for (q, &x) in qa.iter_mut().zip(arow) {
                    *q = q8(x, inv_sa);
                }
                let deq = |bk: backend::Backend, qa: &[i8], col: usize| -> f32 {
                    let qrow = &self.qt[col * k..(col + 1) * k];
                    Self::dot_i8(bk, qa, qrow) as f32 * (s_a * self.scales[col])
                };
                match masks[i] {
                    Some(mask) if !mask.entries.is_empty() => {
                        // The entries' canonical ascending-column order,
                        // as in the float sparse head.
                        scratch.clear();
                        for &(col, lw) in mask.entries {
                            scratch.push((deq(bk, &qa, col) + bias.data[col]) + lw);
                        }
                        kernels::log_softmax_slice(bk, &mut scratch);
                        row.fill(f32::NEG_INFINITY);
                        for (&(col, _), &x) in mask.entries.iter().zip(&scratch) {
                            row[col] = x;
                        }
                    }
                    mask => {
                        for (j, o) in row.iter_mut().enumerate() {
                            let x = deq(bk, &qa, j) + bias.data[j];
                            *o = match mask {
                                Some(m) => x + m.default,
                                None => x,
                            };
                        }
                        kernels::log_softmax_slice(bk, row);
                    }
                }
            }
        });
        out
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
