//! Attention modules: multi-head self-attention (Eq. 10), sinusoidal
//! positional encoding (Eq. 12) and the decoder's additive attention
//! (Eq. 14).

use std::ops::Range;

use rand::rngs::StdRng;

use crate::layers::Linear;
use rntrajrec_nn::{Exec, Init, ParamId, ParamStore, Tensor};

/// Multi-head scaled dot-product self-attention (Eq. 10).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    pub dim: usize,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim {dim} must divide into {heads} heads"
        );
        Self {
            wq: Linear::new(store, rng, &format!("{name}.wq"), dim, dim, false),
            wk: Linear::new(store, rng, &format!("{name}.wk"), dim, dim, false),
            wv: Linear::new(store, rng, &format!("{name}.wv"), dim, dim, false),
            wo: Linear::new(store, rng, &format!("{name}.wo"), dim, dim, false),
            heads,
            dim,
        }
    }

    /// Self-attention over a stack of sequences: `x` holds every member's
    /// rows concatenated, `segs` the row range of each member (together
    /// tiling `x` in order; a lone sequence is the one segment `0..L`).
    /// The q/k/v/output projections run as **one** stacked matmul each,
    /// while the attention reduction stays scoped to each member's own
    /// rows ([`Exec::segmented_self_attention`]) — so every output row is
    /// bit-identical to attending over the member alone.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::H,
        segs: &[Range<usize>],
    ) -> E::H {
        let q = self.wq.forward(ex, store, x);
        let k = self.wk.forward(ex, store, x);
        let v = self.wv.forward(ex, store, x);
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let heads: Vec<E::H> = (0..self.heads)
            .map(|h| {
                let qh = ex.select_cols(&q, h * dh, dh);
                let kh = ex.select_cols(&k, h * dh, dh);
                let vh = ex.select_cols(&v, h * dh, dh);
                ex.segmented_self_attention(&qh, &kh, &vh, segs, scale)
            })
            .collect();
        let cat = ex.concat_cols(&heads.iter().collect::<Vec<_>>());
        self.wo.forward(ex, store, &cat)
    }
}

/// Sinusoidal positional encoding table (Vaswani et al.), added to the
/// GPSFormer input (Eq. 12).
#[derive(Debug, Clone)]
pub struct PositionalEncoding {
    pub dim: usize,
}

impl PositionalEncoding {
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }

    /// The constant `[len, dim]` table.
    pub fn table(&self, len: usize) -> Tensor {
        let mut t = Tensor::zeros(len, self.dim);
        for i in 0..self.dim / 2 {
            let freq = 1.0 / 10_000f32.powf(2.0 * i as f32 / self.dim as f32);
            for pos in 0..len {
                let angle = pos as f32 * freq;
                t.set(pos, 2 * i, angle.sin());
                if 2 * i + 1 < self.dim {
                    t.set(pos, 2 * i + 1, angle.cos());
                }
            }
        }
        t
    }

    /// `x + PE` (Eq. 12).
    pub fn add_to<'s, E: Exec<'s>>(&self, ex: &mut E, x: &E::H) -> E::H {
        let len = ex.value(x).rows;
        let pe = ex.constant(self.table(len));
        ex.add(x, &pe)
    }
}

/// Additive (Bahdanau) attention used by the decoder (Eq. 14):
/// `μ_i = vᵀ·tanh(W_g·h_prev + W_h·h_i)`, `α = softmax(μ)`, `a = Σ α_i h_i`.
#[derive(Debug, Clone)]
pub struct AdditiveAttention {
    pub wg: ParamId,
    pub wh: ParamId,
    pub v: ParamId,
    pub dim: usize,
}

impl AdditiveAttention {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            wg: store.add(format!("{name}.wg"), dim, dim, Init::Xavier, rng),
            wh: store.add(format!("{name}.wh"), dim, dim, Init::Xavier, rng),
            v: store.add(format!("{name}.v"), 1, dim, Init::Xavier, rng),
            dim,
        }
    }

    /// `W_h·keys`: input-constant across decode steps, so callers project
    /// once and pass the result to every [`AdditiveAttention::forward`].
    pub fn project_keys<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        keys: &E::H,
    ) -> E::H {
        let wh = ex.param(store, self.wh);
        ex.matmul(keys, &wh)
    }

    /// One context row per query: `query` is `[S, dim]`, and query `s`
    /// attends over rows `segs[s]` of `keys` (`hk` =
    /// [`AdditiveAttention::project_keys`] of `keys`) → `[S, dim]`. The
    /// query projection is one stacked matmul; the softmax and context stay
    /// scoped to each query's own keys
    /// ([`Exec::segmented_additive_attention`]), so every row is
    /// bit-identical to attending alone. A single sequence is one segment.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        query: &E::H,
        keys: &E::H,
        hk: &E::H,
        segs: &[Range<usize>],
    ) -> E::H {
        let wg = ex.param(store, self.wg);
        let gq = ex.matmul(query, &wg);
        let v = ex.param(store, self.v);
        ex.segmented_additive_attention(hk, &gq, &v, keys, segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::Tape;

    #[test]
    fn mha_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "m", 8, 2);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::uniform(5, 8, 1.0, &mut rng));
        let y = mha.forward(&mut tape, &store, &x, std::slice::from_ref(&(0..5)));
        assert_eq!(tape.value(y).shape(), (5, 8));
        assert!(tape.value(y).all_finite());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn mha_rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let _ = MultiHeadAttention::new(&mut store, &mut rng, "m", 7, 2);
    }

    #[test]
    fn mha_is_permutation_sensitive_only_via_content() {
        // Without positional encoding, permuting rows permutes outputs.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "m", 4, 2);
        let mut tape = Tape::new();
        let data = Tensor::from_vec(2, 4, vec![0.1, 0.2, 0.3, 0.4, -0.5, 0.6, -0.7, 0.8]);
        let mut swapped = Tensor::zeros(2, 4);
        swapped.data[..4].copy_from_slice(&data.data[4..]);
        swapped.data[4..].copy_from_slice(&data.data[..4]);
        let x = tape.leaf(data);
        let xs = tape.leaf(swapped);
        let y = mha.forward(&mut tape, &store, &x, std::slice::from_ref(&(0..2)));
        let ys = mha.forward(&mut tape, &store, &xs, std::slice::from_ref(&(0..2)));
        let y0: Vec<f32> = tape.value(y).row_slice(0).to_vec();
        let ys1: Vec<f32> = tape.value(ys).row_slice(1).to_vec();
        for (a, b) in y0.iter().zip(&ys1) {
            assert!((a - b).abs() < 1e-5, "equivariance violated: {a} vs {b}");
        }
    }

    #[test]
    fn positional_encoding_rows_are_distinct() {
        let pe = PositionalEncoding::new(16);
        let t = pe.table(10);
        assert_eq!(t.shape(), (10, 16));
        for r in 1..10 {
            let diff: f32 = t
                .row_slice(0)
                .iter()
                .zip(t.row_slice(r))
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(diff > 0.1, "row {r} too similar to row 0");
        }
        // Bounded in [-1, 1].
        assert!(t.data.iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn additive_attention_returns_convex_combination() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let attn = AdditiveAttention::new(&mut store, &mut rng, "a", 4);
        let mut tape = Tape::new();
        let q = tape.leaf(Tensor::uniform(1, 4, 1.0, &mut rng));
        // Keys all equal -> context must equal that key regardless of scores.
        let keys = tape.leaf(Tensor::from_vec(3, 4, [0.5f32, -0.25, 0.75, 0.1].repeat(3)));
        let hk = attn.project_keys(&mut tape, &store, &keys);
        let ctx = attn.forward(
            &mut tape,
            &store,
            &q,
            &keys,
            &hk,
            std::slice::from_ref(&(0..3)),
        );
        let v = tape.value(ctx);
        for (got, want) in v.data.iter().zip([0.5, -0.25, 0.75, 0.1]) {
            assert!((got - want).abs() < 1e-5);
        }
    }
}
