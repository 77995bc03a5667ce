//! The standard transformer encoder layer (Section IV-E).

use std::ops::Range;

use rand::rngs::StdRng;

use crate::attention::MultiHeadAttention;
use crate::layers::{FeedForward, LayerNorm};
use rntrajrec_nn::{Exec, ParamStore};

/// `LayerNorm(x + MultiHead(x))` then `LayerNorm(x + FFN(x))` — the
/// temporal-modelling half of each GPSFormer block.
#[derive(Debug, Clone)]
pub struct TransformerEncoderLayer {
    pub mha: MultiHeadAttention,
    pub ffn: FeedForward,
    pub ln1: LayerNorm,
    pub ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
    ) -> Self {
        Self {
            mha: MultiHeadAttention::new(store, rng, &format!("{name}.mha"), dim, heads),
            ffn: FeedForward::new(store, rng, &format!("{name}.ffn"), dim, ffn_hidden),
            ln1: LayerNorm::new(store, rng, &format!("{name}.ln1"), dim),
            ln2: LayerNorm::new(store, rng, &format!("{name}.ln2"), dim),
        }
    }

    /// `x: [ΣL, dim] -> [ΣL, dim]` over a stack of sequences (`segs` are
    /// the members' row ranges; a lone sequence is the one segment
    /// `0..L`): the attention reduction is member-scoped
    /// ([`MultiHeadAttention::forward`]) while the residual adds, layer
    /// norms (row-local by construction) and FFN matmuls run once over the
    /// whole stack — every output row bit-identical to running the member
    /// alone.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::H,
        segs: &[Range<usize>],
    ) -> E::H {
        let attn = self.mha.forward(ex, store, x, segs);
        let res1 = ex.add(x, &attn);
        let h = self.ln1.forward(ex, store, &res1);
        let ff = self.ffn.forward(ex, store, &h);
        let res2 = ex.add(&h, &ff);
        self.ln2.forward(ex, store, &res2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Adam, Tape, Tensor};

    #[test]
    fn shape_preserved_and_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = TransformerEncoderLayer::new(&mut store, &mut rng, "t", 8, 2, 16);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::uniform(6, 8, 1.0, &mut rng));
        let y = layer.forward(&mut tape, &store, &x, std::slice::from_ref(&(0..6)));
        assert_eq!(tape.value(&y).shape(), (6, 8));
        assert!(tape.value(&y).all_finite());
    }

    #[test]
    fn stackable_two_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let l1 = TransformerEncoderLayer::new(&mut store, &mut rng, "t1", 8, 2, 16);
        let l2 = TransformerEncoderLayer::new(&mut store, &mut rng, "t2", 8, 2, 16);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::uniform(4, 8, 1.0, &mut rng));
        let h = l1.forward(&mut tape, &store, &x, std::slice::from_ref(&(0..4)));
        let y = l2.forward(&mut tape, &store, &h, std::slice::from_ref(&(0..4)));
        assert_eq!(tape.value(&y).shape(), (4, 8));
    }

    #[test]
    fn learns_to_attend_to_marked_row() {
        // Task: every row must output the feature of the row whose last
        // channel is 1 (requires attention across the sequence).
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = TransformerEncoderLayer::new(&mut store, &mut rng, "t", 4, 1, 8);
        let head = crate::layers::Linear::new(&mut store, &mut rng, "h", 4, 1, true);
        let mut opt = Adam::new(0.01);
        // Two training sequences with the marker at different positions.
        let mk = |marker_row: usize, value: f32| {
            let mut t = Tensor::zeros(3, 4);
            for r in 0..3 {
                t.set(r, 0, 0.1 * r as f32);
            }
            t.set(marker_row, 3, 1.0);
            t.set(marker_row, 1, value);
            t
        };
        let cases = [(mk(0, 0.8), 0.8f32), (mk(2, -0.6), -0.6), (mk(1, 0.3), 0.3)];
        let mut last = f32::INFINITY;
        for _ in 0..250 {
            let mut tape = Tape::new();
            let mut losses = Vec::new();
            for (x, target) in &cases {
                let xid = tape.constant(x.clone());
                let h = layer.forward(&mut tape, &store, &xid, std::slice::from_ref(&(0..3)));
                let y = head.forward(&mut tape, &store, &h); // [3,1]
                let t = tape.constant(Tensor::full(3, 1, *target));
                let d = tape.sub(y, t);
                let sq = tape.mul(&d, &d);
                losses.push(sq);
            }
            let all = tape.concat_rows(&losses.iter().collect::<Vec<_>>());
            let loss = tape.mean_all(all);
            last = tape.value(&loss).item();
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(
            last < 0.05,
            "transformer failed to learn attention task: {last}"
        );
    }
}
