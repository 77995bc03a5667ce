//! Basic neural layers: linear, layer norm, feed-forward MLP.

use rand::rngs::StdRng;

use rntrajrec_nn::{Exec, Init, ParamId, ParamStore};

/// Fully connected layer `y = x·W (+ b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add(format!("{name}.w"), in_dim, out_dim, Init::Xavier, rng);
        let b = bias.then(|| store.add(format!("{name}.b"), 1, out_dim, Init::Zeros, rng));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `x: [N, in] -> [N, out]`.
    pub fn forward<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore, x: &E::H) -> E::H {
        let w = ex.param(store, self.w);
        let y = ex.matmul(x, &w);
        match self.b {
            Some(b) => {
                let b = ex.param(store, b);
                ex.add_rowvec(&y, &b)
            }
            None => y,
        }
    }
}

/// Layer normalisation over the last dimension (per row), with learnable
/// gain/bias — the transformer-encoder normaliser (Section IV-E).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub dim: usize,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), 1, dim, Init::Ones, rng);
        let beta = store.add(format!("{name}.beta"), 1, dim, Init::Zeros, rng);
        Self {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// `x: [N, dim] -> [N, dim]`, each row normalised independently.
    ///
    /// Runs the fused `layer_norm` kernel (one statistics pass + one
    /// normalise-and-affine pass) instead of the nine-op primitive chain;
    /// the forward value is bit-identical to the composed route and the
    /// tape op carries its own analytic backward.
    pub fn forward<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore, x: &E::H) -> E::H {
        let gamma = ex.param(store, self.gamma);
        let beta = ex.param(store, self.beta);
        ex.layer_norm(x, &gamma, &beta, self.eps)
    }
}

/// Position-wise feed-forward network `FFN(x) = ReLU(xW₁+b₁)W₂+b₂` (Eq. 11).
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub l1: Linear,
    pub l2: Linear,
}

impl FeedForward {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.ffn1"), dim, hidden, true),
            l2: Linear::new(store, rng, &format!("{name}.ffn2"), hidden, dim, true),
        }
    }

    pub fn forward<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore, x: &E::H) -> E::H {
        let h = self.l1.forward(ex, store, x);
        let h = ex.relu(&h);
        self.l2.forward(ex, store, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Adam, Tape, Tensor};

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 3, true);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 4));
        let y = lin.forward(&mut tape, &store, &x);
        assert_eq!(tape.value(&y).shape(), (2, 3));
        // Zero input -> output equals bias (zeros initially).
        assert!(tape.value(&y).data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_learns_identity_map() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "l", 2, 2, true);
        let mut opt = Adam::new(0.05);
        let x_data = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5]);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.constant(x_data.clone());
            let y = lin.forward(&mut tape, &store, &x);
            let diff = tape.sub(y, x);
            let sq = tape.mul(&diff, &diff);
            let loss = tape.mean_all(sq);
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new();
        let x = tape.constant(x_data.clone());
        let y = lin.forward(&mut tape, &store, &x);
        assert!(tape.value(&y).max_abs_diff(&x_data) < 0.05);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, &mut rng, "ln", 6);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(
            2,
            6,
            vec![
                10.0, 12.0, 8.0, 11.0, 9.0, 10.0, -5.0, 0.0, 5.0, 2.0, -2.0, 0.0,
            ],
        ));
        let y = ln.forward(&mut tape, &store, &x);
        let v = tape.value(&y);
        for r in 0..2 {
            let row = v.row_slice(r);
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, &mut rng, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&mut tape, &store, &x);
        let loss = tape.mean_all(y);
        store.zero_grad();
        tape.backward(loss, &mut store);
        assert!(store.grad(ln.gamma).data.iter().any(|&g| g != 0.0));
        // Beta gradient of mean loss is uniform 1/4.
        assert!(store
            .grad(ln.beta)
            .data
            .iter()
            .all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn feed_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, &mut rng, "f", 8, 16);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 8));
        let y = ffn.forward(&mut tape, &store, &x);
        assert_eq!(tape.value(&y).shape(), (3, 8));
    }
}
