//! Optimizers: Adam (the paper trains everything with Adam, §VI-A3) and SGD.

use crate::{ParamStore, Tensor};

/// Scale all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. Standard stabiliser for RNN/transformer
/// training at small batch sizes.
pub fn clip_global_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in &store.params {
        total += p.grad.data.iter().map(|x| x * x).sum::<f32>();
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for p in &mut store.params {
            p.grad.data.iter_mut().for_each(|x| *x *= s);
        }
    }
    norm
}

/// Plain stochastic gradient descent (used by tests as the simplest sanity
/// optimizer).
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    pub fn step(&self, store: &mut ParamStore) {
        for p in &mut store.params {
            for (v, g) in p.value.data.iter_mut().zip(&p.grad.data) {
                *v -= self.lr * g;
            }
        }
    }
}

/// Adam (Kingma & Ba 2014) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// The paper's setting: learning rate `1e-3`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    pub fn step_count(&self) -> u64 {
        self.t
    }

    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in &mut store.params {
            let (rows, cols) = p.value.shape();
            let m = p.m.get_or_insert_with(|| Tensor::zeros(rows, cols));
            let v = p.v.get_or_insert_with(|| Tensor::zeros(rows, cols));
            for i in 0..p.value.data.len() {
                let g = p.grad.data[i];
                m.data[i] = self.beta1 * m.data[i] + (1.0 - self.beta1) * g;
                v.data[i] = self.beta2 * v.data[i] + (1.0 - self.beta2) * g * g;
                let mh = m.data[i] / b1t;
                let vh = v.data[i] / b2t;
                p.value.data[i] -= self.lr * mh / (vh.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exec, Init, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimise `(w - 3)²` — both optimizers must converge to w = 3.
    fn quadratic_loss(store: &ParamStore, w: crate::ParamId, tape: &mut Tape) -> crate::NodeId {
        let wn = tape.param(store, w);
        let t = tape.add_const(&wn, -3.0);
        let sq = tape.mul(&t, &t);
        tape.mean_all(sq)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add("w", 1, 1, Init::Zeros, &mut rng);
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            let mut tape = Tape::new();
            let loss = quadratic_loss(&store, w, &mut tape);
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!((store.value(w).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add("w", 1, 1, Init::Zeros, &mut rng);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let loss = quadratic_loss(&store, w, &mut tape);
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(
            (store.value(w).item() - 3.0).abs() < 1e-2,
            "w = {}",
            store.value(w).item()
        );
        assert_eq!(opt.step_count(), 200);
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add("w", 1, 2, Init::Zeros, &mut rng);
        store.accumulate_grad(w, &[3.0, 4.0]); // norm 5
        let pre = clip_global_norm(&mut store, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = store.grad(w);
        assert!((g.norm() - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((g.data[0] / g.data[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add("w", 1, 2, Init::Zeros, &mut rng);
        store.accumulate_grad(w, &[0.3, 0.4]);
        clip_global_norm(&mut store, 1.0);
        assert_eq!(store.grad(w).data, vec![0.3, 0.4]);
    }
}
