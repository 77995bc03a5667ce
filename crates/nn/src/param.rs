//! Learnable parameters: storage, initialisation, gradient accumulation.

use rand::Rng;

use crate::Tensor;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Initialisation scheme for [`ParamStore::add`].
#[derive(Debug, Clone, Copy)]
pub enum Init {
    Zeros,
    Ones,
    Const(f32),
    /// Xavier/Glorot uniform (default for weight matrices).
    Xavier,
    /// Uniform in `[-a, a]` (embedding tables use a small `a`).
    Uniform(f32),
}

#[derive(Debug)]
pub(crate) struct ParamData {
    pub name: String,
    pub value: Tensor,
    pub grad: Tensor,
    /// Adam first/second moment buffers (allocated lazily by the optimizer).
    pub m: Option<Tensor>,
    pub v: Option<Tensor>,
}

/// Owns every learnable tensor of a model.
///
/// Gradients accumulate across [`crate::Tape::backward`] calls until
/// [`ParamStore::zero_grad`]; the optimizers ([`crate::Adam`],
/// [`crate::Sgd`]) consume them.
#[derive(Debug, Default)]
pub struct ParamStore {
    pub(crate) params: Vec<ParamData>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new `[rows, cols]` parameter.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> ParamId {
        let value = match init {
            Init::Zeros => Tensor::zeros(rows, cols),
            Init::Ones => Tensor::full(rows, cols, 1.0),
            Init::Const(c) => Tensor::full(rows, cols, c),
            Init::Xavier => Tensor::xavier(rows, cols, rng),
            Init::Uniform(a) => Tensor::uniform(rows, cols, a, rng),
        };
        let grad = Tensor::zeros(rows, cols);
        self.params.push(ParamData {
            name: name.into(),
            value,
            grad,
            m: None,
            v: None,
        });
        ParamId(self.params.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (the paper's "#Para", Fig. 6).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    pub(crate) fn accumulate_grad(&mut self, id: ParamId, g: &[f32]) {
        let grad = &mut self.params[id.0].grad;
        debug_assert_eq!(grad.len(), g.len());
        for (a, b) in grad.data.iter_mut().zip(g) {
            *a += b;
        }
    }

    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.data.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_query() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add("w", 2, 3, Init::Xavier, &mut rng);
        let b = store.add("b", 1, 3, Init::Zeros, &mut rng);
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.value(w).shape(), (2, 3));
        assert!(store.value(b).data.iter().all(|&x| x == 0.0));
        assert_eq!(store.name(w), "w");
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.add("w", 1, 2, Init::Ones, &mut rng);
        store.accumulate_grad(w, &[1.0, 2.0]);
        store.accumulate_grad(w, &[0.5, 0.5]);
        assert_eq!(store.grad(w).data, vec![1.5, 2.5]);
        store.zero_grad();
        assert_eq!(store.grad(w).data, vec![0.0, 0.0]);
    }

    #[test]
    fn const_init() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = store.add("p", 1, 3, Init::Const(0.25), &mut rng);
        assert!(store.value(p).data.iter().all(|&x| x == 0.25));
    }
}
