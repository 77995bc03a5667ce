//! Recurrent cells: GRU (Eq. 1) and LSTM, plus sequence runners.

use rand::rngs::StdRng;

use rntrajrec_nn::{Exec, Init, ParamId, ParamStore, Tensor};

/// A gate's pre-activation `cat·W + b` (GRU and LSTM alike).
fn gate<'s, E: Exec<'s>>(
    ex: &mut E,
    store: &'s ParamStore,
    cat: &E::H,
    w: ParamId,
    b: ParamId,
) -> E::H {
    let w = ex.param(store, w);
    let b = ex.param(store, b);
    let lin = ex.matmul(cat, &w);
    ex.add_rowvec(&lin, &b)
}

/// Gated recurrent unit cell exactly as the paper's Eq. (1):
/// `z = σ(W_z·[s,x]+b_z)`, `r = σ(W_r·[s,x]+b_r)`,
/// `c = tanh(W_c·[r⊙s, x]+b_c)`, `s' = (1-z)⊙s + z⊙c`.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    wr: ParamId,
    wc: ParamId,
    bz: ParamId,
    br: ParamId,
    bc: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl GruCell {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let cat = in_dim + hidden;
        Self {
            wz: store.add(format!("{name}.wz"), cat, hidden, Init::Xavier, rng),
            wr: store.add(format!("{name}.wr"), cat, hidden, Init::Xavier, rng),
            wc: store.add(format!("{name}.wc"), cat, hidden, Init::Xavier, rng),
            bz: store.add(format!("{name}.bz"), 1, hidden, Init::Zeros, rng),
            br: store.add(format!("{name}.br"), 1, hidden, Init::Zeros, rng),
            bc: store.add(format!("{name}.bc"), 1, hidden, Init::Zeros, rng),
            in_dim,
            hidden,
        }
    }

    /// One step: `x [B,in]`, `s [B,hidden]` → `s' [B,hidden]`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::H,
        s: &E::H,
    ) -> E::H {
        let cat = ex.concat_cols(&[s, x]);
        let z_lin = gate(ex, store, &cat, self.wz, self.bz);
        let z = ex.sigmoid(&z_lin);
        let r_lin = gate(ex, store, &cat, self.wr, self.br);
        let r = ex.sigmoid(&r_lin);

        let rs = ex.mul(&r, s);
        let cat2 = ex.concat_cols(&[&rs, x]);
        let c_lin = gate(ex, store, &cat2, self.wc, self.bc);
        let c = ex.tanh(c_lin);

        let neg_z = ex.scale(&z, -1.0);
        let one_minus_z = ex.add_const(&neg_z, 1.0);
        let keep = ex.mul(&one_minus_z, s);
        let update = ex.mul(&z, &c);
        ex.add(&keep, &update)
    }

    /// Run over a sequence `[L, in]` with zero initial state; returns the
    /// stacked hidden states `[L, hidden]`.
    pub fn run_sequence<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        xs: &E::H,
    ) -> E::H {
        let len = ex.value(xs).rows;
        let zero = ex.constant(Tensor::zeros(1, self.hidden));
        let mut outs: Vec<E::H> = Vec::with_capacity(len);
        for i in 0..len {
            let x = ex.select_rows(xs, i, 1);
            let s = self.step(ex, store, &x, outs.last().unwrap_or(&zero));
            outs.push(s);
        }
        ex.concat_rows(&outs.iter().collect::<Vec<_>>())
    }
}

/// LSTM cell (used by the t2vec / T3S / NeuTraj baseline encoders).
#[derive(Debug, Clone)]
pub struct LstmCell {
    wi: ParamId,
    wf: ParamId,
    wo: ParamId,
    wg: ParamId,
    bi: ParamId,
    bf: ParamId,
    bo: ParamId,
    bg: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let cat = in_dim + hidden;
        Self {
            wi: store.add(format!("{name}.wi"), cat, hidden, Init::Xavier, rng),
            wf: store.add(format!("{name}.wf"), cat, hidden, Init::Xavier, rng),
            wo: store.add(format!("{name}.wo"), cat, hidden, Init::Xavier, rng),
            wg: store.add(format!("{name}.wg"), cat, hidden, Init::Xavier, rng),
            bi: store.add(format!("{name}.bi"), 1, hidden, Init::Zeros, rng),
            // Forget-gate bias of 1 — standard LSTM initialisation.
            bf: store.add(format!("{name}.bf"), 1, hidden, Init::Ones, rng),
            bo: store.add(format!("{name}.bo"), 1, hidden, Init::Zeros, rng),
            bg: store.add(format!("{name}.bg"), 1, hidden, Init::Zeros, rng),
            in_dim,
            hidden,
        }
    }

    /// One step: returns `(h', c')`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::H,
        h: &E::H,
        c: &E::H,
    ) -> (E::H, E::H) {
        let cat = ex.concat_cols(&[h, x]);
        let i_lin = gate(ex, store, &cat, self.wi, self.bi);
        let i = ex.sigmoid(&i_lin);
        let f_lin = gate(ex, store, &cat, self.wf, self.bf);
        let f = ex.sigmoid(&f_lin);
        let o_lin = gate(ex, store, &cat, self.wo, self.bo);
        let o = ex.sigmoid(&o_lin);
        let g_lin = gate(ex, store, &cat, self.wg, self.bg);
        let g = ex.tanh(g_lin);
        let fc = ex.mul(&f, c);
        let ig = ex.mul(&i, &g);
        let c_new = ex.add(&fc, &ig);
        let c_t = ex.tanh(c_new.clone());
        let h_new = ex.mul(&o, &c_t);
        (h_new, c_new)
    }

    /// Run over `[L, in]`, zero init; returns stacked `[L, hidden]`.
    pub fn run_sequence<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        xs: &E::H,
    ) -> E::H {
        let len = ex.value(xs).rows;
        let zero = ex.constant(Tensor::zeros(1, self.hidden));
        let mut c = ex.constant(Tensor::zeros(1, self.hidden));
        let mut outs: Vec<E::H> = Vec::with_capacity(len);
        for i in 0..len {
            let x = ex.select_rows(xs, i, 1);
            let (h, c_new) = self.step(ex, store, &x, outs.last().unwrap_or(&zero), &c);
            c = c_new;
            outs.push(h);
        }
        ex.concat_rows(&outs.iter().collect::<Vec<_>>())
    }
}

/// Bidirectional LSTM: forward + backward passes concatenated and projected
/// back to `hidden` (the t2vec encoder architecture).
#[derive(Debug, Clone)]
pub struct BiLstm {
    pub fwd: LstmCell,
    pub bwd: LstmCell,
    pub proj: crate::layers::Linear,
}

impl BiLstm {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            fwd: LstmCell::new(store, rng, &format!("{name}.fwd"), in_dim, hidden),
            bwd: LstmCell::new(store, rng, &format!("{name}.bwd"), in_dim, hidden),
            proj: crate::layers::Linear::new(
                store,
                rng,
                &format!("{name}.proj"),
                2 * hidden,
                hidden,
                true,
            ),
        }
    }

    pub fn run_sequence<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        xs: &E::H,
    ) -> E::H {
        let len = ex.value(xs).rows;
        let f = self.fwd.run_sequence(ex, store, xs);
        // Reverse the sequence for the backward pass.
        let rev_rows: Vec<E::H> = (0..len).rev().map(|i| ex.select_rows(xs, i, 1)).collect();
        let xs_rev = ex.concat_rows(&rev_rows.iter().collect::<Vec<_>>());
        let b_rev = self.bwd.run_sequence(ex, store, &xs_rev);
        let b_rows: Vec<E::H> = (0..len)
            .rev()
            .map(|i| ex.select_rows(&b_rev, i, 1))
            .collect();
        let b = ex.concat_rows(&b_rows.iter().collect::<Vec<_>>());
        let cat = ex.concat_cols(&[&f, &b]);
        self.proj.forward(ex, store, &cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rntrajrec_nn::{Adam, Tape};

    #[test]
    fn gru_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, &mut rng, "g", 3, 5);
        let mut tape = Tape::new();
        let xs = tape.constant(Tensor::zeros(7, 3));
        let hs = gru.run_sequence(&mut tape, &store, &xs);
        assert_eq!(tape.value(&hs).shape(), (7, 5));
    }

    #[test]
    fn gru_zero_input_zero_state_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, &mut rng, "g", 2, 4);
        let mut tape = Tape::new();
        let xs = tape.constant(Tensor::zeros(20, 2));
        let hs = gru.run_sequence(&mut tape, &store, &xs);
        assert!(tape.value(&hs).data.iter().all(|&h| h.abs() <= 1.0));
    }

    #[test]
    fn gru_learns_to_memorise_first_input() {
        // Task: output at final step = first input value; requires memory.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, &mut rng, "g", 1, 8);
        let head = crate::layers::Linear::new(&mut store, &mut rng, "h", 8, 1, true);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 0.0, 0.0, 0.0], 1.0),
            (vec![-1.0, 0.0, 0.0, 0.0], -1.0),
            (vec![0.5, 0.0, 0.0, 0.0], 0.5),
            (vec![-0.5, 0.0, 0.0, 0.0], -0.5),
        ];
        let mut last_loss = f32::INFINITY;
        for epoch in 0..150 {
            let mut tape = Tape::new();
            let mut losses = Vec::new();
            for (xs, target) in &seqs {
                let x = tape.constant(Tensor::from_vec(4, 1, xs.clone()));
                let hs = gru.run_sequence(&mut tape, &store, &x);
                let hl = tape.select_rows(&hs, 3, 1);
                let y = head.forward(&mut tape, &store, &hl);
                let t = tape.constant(Tensor::scalar(*target));
                let d = tape.sub(y, t);
                let sq = tape.mul(&d, &d);
                losses.push(sq);
            }
            let all = tape.concat_rows(&losses.iter().collect::<Vec<_>>());
            let loss = tape.mean_all(all);
            last_loss = tape.value(&loss).item();
            store.zero_grad();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
            if epoch == 0 {
                assert!(last_loss > 0.05, "task should not be trivial at init");
            }
        }
        assert!(last_loss < 0.02, "GRU failed to memorise: loss {last_loss}");
    }

    #[test]
    fn lstm_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let lstm = LstmCell::new(&mut store, &mut rng, "l", 3, 6);
        let mut tape = Tape::new();
        let xs = tape.constant(Tensor::uniform(10, 3, 1.0, &mut rng));
        let hs = lstm.run_sequence(&mut tape, &store, &xs);
        assert_eq!(tape.value(&hs).shape(), (10, 6));
        assert!(tape.value(&hs).data.iter().all(|&h| h.abs() <= 1.0));
    }

    #[test]
    fn bilstm_output_depends_on_future() {
        // The first output row of a BiLSTM must change when the *last*
        // input changes (unidirectional RNN would not).
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, &mut rng, "b", 2, 4);
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.0, 0.0, 0.9, -0.3]));
        let b = tape.constant(Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.0, 0.0, -0.9, 0.3]));
        let ha = bi.run_sequence(&mut tape, &store, &a);
        let hb = bi.run_sequence(&mut tape, &store, &b);
        let first_a = tape.value(&ha).row_slice(0).to_vec();
        let first_b = tape.value(&hb).row_slice(0).to_vec();
        assert_ne!(first_a, first_b);
    }
}
