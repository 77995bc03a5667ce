//! Property-based parity suite for the unified kernel layer.
//!
//! The refactor contract: the autograd tape forward, the tape-free path
//! (direct `kernels::` calls), and the parallel kernels at every thread
//! count all compute **bit-identical** results, because they share one kernel body
//! per operation and the pool partitions only ever split disjoint output
//! ranges without reordering any accumulation.
//!
//! Since the SIMD backend split the sweep is two-dimensional: every case
//! runs under each available backend (`Scalar` always; `Avx2Fma` when the
//! host supports it) × `NN_THREADS ∈ {1, 2, 4}`. Within one backend
//! results are pinned bit-identical across thread counts and across the
//! tape/tape-free routes; the composed layer-norm-statistics route is
//! additionally pinned bit-identical to the fused kernel **on the scalar
//! backend** (the historical contract — under AVX2 the fused statistics
//! use partial-lane sums and are covered by the ULP budget in
//! `kernels.rs::avx2_backend_is_thread_deterministic_within_ulp_of_scalar`
//! instead). The sparse segment head (`masked_matmul_cols`) is pinned
//! bit-identical to the dense matmul → hard-mask → log-softmax route, the
//! masked kernels take their entries through `canonical_mask_entries` and
//! are compared against dense masks built by overwriting in *raw* order,
//! and the AVX2 register tile is pinned to the row-at-a-time chain at
//! every tile edge (`matmul_tile_edges_match_row_at_a_time`).
//!
//! Executor conformance (`exec_ops_agree_between_tape_and_eager`): one
//! generic function runs **every** [`Exec`] op, and the values it produces
//! on a [`Tape`] and on [`Eager`] must agree bitwise — both executors call
//! the same kernel for every op but the Eq. 7 gate, which `Tape` composes
//! from its element-wise ops.
//!
//! The reference pin (`scoped_ops_match_composed_reference`): the six
//! scoped ops' fused kernels — `segmented_self_attention`,
//! `segmented_additive_attention` (over segments that leave key rows out),
//! `segmented_mean_rows`, `segmented_weighted_mean_rows`, `segmented_norm`
//! and `gated_fusion` — equal, bit for bit under each backend at 1/2/4
//! threads, their per-segment composition from `kernels::` primitives
//! (`composed_scoped_ops`, the route the tape recorded before each became
//! one node), over ragged segments with a one-row and an empty member (for
//! the gate: a point owning one row and a point owning none).
//!
//! Each case draws random shapes (large enough that the pool actually
//! engages), random contents, and — for the CSR graph ops — random ragged
//! adjacency including isolated nodes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::{
    kernels, pool, Eager, Exec, GraphCsr, Init, NodeId, ParamId, ParamStore, Tape, Tensor,
};

/// A labelled parity case: (name, tape reference, tape-free recompute).
type ParityCase<'a> = (&'a str, &'a Tensor, Box<dyn Fn() -> Tensor + 'a>);

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Every backend the host can execute: scalar always, AVX2+FMA when
/// supported (with a visible notice when it is not, so a CI log shows
/// the sweep was narrowed rather than silently passing).
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if backend::is_supported(Backend::Avx2Fma) {
        v.push(Backend::Avx2Fma);
    } else {
        eprintln!("NOTICE: host lacks AVX2+FMA; backend sweep covers scalar only");
    }
    v
}

fn tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    // Mix in exact zeros so the matmul zero-skip path is exercised.
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f32>() < 0.05 {
                0.0
            } else {
                rng.gen_range(-1.5f32..1.5)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Random ragged CSR: degrees 0..=6 per node (degree 0 without self-loops
/// leaves genuinely empty segments — the isolated-node edge case), except
/// that the first three nodes always have 0, 1 and 9..=12 neighbours: an
/// isolated node, a one-edge segment and one longer than a vector.
fn random_csr(rng: &mut StdRng, n: usize, self_loops: bool) -> Arc<GraphCsr> {
    let lists: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let deg = match i {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(9usize..=12),
                _ => rng.gen_range(0usize..=6),
            };
            (0..deg).map(|_| rng.gen_range(0..n)).collect()
        })
        .collect();
    Arc::new(GraphCsr::from_neighbor_lists(&lists, self_loops))
}

/// Raw per-row mask entries as a careless caller would build them:
/// unsorted, columns repeated. `None` rows carry no mask.
type RawMasks = Vec<Option<Vec<(usize, f32)>>>;

fn random_raw_masks(rng: &mut StdRng, r: usize, c: usize, p_mask: f32, max_n: usize) -> RawMasks {
    (0..r)
        .map(|_| {
            rng.gen::<f32>().lt(&p_mask).then(|| {
                let n = rng.gen_range(0usize..=max_n);
                (0..n)
                    .map(|_| (rng.gen_range(0..c), rng.gen_range(-3.0f32..0.5)))
                    .collect()
            })
        })
        .collect()
}

/// The canonical form the masked kernels take, one list per row.
fn canonical(raw: &RawMasks) -> RawMasks {
    raw.iter()
        .map(|e| e.clone().map(kernels::canonical_mask_entries))
        .collect()
}

fn sparse_masks(entries: &RawMasks, default: f32) -> Vec<Option<kernels::SparseLogMask<'_>>> {
    entries
        .iter()
        .map(|e| {
            e.as_deref()
                .map(|entries| kernels::SparseLogMask { default, entries })
        })
        .collect()
}

/// The dense route's mask: every masked row filled (`fill(entries)`) and
/// then overwritten in **raw** entry order — the last write wins.
fn dense_mask_by_overwrite(
    raw: &RawMasks,
    c: usize,
    fill: impl Fn(&[(usize, f32)]) -> f32,
) -> Tensor {
    let mut dense = Tensor::zeros(raw.len(), c);
    for (row, e) in raw.iter().enumerate() {
        if let Some(e) = e {
            let drow = &mut dense.data[row * c..(row + 1) * c];
            drow.fill(fill(e));
            for &(col, lw) in e {
                drow[col] = lw;
            }
        }
    }
    dense
}

/// The int8 head's dense logits `dot_i32 · (s_a · s_j) + bias`, recomputed
/// from the head's raw parts with its documented quantization (per-row
/// symmetric scale `max|x|/127`, round, clamp).
fn quantized_dense_logits(q: &QuantizedLinear, a: &Tensor, bias: &Tensor) -> Tensor {
    let (k, c, qt, scales) = q.to_parts();
    let mut out = Tensor::zeros(a.rows, c);
    for i in 0..a.rows {
        let arow = &a.data[i * k..(i + 1) * k];
        let amax = arow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let s_a = if amax == 0.0 { 1.0 } else { amax / 127.0 };
        let inv = 1.0 / s_a;
        let qa: Vec<i32> = arow
            .iter()
            .map(|&x| (x * inv).round().clamp(-127.0, 127.0) as i32)
            .collect();
        for j in 0..c {
            let dot: i32 = qa
                .iter()
                .zip(&qt[j * k..(j + 1) * k])
                .map(|(&x, &w)| x * i32::from(w))
                .sum();
            out.data[i * c + j] = dot as f32 * (s_a * scales[j]) + bias.data[j];
        }
    }
    out
}

/// Run `f` once per sweep entry and assert every run equals the reference
/// bit-for-bit.
fn assert_thread_invariant(label: &str, reference: &Tensor, f: impl Fn() -> Tensor) {
    for threads in THREAD_SWEEP {
        pool::set_num_threads(threads);
        let got = f();
        assert_eq!(
            got.shape(),
            reference.shape(),
            "{label}: shape @ t={threads}"
        );
        assert_eq!(
            got.data, reference.data,
            "{label}: not bit-identical @ t={threads}"
        );
    }
    pool::set_num_threads(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Matmul family: tape forward ≡ direct kernels at 1/2/4 threads,
    /// under every available backend (scalar and AVX2 each deterministic
    /// within themselves).
    #[test]
    fn matmul_family_parity(r in 1usize..96, k in 1usize..64, c in 1usize..96, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(&mut rng, r, k);
        let b = tensor(&mut rng, k, c);
        let bt = tensor(&mut rng, c, k);

        for bk in backends() {
            backend::with_backend(bk, || {
                let name = bk.name();
                pool::set_num_threads(1);
                let mut tape = Tape::new();
                let na = tape.constant(a.clone());
                let nb = tape.constant(b.clone());
                let nbt = tape.constant(bt.clone());
                let mm_node = tape.matmul(&na, &nb);
                let nt_node = tape.matmul_nt(na, nbt);
                let mm = tape.value(&mm_node).clone();
                let nt = tape.value(&nt_node).clone();

                assert_eq!(kernels::matmul(&a, &b).data, mm.data, "{name}: matmul kernels≡tape");
                assert_eq!(kernels::matmul_nt(&a, &bt).data, nt.data, "{name}: nt kernels≡tape");
                assert_thread_invariant("matmul", &mm, || kernels::matmul(&a, &b));
                assert_thread_invariant("matmul_nt", &nt, || kernels::matmul_nt(&a, &bt));
            });
        }
    }

    /// Element-wise maps, broadcasts, softmax, gathers and layer-norm
    /// statistics.
    #[test]
    fn rowwise_kernels_parity(r in 1usize..80, c in 1usize..80, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(&mut rng, r, c);
        let b = tensor(&mut rng, r, c);
        let v = tensor(&mut rng, 1, c);
        let cv = tensor(&mut rng, r, 1);
        let gamma = tensor(&mut rng, 1, c);
        let beta = tensor(&mut rng, 1, c);
        let idx: Vec<usize> = (0..2 * r).map(|i| (i * 7) % r).collect();

        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let mut tape = Tape::new();
                let na = tape.constant(a.clone());
                let nb = tape.constant(b.clone());
                let nv = tape.constant(v.clone());
                let ncv = tape.constant(cv.clone());
                let n_add = tape.add(&na, &nb);
                let n_mul = tape.mul(&na, &nb);
                let n_sig = tape.sigmoid(&na);
                let n_tanh = tape.tanh(na);
                let n_lrelu = tape.leaky_relu(&na, 0.2);
                let n_arow = tape.add_rowvec(&na, &nv);
                let n_mcol = tape.mul_colvec(&na, &ncv);
                let smax = kernels::softmax_rows(&a);
                let n_lsmax = tape.log_softmax_rows(na);
                let n_gather = tape.gather_rows(&na, &idx);

                let cases: Vec<ParityCase> = vec![
                    ("add", tape.value(&n_add), Box::new(|| kernels::add(&a, &b))),
                    ("mul", tape.value(&n_mul), Box::new(|| kernels::mul(&a, &b))),
                    ("sigmoid", tape.value(&n_sig), Box::new(|| kernels::sigmoid(&a))),
                    ("tanh", tape.value(&n_tanh), Box::new(|| kernels::tanh(&a))),
                    ("leaky_relu", tape.value(&n_lrelu), Box::new(|| kernels::leaky_relu(&a, 0.2))),
                    ("add_rowvec", tape.value(&n_arow), Box::new(|| kernels::add_rowvec(&a, &v))),
                    ("mul_colvec", tape.value(&n_mcol), Box::new(|| kernels::mul_colvec(&a, &cv))),
                    ("softmax_rows", &smax, Box::new(|| kernels::softmax_rows(&a))),
                    ("log_softmax_rows", tape.value(&n_lsmax), Box::new(|| kernels::log_softmax_rows(&a))),
                    ("gather_rows", tape.value(&n_gather), Box::new(|| kernels::gather_rows(&a, &idx))),
                ];
                for (label, reference, f) in &cases {
                    assert_thread_invariant(label, reference, f);
                }

                match bk {
                    Backend::Scalar => {
                        // Layer-norm statistics: on the scalar backend the
                        // fused kernel must match the composed op-by-op
                        // route bit-for-bit, at every thread count.
                        pool::set_num_threads(1);
                        let ones = Tensor::full(c, 1, 1.0);
                        let mu = kernels::scale(&kernels::matmul(&a, &ones), 1.0 / c as f32);
                        let centered = kernels::add_colvec(&a, &kernels::scale(&mu, -1.0));
                        let var = kernels::add_const(
                            &kernels::scale(
                                &kernels::matmul(&kernels::mul(&centered, &centered), &ones),
                                1.0 / c as f32,
                            ),
                            1e-5,
                        );
                        let inv = kernels::recip(&kernels::sqrt(&var));
                        for threads in THREAD_SWEEP {
                            pool::set_num_threads(threads);
                            let (m, s) = kernels::row_norm_stats(&a, 1e-5);
                            assert_eq!(m.data, mu.data, "mean not bit-identical @ t={threads}");
                            assert_eq!(s.data, inv.data, "inv_std not bit-identical @ t={threads}");
                        }
                        pool::set_num_threads(1);

                        // Fused layer norm ≡ the composed primitive route,
                        // and the tape's fused op matches both.
                        let norm_ref = kernels::add_rowvec(
                            &kernels::mul_rowvec(&kernels::mul_colvec(&centered, &inv), &gamma),
                            &beta,
                        );
                        let mut ln_tape = Tape::new();
                        let (lx, lg, lb) = (
                            ln_tape.constant(a.clone()),
                            ln_tape.constant(gamma.clone()),
                            ln_tape.constant(beta.clone()),
                        );
                        let ln_node = ln_tape.layer_norm(&lx, &lg, &lb, 1e-5);
                        assert_eq!(ln_tape.value(&ln_node).data, norm_ref.data);
                        assert_thread_invariant("layer_norm", &norm_ref, || {
                            kernels::layer_norm(&a, &gamma, &beta, 1e-5)
                        });
                    }
                    Backend::Avx2Fma => {
                        // Under AVX2 the fused statistics use partial-lane
                        // sums (the composed route's rounding differs; the
                        // cross-backend drift has a ULP budget in the
                        // `kernels` unit tests), but the kernel must still
                        // be self-deterministic at any thread count.
                        pool::set_num_threads(1);
                        let (m1, s1) = kernels::row_norm_stats(&a, 1e-5);
                        let ln1 = kernels::layer_norm(&a, &gamma, &beta, 1e-5);
                        for threads in THREAD_SWEEP {
                            pool::set_num_threads(threads);
                            let (m, s) = kernels::row_norm_stats(&a, 1e-5);
                            assert_eq!(m.data, m1.data, "avx2 mean drift @ t={threads}");
                            assert_eq!(s.data, s1.data, "avx2 inv_std drift @ t={threads}");
                            assert_eq!(
                                kernels::layer_norm(&a, &gamma, &beta, 1e-5).data,
                                ln1.data,
                                "avx2 layer_norm drift @ t={threads}"
                            );
                        }
                        pool::set_num_threads(1);
                    }
                }
            });
        }
    }

    /// The sparse segment heads (float and int8) over canonicalised
    /// entries ≡ the dense route under a *hard* mask (`-∞` on masked-out
    /// columns) built by raw-order overwrites: matmul → `add_rowvec` → add
    /// mask → `log_softmax_rows`, bit-identical at every thread count ×
    /// backend (the scalar leg is the pinned reference contract; AVX2
    /// holds too because the per-column chains match the dense kernel's).
    /// Up to 12 entries a row, so both the interleaved 8-column dots and
    /// the one-column remainder run.
    #[test]
    fn masked_matmul_cols_equals_hard_masked_dense_route(
        r in 1usize..24, k in 1usize..32, c in 1usize..96, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(&mut rng, r, k);
        let w = tensor(&mut rng, k, c);
        let bias = tensor(&mut rng, 1, c);
        let raw = random_raw_masks(&mut rng, r, c, 0.7, 12);
        let entries = canonical(&raw);
        let masks = sparse_masks(&entries, -2.0);

        // Hard dense mask: -∞ outside the allowed set for sparse rows,
        // the soft default for empty-entry rows, 0 for maskless rows.
        let mask_dense = dense_mask_by_overwrite(&raw, c, |e| {
            if e.is_empty() { -2.0 } else { f32::NEG_INFINITY }
        });
        let q = QuantizedLinear::from_weights(&w);
        let q_logits = quantized_dense_logits(&q, &a, &bias);
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let logits = kernels::add_rowvec(&kernels::matmul(&a, &w), &bias);
                let want = kernels::log_softmax_rows(&kernels::add(&logits, &mask_dense));
                assert_thread_invariant("masked_matmul_cols", &want, || {
                    kernels::masked_matmul_cols(&a, &w, &bias, &masks)
                });
                let q_want = kernels::log_softmax_rows(&kernels::add(&q_logits, &mask_dense));
                assert_thread_invariant("forward_masked", &q_want, || {
                    q.forward_masked(&a, &bias, &masks)
                });
            });
        }
    }

    /// CSR graph-attention ops on random ragged graphs (including isolated
    /// nodes, empty, one-edge and longer-than-a-vector segments): kernel ≡
    /// tape at every thread count, and — `exp` runs in lanes, sums and
    /// products round as the scalar loops do — the same bits under every
    /// backend.
    #[test]
    fn graph_kernels_parity(n in 1usize..120, d in 1usize..32, self_loops in 0u32..2, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let csr = random_csr(&mut rng, n, self_loops == 1);
        let src = tensor(&mut rng, n, 1);
        let dst = tensor(&mut rng, n, 1);
        let feats = tensor(&mut rng, n, d);
        let mut across_backends: Option<(Tensor, Tensor)> = None;

        for bk in backends() {
            backend::with_backend(bk, || {
                let name = bk.name();
                pool::set_num_threads(1);
                let mut tape = Tape::new();
                let ns = tape.constant(src.clone());
                let nd = tape.constant(dst.clone());
                let nf = tape.constant(feats.clone());
                let scores_n = tape.edge_scores(&ns, &nd, &csr);
                let alphas_n = tape.segmented_softmax(&scores_n, &csr);
                let agg_n = tape.neighbor_sum(&alphas_n, &nf, &csr);
                let scores = tape.value(&scores_n).clone();
                let alphas = tape.value(&alphas_n).clone();
                let agg = tape.value(&agg_n).clone();

                assert_eq!(kernels::edge_scores(&src, &dst, &csr).data, scores.data, "{name}");
                assert_eq!(kernels::segmented_softmax(&scores, &csr).data, alphas.data, "{name}");
                assert_eq!(kernels::neighbor_sum(&alphas, &feats, &csr).data, agg.data, "{name}");

                assert_thread_invariant("edge_scores", &scores, || kernels::edge_scores(&src, &dst, &csr));
                assert_thread_invariant("segmented_softmax", &alphas, || {
                    kernels::segmented_softmax(&scores, &csr)
                });
                assert_thread_invariant("neighbor_sum", &agg, || {
                    kernels::neighbor_sum(&alphas, &feats, &csr)
                });
                let (alphas_0, agg_0) = across_backends.get_or_insert((alphas.clone(), agg.clone()));
                assert_eq!(alphas.data, alphas_0.data, "segmented_softmax: {name} vs scalar");
                assert_eq!(agg.data, agg_0.data, "neighbor_sum: {name} vs scalar");
            });
        }
    }

    /// Training parity: a full tape forward + backward produces identical
    /// input-side gradients at every thread count (the backward matmuls
    /// route through the same kernels), under every backend.
    #[test]
    fn backward_gradients_thread_invariant(r in 2usize..48, k in 2usize..32, c in 2usize..48, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(&mut rng, r, k);
        let b = tensor(&mut rng, k, c);
        for bk in backends() {
            backend::with_backend(bk, || {
                let mut reference: Option<(Vec<f32>, Vec<f32>)> = None;
                for threads in THREAD_SWEEP {
                    pool::set_num_threads(threads);
                    let mut tape = Tape::new();
                    let na = tape.constant(a.clone());
                    let nb = tape.constant(b.clone());
                    let y = tape.matmul(&na, &nb);
                    let y = tape.tanh(y);
                    let loss = tape.mean_all(y);
                    let mut store = ParamStore::new();
                    tape.backward(loss, &mut store);
                    let ga = tape.grad(na).unwrap().to_vec();
                    let gb = tape.grad(nb).unwrap().to_vec();
                    match &reference {
                        None => reference = Some((ga, gb)),
                        Some((ra, rb)) => {
                            assert_eq!(ra, &ga, "grad A diverged @ t={threads}");
                            assert_eq!(rb, &gb, "grad B diverged @ t={threads}");
                        }
                    }
                }
                pool::set_num_threads(1);
            });
        }
    }
}

/// Everything [`run_every_exec_op`] reads: dense operands, a parameter,
/// ragged row segments and a random CSR over the same `r` rows.
struct ExecInputs {
    store: ParamStore,
    w: ParamId,
    a: Tensor,
    b: Tensor,
    v: Tensor,
    gamma: Tensor,
    beta: Tensor,
    src: Tensor,
    dst: Tensor,
    idx: Vec<usize>,
    csr: Arc<GraphCsr>,
    /// Tiles the `r` rows; holds a one-row and an empty member.
    segs: Vec<Range<usize>>,
    /// `segs` with the first row of every segment longer than two left
    /// out: key rows no query attends (the decoder's retired members).
    attend: Vec<Range<usize>>,
    /// `segs` without the empty members (the graphs GraphNorm pools).
    graphs: Vec<Range<usize>>,
    /// Groups of `graphs`, one of them empty.
    scopes: Vec<Range<usize>>,
    row_to_scope: Vec<usize>,
    weights: Vec<f32>,
    /// The gate's per-point operands, one row per member of `segs`.
    point_a: Tensor,
    point_tr: Tensor,
    /// Row → the member of `segs` that owns it.
    row_to_point: Vec<usize>,
}

impl ExecInputs {
    fn random(rng: &mut StdRng, c: usize) -> Self {
        let mut lens: Vec<usize> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range(0usize..9))
            .collect();
        lens.push(1);
        lens.push(0);
        lens.push(rng.gen_range(2usize..9));
        let mut segs = Vec::with_capacity(lens.len());
        let mut r = 0;
        for &l in &lens {
            segs.push(r..r + l);
            r += l;
        }
        let graphs: Vec<_> = segs.iter().filter(|s| !s.is_empty()).cloned().collect();
        let attend = segs
            .iter()
            .map(|s| {
                if s.len() > 2 {
                    s.start + 1..s.end
                } else {
                    s.clone()
                }
            })
            .collect();
        // Scopes: a random split of the graphs, then an empty scope, then
        // the rest.
        let cut = rng.gen_range(1..graphs.len());
        let scopes = vec![0..cut, cut..cut, cut..graphs.len()];
        let row_to_scope = (0..r)
            .map(|row| if row < graphs[cut].start { 0 } else { 2 })
            .collect();
        let row_to_point = segs
            .iter()
            .enumerate()
            .flat_map(|(p, seg)| std::iter::repeat_n(p, seg.len()))
            .collect();
        let mut store = ParamStore::new();
        let w = store.add("w", c, c + 3, Init::Xavier, rng);
        Self {
            point_a: tensor(rng, segs.len(), c),
            point_tr: tensor(rng, segs.len(), c),
            row_to_point,
            store,
            w,
            a: tensor(rng, r, c),
            b: tensor(rng, r, c),
            v: tensor(rng, 1, c),
            gamma: tensor(rng, 1, c),
            beta: tensor(rng, 1, c),
            src: tensor(rng, r, 1),
            dst: tensor(rng, r, 1),
            idx: (0..2 * r).map(|_| rng.gen_range(0..r)).collect(),
            csr: random_csr(rng, r, true),
            segs,
            attend,
            graphs,
            scopes,
            row_to_scope,
            weights: (0..r).map(|_| rng.gen_range(0.05f32..2.0)).collect(),
        }
    }
}

/// Every op of the [`Exec`] trait, once, written against the trait alone:
/// `(op name, result handle)` in a fixed order.
fn run_every_exec_op<'s, E: Exec<'s>>(ex: &mut E, i: &'s ExecInputs) -> Vec<(&'static str, E::H)> {
    let w = ex.param(&i.store, i.w);
    let a = ex.input(&i.a);
    let b = ex.constant(i.b.clone());
    let (v, gamma, beta) = (ex.input(&i.v), ex.input(&i.gamma), ex.input(&i.beta));
    let (src, dst) = (ex.input(&i.src), ex.input(&i.dst));
    let (point_a, point_tr) = (ex.input(&i.point_a), ex.input(&i.point_tr));
    let sum = ex.add(&a, &b);
    let scores = ex.edge_scores(&src, &dst, &i.csr);
    let alphas = ex.segmented_softmax(&scores, &i.csr);
    let scale = 1.0 / (i.a.cols as f32).sqrt();
    vec![
        ("add", ex.add(&a, &b)),
        ("mul", ex.mul(&a, &b)),
        ("scale", ex.scale(&a, 0.37)),
        ("add_const", ex.add_const(&a, -1.2)),
        ("add_rowvec", ex.add_rowvec(&a, &v)),
        ("mul_colvec", ex.mul_colvec(&a, &src)),
        ("matmul", ex.matmul(&a, &w)),
        ("sigmoid", ex.sigmoid(&a)),
        ("relu", ex.relu(&a)),
        ("leaky_relu", ex.leaky_relu(&a, 0.2)),
        ("layer_norm", ex.layer_norm(&a, &gamma, &beta, 1e-5)),
        ("concat_cols/2", ex.concat_cols(&[&a, &b])),
        ("concat_cols/3", ex.concat_cols(&[&a, &b, &sum])),
        ("concat_cols/4", ex.concat_cols(&[&b, &a, &sum, &a])),
        (
            "select_cols",
            ex.select_cols(&a, i.a.cols / 2, i.a.cols - i.a.cols / 2),
        ),
        ("concat_rows", ex.concat_rows(&[&a, &v, &b])),
        ("select_rows", ex.select_rows(&a, 1, i.a.rows - 1)),
        ("gather_rows", ex.gather_rows(&a, &i.idx)),
        ("neighbor_sum", ex.neighbor_sum(&alphas, &a, &i.csr)),
        (
            "segmented_self_attention",
            ex.segmented_self_attention(&a, &b, &sum, &i.segs, scale),
        ),
        (
            "segmented_additive_attention",
            ex.segmented_additive_attention(&b, &point_a, &v, &a, &i.attend),
        ),
        ("segmented_mean_rows", ex.segmented_mean_rows(&a, &i.graphs)),
        (
            "segmented_weighted_mean_rows",
            ex.segmented_weighted_mean_rows(&a, &i.weights, &i.graphs),
        ),
        (
            "segmented_norm",
            ex.segmented_norm(
                &a,
                &gamma,
                &beta,
                &i.graphs,
                &i.scopes,
                &i.row_to_scope,
                1e-5,
            ),
        ),
        (
            "gated_fusion",
            ex.gated_fusion(&point_a, &sum, &v, &point_tr, &a, &i.row_to_point),
        ),
        ("edge_scores", scores),
        ("segmented_softmax", alphas),
        ("tanh", ex.tanh(sum)),
        ("param", w),
        ("input", a),
        ("constant", b),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executor conformance: every `Exec` op gives the same bits on the
    /// tape as on the eager executor, under each backend at 1 and 4
    /// threads (see the module docs for what that means for the scoped
    /// ops).
    #[test]
    fn exec_ops_agree_between_tape_and_eager(c in 1usize..40, seed in 0u64..1_000_000) {
        let inputs = ExecInputs::random(&mut StdRng::seed_from_u64(seed), c);
        for bk in backends() {
            backend::with_backend(bk, || {
                for threads in [1usize, 4] {
                    pool::set_num_threads(threads);
                    let mut tape = Tape::new();
                    let recorded = run_every_exec_op(&mut tape, &inputs);
                    let eager = run_every_exec_op(&mut Eager, &inputs);
                    pool::set_num_threads(1);
                    assert_eq!(recorded.len(), eager.len());
                    for ((op, node), (_, got)) in recorded.iter().zip(&eager) {
                        let want = tape.value(node);
                        let label = format!("{op} under {} @ t={threads}", bk.name());
                        assert_eq!(got.shape(), want.shape(), "{label}: shape");
                        assert!(
                            got.data.iter().map(|x| x.to_bits()).eq(want.data.iter().map(|x| x.to_bits())),
                            "{label}: Tape and Eager disagree"
                        );
                    }
                }
            });
        }
    }
}

/// The six scoped ops of [`run_every_exec_op`], each composed per segment
/// from `kernels::` primitives: the route `Tape` recorded before each
/// became one node, kept as the reference the fused kernels are pinned to.
fn composed_scoped_ops(i: &ExecInputs) -> Vec<(&'static str, Tensor)> {
    let (a, b, v) = (&i.a, &i.b, &i.v);
    let sum = kernels::add(a, b);
    let rows = |t: &Tensor, seg: &Range<usize>| kernels::select_rows(t, seg.start, seg.len());
    let stack = |parts: Vec<Tensor>| kernels::concat_rows(&parts.iter().collect::<Vec<_>>());
    let scale = 1.0 / (a.cols as f32).sqrt();
    let self_attention = i.segs.iter().map(|seg| {
        let scores = kernels::scale(&kernels::matmul_nt(&rows(a, seg), &rows(b, seg)), scale);
        kernels::matmul(&kernels::softmax_rows(&scores), &rows(&sum, seg))
    });
    let additive_attention = i.attend.iter().enumerate().map(|(s, seg)| {
        let pre = kernels::add_rowvec(&rows(b, seg), &kernels::select_rows(&i.point_a, s, 1));
        let scores = kernels::matmul_nt(v, &kernels::tanh(&pre));
        kernels::matmul(&kernels::softmax_rows(&scores), &rows(a, seg))
    });
    let mean_rows = |segs: &[Range<usize>]| {
        stack(
            segs.iter()
                .map(|g| kernels::mean_rows(&rows(a, g)))
                .collect(),
        )
    };
    let weighted_mean_rows = i.graphs.iter().map(|g| {
        let norm = kernels::normalized_weights(g.len(), &i.weights[g.clone()]);
        kernels::weighted_mean_rows(&rows(a, g), &norm)
    });
    let norm = i
        .scopes
        .iter()
        .filter(|scope| !scope.is_empty())
        .map(|scope| {
            let graphs = &i.graphs[scope.clone()];
            // Eq. (8): the mean of the graph means; Eq. (9): the variance of
            // every row of the scope around it.
            let mu = kernels::mean_rows(&mean_rows(graphs));
            let all = rows(a, &(graphs[0].start..graphs[graphs.len() - 1].end));
            let centered = kernels::add_rowvec(&all, &kernels::scale(&mu, -1.0));
            let var = kernels::add_const(
                &kernels::mean_rows(&kernels::mul(&centered, &centered)),
                1e-5,
            );
            let inv = kernels::recip(&kernels::sqrt(&var));
            let normed = kernels::mul_rowvec(&kernels::mul_rowvec(&centered, &inv), &i.gamma);
            kernels::add_rowvec(&normed, &i.beta)
        });
    let gate = kernels::sigmoid(&kernels::add_rowvec(
        &kernels::add(&kernels::gather_rows(&i.point_a, &i.row_to_point), &sum),
        v,
    ));
    let take_tr = kernels::mul(&gate, &kernels::gather_rows(&i.point_tr, &i.row_to_point));
    let keep_z = kernels::mul(&kernels::add_const(&kernels::scale(&gate, -1.0), 1.0), a);
    vec![
        ("segmented_self_attention", stack(self_attention.collect())),
        (
            "segmented_additive_attention",
            stack(additive_attention.collect()),
        ),
        ("segmented_mean_rows", mean_rows(&i.graphs)),
        (
            "segmented_weighted_mean_rows",
            stack(weighted_mean_rows.collect()),
        ),
        ("segmented_norm", stack(norm.collect())),
        ("gated_fusion", kernels::add(&take_tr, &keep_z)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each scoped op's fused kernel ≡ its per-segment composition
    /// ([`composed_scoped_ops`]), bit for bit, under each backend at every
    /// thread count of the sweep.
    #[test]
    fn scoped_ops_match_composed_reference(c in 1usize..40, seed in 0u64..1_000_000) {
        let inputs = ExecInputs::random(&mut StdRng::seed_from_u64(seed), c);
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let composed = composed_scoped_ops(&inputs);
                for threads in THREAD_SWEEP {
                    pool::set_num_threads(threads);
                    let fused = run_every_exec_op(&mut Eager, &inputs);
                    for (op, want) in &composed {
                        let (_, got) = fused.iter().find(|(name, _)| name == op).unwrap();
                        let label = format!("{op} under {} @ t={threads}", bk.name());
                        assert_eq!(got.shape(), want.shape(), "{label}: shape");
                        assert!(
                            got.data.iter().map(|x| x.to_bits()).eq(want.data.iter().map(|x| x.to_bits())),
                            "{label}: fused kernel and composition disagree"
                        );
                    }
                }
                pool::set_num_threads(1);
            });
        }
    }
}

fn seeded(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(rows, cols, 1.0, &mut rng)
}

/// Every kernel the tape-free path calls must be bit-identical to its
/// tape twin, op by op (fixed small shapes; the proptests above sweep
/// shapes, threads and backends).
#[test]
fn ops_match_tape_bitwise() {
    let a = seeded(3, 4, 1);
    let b = seeded(3, 4, 2);
    let v = seeded(1, 4, 3);
    let cvec = seeded(3, 1, 4);
    let w = seeded(4, 5, 5);

    let mut tape = Tape::new();
    let (na, nb, nv, nc, nw) = (
        tape.constant(a.clone()),
        tape.constant(b.clone()),
        tape.constant(v.clone()),
        tape.constant(cvec.clone()),
        tape.constant(w.clone()),
    );

    let pairs: Vec<(Tensor, NodeId)> = vec![
        (kernels::add(&a, &b), tape.add(&na, &nb)),
        (kernels::sub(&a, &b), tape.sub(na, nb)),
        (kernels::mul(&a, &b), tape.mul(&na, &nb)),
        (kernels::scale(&a, 0.37), tape.scale(&na, 0.37)),
        (kernels::add_const(&a, -1.2), tape.add_const(&na, -1.2)),
        (kernels::add_rowvec(&a, &v), tape.add_rowvec(&na, &nv)),
        (kernels::mul_colvec(&a, &cvec), tape.mul_colvec(&na, &nc)),
        (kernels::matmul(&a, &w), tape.matmul(&na, &nw)),
        (kernels::matmul_nt(&a, &b), tape.matmul_nt(na, nb)),
        (kernels::sigmoid(&a), tape.sigmoid(&na)),
        (kernels::tanh(&a), tape.tanh(na)),
        (kernels::relu(&a), tape.relu(&na)),
        (kernels::leaky_relu(&a, 0.2), tape.leaky_relu(&na, 0.2)),
        (kernels::log_softmax_rows(&a), tape.log_softmax_rows(na)),
        (
            kernels::concat_cols(&[&a, &b]),
            tape.concat_cols(&[&na, &nb]),
        ),
        (kernels::select_cols(&a, 1, 2), tape.select_cols(&na, 1, 2)),
        (
            kernels::concat_rows(&[&a, &b]),
            tape.concat_rows(&[&na, &nb]),
        ),
        (kernels::select_rows(&a, 1, 2), tape.select_rows(&na, 1, 2)),
        (
            kernels::mean_rows(&a),
            tape.segmented_mean_rows(&na, std::slice::from_ref(&(0..a.rows))),
        ),
        (
            kernels::gather_rows(&a, &[2, 0, 2]),
            tape.gather_rows(&na, &[2, 0, 2]),
        ),
    ];
    for (i, (got, node)) in pairs.iter().enumerate() {
        let want = tape.value(node);
        assert_eq!(got.shape(), want.shape(), "op #{i} shape");
        assert_eq!(got.data, want.data, "op #{i} not bit-identical");
    }
}

#[test]
fn graph_ops_match_tape_bitwise() {
    let csr = Arc::new(GraphCsr::from_neighbor_lists(
        &[vec![1], vec![0, 2], vec![1]],
        true,
    ));
    let src = seeded(3, 1, 6);
    let dst = seeded(3, 1, 7);
    let feats = seeded(3, 4, 8);

    let mut tape = Tape::new();
    let (ns, nd, nf) = (
        tape.constant(src.clone()),
        tape.constant(dst.clone()),
        tape.constant(feats.clone()),
    );
    let scores_t = tape.edge_scores(&ns, &nd, &csr);
    let alphas_t = tape.segmented_softmax(&scores_t, &csr);
    let agg_t = tape.neighbor_sum(&alphas_t, &nf, &csr);

    let scores = kernels::edge_scores(&src, &dst, &csr);
    assert_eq!(scores.data, tape.value(&scores_t).data);
    let alphas = kernels::segmented_softmax(&scores, &csr);
    assert_eq!(alphas.data, tape.value(&alphas_t).data);
    let agg = kernels::neighbor_sum(&alphas, &feats, &csr);
    assert_eq!(agg.data, tape.value(&agg_t).data);
}

#[test]
#[should_panic(expected = "shape mismatch")]
fn add_rejects_shape_mismatch() {
    let _ = kernels::add(&seeded(2, 2, 1), &seeded(2, 3, 2));
}

/// The AVX2 register tile (6 rows × 16 / 8 / 1 columns, leftover rows one
/// at a time) must keep every output element the one chain from 0 in
/// ascending `k` that the row-at-a-time route computes: shapes straddle
/// every tile edge, each row is compared bitwise against its own
/// `[1,K]×[K,C]` product (which always takes the row-at-a-time path), at
/// 1/2/4 threads under both backends. Passes at any commit whose chain is
/// that one; it pins what a tile must keep.
#[test]
fn matmul_tile_edges_match_row_at_a_time() {
    let mut rng = StdRng::seed_from_u64(19);
    for bk in backends() {
        backend::with_backend(bk, || {
            for k in [0usize, 1, 3, 4, 5, 64] {
                for c in [1usize, 7, 8, 9, 15, 16, 17, 33, 64] {
                    let b = tensor(&mut rng, k, c);
                    for r in 1usize..=14 {
                        let a = tensor(&mut rng, r, k);
                        pool::set_num_threads(1);
                        let mut want = Tensor::zeros(r, c);
                        for i in 0..r {
                            let row = kernels::matmul(&kernels::select_rows(&a, i, 1), &b);
                            want.data[i * c..(i + 1) * c].copy_from_slice(&row.data);
                        }
                        let label = format!("{} matmul [{r},{k}]x[{k},{c}]", bk.name());
                        assert_thread_invariant(&label, &want, || kernels::matmul(&a, &b));
                    }
                }
            }
        });
    }
}

/// A mask list that is not in canonical form is refused by every masked
/// kernel on the caller thread, by the up-front check — before any work
/// is counted or handed to a pool chunk.
#[test]
fn masked_kernels_reject_non_canonical_entries_up_front() {
    let mut rng = StdRng::seed_from_u64(23);
    let (r, k, c) = (64, 64, 96); // large enough that the pool would engage
    let a = tensor(&mut rng, r, k);
    let w = tensor(&mut rng, k, c);
    let bias = tensor(&mut rng, 1, c);
    let q = QuantizedLinear::from_weights(&w);
    let rejects = |name: &str, run: &dyn Fn() -> Tensor| {
        let scope = kernels::profile_scope("test.reject");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("non-canonical entries must panic");
        assert_eq!(scope.finish().matmuls, 0, "{name}: work was dispatched");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.starts_with(&format!("{name}: mask entries must be strictly ascending")),
            "{name}: {msg}"
        );
    };
    pool::set_num_threads(4);
    for bad in [vec![(5usize, -0.5f32), (3, 0.1)], vec![(3, -0.5), (3, 0.1)]] {
        let entries: RawMasks = (0..r).map(|_| Some(bad.clone())).collect();
        let masks = sparse_masks(&entries, -30.0);
        rejects("masked_matmul_cols", &|| {
            kernels::masked_matmul_cols(&a, &w, &bias, &masks)
        });
        rejects("QuantizedLinear", &|| q.forward_masked(&a, &bias, &masks));
    }
    pool::set_num_threads(1);
}
