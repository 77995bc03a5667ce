//! Criterion micro-benchmarks for the unified `rntrajrec_nn::kernels`
//! layer, each on the calling thread: matmul and the GAT ops, the
//! encoder's two city-scale matmul shapes, both served segment heads —
//! the f32 sparse head and the int8 head — at city scale (|V| = 828,
//! d = 64, 84 allowed segments), and, under each backend,
//! `tanh` at the decoder's shapes (one B = 1 attention pre-activation, a
//! B = 32 step, the encoder's row count), the in-repo `exp` at the first
//! and last of them, and the Eq. 7 gate over one city-scale request's
//! stack (13 points × 65 sub-graph rows). No wall-clock assertion.
//! Also writes machine-readable timings to `results/BENCH_kernels.json`
//! (skipped under `cargo test`'s `--test` quick mode).
//!
//! ```bash
//! cargo bench -p rntrajrec-bench --bench kernels
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rntrajrec_bench::dump_json;
use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::{kernels, GraphCsr, Tensor};

/// A named benchmark routine.
type Case<'a> = (&'a str, Box<dyn Fn() + 'a>);
/// A routine timed under one backend, named after it.
type BackendCase<'a> = (String, Backend, Box<dyn Fn() + 'a>);

struct Fixtures {
    /// Decoder-logits shape: `[1, d] × [d, |V|]`.
    logits_a: Tensor,
    logits_b: Tensor,
    /// Encoder-projection shape: `[n, d] × [d, d]`.
    proj_a: Tensor,
    proj_b: Tensor,
    /// Road-graph GAT aggregation.
    csr: Arc<GraphCsr>,
    alphas: Tensor,
    feats: Tensor,
    /// City-scale encoder shapes: `[1050, 64] × [64, 64]` and `× [64, 16]`.
    enc_a: Tensor,
    enc_b64: Tensor,
    enc_b16: Tensor,
    /// City-scale segment head: `[1, 64] × [64, 828]` + bias, 84 allowed
    /// columns (canonical mask entries).
    head_h: Tensor,
    head_w: Tensor,
    head_b: Tensor,
    head_mask: Vec<(usize, f32)>,
    /// `tanh` operands: `[17, 64]` (one B = 1 attention pre-activation),
    /// `[544, 64]` (a B = 32 step) and `[1050, 64]`, values in ±4.
    tanh_in: Vec<Tensor>,
    /// Eq. 7 gate operands: per-point `tr·W_z1` and `tr` (`[13, 64]`),
    /// per-row `z·W_z2` and `z` (`[845, 64]`), the bias row, row → point.
    gate_points: [Tensor; 2],
    gate_rows: [Tensor; 2],
    gate_bias: Tensor,
    gate_row_to_point: Vec<usize>,
}

fn fixtures() -> Fixtures {
    let mut rng = StdRng::seed_from_u64(42);
    let (v, d, n) = (4096usize, 64usize, 4096usize);
    let lists: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let deg = rng.gen_range(2usize..=6);
            (0..deg).map(|_| rng.gen_range(0..n)).collect()
        })
        .collect();
    let csr = Arc::new(GraphCsr::from_neighbor_lists(&lists, true));
    let e = csr.num_edges();
    let (city_v, city_n, allowed) = (828usize, 1050usize, 84usize);
    let (gate_points, gate_rows_per_point) = (13usize, 65usize);
    let head_mask = kernels::canonical_mask_entries(
        (0..allowed)
            .map(|i| (i * city_v / allowed, rng.gen_range(-3.0f32..0.0)))
            .collect(),
    );
    Fixtures {
        enc_a: Tensor::uniform(city_n, d, 1.0, &mut rng),
        enc_b64: Tensor::uniform(d, d, 1.0, &mut rng),
        enc_b16: Tensor::uniform(d, 16, 1.0, &mut rng),
        head_h: Tensor::uniform(1, d, 1.0, &mut rng),
        head_w: Tensor::uniform(d, city_v, 1.0, &mut rng),
        head_b: Tensor::uniform(1, city_v, 1.0, &mut rng),
        head_mask,
        tanh_in: [17, 544, city_n]
            .map(|rows| Tensor::uniform(rows, d, 4.0, &mut rng))
            .into(),
        gate_points: [(); 2].map(|_| Tensor::uniform(gate_points, d, 1.0, &mut rng)),
        gate_rows: [(); 2]
            .map(|_| Tensor::uniform(gate_points * gate_rows_per_point, d, 1.0, &mut rng)),
        gate_bias: Tensor::uniform(1, d, 1.0, &mut rng),
        gate_row_to_point: (0..gate_points)
            .flat_map(|p| std::iter::repeat_n(p, gate_rows_per_point))
            .collect(),
        logits_a: Tensor::uniform(1, d, 1.0, &mut rng),
        logits_b: Tensor::uniform(d, v, 1.0, &mut rng),
        proj_a: Tensor::uniform(n, d, 1.0, &mut rng),
        proj_b: Tensor::uniform(d, d, 1.0, &mut rng),
        csr,
        alphas: Tensor::uniform(e, 1, 1.0, &mut rng),
        feats: Tensor::uniform(n, d, 1.0, &mut rng),
    }
}

/// Mean ns/iter of `f` over a calibrated ~200 ms loop (one warm-up run).
fn time_ns(f: &dyn Fn()) -> f64 {
    f();
    let warm = Instant::now();
    let mut warm_iters = 0u64;
    while warm.elapsed() < Duration::from_millis(50) {
        f();
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }
    let per = warm.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let iters = ((0.2 / per.max(1e-9)) as u64).clamp(1, 100_000);
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test" || a == "--list");
    let fx = fixtures();
    let mut c = Criterion::default();
    let head_masks = [Some(kernels::SparseLogMask {
        default: -30.0,
        entries: &fx.head_mask,
    })];
    let head_q = QuantizedLinear::from_weights(&fx.head_w);

    // Rows timed under each backend: `(name, backend, routine)`.
    let mut backends = vec![Backend::Scalar];
    if backend::is_supported(Backend::Avx2Fma) {
        backends.push(Backend::Avx2Fma);
    }
    let mut backend_cases: Vec<BackendCase> = Vec::new();
    for &bk in &backends {
        for x in &fx.tanh_in {
            backend_cases.push((
                format!("tanh_{}x{}_{}", x.rows, x.cols, bk.name()),
                bk,
                Box::new(move || {
                    black_box(kernels::tanh(x));
                }),
            ));
        }
        for x in [&fx.tanh_in[0], &fx.tanh_in[2]] {
            backend_cases.push((
                format!("exp_{}x{}_{}", x.rows, x.cols, bk.name()),
                bk,
                Box::new(move || {
                    let mut xs = x.data.clone();
                    kernels::exp_in_place(&mut xs);
                    black_box(xs);
                }),
            ));
        }
        let ([a, tr], [b, z]) = (&fx.gate_points, &fx.gate_rows);
        let (bias, row_to_point) = (&fx.gate_bias, &fx.gate_row_to_point);
        backend_cases.push((
            format!("gate_{}x{}_{}", z.rows, z.cols, bk.name()),
            bk,
            Box::new(move || {
                black_box(kernels::gated_fusion(a, b, bias, tr, z, row_to_point));
            }),
        ));
    }

    let mut cases: Vec<Case> = vec![
        (
            "matmul_1x64x4096",
            Box::new(|| {
                black_box(kernels::matmul(&fx.logits_a, &fx.logits_b));
            }),
        ),
        (
            "matmul_4096x64x64",
            Box::new(|| {
                black_box(kernels::matmul(&fx.proj_a, &fx.proj_b));
            }),
        ),
        (
            "matmul_1050x64x64",
            Box::new(|| {
                black_box(kernels::matmul(&fx.enc_a, &fx.enc_b64));
            }),
        ),
        (
            "matmul_1050x64x16",
            Box::new(|| {
                black_box(kernels::matmul(&fx.enc_a, &fx.enc_b16));
            }),
        ),
        (
            "segment_head_sparse_828v_84",
            Box::new(|| {
                black_box(kernels::masked_matmul_cols(
                    &fx.head_h,
                    &fx.head_w,
                    &fx.head_b,
                    &head_masks,
                ));
            }),
        ),
        (
            "segment_head_int8_828v_84",
            Box::new(|| {
                black_box(head_q.forward_masked(&fx.head_h, &fx.head_b, &head_masks));
            }),
        ),
        (
            "gat_neighbor_sum_4096n",
            Box::new(|| {
                black_box(kernels::neighbor_sum(&fx.alphas, &fx.feats, &fx.csr));
            }),
        ),
        (
            "gat_segmented_softmax_4096n",
            Box::new(|| {
                black_box(kernels::segmented_softmax(&fx.alphas, &fx.csr));
            }),
        ),
    ];
    for (name, bk, f) in &backend_cases {
        cases.push((name, Box::new(move || backend::with_backend(*bk, f))));
    }

    let mut results = Vec::new();
    let mut group = c.benchmark_group("kernels");
    for (name, f) in &cases {
        group.bench_function(name, |b| b.iter(f.as_ref()));
        if !quick {
            results.push(serde_json::json!({
                "kernel": name,
                "ns_per_iter": time_ns(f.as_ref()),
            }));
        }
    }
    group.finish();

    if !quick {
        dump_json("BENCH_kernels", &serde_json::json!({ "kernels": results }));
    }
}
