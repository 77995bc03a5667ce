//! Bit-level gates for the in-repo `expf` (`kernels::expf`).
//!
//! Three claims, each pinned bitwise (NaN ≡ NaN, nothing else is loose):
//!
//! 1. **lanes ≡ scalar** — the AVX2 body returns exactly what the scalar
//!    transcription [`expf`] returns: on every 61st bit pattern of the
//!    whole `f32` range, ±4 ULP around every threshold of `expf` (the
//!    filter at 88, overflow, underflow, the first subnormal result, ±0,
//!    ±∞, NaN), through every slice length 0..=17 (tail path) and through
//!    vectors that mix filtered and ordinary lanes (fallback path).
//! 2. **one function under every kernel** — `sigmoid`, the softmax family
//!    and the fused Eq. 7 gate equal their scalar bodies written out on
//!    [`expf`], under `Backend::Scalar` and `Backend::Avx2Fma`, at 1/2/4
//!    threads on tensors large enough to engage the pool.
//! 3. **the transcription is glibc 2.36's `expf`, FMA form** — a committed
//!    anchor table taken from the build box's `f32::exp` keeps [`expf`]
//!    pinned on hosts whose libm differs; it holds the two inputs on which
//!    the plain (unfused) form of the same source rounds differently.
//!
//! The `#[ignore]`d test at the bottom sweeps all 2³² inputs (about half
//! a minute in release; CI runs it).

use std::sync::atomic::{AtomicU64, Ordering};

use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::kernels::expf::expf;
use rntrajrec_nn::{kernels, pool, Exec, GraphCsr, Tape, Tensor};

/// `(x, exp(x))` as bit patterns, from `f32::exp` on the build box (glibc
/// 2.36 on a machine with FMA). At least two rows per branch of `expf`.
const ANCHORS: [(u32, u32); 63] = [
    // −∞ → 0, +∞ → +∞
    (0xff800000, 0x00000000),
    (0x7f800000, 0x7f800000),
    // x > 0x1.62e42ep6: overflow to +∞
    (0x42b17218, 0x7f800000),
    (0x42c80000, 0x7f800000),
    (0x7f7fffff, 0x7f800000),
    // x < −0x1.9fe368p6: underflow to 0
    (0xc2cff1b5, 0x00000000),
    (0xc3480000, 0x00000000),
    (0xff7fffff, 0x00000000),
    // |x| ≥ 88 and in range: through the filter into the main path
    (0x42b00000, 0x7ef882b7),
    (0x42b10000, 0x7f4cdcc4),
    (0x42b17217, 0x7f7fff84),
    (0xc2b00000, 0x0041edc4),
    (0xc2c80000, 0x0000001b),
    (0xc2cf0000, 0x00000001),
    (0xc2cff1b4, 0x00000001),
    // ±0 and arguments too small to move the result off 1
    (0x00000000, 0x3f800000),
    (0x80000000, 0x3f800000),
    (0x00000001, 0x3f800000),
    (0x80000001, 0x3f800000),
    (0x00800000, 0x3f800000),
    (0x2edbe6ff, 0x3f800000),
    (0xaedbe6ff, 0x3f800000),
    (0x33000000, 0x3f800000),
    (0xb3000000, 0x3f800000),
    // the main path, k = 0 (|x| < ln2/64)
    (0x3a83126f, 0x3f8020c9),
    (0xba83126f, 0x3f7fbe7f),
    (0x3c23d70a, 0x3f814953),
    (0xbc23d70a, 0x3f7d73e8),
    // the main path, both signs of k
    (0x3d000000, 0x3f84102b),
    (0x3dcccccd, 0x3f8d763e),
    (0xbdcccccd, 0x3f67a36d),
    (0x3e800000, 0x3fa45af2),
    (0xbe800000, 0x3f475f7d),
    (0x3f000000, 0x3fd3094c),
    (0xbf000000, 0x3f1b4598),
    (0x3f317218, 0x40000000),
    (0xbf317218, 0x3f000000),
    (0x3f800000, 0x402df854),
    (0xbf800000, 0x3ebc5ab2),
    (0x40000000, 0x40ec7326),
    (0xc0000000, 0x3e0a9555),
    (0x40490fdb, 0x41b92025),
    (0xc0490fdb, 0x3d310113),
    (0x41200000, 0x46ac14ee),
    (0xc1200000, 0x383e6bce),
    (0x42480000, 0x638c881f),
    (0xc2480000, 0x1b692beb),
    (0x42afffff, 0x7ef8823b),
    (0xc2afffff, 0x0041ede5),
    // subnormal results: the first one (x just below −87.3365) and deeper
    (0xc2aeac4f, 0x00800026),
    (0xc2aeac50, 0x007fffe6),
    (0xc2aeac51, 0x007fffa6),
    (0xc2af0000, 0x006cb2bc),
    (0xc2be0000, 0x00000f64),
    (0xc2ce0000, 0x00000001),
    // the two inputs on which the FMA form and the plain form differ
    // (plain: …9f1b and …2992)
    (0x4202422f, 0x56fc9f1c),
    (0xc27c65d9, 0x11fa2993),
    // ordinary values a gate or a softmax produces
    (0xbe4ccccd, 0x3f519857),
    (0xbfc00000, 0x3e647c3c),
    (0xc0533333, 0x3d1712ce),
    (0xc0e00000, 0x3a6f0b5d),
    (0xc1700000, 0x34a43ae5),
    (0x3f99999a, 0x40547ccc),
];

const SIGN: u32 = 0x8000_0000;
/// The first input whose result is subnormal (`exp(x) < 2⁻¹²⁶`).
const FIRST_SUBNORMAL_RESULT: u32 = 0xc2ae_ac50;

/// Same bits, or both NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn have_avx2() -> bool {
    let yes = backend::is_supported(Backend::Avx2Fma);
    if !yes {
        eprintln!("NOTICE: host lacks AVX2+FMA; the lanes ≡ scalar half is skipped");
    }
    yes
}

/// The backends this host can run.
fn backends() -> Vec<Backend> {
    let mut bks = vec![Backend::Scalar];
    if have_avx2() {
        bks.push(Backend::Avx2Fma);
    }
    bks
}

/// Assert the AVX2 lanes reproduce the scalar transcription on `xs`.
fn assert_lanes_match_scalar(xs: &[f32]) {
    let mut lanes = xs.to_vec();
    backend::with_backend(Backend::Avx2Fma, || kernels::exp_in_place(&mut lanes));
    for (&x, &got) in xs.iter().zip(&lanes) {
        let want = expf(x);
        assert!(
            same(got, want),
            "exp({x:e}) [{:#010x}]: lanes {:#010x}, scalar {:#010x} (len {})",
            x.to_bits(),
            got.to_bits(),
            want.to_bits(),
            xs.len()
        );
    }
}

/// Every input within ±4 ULP of a place where `expf` changes branch or
/// its result changes class, plus the specials.
fn edge_inputs() -> Vec<f32> {
    let edges = [
        0x0000_0004, // ±0 and the smallest subnormals
        0x0080_0000, // subnormal | normal argument
        0x42b0_0000, // the filter: |x| = 88 (both signs)
        0x42b1_7217, // overflow threshold
        0xc2cf_f1b4, // underflow threshold
        FIRST_SUBNORMAL_RESULT,
        0x7f80_0000, // finite | ∞ | NaN (both signs)
    ];
    let mut xs = vec![f32::NAN, -f32::NAN, f32::from_bits(0x7fff_ffff)];
    for edge in edges {
        for bits in edge - 4..=edge + 4 {
            xs.push(f32::from_bits(bits));
            xs.push(f32::from_bits(bits ^ SIGN));
        }
    }
    xs
}

/// Inputs with no filtered lane among them: what a kernel sees.
fn ordinary_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32) * 0.618_034).sin() * (1.0 + (i % 23) as f32))
        .collect()
}

#[test]
fn transcription_reproduces_the_anchor_table() {
    for (x, y) in ANCHORS {
        let got = expf(f32::from_bits(x));
        assert_eq!(
            got.to_bits(),
            y,
            "expf({:e}) [{x:#010x}]",
            f32::from_bits(x)
        );
    }
    assert!(expf(f32::NAN).is_nan());
    assert!(expf(-f32::NAN).is_nan());
    // The class boundaries the anchors sit on.
    let first = f32::from_bits(FIRST_SUBNORMAL_RESULT);
    assert!(expf(first) < f32::MIN_POSITIVE);
    assert!(expf(f32::from_bits(FIRST_SUBNORMAL_RESULT - 1)) >= f32::MIN_POSITIVE);
}

#[test]
fn lanes_match_scalar_on_every_61st_bit_pattern() {
    if !have_avx2() {
        return;
    }
    let mut xs = Vec::with_capacity(4096);
    let mut bits = 0u64;
    while bits <= u32::MAX as u64 {
        xs.push(f32::from_bits(bits as u32));
        bits += 61;
        if xs.len() == xs.capacity() || bits > u32::MAX as u64 {
            assert_lanes_match_scalar(&xs);
            xs.clear();
        }
    }
}

#[test]
fn lanes_match_scalar_at_every_threshold_tail_length_and_lane_mix() {
    if !have_avx2() {
        return;
    }
    let edges = edge_inputs();
    assert_lanes_match_scalar(&edges);
    // Every slice length 0..=17, sliding over the edge inputs so each
    // lands in a vector body and in a tail.
    for len in 0..=17 {
        for start in (0..edges.len() - len).step_by(5) {
            assert_lanes_match_scalar(&edges[start..start + len]);
        }
    }
    // Filtered and ordinary lanes in one vector: stride through the edge
    // inputs and the anchors with steps coprime to 8.
    let mut pool: Vec<f32> = edges.clone();
    pool.extend(ANCHORS.iter().map(|&(x, _)| f32::from_bits(x)));
    for step in [3, 7, 11, 29] {
        let mixed: Vec<f32> = (0..pool.len())
            .map(|i| pool[i * step % pool.len()])
            .collect();
        assert_lanes_match_scalar(&mixed);
    }
}

/// Run `f` under every backend this host has, at 1, 2 and 4 threads.
fn for_each_backend_and_thread_count(mut f: impl FnMut(Backend, usize)) {
    for bk in backends() {
        for threads in [1, 2, 4] {
            pool::set_num_threads(threads);
            backend::with_backend(bk, || f(bk, threads));
            pool::set_num_threads(1);
        }
    }
}

fn assert_same_slice(what: &str, bk: Backend, threads: usize, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{what} under {bk:?} at {threads} threads, element {i}: {:#010x}, want {:#010x}",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn sigmoid_is_its_scalar_body_across_backends_threads_and_the_tape() {
    // Three pool chunks at four threads, none of them a multiple of 8 long.
    let (rows, cols) = (7023, 7);
    let n = rows * cols;
    assert!(n > 3 * 16 * 1024 && n % 8 != 0);
    let mut xs = ordinary_inputs(n);
    for (slot, x) in xs.iter_mut().step_by(97).zip(edge_inputs()) {
        *slot = x;
    }
    let input = Tensor::from_vec(rows, cols, xs.clone());
    let want: Vec<f32> = xs.iter().map(|&x| 1.0 / (1.0 + expf(-x))).collect();
    for_each_backend_and_thread_count(|bk, threads| {
        let mut tape = Tape::new();
        let leaf = tape.constant(input.clone());
        let node = tape.sigmoid(&leaf);
        assert_same_slice(
            "sigmoid",
            bk,
            threads,
            &kernels::sigmoid(&input).data,
            &want,
        );
        assert_same_slice("tape", bk, threads, &tape.value(&node).data, &want);
    });
}

/// Softmax of one slice, written out on [`expf`].
fn softmax_reference(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = row.iter().map(|&x| expf(x - max)).collect();
    let mut sum = 0.0f32;
    for &e in &exps {
        sum += e;
    }
    let inv = 1.0 / sum;
    exps.iter().map(|&e| e * inv).collect()
}

/// Log-softmax of one slice, written out on [`expf`].
fn log_softmax_reference(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &x in row {
        sum += expf(x - max);
    }
    let lse = sum.ln() + max;
    row.iter().map(|&x| x - lse).collect()
}

#[test]
fn softmax_family_is_its_scalar_body_across_backends_and_threads() {
    // Rows of 19: two vector groups and a tail of three; enough rows for
    // three pool chunks. Far-below-max and −∞ (hard-masked) entries put
    // filtered lanes beside ordinary ones.
    let (rows, cols) = (2600, 19);
    let mut xs = ordinary_inputs(rows * cols);
    for (i, x) in xs.iter_mut().enumerate() {
        match i % 41 {
            0 => *x = f32::NEG_INFINITY,
            7 => *x -= 120.0,
            _ => {}
        }
    }
    let input = Tensor::from_vec(rows, cols, xs.clone());
    let soft: Vec<f32> = xs.chunks(cols).flat_map(softmax_reference).collect();
    let log_soft: Vec<f32> = xs.chunks(cols).flat_map(log_softmax_reference).collect();

    // The decoder's fused additive attention over ragged segments of
    // lengths 0..=17. With `v` one-hot on column 0 a segment's scores are
    // `tanh` of its `hk` rows' first column, and with key row `j` of every
    // segment one-hot on column `j` its context row is its softmax weights.
    let (lens, d) = ((0..3000).map(|i| i % 18).collect::<Vec<usize>>(), 19);
    let n = lens.iter().sum();
    let hk = Tensor::from_vec(n, d, ordinary_inputs(n * d));
    let (mut keys, mut ragged, mut segs, mut at) =
        (Tensor::zeros(n, 18), Vec::new(), Vec::new(), 0);
    for &l in &lens {
        let scores: Vec<f32> = (at..at + l)
            .map(|i| kernels::tanhf::tanhf(hk.data[i * d]))
            .collect();
        let mut row = softmax_reference(&scores);
        row.resize(18, 0.0);
        ragged.extend(row);
        (0..l).for_each(|j| keys.data[(at + j) * 18 + j] = 1.0);
        segs.push(at..at + l);
        at += l;
    }
    let mut v = Tensor::zeros(1, d);
    v.data[0] = 1.0;
    let gq = Tensor::zeros(lens.len(), d);

    // GAT edge segments: isolated nodes (no self-loop), one edge, > 8.
    let lists: Vec<Vec<usize>> = (0..4000)
        .map(|i| {
            (0..[0, 1, 3, 5, 9, 12][i % 6])
                .map(|k| (i + k) % 4000)
                .collect()
        })
        .collect();
    let csr = GraphCsr::from_neighbor_lists(&lists, false);
    let scores = Tensor::from_vec(csr.num_edges(), 1, ordinary_inputs(csr.num_edges()));
    let mut per_node = Vec::new();
    for i in 0..csr.num_nodes() {
        per_node.extend(softmax_reference(&scores.data[csr.segment(i)]));
    }

    for_each_backend_and_thread_count(|bk, threads| {
        let check = |what: &str, got: &Tensor, want: &[f32]| {
            assert_same_slice(what, bk, threads, &got.data, want)
        };
        check("softmax_rows", &kernels::softmax_rows(&input), &soft);
        check(
            "log_softmax_rows",
            &kernels::log_softmax_rows(&input),
            &log_soft,
        );
        check(
            "segmented_additive_attention",
            &kernels::segmented_additive_attention(&hk, &gq, &v, &keys, &segs),
            &ragged,
        );
        check(
            "segmented_softmax",
            &kernels::segmented_softmax(&scores, &csr),
            &per_node,
        );
    });
}

#[test]
fn fused_gate_is_its_scalar_body_across_backends_and_threads() {
    // Width 21 (two groups and a tail of five); points own 0, 1 and many
    // rows; enough rows for three pool chunks at four threads.
    let (points, d) = (400, 21);
    let row_to_point: Vec<usize> = (0..points)
        .flat_map(|p| std::iter::repeat_n(p, [0, 1, 7, 12][p % 4]))
        .collect();
    let n = row_to_point.len();
    assert!(n * d > 2 * 16 * 1024);
    let t = |rows: usize, phase: usize| {
        let data = ordinary_inputs(rows * d + phase).split_off(phase);
        Tensor::from_vec(rows, d, data)
    };
    let (a, tr, b, z, bz) = (t(points, 0), t(points, 5), t(n, 11), t(n, 17), t(1, 3));
    let mut want = Vec::with_capacity(n * d);
    for (r, &p) in row_to_point.iter().enumerate() {
        for j in 0..d {
            let s = (a.get(p, j) + b.get(r, j)) + bz.get(0, j);
            let g = 1.0 / (1.0 + expf(-s));
            let keep = -g + 1.0;
            want.push(g * tr.get(p, j) + keep * z.get(r, j));
        }
    }
    for_each_backend_and_thread_count(|bk, threads| {
        let got = kernels::gated_fusion(&a, &b, &bz, &tr, &z, &row_to_point);
        assert_eq!(got.shape(), (n, d));
        assert_same_slice("gated_fusion", bk, threads, &got.data, &want);
    });
}

/// Is the host's `f32::exp` the function the anchors were taken from?
fn host_expf_is_glibc_fma() -> bool {
    ANCHORS
        .iter()
        .all(|&(x, y)| std::hint::black_box(f32::from_bits(x)).exp().to_bits() == y)
}

/// Count a disagreement on `x`, printing the first few.
fn mismatch(count: &AtomicU64, what: &str, x: f32, got: f32, want: f32) {
    if count.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!(
            "{what}: exp({:#010x}) = {:#010x}, scalar {:#010x}",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }
}

/// All 2³² inputs: lanes ≡ scalar always; scalar ≡ host `f32::exp` when
/// the host reproduces the anchor table.
#[test]
#[ignore = "sweeps all 2^32 inputs: about half a minute in release"]
fn exhaustive_lanes_match_scalar_match_host() {
    let lanes = have_avx2();
    let host = host_expf_is_glibc_fma();
    if !host {
        eprintln!("NOTICE: host expf is not glibc's FMA form; the scalar ≡ host half is skipped");
    }
    const CHUNK: usize = 4096;
    const TOTAL: u64 = 1 << 32;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let per_worker = (TOTAL / CHUNK as u64).div_ceil(workers) * CHUNK as u64;
    let (lane_mismatches, host_mismatches) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (lane_mismatches, host_mismatches) = (&lane_mismatches, &host_mismatches);
            scope.spawn(move || {
                let mut out = vec![0.0f32; CHUNK];
                let end = ((w + 1) * per_worker).min(TOTAL);
                for base in (w * per_worker..end).step_by(CHUNK) {
                    let input = |i: usize| f32::from_bits((base + i as u64) as u32);
                    for (i, x) in out.iter_mut().enumerate() {
                        *x = input(i);
                    }
                    if lanes {
                        backend::with_backend(Backend::Avx2Fma, || kernels::exp_in_place(&mut out));
                    }
                    for (i, &got) in out.iter().enumerate() {
                        let x = input(i);
                        let want = expf(x);
                        if lanes && !same(got, want) {
                            mismatch(lane_mismatches, "lanes", x, got, want);
                        }
                        if host && !same(x.exp(), want) {
                            mismatch(host_mismatches, "host", x, x.exp(), want);
                        }
                    }
                }
            });
        }
    });
    let (l, h) = (
        lane_mismatches.load(Ordering::Relaxed),
        host_mismatches.load(Ordering::Relaxed),
    );
    eprintln!(
        "2^32 inputs on {workers} threads: lanes vs scalar {l} mismatches{}, scalar vs host {h} \
         mismatches{}",
        if lanes { "" } else { " (skipped)" },
        if host { "" } else { " (skipped)" }
    );
    assert_eq!((l, h), (0, 0));
}
