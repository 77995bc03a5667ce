//! Bit-level gates for the in-repo `tanhf` (`kernels::tanhf`).
//!
//! Three claims, each pinned bitwise (NaN ≡ NaN, nothing else is loose):
//!
//! 1. **lanes ≡ scalar** — the AVX2 body returns exactly what the scalar
//!    transcription [`tanhf`] returns: on every 257th bit pattern of the
//!    whole `f32` range, ±4 ULP around every branch threshold of `tanhf` /
//!    `expm1f` and around the `k` transitions 22|23 and 56|57, through
//!    every slice length 0..=17 (tail path) and through vectors that mix
//!    special and ordinary lanes (fallback path).
//! 2. **one kernel** — `kernels::tanh` is bit-identical under
//!    `Backend::Scalar` and `Backend::Avx2Fma`, at 1/2/4 threads on a
//!    tensor large enough to engage the pool, in place or not, and
//!    through the tape's `Exec::tanh`.
//! 3. **the transcription is glibc 2.36's `tanhf`** — a committed anchor
//!    table taken from the build box's `f32::tanh` keeps [`tanhf`] pinned
//!    on hosts whose libm differs.
//!
//! The `#[ignore]`d test at the bottom sweeps all 2³² inputs (about a
//! minute in release; CI runs it).

use std::sync::atomic::{AtomicU64, Ordering};

use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::kernels::tanhf::tanhf;
use rntrajrec_nn::{kernels, pool, Exec, Tape, Tensor};

/// `(x, tanh(x))` as bit patterns, `x > 0`, from `f32::tanh` on the build
/// box (glibc 2.36, whose `tanhf` is fdlibm's); `tanh(−x) = −tanh(x)`
/// held there for every row. At least two rows per branch of `tanhf` /
/// `expm1f`.
const ANCHORS: [(u32, u32); 47] = [
    // ±∞
    (0x7f800000, 0x3f800000),
    // ±0
    (0x00000000, 0x00000000),
    // |x| < 2⁻⁵⁵: x·(1 + x), subnormals included
    (0x00000001, 0x00000001),
    (0x00800000, 0x00800000),
    (0x1f0dabc6, 0x1f0dabc6),
    (0x23ffffff, 0x23ffffff),
    // |2x| < 2⁻²⁵: expm1f returns its argument
    (0x24000000, 0x24000000),
    (0x2b8cbccc, 0x2b8cbccc),
    (0x3089705f, 0x3089705f),
    (0x327084a7, 0x327084a7),
    // k = 0
    (0x3280d959, 0x3280d959),
    (0x38d1b717, 0x38d1b718),
    (0x3c23d70a, 0x3c23d5a4),
    (0x3dcccccd, 0x3dcc1ebc),
    (0x3e317216, 0x3e2fb0cb),
    // k = −1
    (0x3e317218, 0x3e2fb0cd),
    (0x3e800000, 0x3e7acbf5),
    (0x3ecccccd, 0x3ec288ac),
    (0x3f051591, 0x3ef486f8),
    // k ≤ −2
    (0x3f051593, 0x3ef486fb),
    (0x3f19999a, 0x3f097c15),
    (0x3f400000, 0x3f22991f),
    (0x3f666666, 0x3f375f4c),
    (0x3f7fffff, 0x3f42f7d5),
    // 2 ≤ k < 23
    (0x3f800000, 0x3f42f7d6),
    (0x3fc00000, 0x3f67b7cc),
    (0x40000000, 0x3f76ca83),
    (0x40490fdb, 0x3f7f0bb0),
    (0x40a00000, 0x3f7ffa0d),
    (0x40f947ae, 0x3f7ffffa),
    // 23 ≤ k ≤ 56
    (0x40f9eb85, 0x3f7ffffa),
    (0x41000000, 0x3f7ffffc),
    (0x41080000, 0x3f7fffff),
    (0x41100000, 0x3f7fffff),
    (0x41480000, 0x3f800000),
    (0x41880000, 0x3f800000),
    (0x419c0000, 0x3f800000),
    // k > 56
    (0x419ccccd, 0x3f800000),
    (0x41a40000, 0x3f800000),
    (0x41afffff, 0x3f800000),
    // |x| ≥ 22
    (0x41b00000, 0x3f800000),
    (0x42c80000, 0x3f800000),
    (0x7f7fffff, 0x3f800000),
    // ordinary values a decoder produces
    (0x3f000000, 0x3eec9a9f),
    (0x3f8ccccd, 0x3f4ced81),
    (0x40200000, 0x3f7c92c1),
    (0x40800000, 0x3f7fd40c),
];

const SIGN: u32 = 0x8000_0000;

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

/// Assert the AVX2 lanes reproduce the scalar transcription on `xs`.
fn assert_lanes_match_scalar(xs: &[f32]) {
    let lanes = backend::with_backend(Backend::Avx2Fma, || {
        kernels::tanh(&Tensor::row(xs.to_vec())).data
    });
    assert_eq!(lanes.len(), xs.len());
    for (&x, &got) in xs.iter().zip(&lanes) {
        let want = tanhf(x);
        assert!(
            same(got, want),
            "tanh({x:e}) [{:#010x}]: lanes {:#010x}, scalar {:#010x} (len {})",
            x.to_bits(),
            got.to_bits(),
            want.to_bits(),
            xs.len()
        );
    }
}

/// `expm1f`'s reduction index for the argument `2x`, `x ≥ 1`.
fn k_of(x: f32) -> i32 {
    (f32::from_bits(0x3fb8_aa3b) * (2.0 * x) + 0.5) as i32
}

/// Bit pattern of the smallest `x ≥ 1` whose reduction index reaches `k`.
fn first_x_with_k(k: i32) -> u32 {
    let (mut lo, mut hi) = (1.0f32.to_bits(), 22.0f32.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if k_of(f32::from_bits(mid)) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Every input within ±4 ULP of a place where `tanhf` changes branch,
/// both signs, plus the specials.
fn edge_inputs() -> Vec<f32> {
    // `expm1f` sees `2x`, so its thresholds sit one exponent step lower
    // in `x`.
    const HALVE: u32 = 0x0080_0000;
    let edges = [
        0x0000_0004,         // ±0 and the smallest subnormals
        0x0080_0000,         // subnormal | normal
        0x2400_0000,         // tanhf: 2⁻⁵⁵
        0x3f80_0000,         // tanhf: 1
        0x41b0_0000,         // tanhf: 22
        0x7f80_0000,         // finite | ∞ | NaN
        0x3300_0000 - HALVE, // expm1f: 2⁻²⁵
        0x3eb1_7218 - HALVE, // expm1f: 0.5·ln2
        0x3f85_1592 - HALVE, // expm1f: 1.5·ln2
        0x4195_b844 - HALVE, // expm1f: 27·ln2
        0x42b1_7218 - HALVE, // expm1f: overflow filter (saturated in tanhf)
        first_x_with_k(23),
        first_x_with_k(57),
    ];
    assert_eq!(k_of(f32::from_bits(edges[11] - 1)), 22);
    assert_eq!(k_of(f32::from_bits(edges[12] - 1)), 56);
    let mut xs = vec![f32::NAN, -f32::NAN, f32::from_bits(0x7fff_ffff)];
    for edge in edges {
        for bits in edge - 4..=edge + 4 {
            xs.push(f32::from_bits(bits));
            xs.push(f32::from_bits(bits | SIGN));
        }
    }
    xs
}

#[test]
fn transcription_reproduces_the_anchor_table() {
    for (x, y) in ANCHORS {
        for sign in [0, SIGN] {
            let got = tanhf(f32::from_bits(x | sign));
            assert_eq!(
                got.to_bits(),
                y | sign,
                "tanhf({:e}) [{:#010x}]",
                f32::from_bits(x | sign),
                x | sign
            );
        }
    }
    assert!(tanhf(f32::NAN).is_nan());
    assert!(tanhf(-f32::NAN).is_nan());
}

#[test]
fn lanes_match_scalar_on_every_257th_bit_pattern() {
    if !have_avx2() {
        return;
    }
    let mut xs = Vec::with_capacity(4096);
    let mut bits = 0u64;
    while bits <= u32::MAX as u64 {
        xs.push(f32::from_bits(bits as u32));
        bits += 257;
        if xs.len() == xs.capacity() || bits > u32::MAX as u64 {
            assert_lanes_match_scalar(&xs);
            xs.clear();
        }
    }
}

#[test]
fn lanes_match_scalar_at_every_branch_edge_tail_length_and_lane_mix() {
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
    // Special and ordinary lanes in one vector: stride through the edge
    // inputs and the anchors with steps coprime to 8.
    let mut pool: Vec<f32> = edges.clone();
    pool.extend(ANCHORS.iter().map(|&(x, _)| f32::from_bits(x)));
    pool.extend(ANCHORS.iter().map(|&(x, _)| f32::from_bits(x | SIGN)));
    for step in [3, 7, 11, 29] {
        let mixed: Vec<f32> = (0..pool.len())
            .map(|i| pool[i * step % pool.len()])
            .collect();
        assert_lanes_match_scalar(&mixed);
    }
}

#[test]
fn tanh_kernel_is_one_function_across_backends_threads_and_the_tape() {
    // Three pool chunks at four threads, none of them a multiple of 8 long.
    let (rows, cols) = (7023, 7);
    let n = rows * cols;
    assert!(n > 3 * 16 * 1024 && n % 8 != 0);
    let mut xs: Vec<f32> = (0..n)
        .map(|i| ((i as f32) * 0.618_034).sin() * (1.0 + (i % 23) as f32))
        .collect();
    for (slot, x) in xs.iter_mut().step_by(97).zip(edge_inputs()) {
        *slot = x;
    }
    let input = Tensor::from_vec(rows, cols, xs.clone());
    let want: Vec<f32> = xs.iter().map(|&x| tanhf(x)).collect();

    let mut bks = vec![Backend::Scalar];
    if have_avx2() {
        bks.push(Backend::Avx2Fma);
    }
    for bk in bks {
        for threads in [1, 2, 4] {
            pool::set_num_threads(threads);
            let (out, in_place, taped) = backend::with_backend(bk, || {
                let mut in_place = input.clone();
                kernels::tanh_in_place(&mut in_place);
                let mut tape = Tape::new();
                let leaf = tape.constant(input.clone());
                let node = tape.tanh(leaf);
                (kernels::tanh(&input), in_place, tape.value(&node).clone())
            });
            pool::set_num_threads(1);
            for (name, got) in [("tanh", &out), ("in place", &in_place), ("tape", &taped)] {
                assert_eq!(got.shape(), input.shape());
                for (i, (&g, &w)) in got.data.iter().zip(&want).enumerate() {
                    assert!(
                        same(g, w),
                        "{name} under {bk:?} at {threads} threads, element {i}: tanh({:e}) = \
                         {:#010x}, want {:#010x}",
                        xs[i],
                        g.to_bits(),
                        w.to_bits()
                    );
                }
            }
        }
    }
}

/// Is the host's `f32::tanh` the function the anchors were taken from?
fn host_tanhf_is_fdlibm() -> bool {
    ANCHORS.iter().all(|&(x, y)| {
        std::hint::black_box(f32::from_bits(x)).tanh().to_bits() == y
            && std::hint::black_box(f32::from_bits(x | SIGN))
                .tanh()
                .to_bits()
                == y | SIGN
    })
}

/// Count a disagreement on `x`, printing the first few.
fn mismatch(count: &AtomicU64, what: &str, x: f32, got: f32, want: f32) {
    if count.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!(
            "{what}: tanh({:#010x}) = {:#010x}, scalar {:#010x}",
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }
}

/// All 2³² inputs: lanes ≡ scalar always; scalar ≡ host `f32::tanh` when
/// the host reproduces the anchor table.
#[test]
#[ignore = "sweeps all 2^32 inputs: about a minute in release"]
fn exhaustive_lanes_match_scalar_match_host() {
    let lanes = have_avx2();
    let host = host_tanhf_is_fdlibm();
    if !host {
        eprintln!("NOTICE: host tanhf is not fdlibm's; the scalar ≡ host half is skipped");
    }
    const CHUNK: usize = 4096; // below the pool threshold: each worker stays on its thread
    const TOTAL: u64 = 1 << 32;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let per_worker = (TOTAL / CHUNK as u64).div_ceil(workers) * CHUNK as u64;
    let (lane_mismatches, host_mismatches) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (lane_mismatches, host_mismatches) = (&lane_mismatches, &host_mismatches);
            scope.spawn(move || {
                let mut out = Tensor::zeros(1, CHUNK);
                let end = ((w + 1) * per_worker).min(TOTAL);
                for base in (w * per_worker..end).step_by(CHUNK) {
                    let input = |i: usize| f32::from_bits((base + i as u64) as u32);
                    for (i, x) in out.data.iter_mut().enumerate() {
                        *x = input(i);
                    }
                    if lanes {
                        backend::with_backend(Backend::Avx2Fma, || {
                            kernels::tanh_in_place(&mut out)
                        });
                    }
                    for (i, &got) in out.data.iter().enumerate() {
                        let x = input(i);
                        let want = tanhf(x);
                        if lanes && !same(got, want) {
                            mismatch(lane_mismatches, "lanes", x, got, want);
                        }
                        if host && !same(x.tanh(), want) {
                            mismatch(host_mismatches, "host", x, x.tanh(), want);
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
