//! Serving throughput benchmark: requests/sec and p50/p99 latency of the
//! micro-batching engine across batch-size and worker-count settings, the
//! per-trajectory latency of tape-free inference versus the tape-based
//! `EndToEnd::predict`, a **city-scale intra-op thread sweep** (kernel
//! parallelism via `NN_THREADS` / `rntrajrec_nn::pool`), and the
//! matmul-invocation counts **before and after batched fusion** of both
//! halves of the model — every member decoded alone (N calls at B=1)
//! versus the batched call that stacks same-step states into one matmul
//! per head (`city_scale.decoder_fusion`), and the GPS-Former encoder pass
//! per member versus the stacked batched encoder with segment-scoped
//! GraphNorm (`city_scale.encoder_fusion`), both sides through the one
//! tape-free path — with batched ≡ sequential bit-identity
//! asserted for both — plus the **segment-head study**
//! (`city_scale.segment_head`): masked-column sparse head FLOPs versus the
//! dense head (bit-identical recovery asserted, ≥3× fewer head FLOPs gated
//! in `check_bench`), the scalar vs AVX2 kernel-backend wall and ULP
//! drift, and the int8-quantized head's end-to-end recovery drift — and
//! the **span-recorder overhead** on the traced batched path
//! (`city_scale.tracing`, gated ≤ 2% in `check_bench`) — and the
//! **open-loop bursty streaming load** (`open_loop_bursty`): seeded
//! compound-Poisson bursts against `POST /v2/recover/stream`, measuring
//! time-to-first-step under continuous batching versus the closed-batch
//! full-response latency (p99 TTFS < closed-batch p99 gated in
//! `check_bench`) — and the **two-shard isolation study** (`two_shard`):
//! concurrent traffic against a two-city [`ShardRouter`] while the beta
//! shard's model is hot-swapped twice from a packed artifact, gated on
//! zero failed/invalid responses and a loose cross-shard p99 ratio in
//! `check_bench`. Writes `results/BENCH_serve.json`.
//!
//! ```bash
//! cargo run --release -p rntrajrec-bench --bin serve_bench          # full
//! SCALE=quick cargo run --release -p rntrajrec-bench --bin serve_bench
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::wire::{v2, RecoverRequest, RecoverResponse};
use rntrajrec_bench::dump_json;
use rntrajrec_models::{BatchMember, FeatureExtractor, SampleInput, SegmentHead};
use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::{infer, kernels, pool};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_serve::http::client;
use rntrajrec_serve::{
    CityShard, EngineConfig, HttpConfig, HttpServer, QueryContext, RecoveryEngine, ServingModel,
    ShardRouter,
};
use rntrajrec_synth::{SimConfig, Simulator, TrajSample};

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let quick = matches!(std::env::var("SCALE").as_deref(), Ok("quick"));
    let (latency_reps, sweep_requests) = if quick { (4, 48) } else { (16, 240) };

    // Weights are untrained: latency is weight-independent (same note as
    // the Fig. 6 inference benchmark).
    let city = SyntheticCity::generate(CityConfig::tiny());
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(50.0);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let inputs: Vec<SampleInput> = (0..24)
        .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
        .collect();

    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, 7);

    println!("=== rntrajrec-serve throughput benchmark ===");
    println!(
        "city: {} segments; {} request templates; SCALE={}",
        city.net.num_segments(),
        inputs.len(),
        if quick { "quick" } else { "full" }
    );

    // --- 1. Per-trajectory latency: tape vs. tape-free -------------------
    let mut rng_pred = StdRng::seed_from_u64(11);
    let t = Instant::now();
    for _ in 0..latency_reps {
        for input in &inputs {
            std::hint::black_box(model.predict(input, &mut rng_pred));
        }
    }
    let tape_ms = t.elapsed().as_secs_f64() * 1000.0 / (latency_reps * inputs.len()) as f64;

    let t = Instant::now();
    let serving = Arc::new(ServingModel::new(model).expect("RNTrajRec serves"));
    let precompute_ms = t.elapsed().as_secs_f64() * 1000.0;

    let t = Instant::now();
    for _ in 0..latency_reps {
        for input in &inputs {
            std::hint::black_box(serving.recover(input));
        }
    }
    let tapefree_ms = t.elapsed().as_secs_f64() * 1000.0 / (latency_reps * inputs.len()) as f64;

    let speedup = tape_ms / tapefree_ms;
    println!("\n--- per-trajectory latency ---");
    println!("tape-based EndToEnd::predict : {tape_ms:9.3} ms");
    println!("tape-free ServingModel::recover: {tapefree_ms:7.3} ms  (x{speedup:.1} faster)");
    println!("one-time X_road precompute   : {precompute_ms:9.3} ms");

    // --- 2. Engine throughput sweep --------------------------------------
    println!("\n--- engine sweep ({sweep_requests} closed-loop requests, 8 clients) ---");
    println!(
        "{:>8} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "workers", "batch", "req/s", "p50 (ms)", "p99 (ms)", "mean batch"
    );
    let mut sweep = Vec::new();
    for &workers in &[1usize, 2, 4] {
        for &max_batch in &[1usize, 4, 8, 16] {
            let engine = RecoveryEngine::start(
                Arc::clone(&serving),
                EngineConfig {
                    max_batch,
                    max_delay: Duration::from_millis(2),
                    workers,
                    // Pin kernels to one thread: this sweep isolates
                    // worker/batch scaling from intra-op parallelism.
                    threads_per_worker: 1,
                    queue_capacity: None,
                    ..EngineConfig::default()
                },
            );
            let clients = 8usize;
            let per_client = sweep_requests / clients;
            let t = Instant::now();
            let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * per_client);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let engine = &engine;
                        let inputs = &inputs;
                        s.spawn(move || {
                            let mut ms = Vec::with_capacity(per_client);
                            for k in 0..per_client {
                                let input = inputs[(c + k) % inputs.len()].clone();
                                let r = engine.recover(input);
                                ms.push(r.latency.as_secs_f64() * 1000.0);
                            }
                            ms
                        })
                    })
                    .collect();
                for h in handles {
                    latencies_ms.extend(h.join().expect("client thread"));
                }
            });
            let wall = t.elapsed().as_secs_f64();
            let rps = latencies_ms.len() as f64 / wall;
            latencies_ms.sort_by(|a, b| a.total_cmp(b));
            let p50 = percentile(&latencies_ms, 0.50);
            let p99 = percentile(&latencies_ms, 0.99);
            let stats = engine.stats();
            println!(
                "{workers:>8} {max_batch:>7} {rps:>10.1} {p50:>10.3} {p99:>10.3} {:>10.2}",
                stats.mean_batch
            );
            sweep.push(serde_json::json!({
                "workers": workers,
                "max_batch": max_batch,
                "threads_per_worker": 1,
                "requests": latencies_ms.len(),
                "requests_per_sec": rps,
                "p50_ms": p50,
                "p99_ms": p99,
                "mean_batch": stats.mean_batch,
                "flushed_full": stats.flushed_full,
                "flushed_deadline": stats.flushed_deadline,
            }));
        }
    }

    // --- 3. City-scale intra-op thread sweep ------------------------------
    // A larger road network and hidden size, where the per-request hot
    // path (decoder `[1,d]×[d,|V|]` logits, GAT aggregation, GridGNN
    // precompute) has enough work for kernel-level parallelism to pay.
    let (blocks, big_dim, city_reps) = if quick { (8, 32, 2) } else { (14, 64, 8) };
    let big_city = SyntheticCity::generate(CityConfig {
        blocks_x: blocks,
        blocks_y: blocks,
        ..CityConfig::default()
    });
    let big_rtree = RTree::build(&big_city.net);
    let big_grid = big_city.net.grid(50.0);
    let big_fx = FeatureExtractor::new(&big_city.net, &big_rtree, big_grid);
    let mut big_sim = Simulator::new(&big_city.net, SimConfig::default());
    let mut big_rng = StdRng::seed_from_u64(17);
    let big_inputs: Vec<SampleInput> = (0..12)
        .map(|_| big_fx.extract(&big_sim.sample(&mut big_rng, 8)))
        .collect();
    let big_model = EndToEnd::build(&MethodSpec::RnTrajRec, &big_city.net, &big_grid, big_dim, 7);

    // 3a. Decoder-step matmul invocations per request (fusion baseline:
    // every member decoded alone, N calls at B=1 through the one fused
    // path).
    let road = big_model.precompute_road().expect("RNTrajRec precomputes");
    let big_refs: Vec<&SampleInput> = big_inputs.iter().collect();
    let encode_seq = || -> Vec<_> {
        big_refs
            .iter()
            .map(|&input| {
                big_model
                    .encoder
                    .infer_batch(&big_model.store, &[input], Some(&road))
                    .expect("infer path")
                    .remove(0)
            })
            .collect()
    };
    let encs = encode_seq();
    let members: Vec<BatchMember> = encs
        .iter()
        .zip(&big_inputs)
        .map(|(enc, sample)| BatchMember {
            per_point: &enc.per_point,
            traj: &enc.traj,
            sample,
        })
        .collect();
    let decode_batch = |members: &[BatchMember]| {
        big_model
            .decoder
            .recover_batch_infer_with(&big_model.store, members, SegmentHead::Sparse)
    };
    let decode_seq = || -> Vec<Vec<(usize, f32)>> {
        members
            .iter()
            .map(|m| decode_batch(std::slice::from_ref(m)).remove(0))
            .collect()
    };

    let prof = kernels::profile_scope("decoder_sequential");
    let sequential = decode_seq();
    let seq_matmuls = prof.finish().matmuls;
    let decoder_steps: usize = big_inputs.iter().map(|i| i.target_len()).sum();
    // Lock-step depth of the fused decode: the longest member.
    let batch_steps = big_inputs.iter().map(|i| i.target_len()).max().unwrap_or(0);
    let matmuls_per_request = seq_matmuls as f64 / big_inputs.len() as f64;
    let steps_per_request = decoder_steps as f64 / big_inputs.len() as f64;
    let matmuls_per_step = seq_matmuls as f64 / decoder_steps.max(1) as f64;

    // 3b. Fused batched decode: one stacked matmul per head per step for
    // the whole micro-batch, bit-identical to the sequential loop.
    let prof = kernels::profile_scope("decoder_batched");
    let batched = decode_batch(&members);
    let fused_matmuls = prof.finish().matmuls;
    assert_eq!(
        batched, sequential,
        "fused batched decode diverged from sequential recovery"
    );
    let seq_per_batch_step = seq_matmuls as f64 / batch_steps.max(1) as f64;
    let fused_per_batch_step = fused_matmuls as f64 / batch_steps.max(1) as f64;
    assert!(
        fused_per_batch_step <= 12.0,
        "fused decode should run ~one matmul per head per step, got {fused_per_batch_step:.1}"
    );

    let fusion_reps = if quick { 3 } else { 10 };
    let t = Instant::now();
    for _ in 0..fusion_reps {
        std::hint::black_box(decode_seq());
    }
    let seq_decode_ms =
        t.elapsed().as_secs_f64() * 1000.0 / (fusion_reps * big_inputs.len()) as f64;
    let t = Instant::now();
    for _ in 0..fusion_reps {
        std::hint::black_box(decode_batch(&members));
    }
    let fused_decode_ms =
        t.elapsed().as_secs_f64() * 1000.0 / (fusion_reps * big_inputs.len()) as f64;
    let fusion_speedup = seq_decode_ms / fused_decode_ms;

    // 3c. Encoder fusion: the GPS-Former pass per member (N calls at B=1)
    // versus one fused batched pass (`TrajEncoder::infer_batch`) — every
    // Linear/attention projection one stacked matmul for the whole batch,
    // GraphNorm statistics scoped per member so results stay
    // bit-identical.
    let prof = kernels::profile_scope("encoder_sequential");
    let enc_sequential = encode_seq();
    let enc_seq_matmuls = prof.finish().matmuls;
    let prof = kernels::profile_scope("encoder_batched");
    let enc_batched = big_model
        .encoder
        .infer_batch(&big_model.store, &big_refs, Some(&road))
        .expect("infer path");
    let enc_fused_matmuls = prof.finish().matmuls;
    for (i, (got, want)) in enc_batched.iter().zip(&enc_sequential).enumerate() {
        assert_eq!(
            got.per_point.data, want.per_point.data,
            "fused batched encoder diverged from per-member encoding (member {i})"
        );
        assert_eq!(got.traj.data, want.traj.data, "traj diverged (member {i})");
    }
    let enc_matmul_ratio = enc_seq_matmuls as f64 / enc_fused_matmuls.max(1) as f64;
    assert!(
        enc_matmul_ratio >= 4.0,
        "encoder fusion should collapse per-member/per-point projections into \
         stacked calls (got {enc_seq_matmuls} -> {enc_fused_matmuls})"
    );

    let t = Instant::now();
    for _ in 0..fusion_reps {
        std::hint::black_box(encode_seq());
    }
    let seq_encode_ms =
        t.elapsed().as_secs_f64() * 1000.0 / (fusion_reps * big_inputs.len()) as f64;
    let t = Instant::now();
    for _ in 0..fusion_reps {
        std::hint::black_box(
            big_model
                .encoder
                .infer_batch(&big_model.store, &big_refs, Some(&road))
                .expect("infer path"),
        );
    }
    let fused_encode_ms =
        t.elapsed().as_secs_f64() * 1000.0 / (fusion_reps * big_inputs.len()) as f64;
    let enc_speedup = seq_encode_ms / fused_encode_ms;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n--- city-scale intra-op thread sweep ({} segments, d={big_dim}, {cores} core(s)) ---",
        big_city.net.num_segments()
    );
    println!(
        "decoder fusion baseline: {matmuls_per_request:.1} matmuls/request over {steps_per_request:.1} steps ({matmuls_per_step:.1} matmuls/decoder step)"
    );
    println!(
        "decoder fusion (B={}): {seq_per_batch_step:.1} -> {fused_per_batch_step:.1} matmuls/decoder step; decode {seq_decode_ms:.3} -> {fused_decode_ms:.3} ms/request (x{fusion_speedup:.1})",
        big_inputs.len()
    );
    println!(
        "encoder fusion (B={}): {enc_seq_matmuls} -> {enc_fused_matmuls} matmuls/batch (x{enc_matmul_ratio:.1}); encode {seq_encode_ms:.3} -> {fused_encode_ms:.3} ms/request (x{enc_speedup:.1}, bit-identical asserted)",
        big_inputs.len()
    );

    // 3d. Segment head: masked-column sparse head vs the dense head, the
    // scalar/AVX2 kernel backends, and the int8-quantized head — all over
    // the same fused batched decode at city scale.
    //
    // FLOP attribution is exact: the two decodes share every non-head
    // kernel call bit-for-bit (outputs are asserted identical), so the
    // profiled FLOP difference is exactly the head FLOPs the sparse path
    // skips. The dense head is one `[B_t,d]x[d,|V|]` matmul per lock-step
    // step, `2·d·|V|` FLOPs per (member, step) in total.
    let n_segments = big_city.net.num_segments();
    let member_steps: u64 = big_inputs.iter().map(|i| i.target_len() as u64).sum();
    let prof = kernels::profile_scope("segment_head_dense");
    let dense_paths =
        big_model
            .decoder
            .recover_batch_infer_with(&big_model.store, &members, SegmentHead::Dense);
    let dense_prof = prof.finish();
    let prof = kernels::profile_scope("segment_head_sparse");
    let sparse_paths = decode_batch(&members);
    let sparse_prof = prof.finish();
    assert_eq!(
        dense_paths, sparse_paths,
        "sparse segment head changed recovery output"
    );
    let head_dense_flops = 2 * big_dim as u64 * n_segments as u64 * member_steps;
    assert!(
        dense_prof.flops >= sparse_prof.flops
            && dense_prof.flops - sparse_prof.flops <= head_dense_flops,
        "FLOP attribution inconsistent: dense decode {} vs sparse decode {} (head <= {head_dense_flops})",
        dense_prof.flops,
        sparse_prof.flops
    );
    let head_sparse_flops = head_dense_flops - (dense_prof.flops - sparse_prof.flops);
    let head_flop_reduction = head_dense_flops as f64 / head_sparse_flops.max(1) as f64;
    let skip_ratio = 1.0 - head_sparse_flops as f64 / head_dense_flops as f64;
    println!(
        "segment head (B={}, |V|={n_segments}): dense {head_dense_flops} -> sparse {head_sparse_flops} head FLOPs \
         over {member_steps} member-steps (x{head_flop_reduction:.1} fewer, {:.1}% of columns skipped, bit-identical recovery asserted)",
        big_inputs.len(),
        skip_ratio * 100.0
    );

    // Backend sweep over the sparse-head batched decode: wall per decode
    // and profiled FLOPs/step per backend (identical by construction —
    // backends change instruction selection, not the work counted).
    let avx2_supported = backend::is_supported(Backend::Avx2Fma);
    let time_backend = |bk: Backend| {
        backend::with_backend(bk, || {
            std::hint::black_box(decode_batch(&members)); // warm
            let prof = kernels::profile_scope("segment_head_backend");
            for _ in 0..fusion_reps {
                std::hint::black_box(decode_batch(&members));
            }
            let p = prof.finish();
            (
                p.wall.as_secs_f64() * 1000.0 / fusion_reps as f64,
                p.flops as f64 / fusion_reps as f64 / member_steps.max(1) as f64,
            )
        })
    };
    let (scalar_ms, scalar_flops_per_step) = time_backend(Backend::Scalar);
    let avx2 = avx2_supported.then(|| time_backend(Backend::Avx2Fma));

    // Cross-backend numeric drift on a representative city-scale matmul
    // (`[B,d]·[|V|,d]^T` scores against the road embedding): max ULP
    // distance, ignoring cancellation-dominated elements that agree
    // within 1e-4 absolute.
    let max_ulp = avx2_supported.then(|| {
        let trajs: Vec<&rntrajrec_nn::Tensor> = members.iter().map(|m| m.traj).collect();
        let h0 = infer::concat_rows(&trajs);
        let scores = |bk| backend::with_backend(bk, || infer::matmul_nt(&h0, &road));
        let want = scores(Backend::Scalar);
        let got = scores(Backend::Avx2Fma);
        let key = |x: f32| {
            let b = x.to_bits() as i32;
            if b < 0 {
                i64::from(i32::MIN) - i64::from(b)
            } else {
                i64::from(b)
            }
        };
        want.data
            .iter()
            .zip(&got.data)
            .filter(|(w, g)| (*w - *g).abs() > 1e-4)
            .map(|(&w, &g)| key(w).abs_diff(key(g)))
            .max()
            .unwrap_or(0)
    });
    match (avx2, max_ulp) {
        (Some((avx2_ms, _)), Some(ulp)) => println!(
            "segment head backends: scalar {scalar_ms:.3} ms/decode, avx2 {avx2_ms:.3} ms/decode \
             (x{:.2}); max cross-backend ULP {ulp} on [B,d]x[|V|,d]^T scores",
            scalar_ms / avx2_ms
        ),
        _ => println!(
            "segment head backends: scalar {scalar_ms:.3} ms/decode; AVX2+FMA not supported on \
             this host — backend comparison skipped"
        ),
    }

    // Int8 head: per-channel weight quantization, i32 accumulation,
    // dequantized epilogue. Drift is measured end-to-end on recovery
    // outputs against the f32 sparse head.
    let q = big_model.decoder.quantized_segment_head(&big_model.store);
    let prof = kernels::profile_scope("segment_head_quant");
    let quant_paths = big_model.decoder.recover_batch_infer_with(
        &big_model.store,
        &members,
        SegmentHead::Quantized(&q),
    );
    let quant_prof = prof.finish();
    let t = Instant::now();
    for _ in 0..fusion_reps {
        std::hint::black_box(big_model.decoder.recover_batch_infer_with(
            &big_model.store,
            &members,
            SegmentHead::Quantized(&q),
        ));
    }
    let quant_ms = t.elapsed().as_secs_f64() * 1000.0 / fusion_reps as f64;
    let total_positions: usize = sparse_paths.iter().map(Vec::len).sum();
    let mut seg_agree = 0usize;
    let mut max_rate_drift = 0.0f64;
    for (qp, fp) in quant_paths.iter().zip(&sparse_paths) {
        assert_eq!(qp.len(), fp.len(), "quantized head changed path length");
        for ((qs, qr), (fs, fr)) in qp.iter().zip(fp) {
            if qs == fs {
                seg_agree += 1;
            }
            max_rate_drift = max_rate_drift.max((f64::from(*qr) - f64::from(*fr)).abs());
        }
    }
    let segment_agreement = seg_agree as f64 / total_positions.max(1) as f64;
    println!(
        "segment head int8: {quant_ms:.3} ms/decode, segment agreement {:.1}% over {total_positions} \
         positions, max rate drift {max_rate_drift:.4}",
        segment_agreement * 100.0
    );

    let segment_head_backends = serde_json::json!({
        "active_default": backend::active_name(),
        "avx2_supported": avx2_supported,
        "scalar_decode_ms": scalar_ms,
        "scalar_flops_per_step": scalar_flops_per_step,
        "avx2_decode_ms": avx2.map(|(ms, _)| ms),
        "avx2_flops_per_step": avx2.map(|(_, f)| f),
        "scalar_vs_avx2_speedup": avx2.map(|(ms, _)| scalar_ms / ms),
        "max_ulp_vs_scalar": max_ulp,
    });
    let segment_head_quant = serde_json::json!({
        "decode_ms": quant_ms,
        "flops": quant_prof.flops,
        "segment_agreement": segment_agreement,
        "max_rate_drift": max_rate_drift,
        "positions": total_positions,
    });
    let segment_head = serde_json::json!({
        "batch": big_inputs.len(),
        "segments": n_segments,
        "member_steps": member_steps,
        "head_dense_flops": head_dense_flops,
        "head_sparse_flops": head_sparse_flops,
        "flop_reduction": head_flop_reduction,
        "masked_col_skip_ratio": skip_ratio,
        "flops_per_step_dense": head_dense_flops as f64 / member_steps.max(1) as f64,
        "flops_per_step_sparse": head_sparse_flops as f64 / member_steps.max(1) as f64,
        "bit_identical": true,
        "backends": segment_head_backends,
        "quant": segment_head_quant,
    });

    // 3b. Single-request recovery latency at 1/2/4 intra-op threads.
    let big_serving = Arc::new(ServingModel::new(big_model).expect("RNTrajRec serves"));
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "threads", "recover (ms)", "precompute(ms)", "speedup"
    );
    let mut intra_sweep = Vec::new();
    let mut base_ms = 0.0f64;
    let mut reference: Option<Vec<Vec<(usize, f32)>>> = None;
    for &threads in &[1usize, 2, 4] {
        pool::set_num_threads(threads);
        // Warm the pool (thread spawn, first-touch) outside the timing.
        let _ = big_serving.recover(&big_inputs[0]);
        let t = Instant::now();
        for _ in 0..city_reps {
            for input in &big_inputs {
                std::hint::black_box(big_serving.recover(input));
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1000.0 / (city_reps * big_inputs.len()) as f64;
        let t = Instant::now();
        let xroad = big_serving.model().precompute_road().expect("precompute");
        let pre_ms = t.elapsed().as_secs_f64() * 1000.0;
        std::hint::black_box(xroad);
        if threads == 1 {
            base_ms = ms;
        }
        let thread_speedup = base_ms / ms;
        println!("{threads:>10} {ms:>14.3} {pre_ms:>14.3} {thread_speedup:>9.2}x");
        // Determinism spot-check: recoveries must be bit-identical to the
        // 1-thread reference.
        let outputs: Vec<Vec<(usize, f32)>> =
            big_inputs.iter().map(|i| big_serving.recover(i)).collect();
        match &reference {
            None => reference = Some(outputs),
            Some(want) => assert_eq!(want, &outputs, "thread count changed results"),
        }
        intra_sweep.push(serde_json::json!({
            "threads": threads,
            "recover_ms": ms,
            "road_precompute_ms": pre_ms,
            "speedup_vs_1_thread": thread_speedup,
        }));
    }
    pool::set_num_threads(1);
    if cores < 4 {
        println!(
            "(note: only {cores} core(s) visible — thread-scaling numbers are not meaningful here)"
        );
    }

    // --- 3c'. Tracing overhead on the batched city-scale path -----------
    // The observability acceptance bar: span recording enabled vs disabled
    // on the fused batched recovery. Trials alternate the two settings and
    // take the minimum of each (robust to scheduler noise on shared CI
    // hosts); the gate in `check_bench` is overhead ≤ 2%.
    // The gated number is the recorder's *marginal cost per batch*
    // relative to batch time: count the spans and kernel events one
    // traced batch records, microbenchmark the per-operation recorder
    // cost in tight loops (stable to a few percent of microseconds even
    // on a noisy runner), and divide by the batch wall time. A direct
    // enabled-vs-disabled A/B of ~20ms windows cannot resolve a 2% gate
    // on a shared 1-core runner — adjacent-window noise alone spans
    // several percent and preemption spikes reach +30% — so the A/B
    // numbers below are reported for context, not gated.
    let overhead_trials = if quick { 8 } else { 16 };
    let batch_refs: Vec<&SampleInput> = big_inputs.iter().collect();
    let _ = std::hint::black_box(big_serving.recover_batch(&batch_refs)); // warm

    // 1) Recorder operations per traced batch.
    rntrajrec_obs::clear();
    rntrajrec_obs::set_enabled(true);
    let prof = kernels::profile_scope("tracing_overhead_count");
    std::hint::black_box(big_serving.recover_batch(&batch_refs));
    let batch_kernels = prof.finish();
    rntrajrec_obs::set_enabled(false);
    let spans_per_batch = rntrajrec_obs::drain().len() as u64;
    let events_per_batch = batch_kernels.matmuls;

    // 2) Per-operation recorder cost (min of repeated tight loops; every
    // probe span is a root, so each close also pays a store flush —
    // an overestimate of the nested-span common case, which is fine on
    // the conservative side of a <2% gate).
    rntrajrec_obs::set_enabled(true);
    let probe_reps: u32 = 20_000;
    let span_ns = (0..3)
        .map(|_| {
            let t = Instant::now();
            for i in 0..probe_reps {
                let _ =
                    std::hint::black_box(rntrajrec_obs::span_indexed("tracing_overhead_probe", i));
            }
            rntrajrec_obs::clear();
            t.elapsed().as_nanos() as f64 / probe_reps as f64
        })
        .fold(f64::INFINITY, f64::min);
    let event_ns = (0..3)
        .map(|_| {
            let outer = rntrajrec_obs::span("tracing_overhead_probe_outer");
            let t = Instant::now();
            for _ in 0..probe_reps {
                rntrajrec_obs::kernel_event(1, 1024);
            }
            let ns = t.elapsed().as_nanos() as f64 / probe_reps as f64;
            drop(outer);
            rntrajrec_obs::clear();
            ns
        })
        .fold(f64::INFINITY, f64::min);
    rntrajrec_obs::set_enabled(false);

    // 3) Context: direct A/B windows (informational only, see above).
    let measure = |on: bool| {
        rntrajrec_obs::set_enabled(on);
        let t = Instant::now();
        std::hint::black_box(big_serving.recover_batch(&batch_refs));
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        rntrajrec_obs::set_enabled(false);
        if on {
            rntrajrec_obs::clear();
        }
        ms
    };
    let mut disabled_ms = Vec::with_capacity(overhead_trials);
    let mut enabled_ms = Vec::with_capacity(overhead_trials);
    for trial in 0..overhead_trials {
        if trial % 2 == 0 {
            disabled_ms.push(measure(false));
            enabled_ms.push(measure(true));
        } else {
            enabled_ms.push(measure(true));
            disabled_ms.push(measure(false));
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.total_cmp(b));
        let n = xs.len();
        if n.is_multiple_of(2) {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        } else {
            xs[n / 2]
        }
    };
    let disabled_med = median(&mut disabled_ms);
    let enabled_med = median(&mut enabled_ms);

    let recorder_ns_per_batch =
        spans_per_batch as f64 * span_ns + events_per_batch as f64 * event_ns;
    let tracing_overhead_pct = recorder_ns_per_batch / (disabled_med * 1e6) * 100.0;
    println!(
        "tracing overhead (B={}): {spans_per_batch} spans x {span_ns:.0} ns + {events_per_batch} \
         kernel events x {event_ns:.0} ns = {:.1} us/batch over {disabled_med:.3} ms \
         ({tracing_overhead_pct:.3}%); A/B medians {disabled_med:.3} ms off / {enabled_med:.3} ms on",
        batch_refs.len(),
        recorder_ns_per_batch / 1000.0,
    );
    let tracing = serde_json::json!({
        "batch": batch_refs.len(),
        "spans_per_batch": spans_per_batch,
        "kernel_events_per_batch": events_per_batch,
        "span_ns": span_ns,
        "kernel_event_ns": event_ns,
        "recorder_us_per_batch": recorder_ns_per_batch / 1000.0,
        "disabled_ms": disabled_med,
        "enabled_ms": enabled_med,
        "overhead_pct": tracing_overhead_pct,
    });

    // --- 3c''. Chaos fault-point overhead, disarmed ----------------------
    // The resilience acceptance bar: every fault point costs one relaxed
    // atomic load when chaos is off, and that must stay invisible on the
    // hot path. Same estimator shape as the tracing gate above (a direct
    // A/B cannot resolve ≤2% on a shared runner): the hottest point is
    // `kernel.dispatch` — one evaluation per matmul — so the marginal
    // cost is matmuls/batch × the microbenchmarked disarmed-point cost,
    // over the batch wall time. Gated ≤ 2% absolute in `check_bench`.
    rntrajrec_chaos::disarm();
    let chaos_point_ns = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..probe_reps {
                std::hint::black_box(rntrajrec_chaos::point("kernel.dispatch")).ok();
            }
            t.elapsed().as_nanos() as f64 / probe_reps as f64
        })
        .fold(f64::INFINITY, f64::min);
    let chaos_ns_per_batch = events_per_batch as f64 * chaos_point_ns;
    let chaos_overhead_pct = chaos_ns_per_batch / (disabled_med * 1e6) * 100.0;
    println!(
        "chaos-off overhead (B={}): {events_per_batch} point evals x {chaos_point_ns:.2} ns = \
         {:.1} us/batch over {disabled_med:.3} ms ({chaos_overhead_pct:.3}%)",
        batch_refs.len(),
        chaos_ns_per_batch / 1000.0,
    );
    let chaos = serde_json::json!({
        "batch": batch_refs.len(),
        "point_evals_per_batch": events_per_batch,
        "point_ns": chaos_point_ns,
        "disarmed_us_per_batch": chaos_ns_per_batch / 1000.0,
        "overhead_pct": chaos_overhead_pct,
    });

    // --- 4. HTTP round-trip: network-layer overhead vs in-process --------
    // The same wire requests through (a) the in-process engine dispatch
    // and (b) a real TCP socket + HTTP parse + JSON round-trip, with
    // bit-identity asserted between the two. The spread is the cost of
    // the network front-end itself.
    let (http_reqs_n, http_reps) = if quick { (16, 1) } else { (64, 3) };
    let http_city = SyntheticCity::generate(CityConfig::tiny());
    let http_grid = http_city.net.grid(50.0);
    let http_model = EndToEnd::build(&MethodSpec::RnTrajRec, &http_city.net, &http_grid, 16, 7);
    let http_serving = Arc::new(ServingModel::new(http_model).expect("RNTrajRec serves"));
    let mut http_sim = Simulator::new(&http_city.net, SimConfig::default());
    let mut http_rng = StdRng::seed_from_u64(29);
    let samples: Vec<TrajSample> = (0..http_reqs_n)
        .map(|_| http_sim.sample(&mut http_rng, 8))
        .collect();
    let wire_reqs: Vec<String> = samples
        .iter()
        .map(|s| {
            let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
            serde_json::to_string(&req).expect("request serializes")
        })
        .collect();
    let ctx = Arc::new(QueryContext::new(http_city.net, 50.0));
    let http_engine = Arc::new(RecoveryEngine::start(
        Arc::clone(&http_serving),
        EngineConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            workers: 2,
            threads_per_worker: 1,
            queue_capacity: Some(256),
            ..EngineConfig::default()
        },
    ));
    let server = HttpServer::start(
        Arc::clone(&http_engine),
        Arc::clone(&ctx),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            ..HttpConfig::default()
        },
        None,
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut inproc_ms: Vec<f64> = Vec::with_capacity(http_reps * http_reqs_n);
    let mut http_ms: Vec<f64> = Vec::with_capacity(http_reps * http_reqs_n);
    for rep in 0..http_reps {
        for (i, body) in wire_reqs.iter().enumerate() {
            let req = RecoverRequest::from_json(body).expect("round-trips");
            let t = Instant::now();
            let want = http_engine
                .recover(ctx.sample_input(&req).expect("valid request"))
                .path;
            inproc_ms.push(t.elapsed().as_secs_f64() * 1000.0);

            let t = Instant::now();
            // The retrying client (capped exp backoff + jitter honoring
            // Retry-After) — no retry fires on this unloaded server, so
            // the latency sample is still a single round-trip.
            let resp = client::request_with_retry(
                addr,
                "POST",
                "/v1/recover",
                Some(body),
                &client::RetryPolicy::default(),
            )
            .expect("http roundtrip");
            http_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(resp.status, 200, "recover failed: {}", resp.body);
            let parsed = RecoverResponse::from_json(&resp.body).expect("well-formed");
            assert_eq!(
                parsed.path(),
                want,
                "HTTP recovery diverged from in-process dispatch (rep {rep}, request {i})"
            );
        }
    }
    server.shutdown();
    inproc_ms.sort_by(|a, b| a.total_cmp(b));
    http_ms.sort_by(|a, b| a.total_cmp(b));
    let inproc_p50 = percentile(&inproc_ms, 0.50);
    let inproc_p99 = percentile(&inproc_ms, 0.99);
    let http_p50 = percentile(&http_ms, 0.50);
    let http_p99 = percentile(&http_ms, 0.99);
    println!(
        "\n--- HTTP round-trip ({} requests, closed loop) ---",
        http_ms.len()
    );
    println!("in-process dispatch : p50 {inproc_p50:8.3} ms   p99 {inproc_p99:8.3} ms");
    println!("HTTP (TCP + JSON)   : p50 {http_p50:8.3} ms   p99 {http_p99:8.3} ms");
    println!(
        "network overhead    : p50 {:+8.3} ms  (bit-identical results asserted)",
        http_p50 - inproc_p50
    );
    let http_roundtrip = serde_json::json!({
        "requests": http_ms.len(),
        "inprocess_p50_ms": inproc_p50,
        "inprocess_p99_ms": inproc_p99,
        "http_p50_ms": http_p50,
        "http_p99_ms": http_p99,
        "network_overhead_p50_ms": http_p50 - inproc_p50,
        "bit_identical": true,
    });

    // --- 5. Open-loop bursty streaming load: time-to-first-step ----------
    // Compound-Poisson bursts (an exponential gap, then 1..=burst_max
    // requests with a few ms of intra-burst jitter) against the
    // city-scale model. Within a burst the arrivals are open loop —
    // clients fire on the seeded schedule and do NOT wait for earlier
    // completions — so followers land while the leader's batch is
    // decoding: the mid-decode admission window. Every streaming client
    // opens `POST /v2/recover/stream` and timestamps its first chunk —
    // time-to-first-step (TTFS). Each burst replays on the identical
    // schedule against a closed-batch engine (`continuous: false`,
    // buffered `POST /v2/recover`), where nothing arrives before the
    // full response. The replays run back to back per burst, with a
    // drain barrier in between, so CPU-contention spikes on a shared CI
    // core land on both engines symmetrically instead of on whichever
    // engine a free-running schedule happened to hit. `check_bench`
    // gates streamed p99 TTFS under bursts below the closed-batch
    // full-response p99 — the latency claim continuous batching exists
    // to make.
    let (burst_count, burst_max) = if quick {
        (20usize, 4usize)
    } else {
        (48usize, 4usize)
    };
    let mut load_rng = StdRng::seed_from_u64(71);
    // (pre-burst idle gap, per-member arrival offsets within the burst)
    let bursts: Vec<(Duration, Vec<Duration>)> = (0..burst_count)
        .map(|_| {
            let u: f64 = load_rng.gen_range(f64::EPSILON..1.0);
            let gap = Duration::from_secs_f64(-u.ln() / 50.0);
            let k = load_rng.gen_range(1..=burst_max);
            let mut offsets = vec![Duration::ZERO];
            for _ in 1..k {
                offsets.push(Duration::from_secs_f64(load_rng.gen_range(0.001..0.008)));
            }
            (gap, offsets)
        })
        .collect();
    let n_load: usize = bursts.iter().map(|(_, o)| o.len()).sum();
    // Much longer trajectories than the fusion study (256 decode steps vs
    // 33): the decode phase is the admission window, and it is also what
    // a closed-batch newcomer has to sit out in full — with a sub-ms
    // decode, burst followers land between batches and both engines
    // behave identically.
    let load_samples: Vec<TrajSample> = {
        let mut load_sim = Simulator::new(
            &big_city.net,
            SimConfig {
                target_len: 256,
                ..SimConfig::default()
            },
        );
        let mut sample_rng = StdRng::seed_from_u64(43);
        (0..16)
            .map(|_| load_sim.sample(&mut sample_rng, 8))
            .collect()
    };
    let load_reqs: Vec<String> = load_samples
        .iter()
        .map(|s| {
            let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
            serde_json::to_string(&req).expect("request serializes")
        })
        .collect();
    let load_ctx = Arc::new(QueryContext::new(big_city.net, 50.0));
    // Expected per-request paths: the engines are deterministic, so
    // concurrent admission (mid-decode or not) must not change answers.
    let want_paths: Vec<Vec<(usize, f32)>> = load_reqs
        .iter()
        .map(|body| {
            let req = RecoverRequest::from_json(body).expect("round-trips");
            big_serving.recover(&load_ctx.sample_input(&req).expect("valid request"))
        })
        .collect();

    // One worker on purpose: a burst's followers then contend with the
    // leader's running batch instead of draining to an idle worker — the
    // closed engine makes them sit out the whole decode, the continuous
    // one splices them in between steps. max_batch is comfortably above
    // the largest burst so admission never hits the room ceiling.
    let load_engine = |continuous: bool| {
        Arc::new(RecoveryEngine::start(
            Arc::clone(&big_serving),
            EngineConfig {
                max_batch: 16,
                max_delay: Duration::from_millis(2),
                workers: 1,
                threads_per_worker: 1,
                queue_capacity: None,
                continuous,
                ..EngineConfig::default()
            },
        ))
    };
    let start_server = |engine: &Arc<RecoveryEngine>| {
        HttpServer::start(
            Arc::clone(engine),
            Arc::clone(&load_ctx),
            HttpConfig {
                addr: "127.0.0.1:0".to_string(),
                ..HttpConfig::default()
            },
            None,
        )
        .expect("bind ephemeral port")
    };
    let stream_engine = load_engine(true);
    let closed_engine = load_engine(false);
    let stream_server = start_server(&stream_engine);
    let closed_server = start_server(&closed_engine);

    let mut stream_ttfs: Vec<f64> = Vec::with_capacity(n_load);
    let mut stream_total: Vec<f64> = Vec::with_capacity(n_load);
    let mut closed_total: Vec<f64> = Vec::with_capacity(n_load);
    for (e, (gap, offsets)) in bursts.iter().enumerate() {
        std::thread::sleep(*gap);
        for streaming in [true, false] {
            let addr = if streaming {
                stream_server.local_addr()
            } else {
                closed_server.local_addr()
            };
            let burst_start = Instant::now();
            let results: Vec<(Option<f64>, f64)> = std::thread::scope(|s| {
                let handles: Vec<_> = offsets
                    .iter()
                    .enumerate()
                    .map(|(j, &off)| {
                        let i = (e * burst_max + j) % load_reqs.len();
                        let body = &load_reqs[i];
                        let want = &want_paths[i];
                        s.spawn(move || {
                            if let Some(wait) = off.checked_sub(burst_start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            let sent = Instant::now();
                            if streaming {
                                let mut first = None;
                                let mut events = Vec::new();
                                let resp =
                                    client::post_stream(addr, "/v2/recover/stream", body, |line| {
                                        if first.is_none() {
                                            first = Some(sent.elapsed());
                                        }
                                        events.push(
                                            v2::Event::from_json(line).expect("well-formed event"),
                                        );
                                    })
                                    .expect("stream roundtrip");
                                let total = sent.elapsed();
                                assert_eq!(resp.status, 200, "stream refused: {}", resp.body);
                                let (last, steps) = events.split_last().expect("terminal event");
                                let v2::Event::Summary(sum) = last else {
                                    panic!("stream ended without summary (request {i}): {last:?}");
                                };
                                assert!(
                                    steps.iter().all(|ev| !ev.is_terminal()),
                                    "terminal event mid-stream (request {i})"
                                );
                                let got: Vec<(usize, f32)> = sum
                                    .segments
                                    .iter()
                                    .copied()
                                    .zip(sum.rates.iter().copied())
                                    .collect();
                                assert_eq!(&got, want, "streamed recovery diverged (request {i})");
                                (
                                    first.map(|d| d.as_secs_f64() * 1000.0),
                                    total.as_secs_f64() * 1000.0,
                                )
                            } else {
                                let resp = client::request(addr, "POST", "/v2/recover", Some(body))
                                    .expect("http roundtrip");
                                let total = sent.elapsed();
                                assert_eq!(resp.status, 200, "recover failed: {}", resp.body);
                                let parsed =
                                    RecoverResponse::from_json(&resp.body).expect("well-formed");
                                assert_eq!(
                                    &parsed.path(),
                                    want,
                                    "closed-batch recovery diverged (request {i})"
                                );
                                (None, total.as_secs_f64() * 1000.0)
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load client"))
                    .collect()
            });
            for (ttfs, total) in results {
                if streaming {
                    if let Some(t) = ttfs {
                        stream_ttfs.push(t);
                    }
                    stream_total.push(total);
                } else {
                    closed_total.push(total);
                }
            }
        }
    }
    stream_server.shutdown();
    closed_server.shutdown();
    let admitted = stream_engine.stats().admitted;
    stream_ttfs.sort_by(|a, b| a.total_cmp(b));
    stream_total.sort_by(|a, b| a.total_cmp(b));
    closed_total.sort_by(|a, b| a.total_cmp(b));

    let ttfs_p50 = percentile(&stream_ttfs, 0.50);
    let ttfs_p99 = percentile(&stream_ttfs, 0.99);
    let stream_total_p50 = percentile(&stream_total, 0.50);
    let stream_total_p99 = percentile(&stream_total, 0.99);
    let closed_p50 = percentile(&closed_total, 0.50);
    let closed_p99 = percentile(&closed_total, 0.99);
    println!(
        "\n--- open-loop bursty streaming load ({n_load} requests over {burst_count} bursts, \
         paired replay) ---"
    );
    println!(
        "streamed (continuous): TTFS p50 {ttfs_p50:8.3} ms  p99 {ttfs_p99:8.3} ms; \
         total p50 {stream_total_p50:8.3} ms  p99 {stream_total_p99:8.3} ms  \
         ({admitted} mid-decode admissions)"
    );
    println!(
        "closed batch         : full response p50 {closed_p50:8.3} ms  p99 {closed_p99:8.3} ms"
    );
    println!(
        "p99 TTFS / closed-batch p99: {:.2}x (bit-identical results asserted on both sides)",
        ttfs_p99 / closed_p99.max(1e-9)
    );
    let open_loop_bursty = serde_json::json!({
        "requests": n_load,
        "bursts": burst_count,
        "burst_max": burst_max,
        "mid_decode_admissions": admitted,
        "stream_ttfs_p50_ms": ttfs_p50,
        "stream_ttfs_p99_ms": ttfs_p99,
        "stream_total_p50_ms": stream_total_p50,
        "stream_total_p99_ms": stream_total_p99,
        "closed_total_p50_ms": closed_p50,
        "closed_total_p99_ms": closed_p99,
        "ttfs_p99_vs_closed_p99": ttfs_p99 / closed_p99.max(1e-9),
        "bit_identical": true,
    });

    // --- 6. Two-shard isolation + hot reload under load ------------------
    // A router owning two city shards (beta = alpha's grid translated
    // 50 km east, so the bounding boxes are disjoint): concurrent
    // closed-loop traffic against both, with the beta shard's model
    // hot-swapped twice from a packed artifact mid-run. On a 1-core
    // runner the gate is correctness-shaped, not wall-clock-shaped:
    // every response 200 + bit-identical to in-process dispatch on its
    // own shard (reloads included — the artifact packs the same
    // config/seed, so answers stay checkable across the swap), and a
    // very loose cross-shard p99 ratio that only catches one shard
    // starving the other outright.
    let (shard_reqs_per_client, shard_clients) = if quick { (8usize, 2usize) } else { (24, 2) };
    let alpha_city = SyntheticCity::generate(CityConfig::tiny());
    let beta_cfg = CityConfig {
        origin_x: 50_000.0,
        ..CityConfig::tiny()
    };
    let beta_city = SyntheticCity::generate(beta_cfg.clone());
    let build_shard = |name: &str, city: SyntheticCity, seed: u64| {
        let grid = city.net.grid(50.0);
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 16, seed);
        let serving = Arc::new(ServingModel::new(model).expect("RNTrajRec serves"));
        let mut sim = Simulator::new(&city.net, SimConfig::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(101));
        let reqs: Vec<String> = (0..8)
            .map(|_| {
                let s = sim.sample(&mut rng, 8);
                let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
                serde_json::to_string(&req).expect("request serializes")
            })
            .collect();
        let ctx = Arc::new(QueryContext::new(city.net, 50.0));
        let engine = Arc::new(RecoveryEngine::start(
            Arc::clone(&serving),
            EngineConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
                workers: 1,
                threads_per_worker: 1,
                queue_capacity: None,
                ..EngineConfig::default()
            },
        ));
        let want: Vec<Vec<(usize, f32)>> = reqs
            .iter()
            .map(|body| {
                let req = RecoverRequest::from_json(body).expect("round-trips");
                engine
                    .recover(ctx.sample_input(&req).expect("valid request"))
                    .path
            })
            .collect();
        (CityShard::new(name, engine, ctx, None), reqs, want)
    };
    let (alpha_shard, alpha_reqs, alpha_want) = build_shard("alpha", alpha_city, 7);
    let (beta_shard, beta_reqs, beta_want) = build_shard("beta", beta_city, 7);
    let shard_router = Arc::new(ShardRouter::new(vec![alpha_shard, beta_shard]));
    let shard_server = HttpServer::start_router(
        Arc::clone(&shard_router),
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            ..HttpConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let shard_addr = shard_server.local_addr();

    // The beta reload artifact: identical config/seed, bumped version.
    let beta_artifact = rntrajrec_artifact::pack_fresh("beta", "bench-v2", &beta_cfg, 50.0, 16, 7);
    let beta_artifact_path =
        std::env::temp_dir().join(format!("rntrajrec_bench_{}_beta.rnta", std::process::id()));
    beta_artifact
        .write_to(&beta_artifact_path)
        .expect("write beta artifact");

    let shard_traffic = |reqs: &[String], want: &[Vec<(usize, f32)>]| -> Vec<f64> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..shard_clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut ms = Vec::with_capacity(shard_reqs_per_client);
                        for k in 0..shard_reqs_per_client {
                            let i = (c + k) % reqs.len();
                            let t = Instant::now();
                            let resp =
                                client::request(shard_addr, "POST", "/v1/recover", Some(&reqs[i]))
                                    .expect("http roundtrip");
                            ms.push(t.elapsed().as_secs_f64() * 1000.0);
                            assert_eq!(resp.status, 200, "sharded recover failed: {}", resp.body);
                            let parsed =
                                RecoverResponse::from_json(&resp.body).expect("well-formed");
                            assert_eq!(
                                parsed.path(),
                                want[i],
                                "sharded recovery diverged from in-process dispatch"
                            );
                        }
                        ms
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard client"))
                .collect()
        })
    };
    // Both shards under concurrent load, with two hot swaps of beta's
    // model mid-traffic from the reload thread.
    let (mut alpha_ms, mut beta_ms, reloads_done) = std::thread::scope(|s| {
        let alpha = s.spawn(|| shard_traffic(&alpha_reqs, &alpha_want));
        let beta = s.spawn(|| shard_traffic(&beta_reqs, &beta_want));
        let reloader = s.spawn(|| {
            let mut done = 0u64;
            for _ in 0..2 {
                std::thread::sleep(Duration::from_millis(10));
                let body = format!(
                    "{{\"city\":\"beta\",\"path\":\"{}\"}}",
                    beta_artifact_path.display()
                );
                let resp = client::request(shard_addr, "POST", "/admin/reload", Some(&body))
                    .expect("reload roundtrip");
                assert_eq!(resp.status, 200, "hot reload refused: {}", resp.body);
                done += 1;
            }
            done
        });
        (
            alpha.join().expect("alpha traffic"),
            beta.join().expect("beta traffic"),
            reloader.join().expect("reloader"),
        )
    });
    std::fs::remove_file(&beta_artifact_path).ok();
    let (alpha_failed, beta_failed) = {
        let stats = |name: &str| {
            shard_router
                .by_name(name)
                .expect("shard exists")
                .engine()
                .stats()
        };
        (stats("alpha").failed, stats("beta").failed)
    };
    shard_server.shutdown();
    alpha_ms.sort_by(|a, b| a.total_cmp(b));
    beta_ms.sort_by(|a, b| a.total_cmp(b));
    let alpha_p50 = percentile(&alpha_ms, 0.50);
    let alpha_p99 = percentile(&alpha_ms, 0.99);
    let beta_p50 = percentile(&beta_ms, 0.50);
    let beta_p99 = percentile(&beta_ms, 0.99);
    let shard_p99_ratio = beta_p99.max(alpha_p99) / beta_p99.min(alpha_p99).max(1e-9);
    println!(
        "\n--- two-shard isolation ({} requests/shard, 2 hot swaps of beta mid-run) ---",
        alpha_ms.len()
    );
    println!("alpha: p50 {alpha_p50:8.3} ms  p99 {alpha_p99:8.3} ms  ({alpha_failed} failed)");
    println!("beta : p50 {beta_p50:8.3} ms  p99 {beta_p99:8.3} ms  ({beta_failed} failed)");
    println!(
        "cross-shard p99 ratio {shard_p99_ratio:.2}x; {reloads_done} reloads, zero invalid \
         responses (bit-identical per shard asserted)"
    );
    let two_shard = serde_json::json!({
        "requests_per_shard": alpha_ms.len(),
        "reloads_under_load": reloads_done,
        "alpha_p50_ms": alpha_p50,
        "alpha_p99_ms": alpha_p99,
        "beta_p50_ms": beta_p50,
        "beta_p99_ms": beta_p99,
        "cross_shard_p99_ratio": shard_p99_ratio,
        "alpha_failed": alpha_failed,
        "beta_failed": beta_failed,
        "bit_identical": true,
    });

    let decoder_baseline = serde_json::json!({
        "matmuls_per_request": matmuls_per_request,
        "decoder_steps_per_request": steps_per_request,
        "matmuls_per_decoder_step": matmuls_per_step,
    });
    let decoder_fusion = serde_json::json!({
        "batch": big_inputs.len(),
        "matmuls_per_decoder_step_sequential": seq_per_batch_step,
        "matmuls_per_decoder_step_batched": fused_per_batch_step,
        "sequential_decode_ms_per_request": seq_decode_ms,
        "batched_decode_ms_per_request": fused_decode_ms,
        "speedup": fusion_speedup,
        "bit_identical": true,
    });
    let encoder_fusion = serde_json::json!({
        "batch": big_inputs.len(),
        "matmuls_per_batch_sequential": enc_seq_matmuls,
        "matmuls_per_batch_batched": enc_fused_matmuls,
        "matmul_ratio": enc_matmul_ratio,
        "sequential_encode_ms_per_request": seq_encode_ms,
        "batched_encode_ms_per_request": fused_encode_ms,
        "speedup": enc_speedup,
        "bit_identical": true,
    });
    let city_scale = serde_json::json!({
        "segments": n_segments,
        "dim": big_dim,
        "intra_op_sweep": intra_sweep,
        "decoder_fusion_baseline": decoder_baseline,
        "decoder_fusion": decoder_fusion,
        "encoder_fusion": encoder_fusion,
        "segment_head": segment_head,
        "tracing": tracing,
        "chaos": chaos,
    });
    let json = serde_json::json!({
        "tape_predict_ms": tape_ms,
        "tapefree_recover_ms": tapefree_ms,
        "speedup": speedup,
        "road_precompute_ms": precompute_ms,
        "sweep": sweep,
        "cores": cores,
        "city_scale": city_scale,
        "http_roundtrip": http_roundtrip,
        "open_loop_bursty": open_loop_bursty,
        "two_shard": two_shard,
    });
    dump_json("BENCH_serve", &json);

    if speedup <= 1.0 {
        eprintln!("WARNING: tape-free path slower than tape predict — investigate");
        std::process::exit(1);
    }
}
