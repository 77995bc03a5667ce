//! Property suite for the fused batched decoder **and** encoder.
//!
//! The contract: [`rntrajrec_models::DecodeState`] (through its drivers
//! `Decoder::recover_batch_infer_with` / `recover_batch_infer_stream`) and
//! [`TrajEncoder::infer_batch`] over an arbitrary micro-batch —
//! ragged lengths, repeated members, any batch size, any intra-op thread
//! count — are **bit-identical** to the same call on each member alone
//! (`B = 1`), which the singleton tests below in turn anchor on the tape
//! (`DecodeState` on a `Tape` / `encode`). The batched
//! paths stack members' rows into one matrix per projection while every
//! member-scoped reduction (attention rows, graph readout, GraphNorm
//! statistics) keeps each member's own accumulation order; that is exactly
//! what this suite pins down — under every available kernel backend
//! (scalar, and AVX2+FMA when the host supports it), since each backend
//! must be deterministic within itself for any batch composition. The
//! suite also pins the served segment heads: sparse recovery ≡ the tape
//! decode's (training's dense head), and the int8 head stays mask-valid
//! and thread-invariant.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec_models::{
    BatchMember, DecodeHooks, DecodeState, Decoder, DecoderConfig, EncoderOutput, FeatureExtractor,
    InferOutput, RnTrajRecConfig, RnTrajRecEncoder, SampleInput, SegmentHead, TrajEncoder,
};
use rntrajrec_nn::kernels::backend::{self, Backend};
use rntrajrec_nn::{pool, Exec, ParamStore, Tape, Tensor};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_synth::{RawPoint, RawTrajectory, SimConfig, Simulator, TimeContext};

/// Every backend the host can execute (scalar always; AVX2 when
/// supported, with a visible notice when the sweep is narrowed).
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if backend::is_supported(Backend::Avx2Fma) {
        v.push(Backend::Avx2Fma);
    } else {
        eprintln!("NOTICE: host lacks AVX2+FMA; backend sweep covers scalar only");
    }
    v
}

struct Fixture {
    store: ParamStore,
    decoder: Decoder,
    /// `(per_point, traj, sample)` pool entries with ragged input and
    /// target lengths.
    members: Vec<(Tensor, Tensor, SampleInput)>,
}

impl Fixture {
    fn member(&self, p: usize) -> BatchMember<'_> {
        let (per_point, traj, sample) = &self.members[p];
        BatchMember {
            per_point,
            traj,
            sample,
        }
    }

    /// The reference: member `p` decoded alone, as a batch of one.
    fn alone(&self, p: usize) -> Vec<(usize, f32)> {
        self.batch(&[self.member(p)]).remove(0)
    }

    /// Closed-batch fused decode with the serving-default sparse head.
    fn batch(&self, members: &[BatchMember<'_>]) -> Vec<Vec<(usize, f32)>> {
        self.decoder
            .recover_batch_infer_with(&self.store, members, SegmentHead::Sparse)
    }

    /// Pool members `picks` stacked in one greedy decode on a `Tape`:
    /// the same `DecodeState` body with training's dense soft-mask head.
    fn on_tape(&self, picks: &[usize]) -> Vec<Vec<(usize, f32)>> {
        let mut tape = Tape::new();
        let encs: Vec<_> = picks
            .iter()
            .map(|&p| EncoderOutput {
                per_point: tape.constant(self.members[p].0.clone()),
                traj: tape.constant(self.members[p].1.clone()),
            })
            .collect();
        let members: Vec<_> = encs
            .iter()
            .zip(picks)
            .map(|(enc, &p)| BatchMember::new(enc, &self.members[p].2))
            .collect();
        let mut state = DecodeState::on_tape(&self.decoder, &self.store, tape);
        state.admit(&members);
        state.finish_greedy()
    }
}

const DIM: usize = 16;
const POOL: usize = 6;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let mut rng = StdRng::seed_from_u64(41);
        // Ragged pool: distinct target lengths (3..12) and input lengths,
        // with one pair (9, 9) sharing a target length for the
        // equal-length grouping case.
        let shapes: [(usize, usize); POOL] = [(3, 4), (5, 8), (7, 6), (9, 10), (9, 8), (12, 5)];
        let members = shapes
            .iter()
            .map(|&(target_len, raw_len)| {
                let mut sim = Simulator::new(
                    &city.net,
                    SimConfig {
                        target_len,
                        ..Default::default()
                    },
                );
                let input = fx.extract(&sim.sample(&mut rng, raw_len));
                let per_point = Tensor::uniform(input.input_len(), DIM, 0.5, &mut rng);
                let traj = Tensor::uniform(1, DIM, 0.5, &mut rng);
                (per_point, traj, input)
            })
            .collect();
        let mut store = ParamStore::new();
        let decoder = Decoder::new(
            &mut store,
            &mut rng,
            DecoderConfig {
                dim: DIM,
                num_segments: city.net.num_segments(),
                use_mask: true,
            },
        );
        Fixture {
            store,
            decoder,
            members,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary ragged batches (any composition, with repeats) decoded in
    /// one fused pass equal each member's decode alone (`B = 1`) bit-for-bit,
    /// at 1 and 4 intra-op kernel threads, under every available backend
    /// (the AVX2 kernels accumulate without zero-skip precisely so that
    /// batch composition cannot change any member's bits).
    #[test]
    fn fused_batch_equals_sequential(
        batch_size in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<usize> = (0..batch_size)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..POOL))
            .collect();
        let fix = fixture();
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let alone: Vec<Vec<(usize, f32)>> =
                    picks.iter().map(|&p| fix.alone(p)).collect();
                for threads in [1usize, 4] {
                    pool::set_num_threads(threads);
                    let batch: Vec<BatchMember> = picks.iter().map(|&p| fix.member(p)).collect();
                    let batched = fix.batch(&batch);
                    pool::set_num_threads(1);
                    assert!(
                        batched == alone,
                        "diverged at {threads} threads under {}",
                        bk.name()
                    );
                }
            });
        }
    }

    /// Mid-decode cancellation (the deadline-propagation path): cancelling
    /// an arbitrary subset of members at arbitrary steps retires them
    /// through the state-compaction path, and every survivor stays
    /// **bit-identical** to its uncancelled decode alone — and each
    /// cancelled member's truncated output is bit-identical to the
    /// uncancelled run's prefix. Swept over backends and 1/4 intra-op
    /// threads like the main parity property.
    #[test]
    fn cancelled_members_leave_survivors_bit_identical(
        batch_size in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<usize> = (0..batch_size)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..POOL))
            .collect();
        // Per member: None = never cancel; Some(j) = cancel before step j
        // (j = 0 cancels before any step runs).
        let cuts: Vec<Option<usize>> = picks
            .iter()
            .map(|_| {
                if rand::Rng::gen_bool(&mut rng, 0.5) {
                    Some(rand::Rng::gen_range(&mut rng, 0..13usize))
                } else {
                    None
                }
            })
            .collect();
        let fix = fixture();
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let alone: Vec<Vec<(usize, f32)>> =
                    picks.iter().map(|&p| fix.alone(p)).collect();
                for threads in [1usize, 4] {
                    pool::set_num_threads(threads);
                    let batch: Vec<BatchMember> = picks.iter().map(|&p| fix.member(p)).collect();
                    let (out, cancelled) = fix.decoder.recover_batch_infer_stream(
                        &fix.store,
                        &batch,
                        SegmentHead::Sparse,
                        &mut DecodeHooks {
                            cancel: &mut |i, j| cuts[i].is_some_and(|c| j >= c),
                            admit: &mut |_| Vec::new(),
                            on_step: &mut |_| {},
                        },
                    );
                    pool::set_num_threads(1);
                    for (i, path) in out.iter().enumerate() {
                        let target = batch[i].sample.target_len();
                        let want_len = cuts[i].map_or(target, |c| c.min(target));
                        let should_cancel = cuts[i].is_some_and(|c| c < target);
                        assert_eq!(
                            cancelled[i], should_cancel,
                            "member {i} cancelled flag at {threads} threads under {}",
                            bk.name()
                        );
                        assert_eq!(path.len(), want_len, "member {i} output length");
                        assert!(
                            path[..] == alone[i][..want_len],
                            "member {i} diverged from the uncancelled prefix at \
                             {threads} threads under {}",
                            bk.name()
                        );
                    }
                }
            });
        }
    }

    /// Continuous batching: members admitted into a live decode at
    /// arbitrary ticks — possibly on the incumbents' final step, or after
    /// every incumbent has already retired — combined with arbitrary
    /// mid-decode cancellations of incumbents (grow-then-shrink on the
    /// same tick included). Admissions arrive in **waves**: every wave
    /// past the first carries 1–3 newcomers landing on the *same* tick,
    /// exercising the fused multi-newcomer splice (one stacked `W_h·keys`
    /// matmul and one concat round per wave) and not just the
    /// single-newcomer degenerate case. Incumbents must stay
    /// **bit-identical** to the closed-batch decode, and every admitted
    /// member must be bit-identical to its solo decode, under
    /// every backend at 1 and 4 intra-op threads. The streamed `on_step`
    /// events must reproduce each member's output exactly, in per-member
    /// step order.
    #[test]
    fn admitted_members_leave_incumbents_bit_identical(
        batch_size in 1usize..6,
        wave_count in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        use rntrajrec_models::{GrownMember, StepOut};

        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<usize> = (0..batch_size)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..POOL))
            .collect();
        let cuts: Vec<Option<usize>> = picks
            .iter()
            .map(|_| {
                if rand::Rng::gen_bool(&mut rng, 0.3) {
                    Some(rand::Rng::gen_range(&mut rng, 0..13usize))
                } else {
                    None
                }
            })
            .collect();
        // (admission tick, pool index) per newcomer, generated in waves:
        // newcomers within a wave share the admission tick, so the hook
        // returns them together and the fused wave splice is exercised.
        // A tick past the incumbents' lifetime means the wave never joins
        // — the hook is only polled while the session runs — and the test
        // accounts for exactly the members that did.
        let grown: Vec<(usize, usize)> = (0..wave_count)
            .flat_map(|w| {
                let at = rand::Rng::gen_range(&mut rng, 0..13usize);
                // The first wave may be a single newcomer (the old
                // degenerate shape); later waves always carry several.
                let size = if w == 0 {
                    rand::Rng::gen_range(&mut rng, 1..4usize)
                } else {
                    rand::Rng::gen_range(&mut rng, 2..4usize)
                };
                (0..size)
                    .map(|_| (at, rand::Rng::gen_range(&mut rng, 0..POOL)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let fix = fixture();
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let alone: Vec<Vec<(usize, f32)>> =
                    (0..POOL).map(|p| fix.alone(p)).collect();
                for threads in [1usize, 4] {
                    pool::set_num_threads(threads);
                    let batch: Vec<BatchMember> = picks.iter().map(|&p| fix.member(p)).collect();
                    let n = batch.len();
                    let mut tick = 0usize;
                    let mut joined: Vec<bool> = vec![false; grown.len()];
                    let mut admitted: Vec<usize> = Vec::new();
                    let mut events: Vec<StepOut> = Vec::new();
                    let mut cancel = |i: usize, j: usize| {
                        i < n && cuts[i].is_some_and(|c| j >= c)
                    };
                    let mut admit = |_live: usize| -> Vec<GrownMember> {
                        let mut v = Vec::new();
                        for (g, &(at, p)) in grown.iter().enumerate() {
                            if !joined[g] && tick >= at {
                                joined[g] = true;
                                admitted.push(p);
                                let (per_point, traj, sample) = &fix.members[p];
                                v.push(GrownMember {
                                    per_point: per_point.clone(),
                                    traj: traj.clone(),
                                    sample,
                                });
                            }
                        }
                        tick += 1;
                        v
                    };
                    let mut on_step = |s: StepOut| events.push(s);
                    let (out, cancelled) = fix.decoder.recover_batch_infer_stream(
                        &fix.store,
                        &batch,
                        SegmentHead::Sparse,
                        &mut DecodeHooks {
                            cancel: &mut cancel,
                            admit: &mut admit,
                            on_step: &mut on_step,
                        },
                    );
                    pool::set_num_threads(1);
                    assert_eq!(out.len(), n + admitted.len());
                    // Incumbents: the cancellation contract, bit-exact.
                    for i in 0..n {
                        let target = batch[i].sample.target_len();
                        let want_len = cuts[i].map_or(target, |c| c.min(target));
                        assert_eq!(out[i].len(), want_len, "incumbent {} length", i);
                        assert!(
                            out[i][..] == alone[picks[i]][..want_len],
                            "incumbent {} diverged at {} threads under {}",
                            i, threads, bk.name()
                        );
                        assert_eq!(
                            cancelled[i],
                            cuts[i].is_some_and(|c| c < target),
                            "incumbent {} cancelled flag", i
                        );
                    }
                    // Admitted members: bit-identical to their solo runs.
                    for (k, &p) in admitted.iter().enumerate() {
                        assert!(
                            out[n + k][..] == alone[p][..],
                            "admitted member {} diverged at {} threads under {}",
                            k, threads, bk.name()
                        );
                        assert!(!cancelled[n + k], "admitted member {} cut", k);
                    }
                    // The stream reproduces every output in step order.
                    let mut replayed: Vec<Vec<(usize, f32)>> = vec![Vec::new(); out.len()];
                    for e in &events {
                        assert_eq!(
                            e.step, replayed[e.member].len(),
                            "member {} streamed out of order", e.member
                        );
                        replayed[e.member].push((e.segment, e.rate));
                    }
                    assert_eq!(&replayed, &out, "streamed events diverged from outputs");
                }
            });
        }
    }
}

/// The sparse segment head must not change what the decoder *recovers*:
/// per backend, the served sparse head and the tape's dense soft-mask head
/// (training's head, decoding the same members stacked on a `Tape`)
/// produce identical `(segment, rate)` paths (the log-prob normaliser
/// differs by design — outputs do not). This is the acceptance contract
/// for `masked_matmul_cols`.
#[test]
fn sparse_head_recovery_matches_dense() {
    let fix = fixture();
    let picks: Vec<usize> = (0..POOL).collect();
    let batch: Vec<BatchMember> = picks.iter().map(|&p| fix.member(p)).collect();
    for bk in backends() {
        backend::with_backend(bk, || {
            pool::set_num_threads(1);
            let dense = fix.on_tape(&picks);
            let sparse = fix.batch(&batch);
            assert_eq!(dense, sparse, "recovery diverged under {}", bk.name());
        });
    }
}

/// The int8 head: recovery stays valid (mask respected, rates in range)
/// and — because the quantized accumulation is exact integer arithmetic —
/// the whole decode is thread-invariant within each backend.
#[test]
fn quantized_head_recovery_is_valid_and_thread_invariant() {
    let fix = fixture();
    let q = fix.decoder.quantized_segment_head(&fix.store);
    let batch: Vec<BatchMember> = (0..POOL).map(|p| fix.member(p)).collect();
    for bk in backends() {
        backend::with_backend(bk, || {
            pool::set_num_threads(1);
            let base = fix.decoder.recover_batch_infer_with(
                &fix.store,
                &batch,
                SegmentHead::Quantized(&q),
            );
            for (m, path) in batch.iter().zip(&base) {
                assert_eq!(path.len(), m.sample.target_len());
                for (j, &(seg, rate)) in path.iter().enumerate() {
                    assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
                    if let Some(entries) = &m.sample.masks[j] {
                        if !entries.is_empty() {
                            assert!(
                                entries.iter().any(|&(s, _)| s == seg),
                                "step {j}: quantized prediction {seg} escaped the mask"
                            );
                        }
                    }
                }
            }
            for threads in [4usize, 2] {
                pool::set_num_threads(threads);
                let again = fix.decoder.recover_batch_infer_with(
                    &fix.store,
                    &batch,
                    SegmentHead::Quantized(&q),
                );
                assert_eq!(again, base, "t={threads} under {}", bk.name());
            }
            pool::set_num_threads(1);
        });
    }
}

/// `B = 1` is the degenerate batch the properties above use as their
/// reference; anchor it on the tape's greedy decode — the same
/// `DecodeState` body recording on a `Tape`, with training's dense
/// soft-masked head instead of the sparse one: equal segments, bit-equal
/// rates (the stacked matrices are the member's own `[1, d]` rows).
#[test]
fn singleton_batch_equals_tape_decode() {
    let fix = fixture();
    pool::set_num_threads(1);
    for p in 0..POOL {
        let want = fix.on_tape(&[p]).remove(0);
        assert_eq!(fix.alone(p), want, "member {p} diverged from the tape");
    }
}

/// All-equal target lengths: no member ever retires early, so the stacked
/// state never compacts — the pure lock-step regime.
#[test]
fn equal_length_batch_equals_sequential() {
    let fix = fixture();
    pool::set_num_threads(1);
    // Members 3 and 4 share target length 9; repeat them.
    let picks = [3usize, 4, 3, 4];
    let alone: Vec<Vec<(usize, f32)>> = picks.iter().map(|&p| fix.alone(p)).collect();
    let batch: Vec<BatchMember> = picks.iter().map(|&p| fix.member(p)).collect();
    let batched = fix.batch(&batch);
    assert_eq!(batched, alone);
}

/// The empty batch is a no-op.
#[test]
fn empty_batch_is_noop() {
    let fix = fixture();
    assert!(fix.batch(&[]).is_empty());
}

/// [`DecodeState`] stepped by hand equals the callback driver
/// ([`Decoder::recover_batch_infer_stream`]) bit for bit — outputs,
/// cancelled flags and the step stream — on a schedule that hits the two
/// awkward ticks: a member admitted on an incumbent's *last* tick, and a
/// member admitted on the tick another is retired (here retired first,
/// then admitted; the driver asks its hooks in the other order).
#[test]
fn stepped_decode_state_equals_the_hooks_driver() {
    use rntrajrec_models::{DecodeState, GrownMember, StepOut};

    let fix = fixture();
    // Pool members 0 and 1 decode 3 and 5 steps. Before tick 2 — member
    // 0's last — member 2 joins; before tick 3 member 1 is cut and member
    // 3 joins.
    let grown = |p: usize| {
        let (per_point, traj, sample) = &fix.members[p];
        GrownMember {
            per_point: per_point.clone(),
            traj: traj.clone(),
            sample,
        }
    };
    for bk in backends() {
        backend::with_backend(bk, || {
            pool::set_num_threads(1);
            let mut state = DecodeState::new(&fix.decoder, &fix.store, SegmentHead::Sparse);
            state.admit(&[fix.member(0), fix.member(1)]);
            let mut stepped: Vec<StepOut> = Vec::new();
            for tick in 0.. {
                match tick {
                    2 => state.admit(&[fix.member(2)]),
                    3 => {
                        state.retire(|i, _| i == 1);
                        state.admit(&[fix.member(3)]);
                    }
                    _ => {}
                }
                if state.live() == 0 {
                    break;
                }
                stepped.extend_from_slice(state.tick(|_, _| None));
            }
            let by_hand = state.finish();

            let mut tick = 0usize;
            let mut streamed: Vec<StepOut> = Vec::new();
            let driven = fix.decoder.recover_batch_infer_stream(
                &fix.store,
                &[fix.member(0), fix.member(1)],
                SegmentHead::Sparse,
                &mut DecodeHooks {
                    cancel: &mut |i, step| i == 1 && step >= 3,
                    admit: &mut |_| {
                        tick += 1;
                        match tick - 1 {
                            2 => vec![grown(2)],
                            3 => vec![grown(3)],
                            _ => Vec::new(),
                        }
                    },
                    on_step: &mut |s| streamed.push(s),
                },
            );
            assert!(by_hand == driven, "diverged under {}", bk.name());
            assert!(
                stepped == streamed,
                "step streams differ under {}",
                bk.name()
            );
            let (paths, cancelled) = by_hand;
            assert_eq!(cancelled, [false, true, false, false]);
            assert_eq!(paths[1][..], fix.alone(1)[..3], "the cut prefix");
            for (member, p) in [(0, 0), (2, 2), (3, 3)] {
                assert_eq!(paths[member], fix.alone(p), "member {member}");
            }
        });
    }
}

// ===== fused batched encoder ================================================

struct EncoderFixture {
    store: ParamStore,
    encoder: RnTrajRecEncoder,
    xroad: Tensor,
    /// Sample pool with ragged input lengths, including a single-point
    /// trajectory (the degenerate sub-graph/attention case).
    samples: Vec<SampleInput>,
}

impl EncoderFixture {
    /// The stacked eager encoder through its trait entry point.
    fn encode(&self, batch: &[&SampleInput]) -> Vec<InferOutput> {
        self.encoder
            .infer_batch(&self.store, batch, Some(&self.xroad))
            .expect("RNTrajRec has a tape-free path")
    }
}

const ENC_POOL: usize = 5;

fn encoder_fixture() -> &'static EncoderFixture {
    static FIX: OnceLock<EncoderFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let mut rng = StdRng::seed_from_u64(57);
        let mut samples: Vec<SampleInput> = [(4usize, 3usize), (9, 8), (6, 5), (11, 10)]
            .iter()
            .map(|&(target_len, raw_len)| {
                let mut sim = Simulator::new(
                    &city.net,
                    SimConfig {
                        target_len,
                        ..Default::default()
                    },
                );
                fx.extract(&sim.sample(&mut rng, raw_len))
            })
            .collect();
        // Single-point member through the query path (no ground truth):
        // one GPS point, one sub-graph, attention over a single row.
        let p = fx.bbox().center();
        let single = RawTrajectory {
            points: vec![RawPoint { xy: p, t: 0.0 }],
        };
        samples.push(
            fx.extract_query(&single, 3, TimeContext::from_epoch_s(3600.0))
                .expect("single-point query extracts"),
        );
        assert_eq!(samples.len(), ENC_POOL);

        let mut store = ParamStore::new();
        let encoder = RnTrajRecEncoder::new(
            &mut store,
            &mut rng,
            &city.net,
            &grid,
            RnTrajRecConfig::small(16),
        );
        let xroad = encoder
            .precompute_road(&store)
            .expect("RNTrajRec precomputes X_road");
        EncoderFixture {
            store,
            encoder,
            xroad,
            samples,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary ragged batches (any composition, with repeats, including
    /// the single-point member) encoded in one fused pass equal each
    /// member encoded alone (`B = 1`) bit-for-bit, at 1 and 4 intra-op
    /// kernel threads — GraphNorm statistics must stay scoped to each
    /// member's own sub-graphs no matter what shares the batch.
    #[test]
    fn fused_encoder_equals_per_member(
        batch_size in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<usize> = (0..batch_size)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..ENC_POOL))
            .collect();
        let fix = encoder_fixture();
        for bk in backends() {
            backend::with_backend(bk, || {
                pool::set_num_threads(1);
                let alone: Vec<_> = picks
                    .iter()
                    .map(|&p| fix.encode(&[&fix.samples[p]]).remove(0))
                    .collect();
                for threads in [1usize, 4] {
                    pool::set_num_threads(threads);
                    let batch: Vec<&SampleInput> = picks.iter().map(|&p| &fix.samples[p]).collect();
                    let batched = fix.encode(&batch);
                    pool::set_num_threads(1);
                    for (i, (got, want)) in batched.iter().zip(&alone).enumerate() {
                        assert!(
                            got.per_point.data == want.per_point.data,
                            "member {i} per-point diverged at {threads} threads under {}",
                            bk.name()
                        );
                        assert!(
                            got.traj.data == want.traj.data,
                            "member {i} traj diverged at {threads} threads under {}",
                            bk.name()
                        );
                    }
                }
            });
        }
    }
}

/// `B = 1` and the single-point member: the stacked matrices degenerate to
/// the member's own rows and a one-node attention/readout scope. Anchored
/// on the tape `encode` of a batch of exactly that member.
#[test]
fn singleton_and_single_point_encoder_batches() {
    let fix = encoder_fixture();
    pool::set_num_threads(1);
    for p in 0..ENC_POOL {
        let batched = fix.encode(&[&fix.samples[p]]);
        let mut tape = Tape::new();
        let want = fix
            .encoder
            .encode(&mut tape, &fix.store, &[&fix.samples[p]]);
        assert_eq!(
            batched[0].per_point.data,
            tape.value(&want.outputs[0].per_point).data,
            "member {p} diverged at B=1"
        );
        assert_eq!(batched[0].traj.data, tape.value(&want.outputs[0].traj).data);
    }
}
