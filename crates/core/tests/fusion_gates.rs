//! Deterministic fusion gates on the city-scale fixture: 8×8 blocks
//! (302 segments), d = 32, 12 requests of 33 target steps, input seed 17,
//! model seed 7.
//!
//! What fusion exists for is a **launch count independent of the batch
//! size**: stacking B members must cost the matmul launches of one member,
//! not B times as many. The parity suites pin that the fused paths give
//! the same *bits* as B = 1; nothing else pins that they stay *fused* — a
//! per-member loop inside the decoder or encoder would pass every parity
//! test and multiply the launches by B. These tests state that invariant
//! as a property (count at B = 12 == count at B = 1) next to the absolute
//! caps, plus the two segment-head bars:
//! the sparse head's FLOP reduction and the int8 head's end-to-end drift.
//! The tape side runs the same stacked encoder body over the same fused
//! scoped kernels, so training has the same property:
//! `tape_encode_stays_stacked` pins it for the tape `encode`.
//!
//! Counts come from [`kernels::profile_scope`], whose totals are
//! thread-local — exact under concurrent tests, because every kernel runs
//! on its caller's thread.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rntrajrec::{EndToEnd, MethodSpec};
use rntrajrec_models::{
    BatchMember, DecodeState, EncoderOutput, FeatureExtractor, InferOutput, SampleInput,
    SegmentHead,
};
use rntrajrec_nn::kernels::{self, KernelProfile};
use rntrajrec_nn::{Exec, Tape, Tensor};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_synth::{SimConfig, Simulator};

const DIM: usize = 32;
const BATCH: usize = 12;

struct Fixture {
    model: EndToEnd,
    /// Cached `X_road` (the serving path precomputes it once).
    road: Tensor,
    inputs: Vec<SampleInput>,
    /// Each input encoded alone (B = 1).
    encs: Vec<InferOutput>,
    num_segments: usize,
}

impl Fixture {
    fn members(&self) -> Vec<BatchMember<'_>> {
        self.encs
            .iter()
            .zip(&self.inputs)
            .map(|(enc, sample)| BatchMember {
                per_point: &enc.per_point,
                traj: &enc.traj,
                sample,
            })
            .collect()
    }

    fn encode(&self, samples: &[&SampleInput]) -> Vec<InferOutput> {
        self.model
            .encoder
            .infer_batch(&self.model.store, samples, Some(&self.road))
            .expect("RNTrajRec has a tape-free path")
    }

    fn decode(&self, members: &[BatchMember<'_>], head: SegmentHead<'_>) -> Vec<Vec<(usize, f32)>> {
        self.model
            .decoder
            .recover_batch_infer_with(&self.model.store, members, head)
    }

    /// The same members decoded greedily on a `Tape`: training's dense
    /// soft-mask head, one `[B,d]×[d,|V|]` matmul per lock-step.
    fn tape_decode(&self, members: &[BatchMember<'_>]) -> Vec<Vec<(usize, f32)>> {
        let mut tape = Tape::new();
        let encs: Vec<_> = members
            .iter()
            .map(|m| EncoderOutput {
                per_point: tape.constant(m.per_point.clone()),
                traj: tape.constant(m.traj.clone()),
            })
            .collect();
        let members: Vec<_> = encs
            .iter()
            .zip(members)
            .map(|(enc, m)| BatchMember::new(enc, m.sample))
            .collect();
        let mut state = DecodeState::on_tape(&self.model.decoder, &self.model.store, tape);
        state.admit(&members);
        state.finish_greedy()
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let city = SyntheticCity::generate(CityConfig::default());
        let rtree = RTree::build(&city.net);
        let grid = city.net.grid(50.0);
        let fx = FeatureExtractor::new(&city.net, &rtree, grid);
        let mut sim = Simulator::new(&city.net, SimConfig::default());
        let mut rng = StdRng::seed_from_u64(17);
        let inputs: Vec<SampleInput> = (0..BATCH)
            .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
            .collect();
        let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, DIM, 7);
        let road = model.precompute_road().expect("RNTrajRec precomputes");
        let mut fix = Fixture {
            model,
            road,
            inputs,
            encs: Vec::new(),
            num_segments: city.net.num_segments(),
        };
        fix.encs = fix
            .inputs
            .iter()
            .map(|input| fix.encode(&[input]).remove(0))
            .collect();
        fix
    })
}

/// `f`'s result with the matmul launches and FLOPs it issued on this
/// thread.
fn profiled<R>(f: impl FnOnce() -> R) -> (R, KernelProfile) {
    let prof = kernels::profile_scope("fusion_gates");
    let out = f();
    (out, prof.finish())
}

/// One fused decode of 12 members launches exactly the matmuls of its
/// longest member decoded alone, and at most 7.5 per lock-step.
#[test]
fn decoder_launches_are_independent_of_batch_size() {
    let fix = fixture();
    let members = fix.members();
    let longest = members
        .iter()
        .max_by_key(|m| m.sample.target_len())
        .expect("non-empty batch");
    let steps = longest.sample.target_len() as f64;
    let (_, fused) = profiled(|| fix.decode(&members, SegmentHead::Sparse));
    let (_, alone) = profiled(|| fix.decode(std::slice::from_ref(longest), SegmentHead::Sparse));
    let (fused, alone) = (fused.matmuls, alone.matmuls);
    assert_eq!(
        fused, alone,
        "decoder launches scale with the batch: B={BATCH} issued {fused} matmuls, B=1 issued {alone}"
    );
    let per_step = fused as f64 / steps;
    assert!(
        per_step <= 7.5,
        "fused decode costs {per_step:.2} matmuls per lock-step (cap 7.5)"
    );
}

/// The stacked encoder launches the same matmuls for 12 members as for
/// any one of them (every projection is one `[ΣL, d]` product).
#[test]
fn encoder_launches_are_independent_of_batch_size() {
    let fix = fixture();
    let refs: Vec<&SampleInput> = fix.inputs.iter().collect();
    let fused = profiled(|| fix.encode(&refs)).1.matmuls;
    for (i, input) in refs.iter().enumerate() {
        let alone = profiled(|| fix.encode(&[input])).1.matmuls;
        assert_eq!(
            fused, alone,
            "encoder launches scale with the batch: \
             B={BATCH} issued {fused} matmuls, member {i} alone issued {alone}"
        );
    }
    // 50 today; the slack admits one more head or projection, never a
    // per-member or per-point loop (those multiply by B or B·L).
    assert!(
        fused <= 58,
        "stacked encoder issued {fused} matmuls (cap 58)"
    );
}

/// Tape `encode` runs the stacked body too: one launch per projection for
/// the whole training batch, and each scoped reduction (attention included)
/// is one fused kernel, so B = 12 issues exactly B = 1's launches (258
/// today, 207 of them GridGNN's; a per-member attention composition issued
/// 450 at B = 12, a per-point loop 2787).
#[test]
fn tape_encode_stays_stacked() {
    let fix = fixture();
    let refs: Vec<&SampleInput> = fix.inputs.iter().collect();
    let gridgnn = profiled(|| fix.model.precompute_road()).1.matmuls;
    let launches = |batch: &[&SampleInput]| {
        let enc = &fix.model.encoder;
        let mut tape = Tape::new();
        profiled(|| enc.encode(&mut tape, &fix.model.store, batch))
            .1
            .matmuls
    };
    let (one, all) = (launches(&refs[..1]), launches(&refs));
    assert!(
        all <= 700,
        "tape encode issued {all} matmuls at B={BATCH} (cap 700)"
    );
    assert!(
        one >= gridgnn && all == one,
        "tape encode grows with the batch: B=1 issued {one} ({gridgnn} in GridGNN), B={BATCH} {all}"
    );
}

/// The masked-column sparse head does at most a third of the dense
/// head's FLOPs. The dense side is the tape decode (training's head).
/// Attribution is exact: the two decodes share every non-head kernel call
/// and return identical paths, so the profiled FLOP difference is the
/// head work the sparse route skips.
#[test]
fn sparse_head_cuts_head_flops_at_least_threefold() {
    let fix = fixture();
    let members = fix.members();
    let (dense_paths, dense) = profiled(|| fix.tape_decode(&members));
    let (sparse_paths, sparse) = profiled(|| fix.decode(&members, SegmentHead::Sparse));
    assert_eq!(dense_paths, sparse_paths, "sparse head changed recovery");
    let (dense, sparse) = (dense.flops, sparse.flops);

    // Dense head: one `[B_t,d]×[d,|V|]` product per lock-step, `2·d·|V|`
    // FLOPs per (member, step).
    let member_steps: u64 = fix.inputs.iter().map(|i| i.target_len() as u64).sum();
    let head_dense = 2 * DIM as u64 * fix.num_segments as u64 * member_steps;
    assert!(
        sparse <= dense && dense - sparse <= head_dense,
        "FLOP attribution inconsistent: dense decode {dense}, sparse decode {sparse}, \
         dense head {head_dense}"
    );
    let head_sparse = head_dense - (dense - sparse);
    assert!(
        head_sparse * 3 <= head_dense,
        "sparse head {head_sparse} FLOPs vs dense {head_dense}: reduction x{:.2} < 3",
        head_dense as f64 / head_sparse as f64
    );
}

/// The int8 head trades bit-identity for a smaller weight matrix; the
/// trade stays small end to end: ≥ 95 % of recovered segments agree with
/// the f32 sparse head and no moving rate drifts by more than 0.05.
#[test]
fn int8_head_drift_stays_bounded() {
    let fix = fixture();
    let members = fix.members();
    let q = fix.model.decoder.quantized_segment_head(&fix.model.store);
    let quant = fix.decode(&members, SegmentHead::Quantized(&q));
    let float = fix.decode(&members, SegmentHead::Sparse);

    let mut positions = 0usize;
    let mut agree = 0usize;
    let mut max_rate_drift = 0.0f32;
    for (qp, fp) in quant.iter().zip(&float) {
        assert_eq!(qp.len(), fp.len(), "int8 head changed a path length");
        for (&(q_seg, q_rate), &(f_seg, f_rate)) in qp.iter().zip(fp) {
            positions += 1;
            agree += usize::from(q_seg == f_seg);
            max_rate_drift = max_rate_drift.max((q_rate - f_rate).abs());
        }
    }
    let agreement = agree as f64 / positions as f64;
    assert!(
        agreement >= 0.95,
        "int8 head agrees on {agree}/{positions} segments ({agreement:.3} < 0.95)"
    );
    assert!(
        max_rate_drift <= 0.05,
        "int8 head moved a rate by {max_rate_drift} (> 0.05)"
    );
}
