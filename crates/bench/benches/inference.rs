//! Criterion benchmark for Fig. 6's x-axis: per-trajectory inference time
//! of every end-to-end method (encoder + greedy decode). Weights are
//! untrained — latency is weight-independent.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use rntrajrec::experiments::ExperimentScale;
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec_models::{FeatureExtractor, SampleInput};
use rntrajrec_roadnet::{CityConfig, RTree, SyntheticCity};
use rntrajrec_synth::{SimConfig, Simulator};

fn bench_inference(c: &mut Criterion) {
    let city = SyntheticCity::generate(CityConfig::tiny());
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(50.0);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let input: SampleInput = fx.extract(&sim.sample(&mut rng, 8));
    let scale = ExperimentScale::quick();

    let methods = [
        MethodSpec::T2vec,
        MethodSpec::Transformer,
        MethodSpec::MTrajRec,
        MethodSpec::T3s,
        MethodSpec::Gts,
        MethodSpec::NeuTraj,
        MethodSpec::RnTrajRecN(1),
        MethodSpec::RnTrajRec,
    ];
    let mut g = c.benchmark_group("inference_per_trajectory");
    for spec in methods {
        let model = EndToEnd::build(&spec, &city.net, &grid, scale.dim, 7);
        let name = spec.label().replace([' ', '(', ')', '+'], "_");
        g.bench_function(&name, |b| b.iter(|| black_box(model.predict(&input))));
    }
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
