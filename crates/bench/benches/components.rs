//! Criterion micro-benchmarks for every performance-relevant substrate:
//! spatial index, shortest paths, map matching, simulation, feature
//! extraction, and the neural building blocks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use rntrajrec::{EndToEnd, MethodSpec};
use rntrajrec_geo::XY;
use rntrajrec_mapmatch::{HmmConfig, HmmMatcher};
use rntrajrec_models::{
    FeatureExtractor, GatLayer, GridGnn, GridGnnConfig, SampleInput, TransformerEncoderLayer,
};
use rntrajrec_nn::{Exec, ParamStore, Tape, Tensor};
use rntrajrec_roadnet::{CityConfig, RTree, SegmentId, ShortestPaths, SyntheticCity};
use rntrajrec_synth::{SimConfig, Simulator};

fn bench_spatial(c: &mut Criterion) {
    let city = SyntheticCity::generate(CityConfig::default());
    let rtree = RTree::build(&city.net);
    let center = city.net.bbox().center();
    let mut g = c.benchmark_group("spatial");
    g.bench_function("rtree_within_400m", |b| {
        b.iter(|| black_box(rtree.within_radius(&city.net, &center, 400.0)))
    });
    g.bench_function("rtree_nearest", |b| {
        b.iter(|| black_box(rtree.nearest(&city.net, &XY::new(center.x + 13.0, center.y - 31.0))))
    });
    g.bench_function("rtree_build", |b| {
        b.iter(|| black_box(RTree::build(&city.net)))
    });
    g.finish();
}

fn bench_shortest_paths(c: &mut Criterion) {
    let city = SyntheticCity::generate(CityConfig::default());
    let mut sp = ShortestPaths::new(&city.net);
    let n = city.net.num_segments() as u32;
    let mut g = c.benchmark_group("shortest_paths");
    g.bench_function("dijkstra_full", |b| {
        b.iter(|| {
            sp.run(&city.net, SegmentId(0), None, f64::INFINITY);
            black_box(sp.gap_m(SegmentId(n - 1)))
        })
    });
    g.bench_function("dijkstra_capped_2km", |b| {
        b.iter(|| {
            sp.run(&city.net, SegmentId(0), None, 2000.0);
            black_box(sp.gap_m(SegmentId(n / 2)))
        })
    });
    g.finish();
}

fn bench_mapmatch(c: &mut Criterion) {
    let city = SyntheticCity::generate(CityConfig::tiny());
    let rtree = RTree::build(&city.net);
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    let sample = sim.sample_dense(&mut rng, SegmentId(0));
    let mut matcher = HmmMatcher::new(&city.net, &rtree, HmmConfig::default());
    c.bench_function("hmm_match_33pt_dense", |b| {
        b.iter(|| black_box(matcher.match_trajectory(&sample.raw)))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let city = SyntheticCity::generate(CityConfig::tiny());
    let mut g = c.benchmark_group("simulation");
    g.bench_function("simulate_one_trajectory", |b| {
        b.iter_batched(
            || {
                (
                    Simulator::new(&city.net, SimConfig::default()),
                    StdRng::seed_from_u64(9),
                )
            },
            |(mut sim, mut rng)| black_box(sim.sample(&mut rng, 8)),
            BatchSize::SmallInput,
        )
    });
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(50.0);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(10);
    let sample = sim.sample(&mut rng, 8);
    g.bench_function("feature_extraction", |b| {
        b.iter(|| black_box(fx.extract(&sample)))
    });
    g.finish();
}

fn bench_nn_blocks(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("nn_blocks");

    // Dense matmul + backward through a 64x64 product.
    g.bench_function("matmul64_fwd_bwd", |b| {
        let mut store = ParamStore::new();
        let w = store.add("w", 64, 64, rntrajrec_nn::Init::Xavier, &mut rng);
        let x = Tensor::uniform(64, 64, 1.0, &mut rng);
        b.iter(|| {
            let mut tape = Tape::new();
            let xi = tape.constant(x.clone());
            let wi = tape.param(&store, w);
            let y = tape.matmul(&xi, &wi);
            let loss = tape.mean_all(y);
            store.zero_grad();
            tape.backward(loss, &mut store);
            black_box(tape.len())
        })
    });

    // Transformer encoder layer forward on [32, 32].
    let mut store = ParamStore::new();
    let layer = TransformerEncoderLayer::new(&mut store, &mut rng, "t", 32, 4, 64);
    let x = Tensor::uniform(32, 32, 1.0, &mut rng);
    g.bench_function("transformer_layer_fwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let xi = tape.constant(x.clone());
            black_box(layer.forward(&mut tape, &store, &xi, std::slice::from_ref(&(0..32))))
        })
    });

    // GAT layer over the tiny city graph.
    let city = SyntheticCity::generate(CityConfig::tiny());
    let mut store = ParamStore::new();
    let gat = GatLayer::new(&mut store, &mut rng, "g", 32, 32, 4);
    let lists: Vec<Vec<usize>> = city
        .net
        .segment_ids()
        .map(|id| {
            city.net
                .neighbors_undirected(id)
                .iter()
                .map(|s| s.index())
                .collect()
        })
        .collect();
    let csr = std::sync::Arc::new(rntrajrec_nn::GraphCsr::from_neighbor_lists(&lists, true));
    let h = Tensor::uniform(city.net.num_segments(), 32, 1.0, &mut rng);
    g.bench_function("gat_layer_city_fwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let hi = tape.constant(h.clone());
            black_box(gat.forward(&mut tape, &store, &hi, &csr))
        })
    });

    // Full GridGNN forward (the per-batch road representation).
    let grid = city.net.grid(50.0);
    let mut store = ParamStore::new();
    let gg = GridGnn::new(
        &mut store,
        &mut rng,
        &city.net,
        &grid,
        GridGnnConfig {
            dim: 32,
            layers: 2,
            heads: 4,
            ..Default::default()
        },
    );
    g.bench_function("gridgnn_fwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(gg.forward(&mut tape, &store))
        })
    });

    // Tape `encode` of a 12-member training batch (GridGNN included) on
    // the `fusion_gates` fixture: default city, d = 32, input seed 17.
    let city = SyntheticCity::generate(CityConfig::default());
    let rtree = RTree::build(&city.net);
    let grid = city.net.grid(50.0);
    let fx = FeatureExtractor::new(&city.net, &rtree, grid);
    let mut sim = Simulator::new(&city.net, SimConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    let inputs: Vec<SampleInput> = (0..12)
        .map(|_| fx.extract(&sim.sample(&mut rng, 8)))
        .collect();
    let refs: Vec<&SampleInput> = inputs.iter().collect();
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &city.net, &grid, 32, 7);
    g.bench_function("tape_encode_b12", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let out = model.encoder.encode(&mut tape, &model.store, &refs);
            black_box(out.outputs.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spatial,
    bench_shortest_paths,
    bench_mapmatch,
    bench_simulation,
    bench_nn_blocks
);
criterion_main!(benches);
