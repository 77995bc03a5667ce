//! Online serving demo: train RNTrajRec briefly on a synthetic city, start
//! the micro-batching recovery engine, and stream requests from concurrent
//! clients — then check the served answers against the offline tape path
//! and the ground truth.
//!
//! ```bash
//! cargo run --release --example serve_city
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use rntrajrec::experiments::{ExperimentScale, Pipeline};
use rntrajrec::model::{EndToEnd, MethodSpec};
use rntrajrec::train::{TrainConfig, Trainer};
use rntrajrec_serve::{EngineConfig, RecoveryEngine, ServingModel};
use rntrajrec_synth::DatasetConfig;

fn main() {
    let scale = ExperimentScale {
        num_traj: 60,
        dim: 16,
        epochs: 3,
        batch: 6,
        seed: 7,
        lr: 3e-3,
    };
    println!("Preparing synthetic city + trajectories...");
    let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, scale.num_traj), &scale);
    let st = pipeline.dataset.stats();
    println!(
        "  {} segments over {:.1} x {:.1} km, {} train / {} test trajectories\n",
        st.num_segments,
        st.area_km2.0,
        st.area_km2.1,
        pipeline.train_inputs.len(),
        pipeline.test_inputs.len()
    );

    println!("Training RNTrajRec for {} epochs...", scale.epochs);
    let mut model = EndToEnd::build(
        &MethodSpec::RnTrajRec,
        &pipeline.dataset.city.net,
        &pipeline.grid,
        scale.dim,
        scale.seed,
    );
    let mut trainer = Trainer::new(TrainConfig {
        epochs: scale.epochs,
        batch_size: scale.batch,
        seed: scale.seed,
        lr: scale.lr,
        ..Default::default()
    });
    trainer.fit(&mut model, &pipeline.train_inputs, None);

    println!("\nStarting the serving engine (road embeddings precomputed once)...");
    let t = Instant::now();
    let serving = Arc::new(ServingModel::new(model));
    println!(
        "  ServingModel ready in {:.1} ms",
        t.elapsed().as_secs_f64() * 1000.0
    );
    let engine = RecoveryEngine::start(
        Arc::clone(&serving),
        EngineConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            workers: 4,
            queue_capacity: None,
            ..EngineConfig::default()
        },
    );

    // Four concurrent clients replay the test set as online requests.
    let clients = 4;
    let rounds = 3;
    println!(
        "  {clients} clients x {rounds} rounds over {} test trajectories\n",
        pipeline.test_inputs.len()
    );
    let t = Instant::now();
    let mut results: Vec<Vec<(usize, f32)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let engine = &engine;
                let inputs = &pipeline.test_inputs;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..rounds {
                        for input in inputs.iter() {
                            out.push(engine.recover(input.clone()).path);
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            results.extend(h.join().expect("client"));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "Served {} requests in {:.2} s ({:.1} req/s)",
        stats.completed,
        wall,
        stats.completed as f64 / wall
    );
    println!(
        "  {} micro-batches (mean size {:.2}; {} flushed full, {} by deadline, {} on an idle engine)",
        stats.batches,
        stats.mean_batch,
        stats.flushed_full,
        stats.flushed_deadline,
        stats.flushed_idle
    );

    // Spot-check: served output == offline tape-free output, and accuracy.
    let mut hits = 0usize;
    let mut total = 0usize;
    for (input, served) in pipeline.test_inputs.iter().zip(&results) {
        let offline = serving.recover(input);
        assert_eq!(
            &offline, served,
            "served path diverged from offline inference"
        );
        for (&(seg, _), &truth) in served.iter().zip(&input.target_segs) {
            hits += (seg == truth) as usize;
            total += 1;
        }
    }
    println!(
        "\nServed output matches offline inference exactly; segment accuracy {:.1}% ({hits}/{total})",
        100.0 * hits as f64 / total.max(1) as f64
    );
}
