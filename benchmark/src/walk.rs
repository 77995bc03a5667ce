//! The in-process layer walk of the traced pass: load the same artifact
//! the server loads and call each layer's public function in pipeline
//! order on the workload's own requests, under benchmark-owned spans,
//! with kernel counts from `kernels::profile_scope` and allocation counts
//! from the counting allocator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, Engine, Input, Router};
use crate::alloc;
use crate::prep::Prepared;
use crate::spans::Recorder;
use crate::spec::{Shape, WALK_REQUESTS};
use crate::stats::{mean, median};

/// Members per fused batch in the `_b8` probes (the server's `max_batch`).
const FUSED: usize = adapter::SERVER_MAX_BATCH;

/// One timed, allocation-counted, kernel-profiled call.
struct Probe<R> {
    out: R,
    secs: f64,
    allocs: u64,
    bytes: u64,
    matmuls: u64,
    flops: u64,
}

fn probe<R>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<usize>,
    rid: u64,
    f: impl FnOnce() -> R,
) -> Probe<R> {
    let (((out, matmuls, flops), allocs, bytes), secs) = rec.time(name, parent, rid, || {
        alloc::measure(|| adapter::kernel_profile(f))
    });
    Probe {
        out,
        secs,
        allocs,
        bytes,
        matmuls,
        flops,
    }
}

#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, key: &'static str, v: f64) {
        self.0.entry(key).or_default().push(v);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Median wall time of `f` in microseconds: repeat for ~20 ms (at least
/// five runs) so a sub-microsecond kernel is not a single clock tick.
fn kernel_us<R>(rec: &mut Recorder, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 5 || (started.elapsed() < Duration::from_millis(20) && runs.len() < 200) {
        let ((), secs) = rec.time(name, None, 0, || {
            std::hint::black_box(f());
        });
        runs.push(secs * 1e6);
    }
    median(&runs)
}

/// Walk the layers. Writes the per-layer metrics it owns into `out` and
/// returns the number of requests walked. `engines` are server-profile
/// engines (one per city) that the shard router is built over.
pub fn layer_walk(
    p: &Prepared,
    engines: &[Engine],
    rec: &mut Recorder,
    budget: Duration,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<usize, String> {
    let w = p.workload;
    let http = w.shape.is_http();
    let streams = p.streams();
    let router = Router::new(&p.cities.iter().zip(engines).collect::<Vec<_>>());
    let mut s = Series::default();
    let started = Instant::now();

    // Pass 1: one request at a time, pipeline order, B=1.
    let mut walked: Vec<usize> = Vec::new();
    for &i in p.order.iter().take(WALK_REQUESTS) {
        // The B=8 passes below cost about as much again per request.
        if walked.len() >= 2 * FUSED && started.elapsed() > budget / 2 {
            break;
        }
        walked.push(i);
        let rid = i as u64 + 1;
        let item = &p.items[i];
        let city = &p.cities[item.city];
        let want = &p.expected[i].reference;
        let t0 = Instant::now();
        let root = rec.record("walk.request", t0, t0, None, rid);
        let parent = Some(root);

        let input: Input = if http {
            let body = if streams {
                &item.trip.body_stream
            } else {
                &item.trip.body_v1
            };
            let parsed = probe(rec, "wire.parse", parent, rid, || {
                adapter::parse_request(body, streams)
            });
            let request = parsed.out?;
            s.push("parse_s", parsed.secs);
            s.push("wire_allocs", parsed.allocs as f64);
            s.push("request_bytes", body.len() as f64);

            let resolved = probe(rec, "shard.resolve", parent, rid, || {
                router.resolve(&request).map(str::to_string)
            });
            s.push("resolve_s", resolved.secs);
            s.push(
                "route_errors",
                f64::from(resolved.out.as_deref() != Ok(city.name.as_str())),
            );
            let extracted = probe(rec, "features.extract", parent, rid, || {
                city.extract(&request)
            });
            s.push("extract_s", extracted.secs);
            s.push("extract_allocs", extracted.allocs as f64);
            extracted.out?
        } else {
            // The bulk path starts at feature extraction.
            let extracted = probe(rec, "features.extract", parent, rid, || {
                city.extract(&p.requests[i])
            });
            s.push("extract_s", extracted.secs);
            s.push("extract_allocs", extracted.allocs as f64);
            extracted.out?
        };
        let points = input.points() as f64;
        let steps = input.target_len() as f64;
        s.push(
            "extract_s_per_point",
            s.get("extract_s").last().copied().unwrap_or(0.0) / points,
        );
        s.push("nodes_per_point", input.subgraph_nodes() as f64 / points);
        s.push(
            "allowed_columns",
            input.allowed_columns(city.segments) as f64,
        );
        s.push("steps", steps);
        s.push("dim", city.dim as f64);
        s.push("segments", city.segments as f64);

        let one = [&input];
        let served = probe(rec, "service.recover_batch_b1", parent, rid, || {
            city.recover_batch(&one)
        });
        s.push("service_b1_s", served.secs);
        if served.out.first().and_then(|r| r.as_ref().ok()) != Some(want) {
            return Err(format!(
                "walk: recover_batch(B=1) of trip {i} differs from the reference"
            ));
        }

        let enc = probe(rec, "encoder.infer_batch_b1", parent, rid, || {
            city.encode_batch(&one)
        });
        s.push("enc_b1_s", enc.secs);
        s.push("enc_b1_s_per_point", enc.secs / points);
        s.push("enc_flops", enc.flops as f64);
        s.push("enc_allocs", enc.allocs as f64);
        s.push("enc_bytes", enc.bytes as f64);

        let dec = probe(rec, "decoder.recover_batch_b1", parent, rid, || {
            city.decode_batch(&one, &enc.out)
        });
        s.push("dec_b1_s_per_step", dec.secs / steps);
        s.push("dec_allocs_per_step", dec.allocs as f64 / steps);
        s.push("dec_bytes_per_step", dec.bytes as f64 / steps);
        if dec.out.first() != Some(want) {
            return Err(format!(
                "walk: encode+decode(B=1) of trip {i} differs from the reference"
            ));
        }

        if http {
            let body = probe(rec, "wire.serialize", parent, rid, || {
                adapter::serialize_response(want)
            });
            s.push("serialize_s", body.secs);
            let events = probe(rec, "wire.step_events", parent, rid, || {
                adapter::serialize_step_events(want)
            });
            s.push("step_event_s", events.secs / steps);
            let (allocs, bytes) = if streams {
                (events.allocs + body.allocs, events.out + body.out.len())
            } else {
                (body.allocs, body.out.len())
            };
            s.push("response_bytes", bytes as f64);
            if let Some(a) = s.0.get_mut("wire_allocs").and_then(|v| v.last_mut()) {
                *a += allocs as f64;
            }
        }
        let end = Instant::now();
        rec.spans[root].end_ns = rec.ns(end);
    }

    // Pass 2: fused batches of eight, per city (a batch never mixes
    // cities — each shard has its own engine).
    for (c, city) in p.cities.iter().enumerate() {
        let mine: Vec<usize> = walked
            .iter()
            .copied()
            .filter(|&i| p.items[i].city == c)
            .collect();
        for group in mine.chunks_exact(FUSED) {
            let rid = group[0] as u64 + 1;
            let batch: Vec<&Input> = group.iter().map(|&i| &p.inputs[i]).collect();
            let member_steps: f64 = batch.iter().map(|i| i.target_len() as f64).sum();
            let ticks = batch.iter().map(|i| i.target_len()).max().unwrap_or(1) as f64;
            let n = FUSED as f64;

            let served = probe(rec, "service.recover_batch_b8", None, rid, || {
                city.recover_batch(&batch)
            });
            s.push("service_b8_s", served.secs / n);
            for (&i, got) in group.iter().zip(&served.out) {
                if got.as_ref().ok() != Some(&p.expected[i].reference) {
                    return Err(format!(
                        "walk: recover_batch(B={FUSED}) of trip {i} differs from the reference"
                    ));
                }
            }
            let enc = probe(rec, "encoder.infer_batch_b8", None, rid, || {
                city.encode_batch(&batch)
            });
            s.push("enc_b8_s", enc.secs / n);
            s.push("enc_b8_matmuls", enc.matmuls as f64);
            let dec = probe(rec, "decoder.recover_batch_b8", None, rid, || {
                city.decode_batch(&batch, &enc.out)
            });
            s.push("dec_b8_s_per_step", dec.secs / member_steps);
            s.push("dec_b8_matmuls_per_tick", dec.matmuls as f64 / ticks);
            let mut seen = 0usize;
            let streamed = probe(rec, "decoder.recover_batch_stream_b8", None, rid, || {
                city.decode_batch_stream(&batch, &enc.out, &mut || seen += 1)
            });
            s.push("dec_stream_b8_s_per_step", streamed.secs / member_steps);
            if streamed.out != dec.out || seen as f64 != member_steps {
                return Err("walk: streamed decode differs from the closed-batch decode".into());
            }
        }
    }

    let us = |key: &str| median(s.get(key)) * 1e6;
    let ms = |key: &str| median(s.get(key)) * 1e3;
    // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
    let or_zero = |v: f64| if v.is_finite() { v + 0.0 } else { 0.0 };
    let mut put = |name: &'static str, v: f64| {
        out.insert(name, or_zero(v));
    };
    // Layers the workload does not cross report 0.
    put("wire.parse_us", us("parse_s"));
    put("wire.serialize_us", us("serialize_s"));
    put("wire.step_event_us", us("step_event_s"));
    put("wire.request_bytes", mean(s.get("request_bytes")));
    put("wire.response_bytes", mean(s.get("response_bytes")));
    put("wire.allocs_per_request", mean(s.get("wire_allocs")));
    put("shard.resolve_ns", median(s.get("resolve_s")) * 1e9);
    put("shard.route_errors", s.get("route_errors").iter().sum());
    put("features.extract_us", us("extract_s"));
    put("features.us_per_point", us("extract_s_per_point"));
    put(
        "features.subgraph_nodes_per_point",
        mean(s.get("nodes_per_point")),
    );
    put("features.allocs_per_request", mean(s.get("extract_allocs")));
    put("service.recover_ms_b1", ms("service_b1_s"));
    put("service.recover_ms_b8", ms("service_b8_s"));
    put(
        "service.fusion_speedup_b8",
        median(s.get("service_b1_s")) / median(s.get("service_b8_s")),
    );
    put("encoder.ms_per_request_b1", ms("enc_b1_s"));
    put("encoder.ms_per_request_b8", ms("enc_b8_s"));
    put("encoder.us_per_point_b1", us("enc_b1_s_per_point"));
    put(
        "encoder.matmuls_per_batch_b8",
        median(s.get("enc_b8_matmuls")),
    );
    put("encoder.flops_per_request", mean(s.get("enc_flops")));
    put("encoder.allocs_per_request", mean(s.get("enc_allocs")));
    put("encoder.alloc_bytes_per_request", mean(s.get("enc_bytes")));
    put("decoder.us_per_step_b1", us("dec_b1_s_per_step"));
    put("decoder.us_per_step_b8", us("dec_b8_s_per_step"));
    put(
        "decoder.stream_us_per_step_b8",
        us("dec_stream_b8_s_per_step"),
    );
    put(
        "decoder.matmuls_per_step_b8",
        median(s.get("dec_b8_matmuls_per_tick")),
    );
    put(
        "decoder.allocs_per_step",
        mean(s.get("dec_allocs_per_step")),
    );
    put(
        "decoder.alloc_bytes_per_step",
        mean(s.get("dec_bytes_per_step")),
    );
    // Head work per decode step, computed from the masks: 2·d per allowed
    // column; the skip ratio is the share of |V| the mask never touches.
    let allowed: f64 = s.get("allowed_columns").iter().sum();
    let steps: f64 = s.get("steps").iter().sum();
    let head_flops: f64 = s
        .get("allowed_columns")
        .iter()
        .zip(s.get("dim"))
        .map(|(a, d)| 2.0 * d * a)
        .sum();
    let dense: f64 = s
        .get("steps")
        .iter()
        .zip(s.get("segments"))
        .map(|(n, v)| n * v)
        .sum();
    put("decoder.head_flops_per_step", head_flops / steps);
    put("decoder.mask_skip_ratio", 1.0 - allowed / dense);

    // gridgnn: what `pack_city` pays to precompute X_road, per city.
    let (mut grid_ms, mut grid_matmuls) = (0.0, 0.0);
    for city in &p.cities {
        let runs: Vec<Probe<usize>> = (0..3)
            .map(|_| {
                probe(rec, "gridgnn.precompute_road", None, 0, || {
                    city.precompute_road()
                })
            })
            .collect();
        grid_ms += median(&runs.iter().map(|r| r.secs * 1e3).collect::<Vec<_>>());
        grid_matmuls += runs[0].matmuls as f64;
    }
    put("gridgnn.precompute_ms", grid_ms);
    put("gridgnn.matmuls", grid_matmuls);

    // kernels: at the batch size the workload actually serves.
    let b = if matches!(w.shape, Shape::BulkWindow { .. }) {
        FUSED
    } else {
        1
    };
    let first_city: Vec<&Input> = walked
        .iter()
        .filter(|&&i| p.items[i].city == 0)
        .take(b)
        .map(|&i| &p.inputs[i])
        .collect();
    let fx = p.cities[0].kernel_fixture(&first_city);
    put(
        "kernels.matmul_head_us",
        kernel_us(rec, "kernels.matmul_head", || fx.matmul_head()),
    );
    put(
        "kernels.masked_head_us",
        kernel_us(rec, "kernels.masked_head", || fx.masked_head()),
    );
    put(
        "kernels.attention_us",
        kernel_us(rec, "kernels.attention", || fx.attention()),
    );
    put(
        "kernels.layer_norm_us",
        kernel_us(rec, "kernels.layer_norm", || fx.layer_norm()),
    );
    put(
        "kernels.segmented_norm_us",
        kernel_us(rec, "kernels.segmented_norm", || fx.segmented_norm()),
    );
    put("kernels.gat_us", kernel_us(rec, "kernels.gat", || fx.gat()));
    put("kernels.head_bytes_moved", fx.head_bytes_moved());

    put("artifact.pack_ms", p.pack_s * 1e3);
    put(
        "artifact.read_ms",
        p.cities.iter().map(|c| c.read_s * 1e3).sum(),
    );
    put(
        "artifact.instantiate_ms",
        p.cities.iter().map(|c| c.instantiate_s * 1e3).sum(),
    );
    put(
        "artifact.bytes",
        p.cities.iter().map(|c| c.artifact_bytes as f64).sum(),
    );
    Ok(walked.len())
}
