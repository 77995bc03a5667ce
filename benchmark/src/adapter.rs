//! Every call into the program lives in this file, so a renamed entry
//! point is a one-file fix. The rest of the benchmark sees only the plain
//! types defined here.
//!
//! Layer probes go through the *batched* entry points only
//! (`TrajEncoder::infer_batch`, `Decoder::recover_batch_infer{_with,_stream}`,
//! `ServingModel::recover_batch`) at B=1 and B=8 — never the per-sample
//! `infer`/`infer_run` twins the roadmap deletes. The one per-sample call
//! is [`City::reference`], the repo's own HTTP ≡ in-process oracle.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::wire::v2::{Event, RecoverOptions, RecoverRequestV2, StepEvent};
use rntrajrec::wire::{RecoverRequest, RecoverResponse};
use rntrajrec_artifact::Artifact;
use rntrajrec_models::{BatchMember, DecodeHooks, InferOutput, SampleInput, StepOut};
use rntrajrec_nn::kernels::{self, SparseLogMask};
use rntrajrec_nn::{GraphCsr, Tensor};
use rntrajrec_serve::{
    CityShard, EngineConfig, QueryContext, RecoveryEngine, RecoveryHandle, ServingModel,
    ShardRouter, SubmitOptions,
};
use rntrajrec_synth::{SimConfig, Simulator};

use crate::spec::ShardSpec;

/// A recovered trajectory: `(segment id, moving rate)` per step.
pub type RecoveredPath = Vec<(usize, f32)>;

// ----- the shipped configuration, pinned ------------------------------------

pub const SERVER_WORKERS: usize = 2;
/// Engine workers of the in-process backfill: one, so that with the
/// submitter thread the workload runs no more threads than the two cores
/// the driver's machine gives it.
pub const LIBRARY_WORKERS: usize = 1;
pub const SERVER_CONN_WORKERS: usize = 4;
pub const SERVER_MAX_BATCH: usize = 8;
pub const SERVER_MAX_DELAY_MS: u64 = 2;
pub const SERVER_QUEUE_CAPACITY: usize = 64;
/// `serve_http`'s default watchdog budget (not a flag we pass).
const SERVER_BATCH_TIMEOUT: Duration = Duration::from_secs(30);
/// `pack_city` defaults, pinned so the served model is a fixture of the
/// workload and only the traffic depends on `--seed`.
const PACK_WEIGHT_SEED: u64 = 7;
const PACK_CITY_SEED: u64 = 42;

/// Environment knobs the program reads; none may leak in from the caller.
const UNSET_ENV: [&str; 4] = ["NN_BACKEND", "NN_QUANT_HEAD", "CHAOS_FAULTS", "CHAOS_SEED"];

/// Pin the in-process environment the same way [`server_command`] pins the
/// child's. Call once, first thing in `main`, before any thread exists.
pub fn pin_environment() {
    for key in UNSET_ENV {
        std::env::remove_var(key);
    }
    std::env::set_var("NN_THREADS", "1");
}

fn pin_child_env(cmd: &mut Command) {
    for key in UNSET_ENV {
        cmd.env_remove(key);
    }
    cmd.env("NN_THREADS", "1");
}

/// `serve_http` with the shipped defaults spelled out; `--addr` asks for
/// an ephemeral port, which the server prints on stdout.
pub fn server_command(bin_dir: &Path, artifacts: &[PathBuf], traced: bool) -> Command {
    let mut cmd = Command::new(bin_dir.join("serve_http"));
    cmd.args(["--addr", "127.0.0.1:0"])
        .args(["--workers", &SERVER_WORKERS.to_string()])
        .args(["--conn-workers", &SERVER_CONN_WORKERS.to_string()])
        .args(["--max-batch", &SERVER_MAX_BATCH.to_string()])
        .args(["--max-delay-ms", &SERVER_MAX_DELAY_MS.to_string()])
        .args(["--queue-capacity", &SERVER_QUEUE_CAPACITY.to_string()]);
    // The brownout ladder answers with the int8 head once queue wait
    // crosses 50 ms, which a hypervisor pause of the shared host causes at
    // random; the benchmark does not cover the ladder, so it is off.
    cmd.arg("--no-brownout");
    if !traced {
        cmd.arg("--no-trace");
    }
    for a in artifacts {
        cmd.arg("--artifact").arg(a);
    }
    pin_child_env(&mut cmd);
    cmd
}

/// The line `serve_http` prints once it is bound.
pub fn parse_listen_line(line: &str) -> Option<std::net::SocketAddr> {
    line.strip_prefix("listening on http://")?
        .trim()
        .parse()
        .ok()
}

pub fn pack_command(bin_dir: &Path, shard: &ShardSpec, out: &Path) -> Command {
    let mut cmd = Command::new(bin_dir.join("pack_city"));
    cmd.args(["--city", shard.city])
        .arg("--out")
        .arg(out)
        .args(["--model-version", "v1"])
        .args(["--blocks", &shard.blocks.to_string()])
        .args(["--dim", &shard.dim.to_string()])
        .args(["--seed", &PACK_WEIGHT_SEED.to_string()])
        .args(["--city-seed", &PACK_CITY_SEED.to_string()])
        .args(["--origin-x", &shard.origin_x.to_string()]);
    pin_child_env(&mut cmd);
    cmd
}

// ----- a loaded city ---------------------------------------------------------

/// One artifact stood up in-process exactly as `serve_http` stands it up.
pub struct City {
    pub name: String,
    /// Road segments |V|.
    pub segments: usize,
    pub dim: usize,
    pub artifact_bytes: u64,
    pub read_s: f64,
    pub instantiate_s: f64,
    serving: Arc<ServingModel>,
    ctx: Arc<QueryContext>,
}

/// A parsed wire request.
pub struct Request(RecoverRequest);

/// A model input (the output of feature extraction).
#[derive(Clone)]
pub struct Input(SampleInput);

/// One simulated trip in wire form.
pub struct Trip {
    pub body_v1: String,
    pub body_stream: String,
    pub target_len: usize,
}

impl City {
    pub fn load(path: &Path) -> Result<Self, String> {
        let t0 = Instant::now();
        let artifact = Artifact::read_from(path).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let loaded = artifact.instantiate().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let segments = loaded.city.net.num_segments();
        let serving = ServingModel::from_parts(loaded.model, loaded.x_road, loaded.quant, false)
            .map_err(|e| e.to_string())?;
        let ctx = QueryContext::new(loaded.city.net, artifact.meta.cell_m);
        Ok(Self {
            name: artifact.meta.city.clone(),
            segments,
            dim: artifact.meta.dim,
            artifact_bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
            read_s: (t1 - t0).as_secs_f64(),
            instantiate_s: (t2 - t1).as_secs_f64(),
            serving: Arc::new(serving),
            ctx: Arc::new(ctx),
        })
    }

    /// Simulate one trip per `(target_len, downsample)` plan entry with
    /// `rntrajrec_synth::Simulator`, seeded.
    pub fn simulate(&self, seed: u64, plan: &[(usize, usize)]) -> Vec<Trip> {
        let mut sim = Simulator::new(self.ctx.net(), SimConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = RecoverOptions {
            stream: true,
            ..RecoverOptions::default()
        };
        plan.iter()
            .map(|&(target_len, downsample)| {
                sim.config.target_len = target_len;
                let s = sim.sample(&mut rng, downsample);
                let v1 = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
                let v2 = RecoverRequestV2::from_raw(
                    &s.raw,
                    s.target.len(),
                    s.depart_epoch_s,
                    stream.clone(),
                );
                Trip {
                    body_v1: serde_json::to_string(&v1).expect("request serializes"),
                    body_stream: serde_json::to_string(&v2).expect("request serializes"),
                    target_len: v1.target_len,
                }
            })
            .collect()
    }

    /// `features`: wire request → model input.
    pub fn extract(&self, req: &Request) -> Result<Input, String> {
        self.ctx
            .sample_input(&req.0)
            .map(Input)
            .map_err(|e| e.to_string())
    }

    /// The correctness oracle: `ServingModel::recover`, the in-process
    /// side of the repo's HTTP ≡ in-process contract.
    pub fn reference(&self, input: &Input) -> RecoveredPath {
        self.serving.recover(&input.0)
    }

    /// `service`: the fused batch entry point.
    pub fn recover_batch(&self, inputs: &[&Input]) -> Vec<Result<RecoveredPath, String>> {
        let refs: Vec<&SampleInput> = inputs.iter().map(|i| &i.0).collect();
        self.serving.recover_batch(&refs)
    }

    /// `encoder`: one stacked pass over the batch.
    pub fn encode_batch(&self, inputs: &[&Input]) -> Encoded {
        let refs: Vec<&SampleInput> = inputs.iter().map(|i| &i.0).collect();
        let model = self.serving.model();
        let road = self.serving.road_cache().map(|c| &c.x_road);
        Encoded(
            model
                .encoder
                .infer_batch(&model.store, &refs, road)
                .expect("served models have a tape-free encoder"),
        )
    }

    fn members<'a>(inputs: &[&'a Input], enc: &'a Encoded) -> Vec<BatchMember<'a>> {
        enc.0
            .iter()
            .zip(inputs)
            .map(|(e, i)| BatchMember {
                per_point: &e.per_point,
                traj: &e.traj,
                sample: &i.0,
            })
            .collect()
    }

    /// `decoder`: the closed-batch fused decode, with the served head.
    pub fn decode_batch(&self, inputs: &[&Input], enc: &Encoded) -> Vec<RecoveredPath> {
        let model = self.serving.model();
        model.decoder.recover_batch_infer_with(
            &model.store,
            &Self::members(inputs, enc),
            self.serving.head(),
        )
    }

    /// `decoder`: the streaming decode loop, every step handed to `on_step`.
    pub fn decode_batch_stream(
        &self,
        inputs: &[&Input],
        enc: &Encoded,
        on_step: &mut dyn FnMut(),
    ) -> Vec<RecoveredPath> {
        let model = self.serving.model();
        let mut cancel = |_: usize, _: usize| false;
        let mut admit = |_: usize| Vec::new();
        let mut tap = |_: StepOut| on_step();
        model
            .decoder
            .recover_batch_infer_stream(
                &model.store,
                &Self::members(inputs, enc),
                self.serving.head(),
                &mut DecodeHooks {
                    cancel: &mut cancel,
                    admit: &mut admit,
                    on_step: &mut tap,
                },
            )
            .0
    }

    /// `gridgnn`: recompute the road representation the artifact ships.
    pub fn precompute_road(&self) -> usize {
        self.serving.model().precompute_road().map_or(0, |t| t.rows)
    }
}

/// Encoder outputs for a batch (opaque).
pub struct Encoded(Vec<InferOutput>);

impl Input {
    pub fn points(&self) -> usize {
        self.0.input_len()
    }

    pub fn target_len(&self) -> usize {
        self.0.target_len()
    }

    /// Road segments across this request's sub-graphs.
    pub fn subgraph_nodes(&self) -> usize {
        self.0.subgraphs.iter().map(|g| g.nodes.len()).sum()
    }

    /// Head columns the constraint mask allows, summed over decode steps
    /// (an unmasked step allows all `segments`).
    pub fn allowed_columns(&self, segments: usize) -> usize {
        self.0
            .masks
            .iter()
            .map(|m| m.as_ref().map_or(segments, Vec::len))
            .sum()
    }
}

// ----- wire ------------------------------------------------------------------

/// `wire`: parse a `/v1/recover` body (or a `/v2/recover/stream` body,
/// whose payload is the same request plus options).
pub fn parse_request(body: &str, stream: bool) -> Result<Request, String> {
    if stream {
        RecoverRequestV2::from_json(body)
            .map(|r| Request(r.base()))
            .map_err(|e| e.to_string())
    } else {
        RecoverRequest::from_json(body)
            .map(Request)
            .map_err(|e| e.to_string())
    }
}

impl Request {
    pub fn points(&self) -> &[[f64; 3]] {
        &self.0.points
    }
}

/// `wire`: serialize a whole `/v1/recover` response.
pub fn serialize_response(path: &[(usize, f32)]) -> String {
    serde_json::to_string(&RecoverResponse::from_path(0, path, 1, 1.0)).expect("serializes")
}

/// `wire`: serialize one `step` event per recovered point; returns bytes.
pub fn serialize_step_events(path: &[(usize, f32)]) -> usize {
    path.iter()
        .enumerate()
        .map(|(j, &(seg, rate))| {
            serde_json::to_string(&StepEvent::new(0, j, seg, rate, -0.5))
                .expect("serializes")
                .len()
        })
        .sum()
}

/// A `/v1/recover` success body, parsed client-side.
#[derive(Debug, Clone, PartialEq)]
pub struct WholeAnswer {
    pub path: RecoveredPath,
    pub batch_size: usize,
    pub latency_ms: f64,
}

pub fn parse_response(body: &str) -> Result<WholeAnswer, String> {
    let r = RecoverResponse::from_json(body).map_err(|e| e.to_string())?;
    Ok(WholeAnswer {
        path: r.path(),
        batch_size: r.batch_size,
        latency_ms: r.latency_ms,
    })
}

/// One `/v2/recover/stream` event line, parsed client-side.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    Step {
        step: usize,
        segment: usize,
        rate: f32,
    },
    Summary(WholeAnswer),
    Error {
        code: u16,
        message: String,
    },
}

pub fn parse_stream_event(line: &str) -> Result<StreamEvent, String> {
    Ok(match Event::from_json(line).map_err(|e| e.to_string())? {
        Event::Step(s) => StreamEvent::Step {
            step: s.step,
            segment: s.segment,
            rate: s.rate,
        },
        Event::Summary(s) => StreamEvent::Summary(WholeAnswer {
            path: s.segments.into_iter().zip(s.rates).collect(),
            batch_size: s.batch_size,
            latency_ms: s.latency_ms,
        }),
        Event::Error(e) => StreamEvent::Error {
            code: e.code,
            message: e.error,
        },
    })
}

// ----- engine ----------------------------------------------------------------

/// Which engine configuration an in-process engine mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineProfile {
    /// What `serve_http` builds from the pinned server flags.
    Server,
    /// `EngineConfig::default()` with one worker: what a library caller
    /// (the backfill job) gets.
    Library,
}

pub struct Engine(Arc<RecoveryEngine>);

/// Counters since the engine started.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    pub requests: u64,
    pub batches: u64,
    pub mean_batch: f64,
    pub flushed_deadline: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub stream_lagged: u64,
    pub brownout_shifts: u64,
    pub kernel_backend: String,
}

impl Engine {
    pub fn start(city: &City, profile: EngineProfile) -> Self {
        let config = match profile {
            EngineProfile::Server => EngineConfig {
                max_batch: SERVER_MAX_BATCH,
                max_delay: Duration::from_millis(SERVER_MAX_DELAY_MS),
                workers: SERVER_WORKERS,
                threads_per_worker: 0,
                queue_capacity: Some(SERVER_QUEUE_CAPACITY),
                batch_timeout: Some(SERVER_BATCH_TIMEOUT),
                brownout: None,
                ..EngineConfig::default()
            },
            EngineProfile::Library => EngineConfig {
                workers: LIBRARY_WORKERS,
                threads_per_worker: 1,
                ..EngineConfig::default()
            },
        };
        Self(Arc::new(RecoveryEngine::start(
            Arc::clone(&city.serving),
            config,
        )))
    }

    /// `engine`: enqueue one request.
    pub fn submit(&self, input: Input, stream: bool) -> Result<Pending, String> {
        let opts = if stream {
            SubmitOptions::new().stream()
        } else {
            SubmitOptions::new()
        };
        self.0
            .submit(input.0, opts)
            .map(Pending)
            .map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> EngineCounters {
        let s = self.0.stats();
        EngineCounters {
            requests: s.requests,
            batches: s.batches,
            mean_batch: s.mean_batch,
            flushed_deadline: s.flushed_deadline,
            admitted: s.admitted,
            rejected: s.rejected,
            stream_lagged: s.stream_lagged,
            brownout_shifts: s.brownout_shifts,
            kernel_backend: s.kernel_backend,
        }
    }
}

/// An in-flight in-process request.
pub struct Pending(RecoveryHandle);

/// A completed in-process request, with the engine's own timings.
#[derive(Debug, Clone)]
pub struct Finished {
    pub path: RecoveredPath,
    pub error: Option<String>,
    pub batch_size: usize,
    pub latency_s: f64,
    pub queue_wait_s: f64,
    pub compute_s: f64,
}

impl Pending {
    /// Block for each streamed step until the decode finishes.
    pub fn drain_steps(&self, mut on_step: impl FnMut(usize, usize, f32)) {
        for s in self.0.steps() {
            on_step(s.step, s.segment, s.rate);
        }
    }

    pub fn finish(self) -> Finished {
        let r = self.0.wait();
        Finished {
            path: r.path,
            error: r.error,
            batch_size: r.batch_size,
            latency_s: r.latency.as_secs_f64(),
            queue_wait_s: r.queue_wait.as_secs_f64(),
            compute_s: r.compute.as_secs_f64(),
        }
    }
}

// ----- shard -----------------------------------------------------------------

/// `shard`: the router `serve_http` builds over its city shards.
pub struct Router(ShardRouter);

impl Router {
    pub fn new(shards: &[(&City, &Engine)]) -> Self {
        Self(ShardRouter::new(
            shards
                .iter()
                .map(|(city, engine)| {
                    CityShard::new(
                        city.name.clone(),
                        Arc::clone(&engine.0),
                        Arc::clone(&city.ctx),
                        None,
                    )
                })
                .collect(),
        ))
    }

    /// Resolve a request to its shard's name.
    pub fn resolve(&self, req: &Request) -> Result<&str, String> {
        self.0
            .resolve(req.points())
            .map(CityShard::name)
            .map_err(|e| e.to_string())
    }
}

// ----- observability ----------------------------------------------------------

/// Turn the program's own span recording on or off in this process.
pub fn set_tracing(on: bool) {
    rntrajrec_obs::set_enabled(on);
}

/// The in-process twin of `GET /metrics`' histogram section.
pub fn render_histograms() -> String {
    rntrajrec_obs::metrics::render()
}

/// Run `f` under `kernels::profile_scope`: `(result, matmuls, flops)`
/// issued from the calling thread.
pub fn kernel_profile<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let scope = kernels::profile_scope("bench.probe");
    let out = f();
    let p = scope.finish();
    (out, p.matmuls, p.flops)
}

pub fn kernel_backend() -> &'static str {
    kernels::backend::active_name()
}

// ----- kernels ---------------------------------------------------------------

/// Tensors at the workload's own shapes for the kernel probes: `B`
/// members' decode rows against a `[d, |V|]` head, their stacked encoder
/// rows, and their stacked sub-graphs.
pub struct KernelFixture {
    h: Tensor,
    w_head: Tensor,
    b_head: Tensor,
    masks: Vec<Option<Vec<(usize, f32)>>>,
    rows: Tensor,
    row_segs: Vec<Range<usize>>,
    gamma: Tensor,
    beta: Tensor,
    nodes: Tensor,
    graph_segs: Vec<Range<usize>>,
    member_graphs: Vec<Range<usize>>,
    node_member: Vec<usize>,
    csr: GraphCsr,
    src: Tensor,
    dst: Tensor,
}

/// Deterministic non-zero fill: the scalar backend skips zero entries of
/// the left operand, so zeros would flatter it.
fn filled(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 31 + salt * 17 + 7) % 97) as f32 / 97.0 - 0.52)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

impl City {
    pub fn kernel_fixture(&self, inputs: &[&Input]) -> KernelFixture {
        let (d, v) = (self.dim, self.segments);
        // Each member contributes the mask of its median-density step, so
        // the masked head runs at the corpus' own density.
        let masks = inputs
            .iter()
            .map(|i| {
                let mut by_len: Vec<&Option<Vec<(usize, f32)>>> = i.0.masks.iter().collect();
                by_len.sort_by_key(|m| m.as_ref().map_or(v, Vec::len));
                by_len[by_len.len() / 2].as_ref().map(|entries| {
                    entries
                        .iter()
                        .map(|&(c, w)| (c, w.max(1e-6).ln()))
                        .collect()
                })
            })
            .collect();
        let mut row_segs = Vec::new();
        let mut graph_segs = Vec::new();
        let mut member_graphs = Vec::new();
        let mut node_member = Vec::new();
        let (mut row_off, mut node_off) = (0, 0);
        let mut parts: Vec<&GraphCsr> = Vec::new();
        for (m, i) in inputs.iter().enumerate() {
            row_segs.push(row_off..row_off + i.points());
            row_off += i.points();
            let g0 = graph_segs.len();
            for g in &i.0.subgraphs {
                graph_segs.push(node_off..node_off + g.nodes.len());
                node_off += g.nodes.len();
                node_member.extend(std::iter::repeat_n(m, g.nodes.len()));
                parts.push(&g.csr);
            }
            member_graphs.push(g0..graph_segs.len());
        }
        KernelFixture {
            h: filled(inputs.len(), d, 1),
            w_head: filled(d, v, 2),
            b_head: filled(1, v, 3),
            masks,
            rows: filled(row_off, d, 4),
            row_segs,
            gamma: filled(1, d, 5),
            beta: filled(1, d, 6),
            nodes: filled(node_off, d, 7),
            graph_segs,
            member_graphs,
            node_member,
            csr: GraphCsr::block_diagonal(parts),
            src: filled(node_off, 1, 8),
            dst: filled(node_off, 1, 9),
        }
    }
}

impl KernelFixture {
    /// `[B,d]×[d,|V|]`, the dense segment head.
    pub fn matmul_head(&self) -> Tensor {
        kernels::matmul(&self.h, &self.w_head)
    }

    /// `masked_matmul_cols`, the served sparse head.
    pub fn masked_head(&self) -> Tensor {
        let masks: Vec<Option<SparseLogMask>> = self
            .masks
            .iter()
            .map(|m| {
                m.as_deref().map(|entries| SparseLogMask {
                    default: -30.0,
                    entries,
                })
            })
            .collect();
        kernels::masked_matmul_cols(&self.h, &self.w_head, &self.b_head, &masks)
    }

    /// `segmented_self_attention` over the members' stacked encoder rows.
    pub fn attention(&self) -> Tensor {
        let scale = 1.0 / (self.rows.cols as f32).sqrt();
        kernels::segmented_self_attention(&self.rows, &self.rows, &self.rows, &self.row_segs, scale)
    }

    pub fn layer_norm(&self) -> Tensor {
        kernels::layer_norm(&self.rows, &self.gamma, &self.beta, 1e-5)
    }

    /// GraphNorm's two kernels: member-scoped statistics, then apply.
    pub fn segmented_norm(&self) -> Tensor {
        let (mu, inv) =
            kernels::segmented_norm_stats(&self.nodes, &self.graph_segs, &self.member_graphs, 1e-5);
        kernels::segmented_norm_apply(
            &self.nodes,
            &mu,
            &inv,
            &self.node_member,
            &self.gamma,
            &self.beta,
        )
    }

    /// One GAT head's graph ops over the stacked sub-graphs.
    pub fn gat(&self) -> Tensor {
        let scores = kernels::edge_scores(&self.src, &self.dst, &self.csr);
        let alphas = kernels::segmented_softmax(&scores, &self.csr);
        kernels::neighbor_sum(&alphas, &self.nodes, &self.csr)
    }

    /// Bytes the sparse head touches per step, computed from tensor sizes:
    /// the `[B,d]` rows, the allowed weight columns and biases, the
    /// outputs written.
    pub fn head_bytes_moved(&self) -> f64 {
        let (b, d, v) = (self.h.rows, self.h.cols, self.w_head.cols);
        let allowed: usize = self
            .masks
            .iter()
            .map(|m| m.as_ref().map_or(v, Vec::len))
            .sum();
        4.0 * (b * d + allowed * d + 2 * allowed) as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A tiny packed city for unit tests, written under the git-ignored
    /// `benchmark/out` (one file per `tag`: tests run in parallel).
    pub(crate) fn test_city(tag: &str) -> City {
        let config = rntrajrec_roadnet::CityConfig {
            blocks_x: 4,
            blocks_y: 4,
            seed: PACK_CITY_SEED,
            ..rntrajrec_roadnet::CityConfig::tiny()
        };
        let artifact =
            rntrajrec_artifact::pack_fresh("test", "v1", &config, 50.0, 8, PACK_WEIGHT_SEED);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out dir");
        let path = dir.join(format!("unit-test-{tag}.rnta"));
        artifact.write_to(&path).expect("write artifact");
        City::load(&path).expect("load artifact")
    }

    #[test]
    fn listen_line_parses() {
        let addr = parse_listen_line("listening on http://127.0.0.1:45123\n").expect("addr");
        assert_eq!(addr.port(), 45123);
        assert!(parse_listen_line("kernels: backend=avx2").is_none());
    }
}
