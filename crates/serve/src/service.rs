//! The serving-side model wrapper: a trained [`EndToEnd`] model validated
//! for tape-free inference, plus the precomputed road-embedding cache and
//! the [`QueryContext`] that turns wire requests into model inputs.

use rntrajrec::wire::RecoverRequest;
use rntrajrec::EndToEnd;
use rntrajrec_geo::GridSpec;
use rntrajrec_models::{FeatureExtractor, QueryError, SampleInput, SegmentHead};
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::Tensor;
use rntrajrec_roadnet::{RTree, RoadNetwork};
use rntrajrec_synth::TimeContext;

/// A recovered trajectory: one `(segment id, moving rate)` per ϵρ step.
pub type RecoveredPath = Vec<(usize, f32)>;

/// Precomputed GridGNN road representation `X_road ∈ R^{|V|×d}`.
///
/// The paper notes the road-network representation is input-independent
/// and can be computed in advance at inference time; this cache is that
/// observation made structural. It is built once per (road network,
/// weights) pair and shared read-only — `Arc<ServingModel>` — across every
/// worker thread, so per-request encoder work is only the GPS encoder and
/// decoder.
#[derive(Debug, Clone)]
pub struct RoadEmbeddingCache {
    /// `[|V|, d]` — one embedding row per road segment.
    pub x_road: Tensor,
}

impl RoadEmbeddingCache {
    /// Build from a model's current weights; `None` when the encoder has
    /// no input-independent representation (pure-sequence baselines).
    pub fn build(model: &EndToEnd) -> Option<Self> {
        model.precompute_road().map(|x_road| Self { x_road })
    }
}

/// Why a model cannot be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The encoder implements no tape-free inference path (only the
    /// RNTrajRec encoder does today); serve with [`EndToEnd::predict`]
    /// offline instead.
    NoInferPath { encoder: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoInferPath { encoder } => {
                write!(f, "encoder '{encoder}' has no tape-free inference path")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "inference panicked".to_string())
}

/// Should serving quantize the decoder's segment head to int8?
/// (`NN_QUANT_HEAD=1|true|int8`; anything else — including unset — keeps
/// the f32 sparse head.)
pub fn quant_head_env() -> bool {
    matches!(
        std::env::var("NN_QUANT_HEAD").as_deref(),
        Ok("1") | Ok("true") | Ok("int8")
    )
}

/// Per-batch serving options for [`ServingModel::recover_batch_opts`]:
/// the engine's deadline and brownout decisions, carried into the fused
/// pass.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Per-member absolute deadlines (parallel to the input slice; empty
    /// = no deadlines). A member whose deadline passes mid-decode is
    /// cancelled through the decoder's state-compaction path — survivors
    /// stay bit-identical — and reported as
    /// [`MemberError::DeadlineExceeded`].
    pub deadlines: Vec<Option<std::time::Instant>>,
    /// Brownout override: serve this batch with the int8 quantized head
    /// regardless of the configured default (falls back to the sparse
    /// head if quantization was impossible).
    pub degraded_head: bool,
}

/// Why one batch member failed to produce a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberError {
    /// Inference panicked for this member (malformed input, injected
    /// fault); the engine itself stays up.
    Failed(String),
    /// The member's deadline expired mid-decode and it was cancelled out
    /// of the fused batch.
    DeadlineExceeded,
}

impl std::fmt::Display for MemberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemberError::Failed(msg) => write!(f, "{msg}"),
            MemberError::DeadlineExceeded => write!(f, "deadline exceeded mid-decode"),
        }
    }
}

impl std::error::Error for MemberError {}

/// A model ready to serve: tape-free path validated at construction, road
/// embeddings precomputed, and the decoder's segment head pre-quantized
/// to int8 — served by default under `NN_QUANT_HEAD`, and otherwise held
/// ready as the brownout degraded head. Shared read-only across worker
/// threads.
pub struct ServingModel {
    model: EndToEnd,
    road: Option<RoadEmbeddingCache>,
    /// Int8 segment head, built once at load. Always present so the
    /// brownout controller can switch to it under pressure without a
    /// load-time decision.
    quant: QuantizedLinear,
    /// Serve the int8 head by default (vs only in brownout).
    default_int8: bool,
}

impl ServingModel {
    /// Wrap a trained model, honouring the `NN_QUANT_HEAD` env knob.
    /// Fails fast (rather than at first request) when the encoder cannot
    /// run without a tape.
    pub fn new(model: EndToEnd) -> Result<Self, ServeError> {
        Self::with_quantized_head(model, quant_head_env())
    }

    /// Wrap a trained model with an explicit head choice: `quantized`
    /// pre-quantizes the decoder's `[d,|V|]` segment-head weights to
    /// per-channel int8 ([`QuantizedLinear`]), otherwise the f32
    /// sparse head serves.
    pub fn with_quantized_head(model: EndToEnd, quantized: bool) -> Result<Self, ServeError> {
        if !model.supports_infer() {
            return Err(ServeError::NoInferPath {
                encoder: model.name.clone(),
            });
        }
        let road = RoadEmbeddingCache::build(&model);
        let quant = model.decoder.quantized_segment_head(&model.store);
        Ok(Self {
            model,
            road,
            quant,
            default_int8: quantized,
        })
    }

    /// Wrap a model whose serving caches were **loaded** rather than
    /// derived — the artifact hot-reload path. A packed `x_road` /
    /// int8 head is used as-is (the artifact loader has already
    /// shape-checked both against the model); a missing one falls back
    /// to deriving from the weights, exactly as
    /// [`ServingModel::with_quantized_head`] would.
    pub fn from_parts(
        model: EndToEnd,
        x_road: Option<Tensor>,
        quant: Option<QuantizedLinear>,
        quantized: bool,
    ) -> Result<Self, ServeError> {
        if !model.supports_infer() {
            return Err(ServeError::NoInferPath {
                encoder: model.name.clone(),
            });
        }
        let road = match x_road {
            Some(x_road) => Some(RoadEmbeddingCache { x_road }),
            None => RoadEmbeddingCache::build(&model),
        };
        let quant = quant.unwrap_or_else(|| model.decoder.quantized_segment_head(&model.store));
        Ok(Self {
            model,
            road,
            quant,
            default_int8: quantized,
        })
    }

    /// The decoder segment head this model serves with by default.
    pub fn head(&self) -> SegmentHead<'_> {
        if self.default_int8 {
            SegmentHead::Quantized(&self.quant)
        } else {
            SegmentHead::Sparse
        }
    }

    /// The degraded (brownout) segment head: always the int8 quantized
    /// head — cheapest per step, pre-built at load.
    pub fn degraded_head(&self) -> SegmentHead<'_> {
        SegmentHead::Quantized(&self.quant)
    }

    /// Short name of the default segment head, for logs and `/metrics`.
    pub fn head_name(&self) -> &'static str {
        if self.default_int8 {
            "int8"
        } else {
            "sparse"
        }
    }

    /// Recover one trajectory on the tape-free hot path: the fused pass
    /// ([`rntrajrec::EndToEnd::infer_predict_batch`]) over a batch of one.
    /// Panics on malformed input — [`ServingModel::recover_batch`]
    /// isolates it instead.
    pub fn recover(&self, input: &SampleInput) -> RecoveredPath {
        self.model
            .infer_predict_batch(&[input], self.road.as_ref().map(|c| &c.x_road), self.head())
            .expect("infer path validated in ServingModel::new")
            .remove(0)
    }

    /// Recover a whole micro-batch through the **fused encoder + decoder**
    /// ([`rntrajrec::EndToEnd::infer_predict_batch_stream`]): one stacked
    /// encoder pass for the whole batch (GraphNorm statistics stay scoped
    /// per member, so batching cannot change results) and decode steps as
    /// stacked `[B, ·]` products — one matmul per projection / head
    /// instead of one per member — with output bit-identical to
    /// per-member [`ServingModel::recover`].
    ///
    /// Panic isolation: a malformed member panics the fused pass, so on
    /// panic every member is re-run alone through the same fused pass,
    /// each individually caught — the bad request fails alone (`Err` with
    /// the panic message) and every healthy member still returns its
    /// exact result.
    pub fn recover_batch(&self, inputs: &[&SampleInput]) -> Vec<Result<RecoveredPath, String>> {
        self.recover_batch_opts(inputs, &BatchOptions::default())
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
    }

    /// [`ServingModel::recover_batch`] with per-batch [`BatchOptions`]:
    /// deadline propagation into the decode loop and the brownout head
    /// override. Same fused pass, same panic-isolation fallback; members
    /// cancelled mid-decode report [`MemberError::DeadlineExceeded`].
    pub fn recover_batch_opts(
        &self,
        inputs: &[&SampleInput],
        opts: &BatchOptions,
    ) -> Vec<Result<RecoveredPath, MemberError>> {
        let expired = |i: usize| {
            opts.deadlines
                .get(i)
                .copied()
                .flatten()
                .is_some_and(|d| std::time::Instant::now() >= d)
        };
        // A closed batch: nobody is admitted, nothing is streamed.
        // `cancel` sees batch-local member indices.
        let closed = |batch: &[&SampleInput], cancel: &mut dyn FnMut(usize, usize) -> bool| {
            let (paths, cancelled) = self.recover_batch_stream(
                batch,
                opts.degraded_head,
                &mut rntrajrec::StreamCtl {
                    cancel,
                    admit: &mut |_| Vec::new(),
                    on_step: &mut |_| {},
                },
            )?;
            Ok::<Vec<_>, String>(
                paths
                    .into_iter()
                    .zip(cancelled)
                    .map(|(path, cut)| {
                        if cut {
                            Err(MemberError::DeadlineExceeded)
                        } else {
                            Ok(path)
                        }
                    })
                    .collect(),
            )
        };
        match closed(inputs, &mut |i, _step| expired(i)) {
            Ok(results) => results,
            // Per-member re-run after a fused-pass panic. An
            // already-expired member fails without paying for its encoder
            // pass; the rest are cut at step granularity as usual.
            Err(_) => inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    if expired(i) {
                        return Err(MemberError::DeadlineExceeded);
                    }
                    closed(&[input], &mut |_, _step| expired(i))
                        .map_err(MemberError::Failed)?
                        .remove(0)
                })
                .collect(),
        }
    }

    /// The continuous-batching / streaming sibling of
    /// [`ServingModel::recover_batch_opts`]
    /// ([`rntrajrec::EndToEnd::infer_predict_batch_stream`]): the
    /// caller's [`rntrajrec::StreamCtl`] hooks drive mid-decode
    /// cancellation, mid-decode **admission** of new requests (their
    /// encoder pass runs fused with co-arrivals and splices into the
    /// live decode stack), and per-step streaming. Incumbents stay
    /// bit-identical to a closed batch whether or not anyone joins.
    ///
    /// Unlike the closed-batch path there is no per-member fallback
    /// here: a panic in the fused pass returns `Err(message)` and the
    /// caller (the engine) re-runs the collected session through
    /// [`ServingModel::recover_batch_opts`], which isolates the bad
    /// member.
    pub fn recover_batch_stream(
        &self,
        inputs: &[&SampleInput],
        degraded_head: bool,
        ctl: &mut rntrajrec::StreamCtl<'_>,
    ) -> Result<(Vec<RecoveredPath>, Vec<bool>), String> {
        let road = self.road.as_ref().map(|c| &c.x_road);
        let head = if degraded_head {
            self.degraded_head()
        } else {
            self.head()
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.model
                .infer_predict_batch_stream(inputs, road, head, ctl)
                .expect("infer path validated in ServingModel::new")
        }))
        .map_err(|payload| panic_message(&payload))
    }

    pub fn model(&self) -> &EndToEnd {
        &self.model
    }

    pub fn road_cache(&self) -> Option<&RoadEmbeddingCache> {
        self.road.as_ref()
    }
}

/// Server-side feature extraction context: everything needed to turn a
/// wire [`RecoverRequest`] (raw GPS points, no ground truth) into the
/// [`SampleInput`] the engine consumes. Owns the road network, its
/// spatial index, and the grid spec; shared read-only (`Arc`) across HTTP
/// worker threads. Must be built over the **same road network and grid**
/// as the served model — recovered segment indices are meaningless
/// otherwise.
pub struct QueryContext {
    net: RoadNetwork,
    rtree: RTree,
    grid: GridSpec,
    /// `net.bbox()` cached once — it scans every segment geometry, which
    /// must not happen per request.
    bbox: rntrajrec_geo::BBox,
}

impl QueryContext {
    /// Index `net` and cover it with `cell_m`-metre grid cells (the paper
    /// uses 50 m; pass the same value the model was built with).
    pub fn new(net: RoadNetwork, cell_m: f64) -> Self {
        let rtree = RTree::build(&net);
        let grid = net.grid(cell_m);
        let bbox = net.bbox();
        Self {
            net,
            rtree,
            grid,
            bbox,
        }
    }

    /// Convert a validated wire request into a model input via
    /// [`FeatureExtractor::extract_query`]. The result is bit-identical
    /// to what an in-process caller holding the same context would build
    /// — the property behind HTTP ≡ in-process recovery.
    ///
    /// # Errors
    /// A [`QueryError`] for request shapes feature extraction refuses
    /// (empty trajectory, zero target, non-finite or far-off-site
    /// coordinates) — the HTTP layer maps these to field-precise `400`s;
    /// they must never panic a connection worker.
    pub fn sample_input(&self, req: &RecoverRequest) -> Result<SampleInput, QueryError> {
        let fx = FeatureExtractor::with_bbox(&self.net, &self.rtree, self.grid, self.bbox);
        fx.extract_query(
            &req.raw_trajectory(),
            req.target_len,
            TimeContext::from_epoch_s(req.depart_epoch_s),
        )
    }

    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The road network's bounding box (cached at construction). The
    /// shard router uses it to resolve requests to city shards.
    pub fn bbox(&self) -> rntrajrec_geo::BBox {
        self.bbox
    }
}
