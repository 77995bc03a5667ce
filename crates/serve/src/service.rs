//! The serving-side model wrapper: a trained [`EndToEnd`] model with its
//! precomputed road-embedding cache, plus the [`QueryContext`] that turns
//! wire requests into model inputs.

use std::convert::Infallible;

use rntrajrec::wire::RecoverRequest;
use rntrajrec::EndToEnd;
use rntrajrec_geo::GridSpec;
use rntrajrec_models::{
    DecodeState, FeatureExtractor, InferOutput, QueryError, SampleInput, SegmentHead,
};
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

/// Human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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

/// A model ready to serve on the tape-free path: road embeddings
/// precomputed, and — under `NN_QUANT_HEAD` — the decoder's segment head
/// pre-quantized to int8. Shared read-only across worker threads.
pub struct ServingModel {
    model: EndToEnd,
    road: Option<RoadEmbeddingCache>,
    /// The int8 segment head, built once at load; present only when it
    /// serves (otherwise the f32 sparse head does).
    quant: Option<QuantizedLinear>,
}

impl ServingModel {
    /// Wrap a trained model, deriving both serving caches from its
    /// weights and honouring the `NN_QUANT_HEAD` env knob.
    pub fn new(model: EndToEnd) -> Self {
        let Ok(serving) = Self::from_parts(model, None, None, quant_head_env());
        serving
    }

    /// Wrap a model with its serving caches. A packed `x_road` / int8
    /// head (an artifact's, which the loader has already shape-checked
    /// against the model) is used as-is; a missing one is derived from
    /// the weights. `quantized` serves the int8 head, otherwise the f32
    /// sparse head serves and `quant` is dropped. Every model serves, so
    /// this never fails; the `Result` stays only while
    /// `benchmark/src/adapter.rs` still matches on it.
    pub fn from_parts(
        model: EndToEnd,
        x_road: Option<Tensor>,
        quant: Option<QuantizedLinear>,
        quantized: bool,
    ) -> Result<Self, Infallible> {
        let road = match x_road {
            Some(x_road) => Some(RoadEmbeddingCache { x_road }),
            None => RoadEmbeddingCache::build(&model),
        };
        let quant = quantized
            .then(|| quant.unwrap_or_else(|| model.decoder.quantized_segment_head(&model.store)));
        Ok(Self { model, road, quant })
    }

    /// The decoder segment head this model serves with.
    pub fn head(&self) -> SegmentHead<'_> {
        match &self.quant {
            Some(q) => SegmentHead::Quantized(q),
            None => SegmentHead::Sparse,
        }
    }

    /// Short name of the segment head this model serves with, for logs
    /// and `/metrics`.
    pub fn head_name(&self) -> &'static str {
        if self.quant.is_some() {
            "int8"
        } else {
            "sparse"
        }
    }

    /// The fused closed pass ([`rntrajrec::EndToEnd::infer_predict_batch`])
    /// with this model's road cache and head. Panics on malformed
    /// input.
    fn recover_closed(&self, inputs: &[&SampleInput]) -> Vec<RecoveredPath> {
        self.model
            .infer_predict_batch(inputs, self.road.as_ref().map(|c| &c.x_road), self.head())
    }

    /// Recover one trajectory on the tape-free hot path: the fused pass
    /// over a batch of one. Panics on malformed input —
    /// [`ServingModel::recover_batch`] isolates it instead.
    pub fn recover(&self, input: &SampleInput) -> RecoveredPath {
        self.recover_closed(&[input]).remove(0)
    }

    /// [`ServingModel::recover`] with a panic caught and returned as its
    /// message: how one member is isolated after its fused pass panicked,
    /// here and in the engine's session.
    pub(crate) fn recover_caught(&self, input: &SampleInput) -> Result<RecoveredPath, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.recover(input)))
            .map_err(panic_message)
    }

    /// Recover a whole micro-batch through the **fused encoder + decoder**:
    /// one stacked encoder pass for the whole batch (GraphNorm statistics
    /// stay scoped per member, so batching cannot change results) and
    /// decode steps as stacked `[B, ·]` products — one matmul per
    /// projection / head instead of one per member — with output
    /// bit-identical to per-member [`ServingModel::recover`].
    ///
    /// Panic isolation: a malformed member panics the fused pass, so on
    /// panic every member is re-run alone through
    /// `ServingModel::recover_caught` — the bad request fails alone
    /// (`Err` with the panic message) and every healthy member still
    /// returns its exact result.
    pub fn recover_batch(&self, inputs: &[&SampleInput]) -> Vec<Result<RecoveredPath, String>> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.recover_closed(inputs)))
        {
            Ok(paths) => paths.into_iter().map(Ok).collect(),
            Err(_) => inputs
                .iter()
                .map(|input| self.recover_caught(input))
                .collect(),
        }
    }

    /// The encoder half of the fused pass, for a caller that steps the
    /// decode itself (the engine's session): one stacked encoder pass over
    /// `inputs`. Panics on malformed input.
    pub fn encode(&self, inputs: &[&SampleInput]) -> Vec<InferOutput> {
        self.model
            .encoder
            .infer_batch(
                &self.model.store,
                inputs,
                self.road.as_ref().map(|c| &c.x_road),
            )
            .expect("every encoder has an eager path")
    }

    /// The decoder half: an empty [`DecodeState`] over this model's
    /// weights and head.
    pub fn decode_state(&self) -> DecodeState<'_> {
        DecodeState::new(&self.model.decoder, &self.model.store, self.head())
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
