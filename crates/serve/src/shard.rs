//! Multi-city sharding: a router that owns N city shards, each shard a
//! full serving stack (engine + road network + brownout) over its own
//! hot-swappable model.
//!
//! The pre-shard architecture was "one process owns one model"; this
//! module is the refactor to "one process owns a [`ShardRouter`], the
//! router owns [`CityShard`]s". Every recover route resolves its request
//! to a shard by bounding box before feature extraction:
//!
//! * **single-shard** routers bypass resolution entirely, so a one-city
//!   server answers byte-for-byte what the pre-shard server answered
//!   (including the 400s feature extraction produces for far-off
//!   coordinates);
//! * multi-shard routers answer `404` for trajectories outside every
//!   shard ([`RouteError::UnknownRegion`]) and `422` for trajectories
//!   whose points span two shards ([`RouteError::Straddles`]) — a
//!   straddling trajectory is well-formed but unservable, since no
//!   single road network contains it.
//!
//! A shard is stood up from a versioned artifact
//! ([`CityShard::from_artifact`]): the packed weights, `X_road` and int8
//! head are wrapped as the served model, and the query context, the
//! `/v1/example` body and the provenance come from the artifact's city,
//! grid and metadata. [`CityShard::new`] wraps an engine and context a
//! caller built itself.
//!
//! Each shard's model lives in the engine's `ModelSlot` and can be
//! replaced at runtime from another artifact
//! ([`CityShard::reload_from_artifact`]) through the same
//! instantiate-and-wrap step: the artifact is read, checksummed,
//! instantiated, and checked against the shard's road network and grid
//! *before* the swap, so a corrupt or mismatched file leaves the old
//! model serving. In-flight batches finish on the weights they started
//! with; there is no drain.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rntrajrec::wire::RecoverRequest;
use rntrajrec_artifact::{Artifact, ArtifactError};
use rntrajrec_geo::{BBox, GridSpec, XY};
use rntrajrec_roadnet::RoadNetwork;
use rntrajrec_synth::{SimConfig, Simulator};

use crate::service::quant_head_env;
use crate::{EngineConfig, QueryContext, RecoveryEngine, ServingModel};

/// Why a request could not be routed to a shard (multi-shard routers
/// only; a single-shard router never routes).
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// No shard's bounding box contains the trajectory → `404`.
    UnknownRegion {
        /// The first offending point.
        x: f64,
        y: f64,
    },
    /// The trajectory's points fall in two different shards → `422`.
    /// Well-formed, but no single road network can serve it.
    Straddles { a: String, b: String },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownRegion { x, y } => {
                write!(f, "no city shard covers point ({x:.1}, {y:.1})")
            }
            RouteError::Straddles { a, b } => {
                write!(f, "trajectory straddles city shards '{a}' and '{b}'")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Why a hot reload was refused. Every variant leaves the shard's
/// previous model serving.
#[derive(Debug)]
pub enum ReloadError {
    /// The artifact file could not be read, failed its checksum, or did
    /// not match its own manifest ([`ArtifactError`]).
    Artifact(ArtifactError),
    /// The artifact is valid but packed for a different city than the
    /// shard it was pushed to.
    WrongCity { shard: String, artifact: String },
    /// The artifact's road network or grid differs from the shard's
    /// (segment count, bounding box or grid cells drifted) — its segment
    /// indices or grid features would be wrong against the shard's query
    /// context.
    NetworkMismatch { detail: String },
    /// The instantiated model cannot serve (no tape-free path).
    NotServable(String),
}

impl ReloadError {
    /// The HTTP status this refusal maps to on `POST /admin/reload`.
    pub fn http_status(&self) -> u16 {
        match self {
            // A missing/unreadable file is the caller naming a bad path.
            ReloadError::Artifact(ArtifactError::Io(_)) => 400,
            // A corrupt or self-inconsistent artifact is an unprocessable
            // entity: syntactically delivered, semantically unusable.
            ReloadError::Artifact(_) => 422,
            // Valid artifact, wrong target: a conflict with this shard.
            ReloadError::WrongCity { .. } | ReloadError::NetworkMismatch { .. } => 409,
            ReloadError::NotServable(_) => 422,
        }
    }
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Artifact(e) => write!(f, "{e}"),
            ReloadError::WrongCity { shard, artifact } => {
                write!(f, "artifact is for city '{artifact}', shard is '{shard}'")
            }
            ReloadError::NetworkMismatch { detail } => {
                write!(f, "artifact road network differs from shard: {detail}")
            }
            ReloadError::NotServable(msg) => write!(f, "loaded model cannot serve: {msg}"),
        }
    }
}

impl std::error::Error for ReloadError {}

impl From<ArtifactError> for ReloadError {
    fn from(e: ArtifactError) -> Self {
        ReloadError::Artifact(e)
    }
}

/// Mutable artifact provenance for one shard, behind the shard's info
/// lock: what model version is live and where it came from. Read by
/// `/metrics` (`rntrajrec_artifact_info`) and `/healthz`.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// Operator-assigned model version (`"in-process"` for models built
    /// at boot rather than loaded from an artifact).
    pub model_version: String,
    /// Git revision the live weights were packed by.
    pub git_sha: String,
    /// Artifact file backing the live model, when there is one. SIGHUP
    /// rescans reload from this path.
    pub artifact_path: Option<PathBuf>,
    /// Successful hot reloads since the shard started.
    pub reloads: u64,
}

/// Successful-reload receipt for the admin response and logs.
#[derive(Debug, Clone)]
pub struct ReloadReceipt {
    pub city: String,
    pub model_version: String,
    pub git_sha: String,
    pub reloads: u64,
}

/// Routing admission margin (m) around each shard's bounding box, equal
/// to the feature extractor's receptive field δ: a GPS point the shard's
/// own extractor would accept (border noise included) must route to it
/// rather than 404.
pub const ROUTE_MARGIN_M: f64 = 400.0;

/// Simulator seed of every shard's `/v1/example` trip.
const EXAMPLE_SEED: u64 = 7;

/// One city's full serving stack: micro-batching engine (which owns the
/// hot-swappable model slot and the brownout controller), the query
/// context over the city's road network, its bounding box for routing,
/// and the artifact provenance of the live model.
pub struct CityShard {
    name: String,
    engine: Arc<RecoveryEngine>,
    ctx: Arc<QueryContext>,
    bbox: BBox,
    /// `bbox.inflated(ROUTE_MARGIN_M)`, precomputed for `resolve`.
    route_bbox: BBox,
    example: Option<String>,
    info: Mutex<ShardInfo>,
}

impl CityShard {
    /// Wrap an engine + query context built over the same road network
    /// as a shard named `name`. `example` is an optional pre-serialized
    /// request body served at `GET /v1/example?city=name`.
    pub fn new(
        name: impl Into<String>,
        engine: Arc<RecoveryEngine>,
        ctx: Arc<QueryContext>,
        example: Option<String>,
    ) -> Self {
        let info = ShardInfo {
            model_version: "in-process".to_string(),
            git_sha: crate::http::GIT_SHA.to_string(),
            artifact_path: None,
            reloads: 0,
        };
        Self::with_info(name.into(), engine, ctx, example, info)
    }

    /// Stand a shard up from a packed artifact: its weights, `X_road` and
    /// int8 head become the served model (under `config`), its city and
    /// grid the query context, and its metadata the shard's name and
    /// provenance. `path` is the file SIGHUP rescans (`None`: an artifact
    /// packed in memory). The `/v1/example` body is one simulated trip
    /// over the city, the same bytes on every boot.
    pub fn from_artifact(
        artifact: &Artifact,
        path: Option<PathBuf>,
        config: EngineConfig,
    ) -> Result<Self, ReloadError> {
        let (serving, net, _) = open(artifact)?;
        let example = example_body(&net);
        let ctx = QueryContext::new(net, artifact.meta.cell_m);
        let engine = RecoveryEngine::start(Arc::new(serving), config);
        let info = ShardInfo {
            model_version: artifact.meta.model_version.clone(),
            git_sha: artifact.meta.git_sha.clone(),
            artifact_path: path,
            reloads: 0,
        };
        Ok(Self::with_info(
            artifact.meta.city.clone(),
            Arc::new(engine),
            Arc::new(ctx),
            Some(example),
            info,
        ))
    }

    fn with_info(
        name: String,
        engine: Arc<RecoveryEngine>,
        ctx: Arc<QueryContext>,
        example: Option<String>,
        info: ShardInfo,
    ) -> Self {
        let bbox = ctx.bbox();
        Self {
            name,
            engine,
            ctx,
            bbox,
            route_bbox: bbox.inflated(ROUTE_MARGIN_M),
            example,
            info: Mutex::new(info),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn engine(&self) -> &Arc<RecoveryEngine> {
        &self.engine
    }

    pub fn ctx(&self) -> &Arc<QueryContext> {
        &self.ctx
    }

    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    pub fn example(&self) -> Option<&str> {
        self.example.as_deref()
    }

    /// Snapshot the live model's provenance.
    pub fn info(&self) -> ShardInfo {
        self.info.lock().unwrap().clone()
    }

    /// Tear down, handing the engine back so a binary can drain it
    /// explicitly and report post-drain stats.
    pub fn into_engine(self) -> Arc<RecoveryEngine> {
        self.engine
    }

    /// Zero-downtime hot reload from a versioned artifact.
    ///
    /// Read → checksum → city name → instantiate and wrap (as
    /// [`CityShard::from_artifact`] does) → check against this shard's
    /// road network and grid → swap. Every failure path returns
    /// **before** the swap, so the old model keeps serving; after the
    /// swap, future batches assemble against the new weights while
    /// in-flight batches finish on the old ones (the engine reads its
    /// model slot once per decode session).
    pub fn reload_from_artifact(&self, path: &Path) -> Result<ReloadReceipt, ReloadError> {
        let artifact = Artifact::read_from(path)?;
        if artifact.meta.city != self.name {
            return Err(ReloadError::WrongCity {
                shard: self.name.clone(),
                artifact: artifact.meta.city.clone(),
            });
        }
        let (serving, net, grid) = open(&artifact)?;
        // The shard's query context maps GPS points to segment indices of
        // *its* network and grid cells of *its* grid; a reload must
        // describe both exactly or every answer would be silently wrong.
        let segs = self.ctx.net().num_segments();
        if net.num_segments() != segs {
            return Err(ReloadError::NetworkMismatch {
                detail: format!(
                    "{} segments in artifact vs {segs} in shard",
                    net.num_segments()
                ),
            });
        }
        let lb = net.bbox();
        if lb != self.bbox {
            return Err(ReloadError::NetworkMismatch {
                detail: format!(
                    "bbox [{}, {}, {}, {}] in artifact vs [{}, {}, {}, {}] in shard",
                    lb.min_x,
                    lb.min_y,
                    lb.max_x,
                    lb.max_y,
                    self.bbox.min_x,
                    self.bbox.min_y,
                    self.bbox.max_x,
                    self.bbox.max_y,
                ),
            });
        }
        let sg = self.ctx.grid();
        if grid != *sg {
            return Err(ReloadError::NetworkMismatch {
                detail: format!(
                    "{} m grid ({}x{} cells) in artifact vs {} m ({}x{} cells) in shard",
                    grid.cell_m, grid.cols, grid.rows, sg.cell_m, sg.cols, sg.rows,
                ),
            });
        }
        let _old = self.engine.swap_model(Arc::new(serving));
        let mut info = self.info.lock().unwrap();
        info.model_version = artifact.meta.model_version.clone();
        info.git_sha = artifact.meta.git_sha.clone();
        info.artifact_path = Some(path.to_path_buf());
        info.reloads += 1;
        Ok(ReloadReceipt {
            city: self.name.clone(),
            model_version: info.model_version.clone(),
            git_sha: info.git_sha.clone(),
            reloads: info.reloads,
        })
    }
}

/// The one instantiate-and-wrap step behind boot and reload: the served
/// model an artifact packs (its `X_road` and int8 head as packed), and
/// the road network and grid it was built over.
fn open(artifact: &Artifact) -> Result<(ServingModel, RoadNetwork, GridSpec), ReloadError> {
    let loaded = artifact.instantiate()?;
    let serving =
        ServingModel::from_parts(loaded.model, loaded.x_road, loaded.quant, quant_head_env())
            .map_err(|e| ReloadError::NotServable(e.to_string()))?;
    Ok((serving, loaded.city.net, loaded.grid))
}

/// A valid `/v1/recover` body over `net`, served at `GET /v1/example` so
/// smoke tests can POST a real trajectory without hand-built fixtures.
fn example_body(net: &RoadNetwork) -> String {
    let mut sim = Simulator::new(net, SimConfig::default());
    let s = sim.sample(&mut StdRng::seed_from_u64(EXAMPLE_SEED), 8);
    let req = RecoverRequest::from_raw(&s.raw, s.target.len(), s.depart_epoch_s);
    serde_json::to_string(&req).expect("example serializes")
}

/// The registry of city shards a server routes across.
pub struct ShardRouter {
    shards: Vec<CityShard>,
}

impl ShardRouter {
    /// A router over `shards`. Shard names must be unique; multi-shard
    /// routers should cover disjoint bounding boxes (an overlapping
    /// point routes to the first shard that contains it).
    pub fn new(shards: Vec<CityShard>) -> Self {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        for (i, a) in shards.iter().enumerate() {
            for b in &shards[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate shard name '{}'", a.name);
            }
        }
        Self { shards }
    }

    /// The single-shard router the compatibility [`HttpServer::start`]
    /// wrapper builds.
    ///
    /// [`HttpServer::start`]: crate::HttpServer::start
    pub fn single(shard: CityShard) -> Self {
        Self::new(vec![shard])
    }

    pub fn shards(&self) -> &[CityShard] {
        &self.shards
    }

    /// Tear down into the owned shards (drain-at-exit path).
    pub fn into_shards(self) -> Vec<CityShard> {
        self.shards
    }

    pub fn is_single(&self) -> bool {
        self.shards.len() == 1
    }

    pub fn by_name(&self, city: &str) -> Option<&CityShard> {
        self.shards.iter().find(|s| s.name == city)
    }

    /// Route a trajectory to the one shard whose bounding box (inflated
    /// by [`ROUTE_MARGIN_M`], the extractor's receptive field, so border
    /// GPS noise routes like its trajectory) contains every point.
    ///
    /// A **single-shard** router returns its shard without looking at
    /// the points at all: the pre-shard server never bbox-gated
    /// requests (feature extraction's own far-off-site check answered
    /// with a field-precise 400), and the one-city case must stay
    /// byte-for-byte identical to it. For the same reason an empty
    /// trajectory routes to the first shard, whose wire layer rejects
    /// it with the pre-shard 400.
    pub fn resolve(&self, points: &[[f64; 3]]) -> Result<&CityShard, RouteError> {
        if self.shards.len() == 1 || points.is_empty() {
            return Ok(&self.shards[0]);
        }
        let mut chosen: Option<usize> = None;
        for &[x, y, _] in points {
            let here = self
                .shards
                .iter()
                .position(|s| s.route_bbox.contains(&XY::new(x, y)));
            match (chosen, here) {
                (_, None) => return Err(RouteError::UnknownRegion { x, y }),
                (None, Some(i)) => chosen = Some(i),
                (Some(a), Some(b)) if a != b => {
                    return Err(RouteError::Straddles {
                        a: self.shards[a].name.clone(),
                        b: self.shards[b].name.clone(),
                    })
                }
                (Some(_), Some(_)) => {}
            }
        }
        Ok(&self.shards[chosen.expect("non-empty points chose a shard")])
    }
}
