//! Versioned on-disk model artifacts, one per city shard.
//!
//! An artifact is everything a serving process needs to stand up (or hot
//! swap) one city's model without retracing the build: the model weights
//! as raw little-endian `f32` tensors in `ParamStore` order, the
//! precomputed GridGNN road-embedding cache (`X_road`), and the int8
//! quantized segment head (exact integers, so a loaded artifact serves
//! bit-identically to the process that packed it). A fixed binary header
//! carries magic/format-version/city-id/bbox/git-sha, an embedded
//! human-readable JSON manifest (the only place the vendored serde is
//! used) records how to rebuild the model skeleton (spec, dim, seed, grid
//! cell size, synthetic-city parameters), and a CRC-32 over everything
//! after the checksum field rejects corrupt or truncated files before any
//! model state is touched.
//!
//! Loading rebuilds the deterministic skeleton with
//! [`rntrajrec::EndToEnd::build`] and overwrites every parameter from the
//! payload, which [`Artifact::instantiate`] validates name-by-name and
//! shape-by-shape — the round trip is lossless, pinned by the
//! `pack → load → serve` bit-identity tests in `rntrajrec-serve`.

#![deny(missing_docs)]

use rntrajrec::{EndToEnd, MethodSpec};
use rntrajrec_geo::GridSpec;
use rntrajrec_nn::quant::QuantizedLinear;
use rntrajrec_nn::Tensor;
use rntrajrec_roadnet::{CityConfig, SyntheticCity};
use serde::{Serialize, Value};

/// First four bytes of every artifact file.
pub const MAGIC: [u8; 4] = *b"RNTA";
/// On-disk format revision this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// The git revision this library was built from (baked by `build.rs`).
pub const GIT_SHA: &str = env!("RNTRAJREC_GIT_SHA");

/// Hard cap on any single length field, against hostile headers asking
/// the reader to allocate terabytes (far above any real model here).
const MAX_SECTION_BYTES: usize = 1 << 31;

/// Largest file [`Artifact::read_from`] reads (1 GiB). The largest city
/// `pack_city` packs here (14 × 14 blocks, d = 64) is about 2.5 MB.
pub const MAX_ARTIFACT_BYTES: u64 = 1 << 30;

/// Why an artifact could not be read, written, or instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem failure (path, message).
    Io(String),
    /// The bytes are not a well-formed artifact: bad magic, unsupported
    /// format version, failed checksum, truncation, or manifest errors.
    Corrupt(String),
    /// The file is well-formed but does not match the model skeleton its
    /// manifest describes (wrong tensor names/shapes, bbox drift).
    Mismatch(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(m) => write!(f, "artifact io error: {m}"),
            ArtifactError::Corrupt(m) => write!(f, "corrupt artifact: {m}"),
            ArtifactError::Mismatch(m) => write!(f, "artifact/model mismatch: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

fn corrupt(m: impl Into<String>) -> ArtifactError {
    ArtifactError::Corrupt(m.into())
}

fn mismatch(m: impl Into<String>) -> ArtifactError {
    ArtifactError::Mismatch(m.into())
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the classic zlib/PNG
/// polynomial, computed with a lazily built 256-entry table.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// The synthetic-city generation parameters, captured in the manifest so
/// a loader can rebuild the exact road network the weights were trained
/// against (stand-in for a real deployment's map-snapshot reference).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CityParams {
    /// See [`CityConfig::blocks_x`].
    pub blocks_x: usize,
    /// See [`CityConfig::blocks_y`].
    pub blocks_y: usize,
    /// See [`CityConfig::block_min_m`].
    pub block_min_m: f64,
    /// See [`CityConfig::block_max_m`].
    pub block_max_m: f64,
    /// See [`CityConfig::one_way_fraction`].
    pub one_way_fraction: f64,
    /// See [`CityConfig::arterial_every`].
    pub arterial_every: usize,
    /// See [`CityConfig::with_elevated`].
    pub with_elevated: bool,
    /// See [`CityConfig::elevated_offset_m`].
    pub elevated_offset_m: f64,
    /// See [`CityConfig::ramp_every`].
    pub ramp_every: usize,
    /// See [`CityConfig::diagonal`].
    pub diagonal: bool,
    /// See [`CityConfig::seed`].
    pub seed: u64,
    /// See [`CityConfig::origin_x`].
    pub origin_x: f64,
    /// See [`CityConfig::origin_y`].
    pub origin_y: f64,
}

impl CityParams {
    /// Capture a [`CityConfig`].
    pub fn from_config(c: &CityConfig) -> Self {
        Self {
            blocks_x: c.blocks_x,
            blocks_y: c.blocks_y,
            block_min_m: c.block_min_m,
            block_max_m: c.block_max_m,
            one_way_fraction: c.one_way_fraction,
            arterial_every: c.arterial_every,
            with_elevated: c.with_elevated,
            elevated_offset_m: c.elevated_offset_m,
            ramp_every: c.ramp_every,
            diagonal: c.diagonal,
            seed: c.seed,
            origin_x: c.origin_x,
            origin_y: c.origin_y,
        }
    }

    /// The [`CityConfig`] these parameters describe.
    pub fn to_config(&self) -> CityConfig {
        CityConfig {
            blocks_x: self.blocks_x,
            blocks_y: self.blocks_y,
            block_min_m: self.block_min_m,
            block_max_m: self.block_max_m,
            one_way_fraction: self.one_way_fraction,
            arterial_every: self.arterial_every,
            with_elevated: self.with_elevated,
            elevated_offset_m: self.elevated_offset_m,
            ramp_every: self.ramp_every,
            diagonal: self.diagonal,
            seed: self.seed,
            origin_x: self.origin_x,
            origin_y: self.origin_y,
        }
    }

    fn from_value(v: &Value) -> Result<Self, ArtifactError> {
        let f = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| corrupt(format!("manifest city_config.{k} missing or not a number")))
        };
        let u = |k: &str| {
            v.get(k).and_then(Value::as_u64).ok_or_else(|| {
                corrupt(format!(
                    "manifest city_config.{k} missing or not an integer"
                ))
            })
        };
        let b = |k: &str| {
            v.get(k)
                .and_then(Value::as_bool)
                .ok_or_else(|| corrupt(format!("manifest city_config.{k} missing or not a bool")))
        };
        Ok(Self {
            blocks_x: u("blocks_x")? as usize,
            blocks_y: u("blocks_y")? as usize,
            block_min_m: f("block_min_m")?,
            block_max_m: f("block_max_m")?,
            one_way_fraction: f("one_way_fraction")?,
            arterial_every: u("arterial_every")? as usize,
            with_elevated: b("with_elevated")?,
            elevated_offset_m: f("elevated_offset_m")?,
            ramp_every: u("ramp_every")? as usize,
            diagonal: b("diagonal")?,
            seed: u("seed")?,
            origin_x: f("origin_x")?,
            origin_y: f("origin_y")?,
        })
    }
}

/// Everything in the artifact besides the tensors themselves: the binary
/// header fields plus the manifest's skeleton-rebuild parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// City identifier — the shard key (`"shanghai"`, `"porto"`, …).
    pub city: String,
    /// Operator-chosen model version string; flips the
    /// `rntrajrec_artifact_info` gauge on reload.
    pub model_version: String,
    /// Git revision of the tree that packed the artifact.
    pub git_sha: String,
    /// Planar bounding box of the city's road network
    /// (`[min_x, min_y, max_x, max_y]` metres) — the router's shard key.
    pub bbox: [f64; 4],
    /// Model spec identifier (only `"rntrajrec"` serves today).
    pub spec: String,
    /// Model hidden size.
    pub dim: usize,
    /// Weight-initialisation seed of the skeleton.
    pub seed: u64,
    /// Grid cell size (m) the model was built against.
    pub cell_m: f64,
    /// Synthetic-city generation parameters.
    pub city_params: CityParams,
}

impl ArtifactMeta {
    fn spec_of(&self) -> Result<MethodSpec, ArtifactError> {
        match self.spec.as_str() {
            "rntrajrec" => Ok(MethodSpec::RnTrajRec),
            other => Err(mismatch(format!(
                "unsupported model spec '{other}' (this build serves 'rntrajrec')"
            ))),
        }
    }
}

/// One named weight tensor (raw row-major `f32`).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    /// `ParamStore` parameter name (e.g. `dec.w_id`).
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major values, `rows × cols`.
    pub data: Vec<f32>,
}

impl NamedTensor {
    /// Capture a tensor under `name`.
    pub fn of(name: impl Into<String>, t: &Tensor) -> Self {
        Self {
            name: name.into(),
            rows: t.rows,
            cols: t.cols,
            data: t.data.clone(),
        }
    }

    /// The tensor value.
    pub fn to_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(self.rows, self.cols);
        t.data.copy_from_slice(&self.data);
        t
    }
}

/// The serialized int8 segment head (exact integers + per-channel scales).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantHead {
    /// Input features (hidden dim `d`).
    pub k: usize,
    /// Output channels (`|V|`).
    pub c: usize,
    /// Channel-major `[C, K]` int8 weights.
    pub qt: Vec<i8>,
    /// Per-channel dequantization scales.
    pub scales: Vec<f32>,
}

impl QuantHead {
    /// Capture a quantized head.
    pub fn of(q: &QuantizedLinear) -> Self {
        let (k, c, qt, scales) = q.to_parts();
        Self {
            k,
            c,
            qt: qt.to_vec(),
            scales: scales.to_vec(),
        }
    }

    /// Rebuild the head (bit-exact).
    pub fn to_quantized(&self) -> Result<QuantizedLinear, ArtifactError> {
        QuantizedLinear::from_parts(self.k, self.c, self.qt.clone(), self.scales.clone())
            .map_err(mismatch)
    }
}

/// A fully materialised artifact: metadata + weights + caches.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Header + manifest metadata.
    pub meta: ArtifactMeta,
    /// Every model parameter, in `ParamStore` registration order.
    pub params: Vec<NamedTensor>,
    /// The precomputed `X_road` cache (`[|V|, d]`), when the encoder has
    /// an input-independent representation.
    pub x_road: Option<NamedTensor>,
    /// The int8 segment head.
    pub quant: Option<QuantHead>,
}

/// A model stood back up from an artifact, ready to wrap for serving.
pub struct LoadedModel {
    /// The regenerated city (road network + special structures).
    pub city: SyntheticCity,
    /// The grid the model was built against.
    pub grid: GridSpec,
    /// Skeleton rebuilt deterministically, every parameter overwritten
    /// with the artifact's exact values.
    pub model: EndToEnd,
    /// The packed road-embedding cache, shape-checked.
    pub x_road: Option<Tensor>,
    /// The packed int8 head, shape-checked.
    pub quant: Option<QuantizedLinear>,
}

#[derive(Serialize)]
struct ManifestTensor {
    name: String,
    rows: usize,
    cols: usize,
}

#[derive(Serialize)]
struct Manifest {
    format_version: u32,
    city: String,
    model_version: String,
    git_sha: String,
    bbox: [f64; 4],
    spec: String,
    dim: usize,
    seed: u64,
    cell_m: f64,
    city_config: CityParams,
    num_params: usize,
    num_scalars: usize,
    has_road_cache: bool,
    has_int8_head: bool,
    tensors: Vec<ManifestTensor>,
}

impl Artifact {
    /// Capture a built model (plus its serving caches) for `city`.
    ///
    /// `bbox` must be the road network's bounding box — the loader
    /// revalidates it against the regenerated city, so a manifest that
    /// drifts from the generator is rejected instead of silently serving
    /// the wrong geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn pack(
        city: &str,
        model_version: &str,
        city_params: CityParams,
        cell_m: f64,
        dim: usize,
        seed: u64,
        bbox: [f64; 4],
        model: &EndToEnd,
        x_road: Option<&Tensor>,
        quant: Option<&QuantizedLinear>,
    ) -> Self {
        let params = model
            .store
            .ids()
            .map(|id| NamedTensor::of(model.store.name(id), model.store.value(id)))
            .collect();
        Self {
            meta: ArtifactMeta {
                city: city.to_string(),
                model_version: model_version.to_string(),
                git_sha: GIT_SHA.to_string(),
                bbox,
                spec: "rntrajrec".to_string(),
                dim,
                seed,
                cell_m,
                city_params,
            },
            params,
            x_road: x_road.map(|t| NamedTensor::of("cache.x_road", t)),
            quant: quant.map(QuantHead::of),
        }
    }

    /// The embedded human-readable manifest as pretty-printed JSON.
    pub fn manifest_json(&self) -> String {
        let m = Manifest {
            format_version: FORMAT_VERSION,
            city: self.meta.city.clone(),
            model_version: self.meta.model_version.clone(),
            git_sha: self.meta.git_sha.clone(),
            bbox: self.meta.bbox,
            spec: self.meta.spec.clone(),
            dim: self.meta.dim,
            seed: self.meta.seed,
            cell_m: self.meta.cell_m,
            city_config: self.meta.city_params.clone(),
            num_params: self.params.len(),
            num_scalars: self.params.iter().map(|t| t.data.len()).sum(),
            has_road_cache: self.x_road.is_some(),
            has_int8_head: self.quant.is_some(),
            tensors: self
                .params
                .iter()
                .map(|t| ManifestTensor {
                    name: t.name.clone(),
                    rows: t.rows,
                    cols: t.cols,
                })
                .collect(),
        };
        serde_json::to_string_pretty(&m).expect("manifest serializes")
    }

    /// Serialize to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Everything after the 12-byte [magic | version | crc] prefix is
        // covered by the checksum.
        let mut body = Vec::new();
        put_str(&mut body, &self.meta.city);
        put_str(&mut body, &self.meta.model_version);
        put_str(&mut body, &self.meta.git_sha);
        for v in self.meta.bbox {
            body.extend_from_slice(&v.to_le_bytes());
        }
        put_str(&mut body, &self.manifest_json());
        body.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for t in &self.params {
            put_tensor(&mut body, t);
        }
        match &self.x_road {
            Some(t) => {
                body.push(1);
                put_tensor(&mut body, t);
            }
            None => body.push(0),
        }
        match &self.quant {
            Some(q) => {
                body.push(1);
                body.extend_from_slice(&(q.k as u32).to_le_bytes());
                body.extend_from_slice(&(q.c as u32).to_le_bytes());
                body.extend_from_slice(&q.qt.iter().map(|&b| b as u8).collect::<Vec<u8>>());
                for s in &q.scales {
                    body.extend_from_slice(&s.to_le_bytes());
                }
            }
            None => body.push(0),
        }
        let mut out = Vec::with_capacity(12 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Write to `path` (atomically via a sibling temp file, so a reload
    /// rescan never observes a half-written artifact).
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))
    }

    /// Parse the on-disk byte layout, validating magic, format version,
    /// and the CRC before touching any section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < 12 {
            return Err(corrupt(format!(
                "{} bytes is too short for a header",
                bytes.len()
            )));
        }
        if bytes[0..4] != MAGIC {
            return Err(corrupt("bad magic (not an artifact file)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let want_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let body = &bytes[12..];
        let got_crc = crc32(body);
        if got_crc != want_crc {
            return Err(corrupt(format!(
                "checksum mismatch (header {want_crc:08x}, body {got_crc:08x}) — truncated or corrupt"
            )));
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let city = cur.take_str("city")?;
        let model_version = cur.take_str("model_version")?;
        let git_sha = cur.take_str("git_sha")?;
        let mut bbox = [0.0f64; 4];
        for b in &mut bbox {
            *b = cur.take_f64("bbox")?;
        }
        let manifest = cur.take_str("manifest")?;
        let mv: Value = serde_json::from_str(&manifest)
            .map_err(|e| corrupt(format!("manifest is not valid JSON: {e}")))?;
        let m_str = |k: &str| {
            mv.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| corrupt(format!("manifest field '{k}' missing or not a string")))
        };
        let spec = m_str("spec")?;
        if m_str("city")? != city {
            return Err(corrupt("manifest city disagrees with the binary header"));
        }
        let dim = mv
            .get("dim")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt("manifest field 'dim' missing or not an integer"))?
            as usize;
        let seed = mv
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt("manifest field 'seed' missing or not an integer"))?;
        let cell_m = mv
            .get("cell_m")
            .and_then(Value::as_f64)
            .ok_or_else(|| corrupt("manifest field 'cell_m' missing or not a number"))?;
        let city_params = CityParams::from_value(
            mv.get("city_config")
                .ok_or_else(|| corrupt("manifest field 'city_config' missing"))?,
        )?;
        let n = cur.take_u32("tensor count")? as usize;
        if n > 1 << 20 {
            return Err(corrupt(format!("implausible tensor count {n}")));
        }
        // Grown as the tensors parse, never sized from the claimed count.
        let mut params = Vec::new();
        for i in 0..n {
            params.push(cur.take_tensor(&format!("tensor {i}"))?);
        }
        let x_road = match cur.take_u8("road-cache flag")? {
            0 => None,
            1 => Some(cur.take_tensor("road cache")?),
            f => return Err(corrupt(format!("bad road-cache flag {f}"))),
        };
        let quant = match cur.take_u8("int8-head flag")? {
            0 => None,
            1 => {
                let k = cur.take_u32("int8 head k")? as usize;
                let c = cur.take_u32("int8 head c")? as usize;
                let nb = k
                    .checked_mul(c)
                    .filter(|&nb| nb <= MAX_SECTION_BYTES)
                    .ok_or_else(|| corrupt("int8 head dimensions overflow"))?;
                let raw = cur.take_bytes(nb, "int8 weights")?;
                let qt: Vec<i8> = raw.iter().map(|&b| b as i8).collect();
                // One bounded section, as for a tensor: a claimed `c` is
                // checked against the bytes present before anything is
                // allocated for it.
                let scales = cur
                    .take_bytes(c.saturating_mul(4), "int8 scales")?
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().expect("chunks of 4 bytes")))
                    .collect();
                Some(QuantHead { k, c, qt, scales })
            }
            f => return Err(corrupt(format!("bad int8-head flag {f}"))),
        };
        if cur.pos != cur.buf.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after the last section",
                cur.buf.len() - cur.pos
            )));
        }
        Ok(Self {
            meta: ArtifactMeta {
                city,
                model_version,
                git_sha,
                bbox,
                spec,
                dim,
                seed,
                cell_m,
                city_params,
            },
            params,
            x_road,
            quant,
        })
    }

    /// Read and parse `path`.
    ///
    /// Only a regular file of at most [`MAX_ARTIFACT_BYTES`] is read: the
    /// path can come from a request body (`POST /admin/reload`), and a
    /// device such as `/dev/zero` would otherwise allocate without bound
    /// and a FIFO would block the caller at `open`.
    pub fn read_from(path: &std::path::Path) -> Result<Self, ArtifactError> {
        use std::io::Read;
        let io = |e: String| ArtifactError::Io(format!("{}: {e}", path.display()));
        let meta = std::fs::metadata(path).map_err(|e| io(e.to_string()))?;
        if !meta.is_file() {
            return Err(io("not a regular file".to_string()));
        }
        let too_big = || {
            io(format!(
                "larger than the {MAX_ARTIFACT_BYTES}-byte artifact cap"
            ))
        };
        if meta.len() > MAX_ARTIFACT_BYTES {
            return Err(too_big());
        }
        let mut bytes = Vec::with_capacity(meta.len() as usize);
        std::fs::File::open(path)
            .and_then(|f| f.take(MAX_ARTIFACT_BYTES + 1).read_to_end(&mut bytes))
            .map_err(|e| io(e.to_string()))?;
        if bytes.len() as u64 > MAX_ARTIFACT_BYTES {
            return Err(too_big());
        }
        Self::from_bytes(&bytes)
    }

    /// Stand the model back up: regenerate the city, rebuild the
    /// deterministic skeleton, and overwrite every parameter with the
    /// packed values (validated name-by-name and shape-by-shape, so a
    /// well-formed file packed against different code is rejected instead
    /// of serving garbage).
    pub fn instantiate(&self) -> Result<LoadedModel, ArtifactError> {
        let spec = self.meta.spec_of()?;
        let city = SyntheticCity::generate(self.meta.city_params.to_config());
        let net_bbox = city.net.bbox();
        let got = [
            net_bbox.min_x,
            net_bbox.min_y,
            net_bbox.max_x,
            net_bbox.max_y,
        ];
        if got != self.meta.bbox {
            return Err(mismatch(format!(
                "regenerated city bbox {got:?} != packed bbox {:?}",
                self.meta.bbox
            )));
        }
        let grid = city.net.grid(self.meta.cell_m);
        let mut model = EndToEnd::build(&spec, &city.net, &grid, self.meta.dim, self.meta.seed);
        let ids: Vec<_> = model.store.ids().collect();
        if ids.len() != self.params.len() {
            return Err(mismatch(format!(
                "artifact has {} tensors, skeleton has {} parameters",
                self.params.len(),
                ids.len()
            )));
        }
        for (id, packed) in ids.into_iter().zip(&self.params) {
            if model.store.name(id) != packed.name {
                return Err(mismatch(format!(
                    "parameter order diverged: skeleton '{}' vs artifact '{}'",
                    model.store.name(id),
                    packed.name
                )));
            }
            let value = model.store.value_mut(id);
            if (value.rows, value.cols) != (packed.rows, packed.cols) {
                return Err(mismatch(format!(
                    "parameter '{}' is [{}, {}] in the skeleton but [{}, {}] in the artifact",
                    packed.name, value.rows, value.cols, packed.rows, packed.cols
                )));
            }
            value.data.copy_from_slice(&packed.data);
        }
        let num_segments = city.net.num_segments();
        let x_road = match &self.x_road {
            Some(t) => {
                if (t.rows, t.cols) != (num_segments, self.meta.dim) {
                    return Err(mismatch(format!(
                        "road cache is [{}, {}], expected [{num_segments}, {}]",
                        t.rows, t.cols, self.meta.dim
                    )));
                }
                Some(t.to_tensor())
            }
            None => None,
        };
        let quant = match &self.quant {
            Some(q) => {
                if (q.k, q.c) != (self.meta.dim, num_segments) {
                    return Err(mismatch(format!(
                        "int8 head is [{}, {}], expected [{num_segments}, {}]",
                        q.c, q.k, self.meta.dim
                    )));
                }
                Some(q.to_quantized()?)
            }
            None => None,
        };
        Ok(LoadedModel {
            city,
            grid,
            model,
            x_road,
            quant,
        })
    }
}

/// Build + pack a fresh city model in one call (the `pack_city` bin and
/// the tests share this path; a trained deployment would pack its trained
/// `EndToEnd` instead).
pub fn pack_fresh(
    city: &str,
    model_version: &str,
    config: &CityConfig,
    cell_m: f64,
    dim: usize,
    seed: u64,
) -> Artifact {
    let generated = SyntheticCity::generate(config.clone());
    let grid = generated.net.grid(cell_m);
    let model = EndToEnd::build(&MethodSpec::RnTrajRec, &generated.net, &grid, dim, seed);
    let x_road = model.precompute_road();
    let quant = model.decoder.quantized_segment_head(&model.store);
    let b = generated.net.bbox();
    Artifact::pack(
        city,
        model_version,
        CityParams::from_config(config),
        cell_m,
        dim,
        seed,
        [b.min_x, b.min_y, b.max_x, b.max_y],
        &model,
        x_road.as_ref(),
        Some(&quant),
    )
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &NamedTensor) {
    put_str(out, &t.name);
    out.extend_from_slice(&(t.rows as u32).to_le_bytes());
    out.extend_from_slice(&(t.cols as u32).to_le_bytes());
    for v in &t.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ArtifactError> {
        if n > MAX_SECTION_BYTES || self.pos + n > self.buf.len() {
            return Err(corrupt(format!(
                "truncated while reading {what} ({n} bytes at offset {})",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self, what: &str) -> Result<u8, ArtifactError> {
        Ok(self.take_bytes(1, what)?[0])
    }

    fn take_u32(&mut self, what: &str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4, what)?.try_into().unwrap(),
        ))
    }

    fn take_f64(&mut self, what: &str) -> Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(
            self.take_bytes(8, what)?.try_into().unwrap(),
        ))
    }

    fn take_str(&mut self, what: &str) -> Result<String, ArtifactError> {
        let n = self.take_u32(what)? as usize;
        let bytes = self.take_bytes(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(format!("{what} is not valid UTF-8")))
    }

    fn take_tensor(&mut self, what: &str) -> Result<NamedTensor, ArtifactError> {
        let name = self.take_str(what)?;
        let rows = self.take_u32(what)? as usize;
        let cols = self.take_u32(what)? as usize;
        let n = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .filter(|&nb| nb <= MAX_SECTION_BYTES)
            .ok_or_else(|| corrupt(format!("{what} ('{name}') has implausible shape")))?;
        let raw = self.take_bytes(n, what)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(NamedTensor {
            name,
            rows,
            cols,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_artifact() -> Artifact {
        pack_fresh("testville", "v1", &CityConfig::tiny(), 50.0, 8, 7)
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let a = tiny_artifact();
        let bytes = a.to_bytes();
        let back = Artifact::from_bytes(&bytes).expect("parses");
        assert_eq!(back, a);
        // f32 payload must survive bitwise, not just approximately.
        for (x, y) in a.params[0].data.iter().zip(&back.params[0].data) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn instantiate_reproduces_exact_parameters() {
        let a = tiny_artifact();
        let loaded = a.instantiate().expect("instantiates");
        // Every parameter matches the packed values bitwise.
        for (id, packed) in loaded.model.store.ids().zip(&a.params) {
            let v = loaded.model.store.value(id);
            assert_eq!(loaded.model.store.name(id), packed.name);
            for (x, y) in v.data.iter().zip(&packed.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", packed.name);
            }
        }
        let road = loaded.x_road.expect("rntrajrec has a road cache");
        assert_eq!(road.rows, loaded.city.net.num_segments());
        assert_eq!(road.cols, 8);
        // The packed cache equals a fresh precompute over the restored
        // weights — the cache is genuinely redundant state, carried only
        // to skip the precompute at load.
        let fresh = loaded.model.precompute_road().expect("precompute");
        assert_eq!(road.data, fresh.data);
        let quant = loaded.quant.expect("int8 head packed");
        let (_, _, qt, _) = quant.to_parts();
        let requantized = loaded
            .model
            .decoder
            .quantized_segment_head(&loaded.model.store);
        let (_, _, qt2, _) = requantized.to_parts();
        assert_eq!(qt, qt2, "packed int8 integers match re-quantization");
    }

    #[test]
    fn corrupt_and_truncated_files_are_rejected() {
        let a = tiny_artifact();
        let bytes = a.to_bytes();

        // Truncation at any prefix is refused.
        for cut in [5, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    Artifact::from_bytes(&bytes[..cut]),
                    Err(ArtifactError::Corrupt(_))
                ),
                "truncation at {cut} must be rejected"
            );
        }

        // A flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Artifact::from_bytes(&flipped),
            Err(ArtifactError::Corrupt(_))
        ));

        // Wrong magic and wrong version are refused before anything else.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            Artifact::from_bytes(&wrong_magic),
            Err(ArtifactError::Corrupt(_))
        ));
        let mut wrong_version = bytes;
        wrong_version[4] = 0xFF;
        assert!(matches!(
            Artifact::from_bytes(&wrong_version),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn a_claimed_int8_head_width_allocates_nothing() {
        // `k = 0` passes the `k·c` bound whatever `c` claims, and the CRC
        // is valid, so only the scales section stands between `c = 2³²−1`
        // and a 17 GB allocation.
        let mut a = tiny_artifact();
        a.quant = Some(QuantHead {
            k: 0,
            c: u32::MAX as usize,
            qt: Vec::new(),
            scales: Vec::new(),
        });
        assert!(matches!(
            Artifact::from_bytes(&a.to_bytes()),
            Err(ArtifactError::Corrupt(_))
        ));
    }

    #[test]
    fn read_from_refuses_what_is_not_a_regular_file() {
        let dir = std::env::temp_dir();
        assert!(
            matches!(Artifact::read_from(&dir), Err(ArtifactError::Io(_))),
            "a directory is not an artifact"
        );
        let zero = std::path::Path::new("/dev/zero");
        if zero.exists() {
            // Refused from its metadata, before a byte is read.
            let t0 = std::time::Instant::now();
            assert!(matches!(
                Artifact::read_from(zero),
                Err(ArtifactError::Io(_))
            ));
            assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        }
        let path = dir.join(format!("rntrajrec_read_from_{}.rnta", std::process::id()));
        let a = tiny_artifact();
        a.write_to(&path).expect("write");
        let back = Artifact::read_from(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(back.expect("a regular file reads"), a);
    }

    #[test]
    fn mismatched_skeleton_is_rejected() {
        let mut a = tiny_artifact();
        // Rename a parameter: well-formed bytes, wrong model.
        a.params[0].name = "not.a.param".to_string();
        let back = Artifact::from_bytes(&a.to_bytes()).expect("still well-formed");
        assert!(matches!(
            back.instantiate(),
            Err(ArtifactError::Mismatch(_))
        ));

        // Drift the bbox: the regenerated city no longer matches.
        let mut b = tiny_artifact();
        b.meta.bbox[2] += 1.0;
        let back = Artifact::from_bytes(&b.to_bytes()).expect("well-formed");
        assert!(matches!(
            back.instantiate(),
            Err(ArtifactError::Mismatch(_))
        ));
    }

    #[test]
    fn manifest_is_human_readable_json() {
        let a = tiny_artifact();
        let m: Value = serde_json::from_str(&a.manifest_json()).expect("valid JSON");
        assert_eq!(m.get("city").and_then(Value::as_str), Some("testville"));
        assert_eq!(m.get("model_version").and_then(Value::as_str), Some("v1"));
        assert_eq!(m.get("spec").and_then(Value::as_str), Some("rntrajrec"));
        assert!(m.get("num_scalars").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            m.get("tensors").and_then(Value::as_array).unwrap().len(),
            a.params.len()
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
