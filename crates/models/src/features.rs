//! Feature extraction: from a [`TrajSample`] to model-ready inputs.
//!
//! Everything non-learned is computed once here: normalised raw-point
//! features, grid indices, the per-point weighted sub-graphs of Section
//! IV-C, the decoder constraint masks of Section V, and the supervision
//! targets.

use std::sync::Arc;

use rntrajrec_geo::{BBox, GridSpec, XY};
use rntrajrec_nn::{kernels, GraphCsr, Tensor};
use rntrajrec_roadnet::{RTree, RadiusHit, RoadNetwork, SegmentId};
use rntrajrec_synth::{MatchedTrajectory, RawTrajectory, TimeContext, TrajSample};

/// The weighted sub-graph `Ĝ_τ,i = (V_τ,i, E_τ,i, W_τ,i)` around one GPS
/// point (Section IV-C).
#[derive(Debug, Clone)]
pub struct SubGraph {
    /// Road-segment indices; row `r` of the sub-graph feature matrix is
    /// segment `nodes[r]`.
    pub nodes: Vec<usize>,
    /// Adjacency among `nodes` (induced from the road graph, undirected
    /// with self-loops — the GAT attention neighbourhood).
    pub csr: Arc<GraphCsr>,
    /// `ω(e, p) = exp(-dist²/γ²)` per node (Eq. 5).
    pub weights: Vec<f32>,
    /// Row of the ground-truth segment, if it is inside the sub-graph
    /// (used by the graph classification loss, Eq. 18).
    pub true_row: Option<usize>,
}

/// One trajectory converted to model inputs + supervision.
#[derive(Debug, Clone)]
pub struct SampleInput {
    /// `[l_τ, 5]`: normalised x, y, t, grid-x, grid-y per raw point.
    pub base_feats: Tensor,
    /// Flat grid-cell index per raw point (for grid-embedding lookups).
    pub grid_flat: Vec<usize>,
    /// Nearest road segment per raw point (GTS-style POI anchor).
    pub nearest_seg: Vec<usize>,
    /// Per-point weighted sub-graphs.
    pub subgraphs: Vec<SubGraph>,
    /// Environmental context `f_e` (hour one-hot + holiday, Section IV-F).
    pub env: [f32; 25],
    /// Ground-truth road segment index per target step (`l_ρ`).
    pub target_segs: Vec<usize>,
    /// Ground-truth moving ratio per target step.
    pub target_rates: Vec<f32>,
    /// Constraint mask per target step (Section V): a `Some` sparse
    /// `(segment, weight)` list of the segments within the mask radius of
    /// the step's GPS position — observed points directly, missing steps
    /// via linear interpolation between the surrounding observed points
    /// (with the radius widened by half the gap chord). `None` (all-ones)
    /// when the neighbourhood is empty or the step precedes/follows every
    /// observed point. The extractor emits each list ascending by segment
    /// (`kernels::SparseLogMask`'s canonical form, so a list can be handed
    /// to a masked kernel as it is); hand-built inputs need not — the
    /// decoder canonicalises what it is given.
    pub masks: Vec<Option<Vec<(usize, f32)>>>,
    /// Target step index of each raw input point.
    pub obs_step: Vec<usize>,
    /// Ground-truth segment of each raw input point (graph classification
    /// loss supervision).
    pub input_true_segs: Vec<usize>,
    /// Normalised ground-truth planar coordinates per target step
    /// `[l_ρ, 2]` (supervision for the DHTR position-regression baseline).
    pub target_xy_norm: Tensor,
}

impl SampleInput {
    pub fn input_len(&self) -> usize {
        self.grid_flat.len()
    }

    pub fn target_len(&self) -> usize {
        self.target_segs.len()
    }
}

/// Why a query-time extraction was refused ([`FeatureExtractor::extract_query`]).
///
/// These are the validation failures reachable from *network input* (the
/// HTTP layer maps them to field-precise `400`s): they must be typed
/// errors, never panics, because a panic on one request would take a
/// serving worker down with it.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The raw trajectory carries no points.
    EmptyTrajectory,
    /// `target_len` is zero — there is nothing to recover.
    ZeroTargetLen,
    /// A GPS point has a non-finite coordinate or timestamp (NaN / ±∞
    /// survive in-process callers even though the wire format rejects
    /// them): grid and sub-graph lookups are undefined on such points.
    NonFinitePoint {
        /// Index into the raw trajectory.
        index: usize,
    },
    /// A GPS point lies farther than the sub-graph receptive field δ
    /// outside the study area — no road segment could fall inside its
    /// receptive field, so features would be meaningless (an antipodal
    /// coordinate, a unit mix-up). Points *within* the margin are kept:
    /// ordinary GPS noise at the map boundary still resolves.
    OffSite {
        /// Index into the raw trajectory.
        index: usize,
        /// Distance to the study area in metres.
        dist_m: f64,
        /// The accepted margin (δ) in metres.
        margin_m: f64,
    },
}

impl QueryError {
    /// The wire-request field this error faults (for field-precise 400s).
    pub fn field(&self) -> &'static str {
        match self {
            QueryError::ZeroTargetLen => "target_len",
            _ => "points",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyTrajectory => write!(f, "at least one GPS point is required"),
            QueryError::ZeroTargetLen => write!(f, "target_len must be >= 1"),
            QueryError::NonFinitePoint { index } => {
                write!(f, "point {index} has a non-finite coordinate or timestamp")
            }
            QueryError::OffSite {
                index,
                dist_m,
                margin_m,
            } => write!(
                f,
                "point {index} lies {dist_m:.0} m outside the study area \
                 (max accepted: {margin_m:.0} m)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Converts [`TrajSample`]s into [`SampleInput`]s for a fixed road network.
pub struct FeatureExtractor<'a> {
    pub net: &'a RoadNetwork,
    pub rtree: &'a RTree,
    pub grid: GridSpec,
    /// Receptive field δ of the sub-graph generation (paper: 400 m).
    pub delta_m: f64,
    /// Influence bandwidth γ of Eq. (5) (paper: 30 m).
    pub gamma_m: f64,
    /// Constraint-mask bandwidth β (paper: 15 m).
    pub beta_m: f64,
    /// Constraint-mask radius — "maximum error of the GPS device"
    /// (paper: 100 m).
    pub mask_radius_m: f64,
    bbox: BBox,
}

impl<'a> FeatureExtractor<'a> {
    pub fn new(net: &'a RoadNetwork, rtree: &'a RTree, grid: GridSpec) -> Self {
        Self::with_bbox(net, rtree, grid, net.bbox())
    }

    /// Like [`FeatureExtractor::new`] but reusing an already-computed
    /// study-area bounding box — [`RoadNetwork::bbox`] scans every segment
    /// geometry, which a per-request caller (the HTTP serving path) must
    /// not repeat. `bbox` must be `net.bbox()`'s value for normalisation
    /// to stay consistent.
    pub fn with_bbox(net: &'a RoadNetwork, rtree: &'a RTree, grid: GridSpec, bbox: BBox) -> Self {
        Self {
            net,
            rtree,
            grid,
            delta_m: 400.0,
            gamma_m: 30.0,
            beta_m: 15.0,
            mask_radius_m: 100.0,
            bbox,
        }
    }

    /// Study-area bounding box used for coordinate normalisation.
    pub fn bbox(&self) -> &BBox {
        &self.bbox
    }

    /// Invert the feature normalisation back to planar metres (used by the
    /// DHTR position-regression baseline at inference time).
    pub fn denormalize(&self, x_norm: f32, y_norm: f32) -> XY {
        XY::new(
            self.bbox.min_x + x_norm as f64 * self.bbox.width().max(1.0),
            self.bbox.min_y + y_norm as f64 * self.bbox.height().max(1.0),
        )
    }

    /// Build the weighted sub-graph around a planar point.
    pub fn subgraph_at(&self, p: &XY, true_seg: Option<SegmentId>) -> SubGraph {
        self.subgraph_of(&self.receptive_field(p), true_seg)
    }

    /// The segments within δ of `p`, closest first; the five nearest when
    /// there is none.
    fn receptive_field(&self, p: &XY) -> Vec<RadiusHit> {
        let hits = self.rtree.within_radius(self.net, p, self.delta_m);
        if hits.is_empty() {
            return self.rtree.k_nearest(self.net, p, 5);
        }
        hits
    }

    /// The weighted sub-graph over a point's receptive field.
    fn subgraph_of(&self, hits: &[RadiusHit], true_seg: Option<SegmentId>) -> SubGraph {
        let nodes: Vec<usize> = hits.iter().map(|h| h.seg.index()).collect();
        let mut weights = Vec::new();
        influence(
            hits.iter().map(|h| h.projection.dist),
            self.gamma_m,
            &mut weights,
        );
        // Induced adjacency: E_p = (V_p × V_p) ∩ E, undirected for GAT.
        // Each node's neighbours in ascending segment order, mapped to
        // rows through a sorted (segment, row) slice and written straight
        // onto the CSR edge array.
        let mut row_by_seg: Vec<(SegmentId, usize)> = hits
            .iter()
            .enumerate()
            .map(|(row, h)| (h.seg, row))
            .collect();
        row_by_seg.sort_unstable();
        let row_of = |seg: SegmentId| {
            row_by_seg
                .binary_search_by_key(&seg, |&(s, _)| s)
                .ok()
                .map(|at| row_by_seg[at].1)
        };
        let mut adjacent = Vec::new();
        let csr = Arc::new(GraphCsr::from_neighbor_fn(hits.len(), true, |row, out| {
            self.net
                .neighbors_undirected_into(hits[row].seg, &mut adjacent);
            out.extend(adjacent.iter().filter_map(|&n| row_of(n)));
        }));
        let true_row = true_seg.and_then(row_of);
        SubGraph {
            nodes,
            csr,
            weights,
            true_row,
        }
    }

    /// The constraint mask over `hits` (Section V): each segment with its
    /// β-bandwidth weight, ascending by segment; `None` — the all-ones
    /// mask, rather than forbidding everything — when there is no hit.
    /// `weights` is scratch.
    fn mask_of<'h>(
        &self,
        hits: impl Iterator<Item = &'h RadiusHit> + Clone,
        weights: &mut Vec<f32>,
    ) -> Option<Vec<(usize, f32)>> {
        influence(
            hits.clone().map(|h| h.projection.dist),
            self.beta_m,
            weights,
        );
        if weights.is_empty() {
            return None;
        }
        Some(kernels::canonical_mask_entries(
            hits.zip(weights.iter())
                .map(|(h, &w)| (h.seg.index(), w))
                .collect(),
        ))
    }

    /// [`Self::mask_of`] the segments within `radius_m` of `xy`.
    fn mask_at(&self, xy: &XY, radius_m: f64, weights: &mut Vec<f32>) -> Option<Vec<(usize, f32)>> {
        let hits = self.rtree.within_radius_unordered(self.net, xy, radius_m);
        self.mask_of(hits.iter(), weights)
    }

    /// Full conversion of one supervised sample.
    pub fn extract(&self, sample: &TrajSample) -> SampleInput {
        let duration = sample.target.points.last().map_or(1.0, |p| p.t.max(1.0));
        self.extract_inner(
            &sample.raw,
            sample.target.len(),
            duration,
            sample.time_context(),
            Some(&sample.target),
        )
    }

    /// Query-time conversion: a raw trajectory with **no ground truth** —
    /// what an online request carries over the wire. Every
    /// inference-relevant field (`base_feats`, `grid_flat`, sub-graphs,
    /// `env`, constraint `masks`, `obs_step`, and the decode length) is
    /// computed exactly as [`FeatureExtractor::extract`] computes it;
    /// supervision-only fields (`target_segs`/`target_rates`,
    /// `input_true_segs`, `target_xy_norm`, sub-graph `true_row`) are
    /// filled with neutral values, which the tape-free inference path
    /// never reads. The recovery window spans the raw trajectory
    /// (`duration` = last raw timestamp), matching the simulator's
    /// down-sampling convention of always keeping the final point.
    ///
    /// # Errors
    /// Network input reaches this function, so every invalid shape is a
    /// typed [`QueryError`] (mapped to a field-precise `400` by the HTTP
    /// layer), never a panic: empty trajectories, a zero `target_len`,
    /// non-finite coordinates/timestamps, and points farther than the
    /// receptive field δ ([`FeatureExtractor::delta_m`]) outside the study
    /// area are all rejected up front.
    pub fn extract_query(
        &self,
        raw: &RawTrajectory,
        target_len: usize,
        time: TimeContext,
    ) -> Result<SampleInput, QueryError> {
        if raw.is_empty() {
            return Err(QueryError::EmptyTrajectory);
        }
        if target_len == 0 {
            return Err(QueryError::ZeroTargetLen);
        }
        let site = self.bbox.inflated(self.delta_m);
        for (index, p) in raw.points.iter().enumerate() {
            if !(p.xy.x.is_finite() && p.xy.y.is_finite() && p.t.is_finite()) {
                return Err(QueryError::NonFinitePoint { index });
            }
            if !site.contains(&p.xy) {
                return Err(QueryError::OffSite {
                    index,
                    dist_m: self.bbox.dist_to_point(&p.xy),
                    margin_m: self.delta_m,
                });
            }
        }
        let duration = raw.points.last().map_or(1.0, |p| p.t.max(1.0));
        Ok(self.extract_inner(raw, target_len, duration, time, None))
    }

    fn extract_inner(
        &self,
        raw: &RawTrajectory,
        l_rho: usize,
        duration: f64,
        time: TimeContext,
        truth: Option<&MatchedTrajectory>,
    ) -> SampleInput {
        let l_tau = raw.len();
        let width = self.bbox.width().max(1.0);
        let height = self.bbox.height().max(1.0);

        // Map each input point to its target step (timestamps align by
        // construction of the down-sampling).
        let eps = duration / (l_rho - 1).max(1) as f64;
        let obs_step: Vec<usize> = raw
            .points
            .iter()
            .map(|p| ((p.t / eps).round() as usize).min(l_rho - 1))
            .collect();

        let mut feats = Tensor::zeros(l_tau, 5);
        let mut grid_flat = Vec::with_capacity(l_tau);
        let mut nearest_seg = Vec::with_capacity(l_tau);
        let mut subgraphs = Vec::with_capacity(l_tau);
        let mut input_true_segs = Vec::with_capacity(l_tau);
        let mut masks: Vec<Option<Vec<(usize, f32)>>> = vec![None; l_rho];
        let mut weights = Vec::new(); // scratch of `mask_of`
        for (i, p) in raw.points.iter().enumerate() {
            let cell = self.grid.cell_of(&p.xy);
            feats.set(i, 0, ((p.xy.x - self.bbox.min_x) / width) as f32);
            feats.set(i, 1, ((p.xy.y - self.bbox.min_y) / height) as f32);
            feats.set(i, 2, (p.t / duration) as f32);
            feats.set(i, 3, cell.col as f32 / self.grid.cols as f32);
            feats.set(i, 4, cell.row as f32 / self.grid.rows as f32);
            grid_flat.push(self.grid.flat_index(cell));
            let nearest = self
                .rtree
                .nearest(self.net, &p.xy)
                .map(|h| h.seg.index())
                .unwrap_or(0);
            nearest_seg.push(nearest);
            let true_seg = truth.map(|t| t.points[obs_step[i]].pos.seg);
            input_true_segs.push(true_seg.map_or(0, |s| s.index()));
            // One δ query serves the sub-graph and, filtered down to the
            // mask radius, the observed step's constraint mask (the mask
            // is a set, so the hits' order does not matter).
            let field = self.receptive_field(&p.xy);
            let mask = if self.mask_radius_m <= self.delta_m {
                let near = |h: &&RadiusHit| h.projection.dist <= self.mask_radius_m;
                self.mask_of(field.iter().filter(near), &mut weights)
            } else {
                self.mask_at(&p.xy, self.mask_radius_m, &mut weights)
            };
            if mask.is_some() {
                masks[obs_step[i]] = mask;
            }
            subgraphs.push(self.subgraph_of(&field, true_seg));
        }

        // Supervision (neutral zeros for query-time inputs).
        let mut target_segs = vec![0usize; l_rho];
        let mut target_rates = vec![0.0f32; l_rho];
        let mut target_xy_norm = Tensor::zeros(l_rho, 2);
        if let Some(target) = truth {
            for (j, mp) in target.points.iter().enumerate() {
                target_segs[j] = mp.pos.seg.index();
                target_rates[j] = mp.pos.frac as f32;
                let xy = mp.pos.xy(self.net);
                target_xy_norm.set(j, 0, ((xy.x - self.bbox.min_x) / width) as f32);
                target_xy_norm.set(j, 1, ((xy.y - self.bbox.min_y) / height) as f32);
            }
        }
        // Missing steps (Section V): the constraint mask is centred on the
        // GPS position linearly interpolated between the surrounding
        // observed points. The interpolated point can sit off the true
        // path by up to roughly half the gap chord, so the search radius
        // widens with the gap; an empty neighbourhood stays all-ones.
        let observed: Vec<(usize, XY)> = {
            let mut at: Vec<Option<XY>> = vec![None; l_rho];
            for (i, p) in raw.points.iter().enumerate() {
                at[obs_step[i]] = Some(p.xy);
            }
            at.iter()
                .enumerate()
                .filter_map(|(j, o)| o.map(|xy| (j, xy)))
                .collect()
        };
        for w in observed.windows(2) {
            let ((j0, a), (j1, b)) = (w[0], w[1]);
            if j1 <= j0 + 1 {
                continue;
            }
            let radius = self.mask_radius_m + 0.5 * a.dist(&b);
            for (j, m) in masks.iter_mut().enumerate().take(j1).skip(j0 + 1) {
                if m.is_none() {
                    let frac = (j - j0) as f64 / (j1 - j0) as f64;
                    *m = self.mask_at(&a.lerp(&b, frac), radius, &mut weights);
                }
            }
        }

        SampleInput {
            base_feats: feats,
            grid_flat,
            nearest_seg,
            subgraphs,
            env: time.features(),
            target_segs,
            target_rates,
            masks,
            obs_step,
            input_true_segs,
            target_xy_norm,
        }
    }
}

/// `out[i] = max(exp(−dᵢ²/bandwidth²), 1e-6)`: the influence of a segment
/// at distance `dᵢ` (Eq. 5's `ω`, and the constraint-mask weight with β
/// for γ). The floor keeps far segments participating (and weights
/// summable).
fn influence(dists_m: impl Iterator<Item = f64>, bandwidth_m: f64, out: &mut Vec<f32>) {
    let bandwidth2 = (bandwidth_m * bandwidth_m) as f32;
    out.clear();
    out.extend(dists_m.map(|d| {
        let d = d as f32;
        -(d * d) / bandwidth2
    }));
    kernels::exp_in_place(out);
    out.iter_mut().for_each(|w| *w = w.max(1e-6));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rntrajrec_roadnet::{CityConfig, SyntheticCity};
    use rntrajrec_synth::{SimConfig, Simulator};

    fn setup() -> (SyntheticCity, RTree) {
        let city = SyntheticCity::generate(CityConfig::tiny());
        let rtree = RTree::build(&city.net);
        (city, rtree)
    }

    fn sample(city: &SyntheticCity, seed: u64) -> TrajSample {
        let mut sim = Simulator::new(&city.net, SimConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        sim.sample(&mut rng, 8)
    }

    #[test]
    fn extract_shapes_consistent() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let s = sample(&city, 1);
        let input = fx.extract(&s);
        assert_eq!(input.input_len(), s.raw.len());
        assert_eq!(input.target_len(), s.target.len());
        assert_eq!(input.base_feats.shape(), (s.raw.len(), 5));
        assert_eq!(input.subgraphs.len(), s.raw.len());
        assert_eq!(input.masks.len(), s.target.len());
        assert_eq!(input.obs_step.len(), s.raw.len());
    }

    /// A query-time extraction from the same raw trajectory must agree
    /// with the supervised extraction on every field inference reads —
    /// this is what makes HTTP-served recovery bit-identical to the
    /// in-process engine fed with supervised `SampleInput`s.
    #[test]
    fn extract_query_matches_extract_on_inference_fields() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let s = sample(&city, 3);
        let supervised = fx.extract(&s);
        let query = fx
            .extract_query(&s.raw, s.target.len(), s.time_context())
            .expect("valid query");

        assert_eq!(query.base_feats.data, supervised.base_feats.data);
        assert_eq!(query.grid_flat, supervised.grid_flat);
        assert_eq!(query.nearest_seg, supervised.nearest_seg);
        assert_eq!(query.env, supervised.env);
        assert_eq!(query.masks, supervised.masks);
        assert_eq!(query.obs_step, supervised.obs_step);
        assert_eq!(query.target_len(), supervised.target_len());
        assert_eq!(query.subgraphs.len(), supervised.subgraphs.len());
        for (q, sgt) in query.subgraphs.iter().zip(&supervised.subgraphs) {
            assert_eq!(q.nodes, sgt.nodes);
            assert_eq!(q.weights, sgt.weights);
            assert_eq!(q.csr.as_ref(), sgt.csr.as_ref());
            assert_eq!(q.true_row, None, "query sub-graphs carry no truth");
        }
        // Supervision stays neutral.
        assert!(query.target_segs.iter().all(|&s| s == 0));
        assert!(query.target_rates.iter().all(|&r| r == 0.0));
    }

    /// Every malformed query shape reachable from network input must come
    /// back as a typed [`QueryError`] — these used to be `assert!`s, i.e.
    /// panics a request body could trigger inside a serving worker.
    #[test]
    fn extract_query_rejects_invalid_input_without_panicking() {
        use rntrajrec_synth::{RawPoint, RawTrajectory};
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let mk = |points: Vec<(f64, f64, f64)>| RawTrajectory {
            points: points
                .into_iter()
                .map(|(x, y, t)| RawPoint {
                    xy: XY::new(x, y),
                    t,
                })
                .collect(),
        };
        let ctx = TimeContext::from_epoch_s(0.0);
        let inside = fx.bbox().center();

        let empty = mk(vec![]);
        assert_eq!(
            fx.extract_query(&empty, 3, ctx).err(),
            Some(QueryError::EmptyTrajectory)
        );
        let ok = mk(vec![(inside.x, inside.y, 0.0)]);
        assert_eq!(
            fx.extract_query(&ok, 0, ctx).err(),
            Some(QueryError::ZeroTargetLen)
        );
        assert_eq!(QueryError::ZeroTargetLen.field(), "target_len");

        for (x, y, t) in [
            (f64::NAN, inside.y, 0.0),
            (inside.x, f64::INFINITY, 0.0),
            (inside.x, inside.y, f64::NEG_INFINITY),
        ] {
            let bad = mk(vec![(inside.x, inside.y, 0.0), (x, y, t)]);
            assert_eq!(
                fx.extract_query(&bad, 3, ctx).err(),
                Some(QueryError::NonFinitePoint { index: 1 }),
                "({x}, {y}, {t}) must be rejected as non-finite"
            );
        }

        // An antipodal-scale coordinate: finite but nowhere near the map.
        let far = mk(vec![(inside.x, inside.y, 0.0), (2.0e7, -2.0e7, 10.0)]);
        match fx.extract_query(&far, 3, ctx) {
            Err(QueryError::OffSite {
                index, margin_m, ..
            }) => {
                assert_eq!(index, 1);
                assert_eq!(margin_m, fx.delta_m);
            }
            other => panic!("expected OffSite, got {other:?}"),
        }
        assert_eq!(
            QueryError::NonFinitePoint { index: 1 }.field(),
            "points",
            "point errors must fault the points field"
        );

        // Boundary noise within δ of the study area still extracts.
        let edge = mk(vec![(
            fx.bbox().min_x - fx.delta_m * 0.5,
            fx.bbox().min_y,
            0.0,
        )]);
        assert!(fx.extract_query(&edge, 2, ctx).is_ok());
    }

    #[test]
    fn features_are_normalised() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let input = fx.extract(&sample(&city, 2));
        for v in &input.base_feats.data {
            assert!((-0.5..=1.5).contains(v), "feature {v} badly scaled");
        }
    }

    #[test]
    fn subgraph_weights_decay_with_distance() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let p = city
            .net
            .segment(SegmentId(0))
            .geometry
            .point_at_fraction(0.5);
        let sg = fx.subgraph_at(&p, Some(SegmentId(0)));
        assert!(!sg.nodes.is_empty());
        // Hits are distance-sorted, so weights must be non-increasing.
        for w in sg.weights.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        // The on-segment point has weight ≈ 1 for its own segment.
        assert!(sg.weights[0] > 0.9, "nearest weight {}", sg.weights[0]);
        assert_eq!(sg.true_row, Some(0));
    }

    #[test]
    fn subgraph_adjacency_is_induced() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let p = city
            .net
            .segment(SegmentId(5))
            .geometry
            .point_at_fraction(0.2);
        let sg = fx.subgraph_at(&p, None);
        for (row, &seg) in sg.nodes.iter().enumerate() {
            let global: Vec<usize> = city
                .net
                .neighbors_undirected(SegmentId(seg as u32))
                .iter()
                .map(|s| s.index())
                .collect();
            for &nbr_row in sg.csr.neighbors(row) {
                let nbr_seg = sg.nodes[nbr_row];
                assert!(
                    nbr_seg == seg || global.contains(&nbr_seg),
                    "edge {seg}->{nbr_seg} not in road graph"
                );
            }
        }
    }

    #[test]
    fn masks_cover_observed_and_interpolated_steps() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let s = sample(&city, 3);
        let input = fx.extract(&s);
        let observed: std::collections::HashSet<usize> = input.obs_step.iter().copied().collect();
        let first = *input.obs_step.iter().min().unwrap();
        let last = *input.obs_step.iter().max().unwrap();
        let mut constrained_missing = 0usize;
        let mut missing = 0usize;
        for (j, m) in input.masks.iter().enumerate() {
            if observed.contains(&j) {
                assert!(m.is_some(), "observed step {j} missing mask");
            } else if j < first || j > last {
                // No surrounding observations to interpolate between.
                assert!(m.is_none(), "step {j} outside the observed span");
            } else {
                missing += 1;
                constrained_missing += m.is_some() as usize;
            }
        }
        // Interpolated masks cover the gaps (Section V): the simulator's
        // GPS points sit well inside the study area, so the widened-radius
        // neighbourhood is essentially never empty.
        assert!(
            missing == 0 || constrained_missing * 2 > missing,
            "only {constrained_missing}/{missing} missing steps constrained"
        );
        // The masked sparse head relies on masks staying sparse: a mask
        // must not simply enumerate the whole vocabulary.
        for m in input.masks.iter().flatten() {
            assert!(
                m.len() < city.net.num_segments(),
                "constraint mask is dense ({} of {} segments)",
                m.len(),
                city.net.num_segments()
            );
        }
    }

    #[test]
    fn mask_weights_in_unit_interval() {
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let input = fx.extract(&sample(&city, 4));
        for m in input.masks.iter().flatten() {
            for &(seg, w) in m {
                assert!(seg < city.net.num_segments());
                assert!((0.0..=1.0).contains(&w));
            }
        }
    }

    #[test]
    fn true_segment_usually_in_subgraph() {
        // δ = 400 m with ~10 m GPS noise: the ground-truth segment should
        // almost always be inside the receptive field.
        let (city, rtree) = setup();
        let fx = FeatureExtractor::new(&city.net, &rtree, city.net.grid(50.0));
        let mut hit = 0;
        let mut total = 0;
        for seed in 0..5 {
            let input = fx.extract(&sample(&city, seed));
            for sg in &input.subgraphs {
                total += 1;
                hit += sg.true_row.is_some() as usize;
            }
        }
        assert!(hit as f64 / total as f64 > 0.9, "{hit}/{total}");
    }
}
