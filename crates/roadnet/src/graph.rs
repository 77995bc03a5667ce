//! The directed road graph: segments as nodes, connectivity as edges.

use std::collections::HashMap;

use rntrajrec_geo::{BBox, GridCell, GridSpec, Polyline, XY};

/// Number of road levels; the paper's static feature vector reserves an
/// 8-dim one-hot for "level of road segment".
pub const NUM_ROAD_LEVELS: usize = 8;

/// Functional class of a road segment, mirroring OSM-style levels.
///
/// [`RoadLevel::Elevated`] marks segments of the elevated expressway used in
/// the robustness study (Section VI-D): they geometrically overlap a ground
/// trunk road but are topologically separate except at ramps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadLevel {
    Residential,
    Tertiary,
    Secondary,
    Primary,
    Trunk,
    Motorway,
    Elevated,
    Ramp,
}

impl RoadLevel {
    /// Index into the 8-dim one-hot of the static feature vector.
    pub fn index(&self) -> usize {
        match self {
            RoadLevel::Residential => 0,
            RoadLevel::Tertiary => 1,
            RoadLevel::Secondary => 2,
            RoadLevel::Primary => 3,
            RoadLevel::Trunk => 4,
            RoadLevel::Motorway => 5,
            RoadLevel::Elevated => 6,
            RoadLevel::Ramp => 7,
        }
    }

    /// Free-flow speed prior for the trajectory simulator, in m/s.
    ///
    /// Urban-congested magnitudes: the ratio of inter-observation gap to
    /// block size then matches the paper's city-scale datasets (see
    /// "Deviations from the paper" in EXPERIMENTS.md).
    pub fn freeflow_speed(&self) -> f64 {
        match self {
            RoadLevel::Residential => 4.0,
            RoadLevel::Tertiary => 5.0,
            RoadLevel::Secondary => 6.0,
            RoadLevel::Primary => 7.0,
            RoadLevel::Trunk => 8.0,
            RoadLevel::Motorway => 12.5,
            RoadLevel::Elevated => 10.0,
            RoadLevel::Ramp => 3.5,
        }
    }
}

/// Identifier of a road segment — the node id of the directed graph and the
/// class id of the decoder's road-segment prediction task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

impl SegmentId {
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed road segment with planar geometry.
#[derive(Debug, Clone)]
pub struct RoadSegment {
    pub id: SegmentId,
    pub geometry: Polyline,
    pub level: RoadLevel,
}

impl RoadSegment {
    pub fn length(&self) -> f64 {
        self.geometry.length()
    }

    pub fn start(&self) -> XY {
        self.geometry.first()
    }

    pub fn end(&self) -> XY {
        self.geometry.last()
    }
}

/// The road network: a directed graph over [`RoadSegment`]s (Definition 1).
///
/// `⟨e_i, e_j⟩ ∈ E` iff the end point of `e_i` coincides with the start
/// point of `e_j` (within a small snapping tolerance applied at build time).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    segments: Vec<RoadSegment>,
    out_edges: Vec<Vec<SegmentId>>,
    in_edges: Vec<Vec<SegmentId>>,
}

impl RoadNetwork {
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id.index()]
    }

    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Successors: segments reachable directly from the end of `id`.
    pub fn out_edges(&self, id: SegmentId) -> &[SegmentId] {
        &self.out_edges[id.index()]
    }

    /// Predecessors: segments whose end coincides with the start of `id`.
    pub fn in_edges(&self, id: SegmentId) -> &[SegmentId] {
        &self.in_edges[id.index()]
    }

    /// Total number of directed connectivity edges.
    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Bounding box of the whole network.
    pub fn bbox(&self) -> BBox {
        let mut b = BBox::empty();
        for s in &self.segments {
            b.expand(&s.geometry.bbox());
        }
        b
    }

    /// Undirected neighbourhood (union of in- and out-edges), used by the
    /// GAT layers of GridGNN where attention flows along connectivity
    /// regardless of travel direction.
    pub fn neighbors_undirected(&self, id: SegmentId) -> Vec<SegmentId> {
        let mut n = Vec::new();
        self.neighbors_undirected_into(id, &mut n);
        n
    }

    /// [`RoadNetwork::neighbors_undirected`] into a caller-owned buffer
    /// (cleared first), for loops that ask once per segment.
    pub fn neighbors_undirected_into(&self, id: SegmentId, n: &mut Vec<SegmentId>) {
        n.clear();
        n.extend(self.out_edges(id).iter().chain(self.in_edges(id)));
        n.sort_unstable();
        n.dedup();
    }

    /// The static feature vector `f_road_s ∈ R^{|V|×11}` of Section IV-B:
    /// 8-dim road-level one-hot, normalised length, in-degree, out-degree.
    pub fn static_features(&self, id: SegmentId) -> [f32; NUM_ROAD_LEVELS + 3] {
        let seg = self.segment(id);
        let mut f = [0.0f32; NUM_ROAD_LEVELS + 3];
        f[seg.level.index()] = 1.0;
        // Normalise length to km so features stay O(1).
        f[NUM_ROAD_LEVELS] = (seg.length() / 1000.0) as f32;
        f[NUM_ROAD_LEVELS + 1] = self.in_edges(id).len() as f32;
        f[NUM_ROAD_LEVELS + 2] = self.out_edges(id).len() as f32;
        f
    }

    /// A [`GridSpec`] covering the network with square cells of `cell_m`
    /// metres (the paper uses 50 m), inflated slightly so border GPS noise
    /// still lands inside.
    pub fn grid(&self, cell_m: f64) -> GridSpec {
        let b = self.bbox().inflated(cell_m);
        GridSpec::cover(b.min_x, b.min_y, b.width(), b.height(), cell_m)
    }

    /// Per-segment grid-cell sequences `S_i` (Eq. 1) under `spec`.
    pub fn grid_sequences(&self, spec: &GridSpec) -> Vec<Vec<GridCell>> {
        self.segments
            .iter()
            .map(|s| spec.cells_on_polyline(&s.geometry))
            .collect()
    }
}

/// Snapping tolerance in metres for endpoint coincidence.
const SNAP_TOLERANCE_M: f64 = 0.5;

/// Incremental builder that snaps endpoints and derives connectivity.
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    segments: Vec<RoadSegment>,
}

impl RoadNetworkBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a directed segment; returns its id.
    pub fn add_segment(&mut self, geometry: Polyline, level: RoadLevel) -> SegmentId {
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(RoadSegment {
            id,
            geometry,
            level,
        });
        id
    }

    /// Add both directions of a two-way road; returns (forward, backward).
    pub fn add_two_way(&mut self, geometry: Polyline, level: RoadLevel) -> (SegmentId, SegmentId) {
        let rev = geometry.reversed();
        (
            self.add_segment(geometry, level),
            self.add_segment(rev, level),
        )
    }

    fn key(&self, p: &XY) -> (i64, i64) {
        (
            (p.x / SNAP_TOLERANCE_M).round() as i64,
            (p.y / SNAP_TOLERANCE_M).round() as i64,
        )
    }

    /// Derive connectivity (`end(e_i) == start(e_j)`) and freeze the graph.
    pub fn build(self) -> RoadNetwork {
        let n = self.segments.len();
        // Map snapped start points -> segments starting there.
        let mut starts: HashMap<(i64, i64), Vec<SegmentId>> = HashMap::with_capacity(n);
        for s in &self.segments {
            starts.entry(self.key(&s.start())).or_default().push(s.id);
        }
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for s in &self.segments {
            if let Some(next) = starts.get(&self.key(&s.end())) {
                for &t in next {
                    // Disallow immediate U-turns back along the same geometry
                    // (a two-way road's reverse twin): end==start both ways.
                    let t_seg = &self.segments[t.index()];
                    let is_reverse_twin = self.key(&t_seg.end()) == self.key(&s.start())
                        && self.key(&t_seg.start()) == self.key(&s.end())
                        && (t_seg.length() - s.length()).abs() < SNAP_TOLERANCE_M;
                    if t != s.id && !is_reverse_twin {
                        out_edges[s.id.index()].push(t);
                        in_edges[t.index()].push(s.id);
                    }
                }
            }
        }
        for v in out_edges.iter_mut().chain(in_edges.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        RoadNetwork {
            segments: self.segments,
            out_edges,
            in_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three segments forming a path a->b->c plus a branch b->d.
    fn small_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        b.add_segment(
            Polyline::segment(XY::new(0.0, 0.0), XY::new(100.0, 0.0)),
            RoadLevel::Primary,
        );
        b.add_segment(
            Polyline::segment(XY::new(100.0, 0.0), XY::new(200.0, 0.0)),
            RoadLevel::Primary,
        );
        b.add_segment(
            Polyline::segment(XY::new(100.0, 0.0), XY::new(100.0, 80.0)),
            RoadLevel::Residential,
        );
        b.build()
    }

    #[test]
    fn connectivity_derived_from_endpoints() {
        let net = small_net();
        assert_eq!(net.num_segments(), 3);
        assert_eq!(net.out_edges(SegmentId(0)), &[SegmentId(1), SegmentId(2)]);
        assert_eq!(net.out_edges(SegmentId(1)), &[] as &[SegmentId]);
        assert_eq!(net.in_edges(SegmentId(2)), &[SegmentId(0)]);
        assert_eq!(net.num_edges(), 2);
    }

    #[test]
    fn two_way_does_not_create_uturn() {
        let mut b = RoadNetworkBuilder::new();
        let (f, r) = b.add_two_way(
            Polyline::segment(XY::new(0.0, 0.0), XY::new(100.0, 0.0)),
            RoadLevel::Secondary,
        );
        let net = b.build();
        // Forward must not connect straight onto its own reverse twin.
        assert!(!net.out_edges(f).contains(&r));
        assert!(!net.out_edges(r).contains(&f));
    }

    #[test]
    fn two_way_chain_allows_both_directions() {
        let mut b = RoadNetworkBuilder::new();
        let (f1, r1) = b.add_two_way(
            Polyline::segment(XY::new(0.0, 0.0), XY::new(100.0, 0.0)),
            RoadLevel::Secondary,
        );
        let (f2, r2) = b.add_two_way(
            Polyline::segment(XY::new(100.0, 0.0), XY::new(200.0, 0.0)),
            RoadLevel::Secondary,
        );
        let net = b.build();
        assert!(net.out_edges(f1).contains(&f2));
        assert!(net.out_edges(r2).contains(&r1));
        // Turning back at the middle intersection IS allowed across
        // different roads (f1 -> r1 is forbidden, but f1 -> f2 -> r2? no:
        // f2 -> r2 is also a twin pair and forbidden).
        assert!(!net.out_edges(f2).contains(&r2));
    }

    #[test]
    fn static_features_shape_and_content() {
        let net = small_net();
        let f = net.static_features(SegmentId(0));
        assert_eq!(f.len(), 11);
        assert_eq!(f[RoadLevel::Primary.index()], 1.0);
        assert_eq!(f.iter().take(8).sum::<f32>(), 1.0);
        assert!((f[8] - 0.1).abs() < 1e-6); // 100 m = 0.1 km
        assert_eq!(f[9], 0.0); // in-degree
        assert_eq!(f[10], 2.0); // out-degree
    }

    #[test]
    fn neighbors_undirected_unions_both_sides() {
        let net = small_net();
        assert_eq!(net.neighbors_undirected(SegmentId(1)), vec![SegmentId(0)]);
        assert_eq!(
            net.neighbors_undirected(SegmentId(0)),
            vec![SegmentId(1), SegmentId(2)]
        );
    }

    #[test]
    fn grid_covers_network() {
        let net = small_net();
        let spec = net.grid(50.0);
        let seqs = net.grid_sequences(&spec);
        assert_eq!(seqs.len(), 3);
        // The 100 m horizontal segment crosses at least 2 cells of 50 m.
        assert!(seqs[0].len() >= 2, "got {:?}", seqs[0]);
        // All cells are in-bounds.
        for seq in &seqs {
            assert!(!seq.is_empty());
            for c in seq {
                assert!(c.col < spec.cols && c.row < spec.rows);
            }
        }
    }

    #[test]
    fn level_indices_are_unique_and_dense() {
        use RoadLevel::*;
        let levels = [
            Residential,
            Tertiary,
            Secondary,
            Primary,
            Trunk,
            Motorway,
            Elevated,
            Ramp,
        ];
        let mut seen = [false; NUM_ROAD_LEVELS];
        for l in levels {
            assert!(!seen[l.index()]);
            seen[l.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bbox_spans_all_segments() {
        let net = small_net();
        let b = net.bbox();
        assert_eq!((b.min_x, b.min_y), (0.0, 0.0));
        assert_eq!((b.max_x, b.max_y), (200.0, 80.0));
    }
}
