//! An STR-bulk-loaded R-tree over road-segment geometry.
//!
//! Section IV-C: "for a given GPS point p, we first locate the road segments
//! within at most δ meters away from p, via R-tree". This module implements
//! that index from scratch (Guttman-style query structure, Sort-Tile-
//! Recursive packing) because the study-area networks are static: STR gives
//! near-optimal packing with a trivial build.

use std::collections::BinaryHeap;

use crate::{RoadNetwork, SegmentId};
use rntrajrec_geo::{BBox, SegmentProjection, XY};

const LEAF_CAPACITY: usize = 8;

#[derive(Debug)]
enum NodeKind {
    /// Child node indices.
    Inner(Vec<usize>),
    /// Segment ids stored at this leaf.
    Leaf(Vec<SegmentId>),
}

#[derive(Debug)]
struct Node {
    bbox: BBox,
    kind: NodeKind,
}

/// A spatial hit: segment id plus the exact projection of the query point
/// onto its geometry (distance, closest point, moving ratio).
#[derive(Debug, Clone, Copy)]
pub struct RadiusHit {
    pub seg: SegmentId,
    pub projection: SegmentProjection,
}

/// Static R-tree over the segments of one [`RoadNetwork`].
#[derive(Debug)]
pub struct RTree {
    nodes: Vec<Node>,
    root: usize,
}

impl RTree {
    /// Bulk-load from a road network using Sort-Tile-Recursive packing.
    pub fn build(net: &RoadNetwork) -> Self {
        assert!(net.num_segments() > 0, "cannot index an empty network");
        let mut entries: Vec<(BBox, SegmentId)> = net
            .segments()
            .iter()
            .map(|s| (s.geometry.bbox(), s.id))
            .collect();

        let mut nodes: Vec<Node> = Vec::new();
        // Pack leaves.
        let mut level: Vec<usize> = str_pack(&mut entries, |chunk| {
            let bbox = union_boxes(chunk.iter().map(|(b, _)| b));
            nodes.push(Node {
                bbox,
                kind: NodeKind::Leaf(chunk.iter().map(|(_, id)| *id).collect()),
            });
            nodes.len() - 1
        });
        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            let mut upper_entries: Vec<(BBox, usize)> =
                level.iter().map(|&i| (nodes[i].bbox, i)).collect();
            level = str_pack(&mut upper_entries, |chunk| {
                let bbox = union_boxes(chunk.iter().map(|(b, _)| b));
                nodes.push(Node {
                    bbox,
                    kind: NodeKind::Inner(chunk.iter().map(|(_, i)| *i).collect()),
                });
                nodes.len() - 1
            });
        }
        let root = level[0];
        Self { nodes, root }
    }

    /// All segments whose geometry lies within `radius_m` of `p`, with exact
    /// projections, sorted by distance (closest first).
    ///
    /// This is the δ-receptive-field query of the Sub-Graph Generation
    /// module (Section IV-C).
    pub fn within_radius(&self, net: &RoadNetwork, p: &XY, radius_m: f64) -> Vec<RadiusHit> {
        let mut hits = self.within_radius_unordered(net, p, radius_m);
        hits.sort_by(|a, b| a.projection.dist.total_cmp(&b.projection.dist));
        hits
    }

    /// [`RTree::within_radius`] without the distance sort, for callers that
    /// treat the hits as a set: each segment appears once, in the tree's
    /// (deterministic) traversal order.
    pub fn within_radius_unordered(
        &self,
        net: &RoadNetwork,
        p: &XY,
        radius_m: f64,
    ) -> Vec<RadiusHit> {
        let mut hits = Vec::new();
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i];
            if node.bbox.dist_to_point(p) > radius_m {
                continue;
            }
            match &node.kind {
                NodeKind::Inner(children) => stack.extend_from_slice(children),
                NodeKind::Leaf(segs) => {
                    for &seg in segs {
                        let geom = &net.segment(seg).geometry;
                        if geom.bbox().dist_to_point(p) > radius_m {
                            continue;
                        }
                        let projection = geom.project(p);
                        if projection.dist <= radius_m {
                            hits.push(RadiusHit { seg, projection });
                        }
                    }
                }
            }
        }
        hits
    }

    /// The `k` segments nearest to `p` (exact, best-first search).
    pub fn k_nearest(&self, net: &RoadNetwork, p: &XY, k: usize) -> Vec<RadiusHit> {
        enum Item {
            Node(usize),
            Hit(RadiusHit),
        }
        struct Entry {
            d: f64,
            item: Item,
        }
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.d == other.d
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            // Reversed: BinaryHeap is a max-heap, we need min-distance first.
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.d.total_cmp(&self.d)
            }
        }

        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        heap.push(Entry {
            d: self.nodes[self.root].bbox.dist_to_point(p),
            item: Item::Node(self.root),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(Entry { item, .. }) = heap.pop() {
            match item {
                Item::Hit(hit) => {
                    out.push(hit);
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(i) => match &self.nodes[i].kind {
                    NodeKind::Inner(children) => {
                        for &c in children {
                            heap.push(Entry {
                                d: self.nodes[c].bbox.dist_to_point(p),
                                item: Item::Node(c),
                            });
                        }
                    }
                    NodeKind::Leaf(segs) => {
                        for &seg in segs {
                            let projection = net.segment(seg).geometry.project(p);
                            heap.push(Entry {
                                d: projection.dist,
                                item: Item::Hit(RadiusHit { seg, projection }),
                            });
                        }
                    }
                },
            }
        }
        out
    }

    /// Nearest single segment.
    pub fn nearest(&self, net: &RoadNetwork, p: &XY) -> Option<RadiusHit> {
        self.k_nearest(net, p, 1).into_iter().next()
    }

    /// Number of nodes (for structural tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

fn union_boxes<'a, I: Iterator<Item = &'a BBox>>(boxes: I) -> BBox {
    let mut b = BBox::empty();
    for x in boxes {
        b.expand(x);
    }
    b
}

/// Sort-Tile-Recursive packing of `entries` into chunks of `LEAF_CAPACITY`,
/// calling `emit` per chunk and returning the emitted node indices.
fn str_pack<T: Copy>(
    entries: &mut [(BBox, T)],
    mut emit: impl FnMut(&[(BBox, T)]) -> usize,
) -> Vec<usize> {
    let n = entries.len();
    let num_chunks = n.div_ceil(LEAF_CAPACITY);
    let slices = (num_chunks as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slices);
    entries.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
    let mut out = Vec::with_capacity(num_chunks);
    for slice in entries.chunks_mut(slice_size.max(1)) {
        slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
        for chunk in slice.chunks(LEAF_CAPACITY) {
            out.push(emit(chunk));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoadLevel, RoadNetworkBuilder};
    use rntrajrec_geo::Polyline;

    /// A 10×10 lattice of 100 m horizontal segments.
    fn lattice() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for row in 0..10 {
            for col in 0..10 {
                let y = row as f64 * 100.0;
                let x = col as f64 * 100.0;
                b.add_segment(
                    Polyline::segment(XY::new(x, y), XY::new(x + 100.0, y)),
                    RoadLevel::Residential,
                );
            }
        }
        b.build()
    }

    #[test]
    fn within_radius_matches_brute_force() {
        let net = lattice();
        let tree = RTree::build(&net);
        for (px, py, r) in [
            (250.0, 250.0, 120.0),
            (0.0, 0.0, 60.0),
            (999.0, 10.0, 250.0),
        ] {
            let p = XY::new(px, py);
            let mut expected: Vec<SegmentId> = net
                .segments()
                .iter()
                .filter(|s| s.geometry.project(&p).dist <= r)
                .map(|s| s.id)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<SegmentId> = tree
                .within_radius(&net, &p, r)
                .into_iter()
                .map(|h| h.seg)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "query at ({px},{py}) r={r}");
        }
    }

    #[test]
    fn within_radius_sorted_by_distance() {
        let net = lattice();
        let tree = RTree::build(&net);
        let hits = tree.within_radius(&net, &XY::new(250.0, 260.0), 200.0);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].projection.dist <= w[1].projection.dist);
        }
    }

    #[test]
    fn nearest_agrees_with_brute_force() {
        let net = lattice();
        let tree = RTree::build(&net);
        for (px, py) in [(13.0, 48.0), (520.0, 333.0), (-50.0, -50.0)] {
            let p = XY::new(px, py);
            let brute = net
                .segments()
                .iter()
                .min_by(|a, b| {
                    a.geometry
                        .project(&p)
                        .dist
                        .total_cmp(&b.geometry.project(&p).dist)
                })
                .unwrap()
                .id;
            let got = tree.nearest(&net, &p).unwrap();
            let brute_d = net.segment(brute).geometry.project(&p).dist;
            assert!(
                (got.projection.dist - brute_d).abs() < 1e-9,
                "point ({px},{py}): got {} at {}, brute {} at {}",
                got.seg,
                got.projection.dist,
                brute,
                brute_d
            );
        }
    }

    #[test]
    fn k_nearest_returns_k_sorted() {
        let net = lattice();
        let tree = RTree::build(&net);
        let hits = tree.k_nearest(&net, &XY::new(450.0, 450.0), 5);
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(w[0].projection.dist <= w[1].projection.dist);
        }
    }

    #[test]
    fn k_nearest_with_k_larger_than_n() {
        let mut b = RoadNetworkBuilder::new();
        b.add_segment(
            Polyline::segment(XY::new(0.0, 0.0), XY::new(1.0, 0.0)),
            RoadLevel::Primary,
        );
        let net = b.build();
        let tree = RTree::build(&net);
        assert_eq!(tree.k_nearest(&net, &XY::new(0.0, 0.0), 10).len(), 1);
    }

    #[test]
    fn empty_radius_returns_nothing() {
        let net = lattice();
        let tree = RTree::build(&net);
        assert!(tree
            .within_radius(&net, &XY::new(5000.0, 5000.0), 10.0)
            .is_empty());
    }

    #[test]
    fn tree_has_multiple_levels_for_large_input() {
        let net = lattice();
        let tree = RTree::build(&net);
        // 100 entries / leaf cap 8 => at least 13 leaves + inner nodes.
        assert!(tree.num_nodes() > 13);
    }
}
