//! Road-network substrate for the RNTrajRec reproduction.
//!
//! The paper (Definition 1) models a road network as a directed graph
//! `G = (V, E)` whose *nodes are road segments* and whose edges capture
//! segment-to-segment connectivity. This crate provides:
//!
//! * [`RoadNetwork`] — the directed segment graph with per-segment geometry
//!   ([`rntrajrec_geo::Polyline`]), road levels, and static features
//!   (`f_road_s`, Section IV-B: 8-dim level one-hot + length + in/out degree).
//! * [`RTree`] — an STR-bulk-loaded R-tree over segment geometry for the
//!   "road segments within at most δ meters" query of Section IV-C.
//! * [`shortest`] — Dijkstra shortest paths over the segment graph, routes,
//!   and the *road-network distance* used by the paper's MAE/RMSE metrics.
//! * [`SyntheticCity`] — a configurable city generator (Manhattan grid +
//!   diagonal arterials + an elevated expressway above a parallel trunk
//!   road) standing in for the proprietary Shanghai/Chengdu/Porto road
//!   networks; see "Deviations from the paper" in EXPERIMENTS.md.

mod city;
mod graph;
mod position;
mod rtree;
pub mod shortest;

pub use city::{is_strongly_connected, CityConfig, SyntheticCity};
pub use graph::{
    RoadLevel, RoadNetwork, RoadNetworkBuilder, RoadSegment, SegmentId, NUM_ROAD_LEVELS,
};
pub use position::RoadPosition;
pub use rtree::{RTree, RadiusHit};
pub use shortest::{NetworkDistance, ShortestPaths};
