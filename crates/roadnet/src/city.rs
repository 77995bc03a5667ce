//! Synthetic city generator.
//!
//! Stands in for the proprietary Shanghai / Chengdu / Porto road networks
//! (Table II). The generator produces the structural features the paper's
//! evaluation depends on:
//!
//! * a Manhattan-style block grid with variable block sizes (so segment
//!   lengths vary like real城市 street networks do),
//! * arterial rows/columns with higher road levels,
//! * optional alternating one-way streets (strong connectivity preserved by
//!   keeping boundary roads and arterials two-way),
//! * an optional **elevated expressway**: a limited-access road running a
//!   few metres beside/above the central trunk road, connected only via
//!   ramps every few blocks. Elevated segments geometrically overlap the
//!   trunk road within GPS noise but are topologically distant — exactly
//!   the hard case of the paper's robustness study (Fig. 4/5), where a
//!   wrong segment choice implies a > 2 km route error.
//! * an optional diagonal avenue producing complex multi-way intersections
//!   (the `I_1` motivation of Fig. 1(b)).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::{RoadLevel, RoadNetwork, RoadNetworkBuilder, SegmentId};
use rntrajrec_geo::{Polyline, XY};

/// Configuration for [`SyntheticCity::generate`]. Serialized field by
/// field into a model artifact's manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CityConfig {
    /// Number of blocks east-west.
    pub blocks_x: usize,
    /// Number of blocks north-south.
    pub blocks_y: usize,
    /// Minimum block edge length (m).
    pub block_min_m: f64,
    /// Maximum block edge length (m).
    pub block_max_m: f64,
    /// Probability that an interior street is one-way (alternating
    /// direction by row/column index).
    pub one_way_fraction: f64,
    /// Every k-th row/column is an arterial (Primary level, always two-way).
    pub arterial_every: usize,
    /// Add the elevated expressway along the central row.
    pub with_elevated: bool,
    /// Lateral offset of the elevated carriageway from the trunk road (m).
    /// Kept below GPS noise so the two are ambiguous from raw points.
    pub elevated_offset_m: f64,
    /// Ramp spacing, in blocks.
    pub ramp_every: usize,
    /// Add a diagonal avenue across the grid.
    pub diagonal: bool,
    /// RNG seed (block sizes, one-way choices, minor level mixing).
    pub seed: u64,
    /// Planar offset of the city's south-west corner (m). Defaults to the
    /// frame origin; give distinct cities distinct origins so their
    /// bounding boxes are disjoint (shard routing resolves requests by
    /// bbox, so two cities must not overlap in the shared planar frame).
    pub origin_x: f64,
    /// See [`CityConfig::origin_x`].
    pub origin_y: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            blocks_x: 8,
            blocks_y: 8,
            block_min_m: 120.0,
            block_max_m: 260.0,
            one_way_fraction: 0.25,
            arterial_every: 4,
            with_elevated: true,
            elevated_offset_m: 8.0,
            ramp_every: 3,
            diagonal: true,
            seed: 7,
            origin_x: 0.0,
            origin_y: 0.0,
        }
    }
}

impl CityConfig {
    /// A small city for unit tests (fast to build and route on).
    pub fn tiny() -> Self {
        Self {
            blocks_x: 4,
            blocks_y: 4,
            with_elevated: true,
            ramp_every: 2,
            ..Self::default()
        }
    }
}

/// A generated road network plus metadata about the special structures.
#[derive(Debug)]
pub struct SyntheticCity {
    pub net: RoadNetwork,
    /// Segments of the elevated expressway (level [`RoadLevel::Elevated`]).
    pub elevated: Vec<SegmentId>,
    /// Ground trunk segments running beneath the elevated road.
    pub trunk_under_elevated: Vec<SegmentId>,
    pub config: CityConfig,
}

impl SyntheticCity {
    pub fn generate(config: CityConfig) -> Self {
        assert!(
            config.blocks_x >= 2 && config.blocks_y >= 2,
            "city too small"
        );
        assert!(config.block_min_m > 0.0 && config.block_max_m >= config.block_min_m);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Variable-pitch grid lines, translated to the city's origin
        // (adding 0.0 is exact, so the default origin changes nothing).
        let xs: Vec<f64> = cumulative(
            &mut rng,
            config.blocks_x + 1,
            config.block_min_m,
            config.block_max_m,
        )
        .into_iter()
        .map(|x| x + config.origin_x)
        .collect();
        let ys: Vec<f64> = cumulative(
            &mut rng,
            config.blocks_y + 1,
            config.block_min_m,
            config.block_max_m,
        )
        .into_iter()
        .map(|y| y + config.origin_y)
        .collect();

        let mut b = RoadNetworkBuilder::new();
        let elevated_row = config.blocks_y / 2;
        let mut elevated = Vec::new();
        let mut trunk_under = Vec::new();

        let is_arterial_row =
            |r: usize| r.is_multiple_of(config.arterial_every.max(1)) || r == config.blocks_y;
        let is_arterial_col =
            |c: usize| c.is_multiple_of(config.arterial_every.max(1)) || c == config.blocks_x;

        // Horizontal streets.
        for (r, &y) in ys.iter().enumerate() {
            let trunk_row = config.with_elevated && r == elevated_row;
            let level = if trunk_row {
                RoadLevel::Trunk
            } else if is_arterial_row(r) {
                RoadLevel::Primary
            } else if rng.gen_bool(0.5) {
                RoadLevel::Tertiary
            } else {
                RoadLevel::Residential
            };
            let boundary = r == 0 || r == config.blocks_y;
            let one_way = !boundary
                && !trunk_row
                && level == RoadLevel::Residential
                && rng.gen_bool(config.one_way_fraction);
            for c in 0..config.blocks_x {
                let geom = Polyline::segment(XY::new(xs[c], y), XY::new(xs[c + 1], y));
                if one_way {
                    // Alternate direction by row for connectivity.
                    let geom = if r % 2 == 0 { geom } else { geom.reversed() };
                    b.add_segment(geom, level);
                } else {
                    let (f, bk) = b.add_two_way(geom, level);
                    if trunk_row {
                        trunk_under.push(f);
                        trunk_under.push(bk);
                    }
                }
            }
        }

        // Vertical streets.
        for (c, &x) in xs.iter().enumerate() {
            let level = if is_arterial_col(c) {
                RoadLevel::Secondary
            } else if rng.gen_bool(0.5) {
                RoadLevel::Tertiary
            } else {
                RoadLevel::Residential
            };
            let boundary = c == 0 || c == config.blocks_x;
            let one_way = !boundary
                && level == RoadLevel::Residential
                && rng.gen_bool(config.one_way_fraction);
            for r in 0..config.blocks_y {
                let geom = Polyline::segment(XY::new(x, ys[r]), XY::new(x, ys[r + 1]));
                if one_way {
                    let geom = if c % 2 == 0 { geom } else { geom.reversed() };
                    b.add_segment(geom, level);
                } else {
                    b.add_two_way(geom, level);
                }
            }
        }

        // Diagonal avenue along the main diagonal.
        if config.diagonal {
            let n = config.blocks_x.min(config.blocks_y);
            for i in 0..n {
                let geom = Polyline::segment(XY::new(xs[i], ys[i]), XY::new(xs[i + 1], ys[i + 1]));
                b.add_two_way(geom, RoadLevel::Secondary);
            }
        }

        // Elevated expressway + ramps.
        if config.with_elevated {
            let y_e = ys[elevated_row] + config.elevated_offset_m;
            let step = config.ramp_every.max(1);
            // Ramp columns: 0, step, 2·step, …, last.
            let mut cols: Vec<usize> = (0..=config.blocks_x).step_by(step).collect();
            if *cols.last().unwrap() != config.blocks_x {
                cols.push(config.blocks_x);
            }
            // Elevated carriageway between consecutive ramp columns (two-way).
            for w in cols.windows(2) {
                let geom = Polyline::segment(XY::new(xs[w[0]], y_e), XY::new(xs[w[1]], y_e));
                let (f, bk) = b.add_two_way(geom, RoadLevel::Elevated);
                elevated.push(f);
                elevated.push(bk);
            }
            // Ramps between each elevated node and the trunk intersection.
            for &c in &cols {
                let up = Polyline::segment(XY::new(xs[c], ys[elevated_row]), XY::new(xs[c], y_e));
                b.add_two_way(up, RoadLevel::Ramp);
            }
        }

        SyntheticCity {
            net: b.build(),
            elevated,
            trunk_under_elevated: trunk_under,
            config,
        }
    }
}

fn cumulative(rng: &mut StdRng, n: usize, min: f64, max: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    out.push(acc);
    for _ in 1..n {
        acc += rng.gen_range(min..=max);
        out.push(acc);
    }
    out
}

/// True iff every segment can reach (and be reached from) segment 0.
///
/// Used to validate generated cities: the trajectory simulator requires a
/// strongly connected graph so all origin/destination pairs are routable.
pub fn is_strongly_connected(net: &RoadNetwork) -> bool {
    if net.num_segments() == 0 {
        return true;
    }
    let forward = reachable(net, |s| net.out_edges(s));
    let backward = reachable(net, |s| net.in_edges(s));
    forward.iter().all(|&r| r) && backward.iter().all(|&r| r)
}

fn reachable<'a, F: Fn(SegmentId) -> &'a [SegmentId]>(net: &RoadNetwork, next: F) -> Vec<bool> {
    let mut seen = vec![false; net.num_segments()];
    let mut stack = vec![SegmentId(0)];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in next(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_city_builds_and_is_strongly_connected() {
        let city = SyntheticCity::generate(CityConfig::tiny());
        assert!(city.net.num_segments() > 50);
        assert!(city.net.num_edges() > city.net.num_segments());
        assert!(
            is_strongly_connected(&city.net),
            "tiny city must be strongly connected"
        );
    }

    #[test]
    fn default_city_is_strongly_connected_across_seeds() {
        for seed in [1, 2, 3] {
            let city = SyntheticCity::generate(CityConfig {
                seed,
                ..CityConfig::default()
            });
            assert!(is_strongly_connected(&city.net), "seed {seed}");
        }
    }

    #[test]
    fn elevated_road_present_and_marked() {
        let city = SyntheticCity::generate(CityConfig::tiny());
        assert!(!city.elevated.is_empty());
        assert!(!city.trunk_under_elevated.is_empty());
        for &e in &city.elevated {
            assert_eq!(city.net.segment(e).level, RoadLevel::Elevated);
        }
        for &t in &city.trunk_under_elevated {
            assert_eq!(city.net.segment(t).level, RoadLevel::Trunk);
        }
    }

    #[test]
    fn elevated_overlaps_trunk_within_gps_noise() {
        let city = SyntheticCity::generate(CityConfig::tiny());
        // Midpoint of an elevated segment must be within ~10 m of some trunk
        // segment (the ambiguity that makes recovery hard).
        let e = city.net.segment(city.elevated[0]);
        let mid = e.geometry.point_at_fraction(0.5);
        let closest_trunk = city
            .trunk_under_elevated
            .iter()
            .map(|&t| city.net.segment(t).geometry.project(&mid).dist)
            .fold(f64::INFINITY, f64::min);
        assert!(
            closest_trunk <= city.config.elevated_offset_m + 1.0,
            "got {closest_trunk}"
        );
    }

    #[test]
    fn elevated_topologically_distant_from_trunk() {
        // Driving from mid-elevated to the trunk below requires reaching a
        // ramp: the route distance must far exceed the ~8 m planar gap.
        let city = SyntheticCity::generate(CityConfig::tiny());
        let mut nd = crate::NetworkDistance::new(&city.net);
        let e = city.elevated[0];
        // Find the trunk segment under e's midpoint.
        let mid = city.net.segment(e).geometry.point_at_fraction(0.5);
        let t = *city
            .trunk_under_elevated
            .iter()
            .min_by(|&&a, &&b| {
                city.net
                    .segment(a)
                    .geometry
                    .project(&mid)
                    .dist
                    .total_cmp(&city.net.segment(b).geometry.project(&mid).dist)
            })
            .unwrap();
        let a = crate::RoadPosition::new(e, 0.5);
        let b = crate::RoadPosition::new(t, 0.5);
        let d = nd.metric_m(&a, &b);
        assert!(
            d > 50.0,
            "network distance {d} should be much larger than the 8 m planar gap"
        );
    }

    #[test]
    fn no_elevated_when_disabled() {
        let city = SyntheticCity::generate(CityConfig {
            with_elevated: false,
            ..CityConfig::tiny()
        });
        assert!(city.elevated.is_empty());
        assert!(city
            .net
            .segments()
            .iter()
            .all(|s| s.level != RoadLevel::Elevated && s.level != RoadLevel::Ramp));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCity::generate(CityConfig::tiny());
        let b = SyntheticCity::generate(CityConfig::tiny());
        assert_eq!(a.net.num_segments(), b.net.num_segments());
        assert_eq!(a.net.num_edges(), b.net.num_edges());
        for (x, y) in a.net.segments().iter().zip(b.net.segments()) {
            assert_eq!(x.geometry.points(), y.geometry.points());
            assert_eq!(x.level, y.level);
        }
    }

    #[test]
    fn origin_translates_geometry_exactly() {
        let base = SyntheticCity::generate(CityConfig::tiny());
        let moved = SyntheticCity::generate(CityConfig {
            origin_x: 50_000.0,
            origin_y: -7_500.0,
            ..CityConfig::tiny()
        });
        assert_eq!(base.net.num_segments(), moved.net.num_segments());
        for (a, b) in base.net.segments().iter().zip(moved.net.segments()) {
            assert_eq!(a.level, b.level);
            for (p, q) in a.geometry.points().iter().zip(b.geometry.points()) {
                assert_eq!(p.x + 50_000.0, q.x);
                assert_eq!(p.y - 7_500.0, q.y);
            }
        }
        assert!(
            is_strongly_connected(&moved.net),
            "translation must not change topology"
        );
    }

    #[test]
    fn segment_lengths_vary() {
        let city = SyntheticCity::generate(CityConfig::default());
        let lens: Vec<f64> = city
            .net
            .segments()
            .iter()
            .filter(|s| s.level == RoadLevel::Residential)
            .map(|s| s.length())
            .collect();
        let min = lens.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lens.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 20.0,
            "expected variable block sizes, got range {min}..{max}"
        );
    }

    #[test]
    fn bigger_config_scales_segment_count() {
        let small = SyntheticCity::generate(CityConfig::tiny());
        let large = SyntheticCity::generate(CityConfig {
            blocks_x: 12,
            blocks_y: 12,
            ..CityConfig::default()
        });
        assert!(large.net.num_segments() > 2 * small.net.num_segments());
    }
}
