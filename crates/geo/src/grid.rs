//! The m×n equal-sized grid partition of the study area (Section IV-B).
//!
//! GridGNN "partitions the road network into m×n equal-sized grid cells" and
//! represents each road segment as the sequence of grid cells it passes
//! through. The same grid also supplies the `(x_i, y_i)` grid index that is
//! concatenated into the GPS-point features (Section IV-C) and the grid/time
//! input of the Transformer baseline.

use crate::{Polyline, XY};

/// A grid-cell index: `col` grows east (x), `row` grows north (y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridCell {
    pub col: u32,
    pub row: u32,
}

/// Specification of the uniform grid over the study area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    pub min_x: f64,
    pub min_y: f64,
    /// Side length of a square cell, in metres (the paper uses 50 m).
    pub cell_m: f64,
    pub cols: u32,
    pub rows: u32,
}

impl GridSpec {
    /// Cover `[min_x, min_x+width] × [min_y, min_y+height]` with square cells
    /// of side `cell_m`.
    pub fn cover(min_x: f64, min_y: f64, width: f64, height: f64, cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && width > 0.0 && height > 0.0);
        Self {
            min_x,
            min_y,
            cell_m,
            cols: (width / cell_m).ceil().max(1.0) as u32,
            rows: (height / cell_m).ceil().max(1.0) as u32,
        }
    }

    /// Total number of cells (`m·n` in the paper's embedding table Σ_grid).
    pub fn num_cells(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Cell containing `p` (clamped to the grid bounds, so out-of-area GPS
    /// noise still maps to a valid border cell).
    pub fn cell_of(&self, p: &XY) -> GridCell {
        let col = ((p.x - self.min_x) / self.cell_m).floor();
        let row = ((p.y - self.min_y) / self.cell_m).floor();
        GridCell {
            col: col.clamp(0.0, (self.cols - 1) as f64) as u32,
            row: row.clamp(0.0, (self.rows - 1) as f64) as u32,
        }
    }

    /// Flat index for embedding lookup (`lookup(g.x, g.y)` in Eq. (1)).
    pub fn flat_index(&self, c: GridCell) -> usize {
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// Centre of a cell.
    pub fn cell_center(&self, c: GridCell) -> XY {
        XY::new(
            self.min_x + (c.col as f64 + 0.5) * self.cell_m,
            self.min_y + (c.row as f64 + 0.5) * self.cell_m,
        )
    }

    /// The ordered, de-duplicated sequence of cells a polyline passes through
    /// — the sequence `S_i = ⟨g̃¹,…,g̃^φ⟩` of Eq. (1).
    ///
    /// Implemented by walking the polyline at quarter-cell resolution, which
    /// is exact for cells of ≥ 4 sample points per crossing and never skips a
    /// cell for the road geometries used here (axis-aligned and diagonal
    /// streets).
    pub fn cells_on_polyline(&self, line: &Polyline) -> Vec<GridCell> {
        let step = (self.cell_m / 4.0).max(0.5);
        let mut out: Vec<GridCell> = Vec::new();
        for s in line.sample_every(step) {
            let c = self.cell_of(&s.point);
            if out.last() != Some(&c) {
                // De-duplicate consecutive repeats but allow genuine revisits.
                if !out.contains(&c) || out.last() != Some(&c) {
                    out.push(c);
                }
            }
        }
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridSpec {
        GridSpec::cover(0.0, 0.0, 1000.0, 500.0, 50.0)
    }

    #[test]
    fn cover_dimensions() {
        let g = grid();
        assert_eq!(g.cols, 20);
        assert_eq!(g.rows, 10);
        assert_eq!(g.num_cells(), 200);
    }

    #[test]
    fn cover_rounds_up() {
        let g = GridSpec::cover(0.0, 0.0, 101.0, 49.0, 50.0);
        assert_eq!(g.cols, 3);
        assert_eq!(g.rows, 1);
    }

    #[test]
    fn cell_of_basic_and_clamped() {
        let g = grid();
        assert_eq!(g.cell_of(&XY::new(0.0, 0.0)), GridCell { col: 0, row: 0 });
        assert_eq!(g.cell_of(&XY::new(75.0, 60.0)), GridCell { col: 1, row: 1 });
        // Clamping out-of-bounds points onto the border cells.
        assert_eq!(
            g.cell_of(&XY::new(-10.0, -10.0)),
            GridCell { col: 0, row: 0 }
        );
        assert_eq!(g.cell_of(&XY::new(1e6, 1e6)), GridCell { col: 19, row: 9 });
    }

    #[test]
    fn flat_index_row_major_unique() {
        let g = grid();
        let mut seen = std::collections::HashSet::new();
        for row in 0..g.rows {
            for col in 0..g.cols {
                assert!(seen.insert(g.flat_index(GridCell { col, row })));
            }
        }
        assert_eq!(seen.len(), g.num_cells());
        assert!(seen.iter().all(|&i| i < g.num_cells()));
    }

    #[test]
    fn cell_center_round_trips() {
        let g = grid();
        let c = GridCell { col: 7, row: 3 };
        assert_eq!(g.cell_of(&g.cell_center(c)), c);
    }

    #[test]
    fn cells_on_horizontal_polyline() {
        let g = grid();
        // 0..200 m east at y=25 crosses cells (0..=4, row 0) — endpoint at
        // x=200 touches col 4.
        let line = Polyline::segment(XY::new(0.0, 25.0), XY::new(200.0, 25.0));
        let cells = g.cells_on_polyline(&line);
        let cols: Vec<u32> = cells.iter().map(|c| c.col).collect();
        assert_eq!(cols, vec![0, 1, 2, 3, 4]);
        assert!(cells.iter().all(|c| c.row == 0));
    }

    #[test]
    fn cells_on_l_shaped_polyline() {
        let g = grid();
        let line = Polyline::new(vec![
            XY::new(25.0, 25.0),
            XY::new(125.0, 25.0),
            XY::new(125.0, 125.0),
        ]);
        let cells = g.cells_on_polyline(&line);
        assert_eq!(cells.first(), Some(&GridCell { col: 0, row: 0 }));
        assert_eq!(cells.last(), Some(&GridCell { col: 2, row: 2 }));
        // Path is monotone: no duplicates at all.
        let mut dedup = cells.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len());
    }

    #[test]
    fn short_segment_single_cell() {
        let g = grid();
        let line = Polyline::segment(XY::new(10.0, 10.0), XY::new(12.0, 11.0));
        assert_eq!(
            g.cells_on_polyline(&line),
            vec![GridCell { col: 0, row: 0 }]
        );
    }
}
