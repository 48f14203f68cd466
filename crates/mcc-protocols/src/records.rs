//! Region shapes and the boundary records nodes store.
//!
//! A [`RegionShape`] is what the identification walk reconstructs: the cell
//! set of one MCC, with per-column/row interval tables for the region
//! predicates. Its semantic twin is `fault_model::Mcc2`, which derives
//! the same intervals from its cells on demand. A
//! [`BoundaryRecord2`] is what the boundary construction deposits at the
//! nodes of a boundary line: the root region's shape (whose critical region
//! the destination is tested against) plus every shape whose forbidden
//! region was merged in while the boundary descended.

use std::collections::BTreeMap;
use std::sync::Arc;

use mesh_topo::{Rect, C2};
use serde::{Deserialize, Serialize};

/// The reconstructed shape of one 2-D MCC.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionShape {
    /// Component id (minimum member coordinate).
    pub comp_id: C2,
    /// All member cells, sorted.
    pub cells: Vec<C2>,
    /// Bounding rectangle.
    pub bounds: Rect,
    cols: BTreeMap<i32, (i32, i32)>,
    rows: BTreeMap<i32, (i32, i32)>,
}

impl RegionShape {
    /// Build a shape from the collected member cells.
    ///
    /// # Panics
    /// If `cells` is empty.
    pub fn new(comp_id: C2, mut cells: Vec<C2>) -> RegionShape {
        assert!(!cells.is_empty(), "a region shape needs at least one cell");
        cells.sort();
        cells.dedup();
        let mut bounds = Rect::point(cells[0]);
        let mut cols: BTreeMap<i32, (i32, i32)> = BTreeMap::new();
        let mut rows: BTreeMap<i32, (i32, i32)> = BTreeMap::new();
        for &c in &cells {
            bounds.include(c);
            let e = cols.entry(c.x).or_insert((c.y, c.y));
            e.0 = e.0.min(c.y);
            e.1 = e.1.max(c.y);
            let e = rows.entry(c.y).or_insert((c.x, c.x));
            e.0 = e.0.min(c.x);
            e.1 = e.1.max(c.x);
        }
        RegionShape {
            comp_id,
            cells,
            bounds,
            cols,
            rows,
        }
    }

    /// The occupied y-interval of column `x`, if spanned.
    pub fn col_interval(&self, x: i32) -> Option<(i32, i32)> {
        self.cols.get(&x).copied()
    }

    /// The occupied x-interval of row `y`, if spanned.
    pub fn row_interval(&self, y: i32) -> Option<(i32, i32)> {
        self.rows.get(&y).copied()
    }

    /// Strictly below the shape in a spanned column (`Q_Y`).
    pub fn in_forbidden_y(&self, c: C2) -> bool {
        matches!(self.col_interval(c.x), Some((bot, _)) if c.y < bot)
    }

    /// Strictly above the shape in a spanned column (`Q'_Y`).
    pub fn in_critical_y(&self, c: C2) -> bool {
        matches!(self.col_interval(c.x), Some((_, top)) if c.y > top)
    }

    /// Strictly left of the shape in a spanned row (`Q_X`).
    pub fn in_forbidden_x(&self, c: C2) -> bool {
        matches!(self.row_interval(c.y), Some((lo, _)) if c.x < lo)
    }

    /// Strictly right of the shape in a spanned row (`Q'_X`).
    pub fn in_critical_x(&self, c: C2) -> bool {
        matches!(self.row_interval(c.y), Some((_, hi)) if c.x > hi)
    }

    /// The anchor node of the Y boundary: one column west of the region,
    /// one row above that column's top — always safe (see the boundary
    /// construction analysis in the module docs of `boundary2`).
    pub fn y_anchor(&self) -> C2 {
        let x0 = self.bounds.x0;
        let top = self.col_interval(x0).expect("bbox column spanned").1;
        C2 {
            x: x0 - 1,
            y: top + 1,
        }
    }

    /// The anchor node of the X boundary: one column east of the region,
    /// one row below that column's bottom.
    pub fn x_anchor(&self) -> C2 {
        let x1 = self.bounds.x1;
        let bot = self.col_interval(x1).expect("bbox column spanned").0;
        C2 {
            x: x1 + 1,
            y: bot - 1,
        }
    }

    /// The initialization-corner candidates derivable from the shape: safe
    /// cells diagonally south-west of a member whose `+X` and `+Y`
    /// neighbors are outside the region.
    pub fn corner_candidates(&self) -> Vec<C2> {
        let inside =
            |c: C2| matches!(self.col_interval(c.x), Some((bot, top)) if c.y >= bot && c.y <= top);
        let mut out: Vec<C2> = self
            .cells
            .iter()
            .map(|&r| C2 {
                x: r.x - 1,
                y: r.y - 1,
            })
            .filter(|&c| {
                !inside(c)
                    && !inside(C2 { x: c.x + 1, y: c.y })
                    && !inside(C2 { x: c.x, y: c.y + 1 })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// The axis of a boundary record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BoundaryAxis {
    /// A Y boundary (guards the `Q_Y` down-shadow).
    Y,
    /// An X boundary (guards the `Q_X` left-shadow).
    X,
}

/// A boundary record stored at one node of a boundary line.
#[derive(Clone, Debug)]
pub struct BoundaryRecord2 {
    /// Which shadow this record guards.
    pub axis: BoundaryAxis,
    /// The region whose critical region the destination is tested against.
    pub root: Arc<RegionShape>,
    /// Every region whose forbidden region has been merged in (always
    /// contains `root`).
    pub merged: Vec<Arc<RegionShape>>,
}

impl BoundaryRecord2 {
    /// True if a routing toward `d` must not step onto `v` according to
    /// this record: `d` in the root's critical region and `v` in any merged
    /// forbidden region.
    pub fn excludes(&self, v: C2, d: C2) -> bool {
        match self.axis {
            BoundaryAxis::Y => {
                self.root.in_critical_y(d) && self.merged.iter().any(|m| m.in_forbidden_y(v))
            }
            BoundaryAxis::X => {
                self.root.in_critical_x(d) && self.merged.iter().any(|m| m.in_forbidden_x(v))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;

    fn staircase() -> RegionShape {
        // "\" band: cols 3..5, intervals (5..6), (4..5), (3..4).
        let cells = vec![c2(3, 5), c2(3, 6), c2(4, 4), c2(4, 5), c2(5, 3), c2(5, 4)];
        RegionShape::new(c2(3, 5), cells)
    }

    #[test]
    fn intervals_and_regions() {
        let s = staircase();
        assert_eq!(s.col_interval(4), Some((4, 5)));
        assert_eq!(s.row_interval(5), Some((3, 4)));
        assert!(s.in_forbidden_y(c2(4, 1)));
        assert!(s.in_critical_y(c2(5, 9)));
        assert!(s.in_forbidden_x(c2(0, 4)));
        assert!(s.in_critical_x(c2(9, 6)));
        assert!(!s.in_forbidden_y(c2(9, 1)));
    }

    #[test]
    fn anchors() {
        let s = staircase();
        assert_eq!(s.y_anchor(), c2(2, 7));
        assert_eq!(s.x_anchor(), c2(6, 2));
    }

    #[test]
    fn corner_candidates_are_outside() {
        let s = staircase();
        let cands = s.corner_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!s.cells.contains(c));
        }
        // The SW-most candidate exists below-left of the minimum cell.
        assert!(cands.contains(&c2(2, 4)));
    }

    #[test]
    fn record_excludes_only_matching_pairs() {
        let s = Arc::new(staircase());
        let rec = BoundaryRecord2 {
            axis: BoundaryAxis::Y,
            root: s.clone(),
            merged: vec![s.clone()],
        };
        // d above the band in a spanned column, v below the band.
        assert!(rec.excludes(c2(4, 0), c2(5, 9)));
        // d outside the critical region: no exclusion.
        assert!(!rec.excludes(c2(4, 0), c2(9, 9)));
        // v outside the forbidden region: no exclusion.
        assert!(!rec.excludes(c2(0, 0), c2(5, 9)));
    }

    #[test]
    fn merged_record_extends_forbidden() {
        let root = Arc::new(staircase());
        let other = Arc::new(RegionShape::new(c2(8, 1), vec![c2(8, 1), c2(8, 2)]));
        let rec = BoundaryRecord2 {
            axis: BoundaryAxis::Y,
            root: root.clone(),
            merged: vec![root.clone(), other.clone()],
        };
        // v below the *other* region, d critical for the root.
        assert!(rec.excludes(c2(8, 0), c2(5, 9)));
        // Root-only record would not exclude that v.
        let plain = BoundaryRecord2 {
            axis: BoundaryAxis::Y,
            root,
            merged: vec![],
        };
        assert!(!plain.excludes(c2(8, 0), c2(5, 9)));
    }

    #[test]
    #[should_panic]
    fn empty_shape_panics() {
        RegionShape::new(c2(0, 0), vec![]);
    }
}
