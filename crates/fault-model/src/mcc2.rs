//! Minimal Connected Components in 2-D meshes: shape extraction.
//!
//! Each connected component of the unsafe set (8-connectivity, see
//! [`crate::components`]) is an MCC. Wang's structural theorem (re-checked by
//! our property tests) says a closed MCC is a *rectilinear-monotone
//! polygonal* region; the property our region machinery relies on is
//! HV-convexity:
//!
//! * its occupancy in every column `x` is one contiguous interval
//!   `[bot(x), top(x)]`, and likewise in every row.
//!
//! From the profiles we obtain the forbidden region `Q` and critical region
//! `Q'` of the component per axis:
//!
//! * `Q_Y(M)` — nodes strictly below `M` in an `M`-spanned column (a routing
//!   that enters it while the destination lies above `M` is doomed),
//! * `Q'_Y(M)` — nodes strictly above `M` in an `M`-spanned column,
//! * `Q_X` / `Q'_X` — the row-wise (left / right) analogues.
//!
//! The module also identifies the *initialization corner* and *opposite
//! corner* used by the distributed identification process of the paper.

use mesh_topo::{Rect, C2};
use serde::{Deserialize, Serialize};

use crate::components::Components2;
use crate::labelling::Labelling2;

/// The axis a forbidden/critical region pair refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RegionAxis2 {
    /// `Q_X` (left of the MCC) / `Q'_X` (right of the MCC).
    X,
    /// `Q_Y` (below the MCC) / `Q'_Y` (above the MCC).
    Y,
}

/// One Minimal Connected Component of a 2-D labelling, with its shape
/// profiles and region predicates. Coordinates are canonical.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mcc2 {
    /// All member cells.
    pub cells: Vec<C2>,
    /// Bounding rectangle.
    pub bounds: Rect,
    /// Number of faulty cells.
    pub fault_count: usize,
    /// Number of healthy (useless / can't-reach) cells.
    pub sacrificed_count: usize,
    /// Per-column lowest occupied y, indexed by `x - bounds.x0`.
    col_bot: Vec<i32>,
    /// Per-column highest occupied y.
    col_top: Vec<i32>,
    /// Per-row lowest occupied x, indexed by `y - bounds.y0`.
    row_lo: Vec<i32>,
    /// Per-row highest occupied x.
    row_hi: Vec<i32>,
}

/// All MCCs of one labelling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MccSet2 {
    /// The components, indexed by component id (position).
    pub mccs: Vec<Mcc2>,
}

impl Mcc2 {
    pub(crate) fn from_cells(cells: Vec<C2>, lab: &Labelling2) -> Mcc2 {
        debug_assert!(!cells.is_empty());
        let mut bounds = Rect::point(cells[0]);
        for &c in &cells[1..] {
            bounds.include(c);
        }
        let w = (bounds.x1 - bounds.x0 + 1) as usize;
        let h = (bounds.y1 - bounds.y0 + 1) as usize;
        let mut col_bot = vec![i32::MAX; w];
        let mut col_top = vec![i32::MIN; w];
        let mut row_lo = vec![i32::MAX; h];
        let mut row_hi = vec![i32::MIN; h];
        let mut fault_count = 0;
        for &c in &cells {
            let ci = (c.x - bounds.x0) as usize;
            let ri = (c.y - bounds.y0) as usize;
            col_bot[ci] = col_bot[ci].min(c.y);
            col_top[ci] = col_top[ci].max(c.y);
            row_lo[ri] = row_lo[ri].min(c.x);
            row_hi[ri] = row_hi[ri].max(c.x);
            if lab.status(c).is_faulty() {
                fault_count += 1;
            }
        }
        let sacrificed_count = cells.len() - fault_count;
        Mcc2 {
            cells,
            bounds,
            fault_count,
            sacrificed_count,
            col_bot,
            col_top,
            row_lo,
            row_hi,
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// MCCs are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The occupied y-interval `[bot, top]` of column `x`, if spanned.
    pub fn col_interval(&self, x: i32) -> Option<(i32, i32)> {
        if x < self.bounds.x0 || x > self.bounds.x1 {
            return None;
        }
        let i = (x - self.bounds.x0) as usize;
        if self.col_bot[i] > self.col_top[i] {
            None
        } else {
            Some((self.col_bot[i], self.col_top[i]))
        }
    }

    /// The occupied x-interval `[lo, hi]` of row `y`, if spanned.
    pub fn row_interval(&self, y: i32) -> Option<(i32, i32)> {
        if y < self.bounds.y0 || y > self.bounds.y1 {
            return None;
        }
        let i = (y - self.bounds.y0) as usize;
        if self.row_lo[i] > self.row_hi[i] {
            None
        } else {
            Some((self.row_lo[i], self.row_hi[i]))
        }
    }

    /// True if the component occupies cell `c`.
    ///
    /// Valid for *closed* MCCs (contiguous row/column intervals) — the form
    /// guaranteed by the labelling closure and asserted by
    /// [`Mcc2::is_hv_convex`].
    pub fn contains(&self, c: C2) -> bool {
        match self.col_interval(c.x) {
            Some((bot, top)) => c.y >= bot && c.y <= top,
            None => false,
        }
    }

    /// `c ∈ Q_Y(M)` — strictly below the component in a spanned column.
    #[inline]
    pub fn in_forbidden_y(&self, c: C2) -> bool {
        matches!(self.col_interval(c.x), Some((bot, _)) if c.y < bot)
    }

    /// `c ∈ Q'_Y(M)` — strictly above the component in a spanned column.
    #[inline]
    pub fn in_critical_y(&self, c: C2) -> bool {
        matches!(self.col_interval(c.x), Some((_, top)) if c.y > top)
    }

    /// `c ∈ Q_X(M)` — strictly left of the component in a spanned row.
    #[inline]
    pub fn in_forbidden_x(&self, c: C2) -> bool {
        matches!(self.row_interval(c.y), Some((lo, _)) if c.x < lo)
    }

    /// `c ∈ Q'_X(M)` — strictly right of the component in a spanned row.
    #[inline]
    pub fn in_critical_x(&self, c: C2) -> bool {
        matches!(self.row_interval(c.y), Some((_, hi)) if c.x > hi)
    }

    /// Region membership by axis.
    pub fn in_forbidden(&self, axis: RegionAxis2, c: C2) -> bool {
        match axis {
            RegionAxis2::X => self.in_forbidden_x(c),
            RegionAxis2::Y => self.in_forbidden_y(c),
        }
    }

    /// Critical-region membership by axis.
    pub fn in_critical(&self, axis: RegionAxis2, c: C2) -> bool {
        match axis {
            RegionAxis2::X => self.in_critical_x(c),
            RegionAxis2::Y => self.in_critical_y(c),
        }
    }

    /// Structural check: every row/column occupancy of the component is one
    /// contiguous interval and every row/column of the bounding box is
    /// occupied (HV-convexity). `true` for every closed MCC; the region
    /// predicates above assume it.
    pub fn is_hv_convex(&self) -> bool {
        // Count cells per column/row and compare with interval widths.
        let w = (self.bounds.x1 - self.bounds.x0 + 1) as usize;
        let h = (self.bounds.y1 - self.bounds.y0 + 1) as usize;
        let mut col_n = vec![0i64; w];
        let mut row_n = vec![0i64; h];
        for &c in &self.cells {
            col_n[(c.x - self.bounds.x0) as usize] += 1;
            row_n[(c.y - self.bounds.y0) as usize] += 1;
        }
        for x in self.bounds.x0..=self.bounds.x1 {
            match self.col_interval(x) {
                Some((bot, top)) => {
                    if col_n[(x - self.bounds.x0) as usize] != (top - bot + 1) as i64 {
                        return false; // hole in the column
                    }
                }
                None => return false, // bounding box column not spanned
            }
        }
        for y in self.bounds.y0..=self.bounds.y1 {
            match self.row_interval(y) {
                Some((lo, hi)) => {
                    if row_n[(y - self.bounds.y0) as usize] != (hi - lo + 1) as i64 {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// The `(+Y-X)`-corner cell of the component: among the cells with
    /// maximum y, the one with minimum x (the paper's corner naming for the
    /// section identification process).
    pub fn corner_cell_yx(&self) -> C2 {
        *self
            .cells
            .iter()
            .max_by_key(|c| (c.y, -c.x))
            .expect("MCC is never empty")
    }

    /// The `(+X-Y)`-corner cell: among the cells with maximum x, the one
    /// with minimum y.
    pub fn corner_cell_xy(&self) -> C2 {
        *self
            .cells
            .iter()
            .max_by_key(|c| (c.x, -c.y))
            .expect("MCC is never empty")
    }

    /// The *initialization corner* of the identification process: the safe
    /// node diagonally up-left of the `(+Y-X)`-corner cell; its `+X` and
    /// `+Y` neighbors are edge nodes of the MCC.
    pub fn init_corner(&self) -> C2 {
        let t = self.corner_cell_yx();
        C2 {
            x: t.x - 1,
            y: t.y + 1,
        }
    }

    /// The *opposite corner*: the safe node diagonally down-right of the
    /// (min-y, then max-x) cell; its `-X` and `-Y` neighbors are edge nodes.
    pub fn opposite_corner(&self) -> C2 {
        let b = *self
            .cells
            .iter()
            .min_by_key(|c| (c.y, -c.x))
            .expect("MCC is never empty");
        C2 {
            x: b.x + 1,
            y: b.y - 1,
        }
    }
}

impl MccSet2 {
    /// Extract all MCCs of a labelling.
    pub fn compute(lab: &Labelling2) -> MccSet2 {
        let comps = Components2::compute(lab);
        MccSet2 {
            mccs: comps
                .cells
                .into_iter()
                .map(|cells| Mcc2::from_cells(cells, lab))
                .collect(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.mccs.len()
    }

    /// True if there are no unsafe nodes.
    pub fn is_empty(&self) -> bool {
        self.mccs.is_empty()
    }

    /// Iterate the components.
    pub fn iter(&self) -> impl Iterator<Item = &Mcc2> {
        self.mccs.iter()
    }

    /// Total healthy nodes captured by fault regions.
    pub fn total_sacrificed(&self) -> usize {
        self.mccs.iter().map(|m| m.sacrificed_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::BorderPolicy;
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D};

    fn mccs_of(faults: &[C2], w: i32, h: i32) -> (Labelling2, MccSet2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let set = MccSet2::compute(&lab);
        (lab, set)
    }

    #[test]
    fn single_fault_profiles() {
        let (_, set) = mccs_of(&[c2(4, 5)], 10, 10);
        assert_eq!(set.len(), 1);
        let m = &set.mccs[0];
        assert_eq!(m.len(), 1);
        assert_eq!(m.col_interval(4), Some((5, 5)));
        assert_eq!(m.col_interval(5), None);
        assert_eq!(m.row_interval(5), Some((4, 4)));
        assert!(m.is_hv_convex());
        assert!(m.contains(c2(4, 5)));
        assert!(!m.contains(c2(4, 6)));
    }

    #[test]
    fn region_membership_single_cell() {
        let (_, set) = mccs_of(&[c2(4, 5)], 10, 10);
        let m = &set.mccs[0];
        assert!(m.in_forbidden_y(c2(4, 0)));
        assert!(m.in_critical_y(c2(4, 9)));
        assert!(!m.in_forbidden_y(c2(3, 0))); // column not spanned
        assert!(m.in_forbidden_x(c2(0, 5)));
        assert!(m.in_critical_x(c2(9, 5)));
        assert!(!m.in_critical_x(c2(9, 6)));
        // axis dispatcher agrees
        assert!(m.in_forbidden(RegionAxis2::Y, c2(4, 0)));
        assert!(m.in_critical(RegionAxis2::X, c2(9, 5)));
    }

    #[test]
    fn antidiagonal_band_is_monotone() {
        // Faults on x+y = 10, x in 3..=7 — the closure thickens this into a
        // connected monotone band.
        let faults: Vec<C2> = (3..=7).map(|x| c2(x, 10 - x)).collect();
        let (_, set) = mccs_of(&faults, 14, 14);
        assert_eq!(set.len(), 1, "closure must bridge antidiagonal faults");
        let m = &set.mccs[0];
        assert!(m.is_hv_convex());
        // Profiles descend left to right for a "\\" band.
        let (b3, t3) = m.col_interval(3).unwrap();
        let (b7, t7) = m.col_interval(7).unwrap();
        assert!(b3 >= b7 && t3 >= t7);
        assert!(m.sacrificed_count > 0);
    }

    #[test]
    fn main_diagonal_band_is_one_mcc() {
        // "/"-oriented faults are 8-connected: one MCC, nothing sacrificed,
        // ascending profiles, still HV-convex.
        let faults: Vec<C2> = (3..=7).map(|x| c2(x, x)).collect();
        let (_, set) = mccs_of(&faults, 14, 14);
        assert_eq!(set.len(), 1);
        let m = &set.mccs[0];
        assert_eq!(m.sacrificed_count, 0);
        assert!(m.is_hv_convex());
        let (b3, _) = m.col_interval(3).unwrap();
        let (b7, _) = m.col_interval(7).unwrap();
        assert!(b3 < b7);
    }

    #[test]
    fn vertical_wall_profiles() {
        let faults: Vec<C2> = (2..=6).map(|y| c2(5, y)).collect();
        let (_, set) = mccs_of(&faults, 10, 10);
        let m = &set.mccs[0];
        assert_eq!(m.col_interval(5), Some((2, 6)));
        assert_eq!(m.sacrificed_count, 0);
        assert!(m.in_forbidden_y(c2(5, 1)));
        assert!(m.in_critical_y(c2(5, 7)));
        for y in 2..=6 {
            assert!(m.in_forbidden_x(c2(0, y)));
            assert!(m.in_critical_x(c2(9, y)));
        }
    }

    #[test]
    fn corners_of_staircase() {
        let faults: Vec<C2> = (3..=7).map(|x| c2(x, 10 - x)).collect();
        let (lab, set) = mccs_of(&faults, 14, 14);
        let m = &set.mccs[0];
        let ic = m.init_corner();
        let oc = m.opposite_corner();
        // Corners are safe nodes diagonally adjacent to extreme cells.
        assert!(lab.status(ic).is_safe());
        assert!(lab.status(oc).is_safe());
        assert!(m.contains(c2(ic.x + 1, ic.y - 1)));
        assert!(m.contains(c2(oc.x - 1, oc.y + 1)));
        assert_eq!(c2(ic.x + 1, ic.y - 1), m.corner_cell_yx());
    }

    #[test]
    fn disjoint_mccs_do_not_interfere() {
        let (_, set) = mccs_of(&[c2(2, 2), c2(8, 8)], 12, 12);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_sacrificed(), 0);
        let a = &set.mccs[0];
        assert!(a.in_critical_y(c2(2, 5)) ^ a.in_forbidden_y(c2(2, 5)) || a.bounds.x0 != 2);
    }

    #[test]
    fn contains_agrees_with_cells() {
        let faults: Vec<C2> = vec![c2(4, 6), c2(5, 5), c2(6, 4), c2(5, 6), c2(4, 5)];
        let (_, set) = mccs_of(&faults, 12, 12);
        for m in set.iter() {
            for &c in &m.cells {
                assert!(m.contains(c));
            }
            assert!(m.is_hv_convex());
        }
    }

    #[test]
    fn repair_matches_compute_on_random_churn() {
        use crate::testutil::mcc_repair_tracks_compute;
        mcc_repair_tracks_compute(Mesh2D::new(11, 8), 23, 14, 40);
        mcc_repair_tracks_compute(Mesh2D::torus(11, 8), 24, 14, 40);
    }
}
