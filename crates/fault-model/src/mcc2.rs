//! 2-D shape queries on an MCC, derived from its cells.
//!
//! Wang's structural theorem (re-checked by our property tests and the
//! exhaustive battery) says a closed 2-D MCC is a *rectilinear-monotone
//! polygonal* region; the property the region queries rely on is
//! HV-convexity:
//!
//! * its occupancy in every column `x` is one contiguous interval
//!   `[bot(x), top(x)]`, and likewise in every row.
//!
//! From those intervals follow the forbidden region `Q` and critical
//! region `Q'` of the component per axis:
//!
//! * `Q_Y(M)` — nodes strictly below `M` in an `M`-spanned column (a routing
//!   that enters it while the destination lies above `M` is doomed),
//! * `Q'_Y(M)` — nodes strictly above `M` in an `M`-spanned column,
//! * `Q_X` / `Q'_X` — the row-wise (left / right) analogues.
//!
//! No routing step reads them (Lemma 1 and Theorem 1 are evaluated on the
//! labelling's unsafe closure); they are the semantic twin the protocol
//! records of `mcc-protocols` and the region tests compare against. Each
//! query scans the cells, so the record stores nothing beyond
//! [`Mcc`]'s cells, box and counts.

use mesh_topo::C2;

use crate::mcc::{Mcc, MccSet};

/// One Minimal Connected Component of a 2-D labelling.
pub type Mcc2 = Mcc<C2>;

/// All MCCs of one 2-D labelling.
pub type MccSet2 = MccSet<C2>;

/// The axis a forbidden/critical region pair refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionAxis2 {
    /// `Q_X` (left of the MCC) / `Q'_X` (right of the MCC).
    X,
    /// `Q_Y` (below the MCC) / `Q'_Y` (above the MCC).
    Y,
}

/// The `[min, max]` of `key` over the cells `on` selects, if any.
fn span(cells: &[C2], on: impl Fn(C2) -> bool, key: impl Fn(C2) -> i32) -> Option<(i32, i32)> {
    cells.iter().filter(|&&c| on(c)).fold(None, |acc, &c| {
        let k = key(c);
        Some(acc.map_or((k, k), |(lo, hi): (i32, i32)| (lo.min(k), hi.max(k))))
    })
}

impl Mcc<C2> {
    /// The occupied y-interval `[bot, top]` of column `x`, if spanned.
    pub fn col_interval(&self, x: i32) -> Option<(i32, i32)> {
        span(&self.cells, |c| c.x == x, |c| c.y)
    }

    /// The occupied x-interval `[lo, hi]` of row `y`, if spanned.
    pub fn row_interval(&self, y: i32) -> Option<(i32, i32)> {
        span(&self.cells, |c| c.y == y, |c| c.x)
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
    /// occupied (HV-convexity). `true` for every closed MCC on a mesh; the
    /// region predicates above assume it.
    pub fn is_hv_convex(&self) -> bool {
        let b = self.bounds;
        let solid = |interval: Option<(i32, i32)>, count: usize| {
            interval.is_some_and(|(lo, hi)| (hi - lo + 1) as usize == count)
        };
        let count = |on: &dyn Fn(&C2) -> bool| self.cells.iter().filter(|c| on(c)).count();
        (b.x0..=b.x1).all(|x| solid(self.col_interval(x), count(&|c| c.x == x)))
            && (b.y0..=b.y1).all(|y| solid(self.row_interval(y), count(&|c| c.y == y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::Labelling2;
    use crate::status::BorderPolicy;
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D};

    fn mccs_of(faults: &[C2], w: i32, h: i32) -> MccSet2 {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        MccSet2::compute(&lab)
    }

    #[test]
    fn single_fault_profiles() {
        let set = mccs_of(&[c2(4, 5)], 10, 10);
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
        let set = mccs_of(&[c2(4, 5)], 10, 10);
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
        let set = mccs_of(&faults, 14, 14);
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
        let set = mccs_of(&faults, 14, 14);
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
        let set = mccs_of(&faults, 10, 10);
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
    fn disjoint_mccs_do_not_interfere() {
        let set = mccs_of(&[c2(2, 2), c2(8, 8)], 12, 12);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_sacrificed(), 0);
        let a = &set.mccs[0];
        assert!(a.in_critical_y(c2(2, 5)) ^ a.in_forbidden_y(c2(2, 5)) || a.bounds.x0 != 2);
    }

    #[test]
    fn contains_agrees_with_cells() {
        let faults: Vec<C2> = vec![c2(4, 6), c2(5, 5), c2(6, 4), c2(5, 6), c2(4, 5)];
        let set = mccs_of(&faults, 12, 12);
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
