//! Minimal Connected Components in 3-D meshes.
//!
//! A 3-D MCC is an 18-connected component (face + planar diagonal, see
//! [`crate::components`]) of the unsafe set of a 3-D labelling. Unlike the
//! 2-D case its plane sections need not be convex — the paper's Figure 5
//! component has a hole at `(6,6,5)` in its `z = 5` section — so shapes
//! are kept as explicit cell sets with per-plane 2-D *sections*, which the
//! identification protocol walks.
//!
//! No routing step reads the shapes: Theorem 2 and Algorithm 6's exact
//! rule use the labelling's unsafe closure (DESIGN.md §1); the shapes'
//! readers are listed in DESIGN.md §9 (*What a trial builds*).
//!
//! Membership is a [`mesh_topo::NodeSet`] bitset over the bounding box, so
//! [`Mcc3::contains`] is one index computation. Note the trade-off:
//! per-component memory is O(bounding-box volume), not O(cells) — compact
//! for the localized regions fault injection produces, but a long diagonal
//! chain of cells would allocate its whole spanning box (one bit per box
//! node); revisit with a sparse fallback if such shapes ever dominate.

use mesh_topo::{Axis3, Box3, NodeSet, NodeSpace3, C2, C3};
use serde::{Deserialize, Serialize};

use crate::components::Components3;
use crate::labelling::Labelling3;

/// One Minimal Connected Component of a 3-D labelling (canonical coords).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mcc3 {
    /// All member cells.
    pub cells: Vec<C3>,
    /// Bounding box.
    pub bounds: Box3,
    /// Number of faulty cells.
    pub fault_count: usize,
    /// Number of healthy (labelled) cells.
    pub sacrificed_count: usize,
    /// Linearization of the bounding box (box-relative coordinates).
    box_space: NodeSpace3,
    /// Membership bitset over `box_space`.
    cell_set: NodeSet,
}

/// All MCCs of one 3-D labelling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MccSet3 {
    /// The components, indexed by component id (position).
    pub mccs: Vec<Mcc3>,
}

impl Mcc3 {
    pub(crate) fn from_cells(cells: Vec<C3>, lab: &Labelling3) -> Mcc3 {
        debug_assert!(!cells.is_empty());
        let mut bounds = Box3::point(cells[0]);
        for &c in &cells[1..] {
            bounds.include(c);
        }
        let box_space = NodeSpace3::new(
            bounds.hi.x - bounds.lo.x + 1,
            bounds.hi.y - bounds.lo.y + 1,
            bounds.hi.z - bounds.lo.z + 1,
        );
        let mut cell_set = NodeSet::new(box_space.len());
        let mut fault_count = 0;
        for &c in &cells {
            cell_set.insert(box_space.index(c - bounds.lo));
            if lab.status(c).is_faulty() {
                fault_count += 1;
            }
        }
        let sacrificed_count = cells.len() - fault_count;
        Mcc3 {
            cells,
            bounds,
            fault_count,
            sacrificed_count,
            box_space,
            cell_set,
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

    /// True if the component occupies cell `c`.
    #[inline]
    pub fn contains(&self, c: C3) -> bool {
        if !self.bounds.contains(c) {
            return false;
        }
        self.cell_set
            .contains(self.box_space.index(c - self.bounds.lo))
    }

    /// The 2-D section of the component on the plane `axis = plane`
    /// (projected coordinates, see [`C3::project`]). Sections are what the
    /// distributed identification process walks; they may be empty.
    pub fn section(&self, axis: Axis3, plane: i32) -> Vec<C2> {
        self.cells
            .iter()
            .filter(|c| c.get(axis) == plane)
            .map(|c| c.project(axis))
            .collect()
    }

    /// All plane coordinates along `axis` where the component has cells.
    pub fn section_planes(&self, axis: Axis3) -> Vec<i32> {
        let (lo, hi) = match axis {
            Axis3::X => (self.bounds.lo.x, self.bounds.hi.x),
            Axis3::Y => (self.bounds.lo.y, self.bounds.hi.y),
            Axis3::Z => (self.bounds.lo.z, self.bounds.hi.z),
        };
        (lo..=hi)
            .filter(|&p| self.cells.iter().any(|c| c.get(axis) == p))
            .collect()
    }
}

impl MccSet3 {
    /// Extract all MCCs of a labelling.
    pub fn compute(lab: &Labelling3) -> MccSet3 {
        let comps = Components3::compute(lab);
        MccSet3 {
            mccs: comps
                .cells
                .into_iter()
                .map(|cells| Mcc3::from_cells(cells, lab))
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
    pub fn iter(&self) -> impl Iterator<Item = &Mcc3> {
        self.mccs.iter()
    }

    /// Total healthy nodes captured by fault regions.
    pub fn total_sacrificed(&self) -> usize {
        self.mccs.iter().map(|m| m.sacrificed_count).sum()
    }

    /// The component containing canonical `c`, if any.
    pub fn component_containing(&self, c: C3) -> Option<&Mcc3> {
        self.mccs.iter().find(|m| m.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::BorderPolicy;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame3, Mesh3D};

    fn figure5() -> (Labelling3, MccSet3) {
        let mut mesh = Mesh3D::kary(10);
        for c in [
            c3(5, 5, 6),
            c3(6, 5, 5),
            c3(5, 6, 5),
            c3(6, 7, 5),
            c3(7, 6, 5),
            c3(5, 4, 7),
            c3(4, 5, 7),
            c3(7, 8, 4),
        ] {
            mesh.inject_fault(c);
        }
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        let set = MccSet3::compute(&lab);
        (lab, set)
    }

    #[test]
    fn figure5_sections() {
        let (_, set) = figure5();
        assert_eq!(set.len(), 2);
        let big = set.component_containing(c3(5, 5, 5)).unwrap();
        // Section z=5 per the paper: (6,5),(5,6),(6,7),(7,6) faults plus the
        // useless (5,5); the hole (6,6) is NOT part of the region.
        let mut sec: Vec<C2> = big.section(Axis3::Z, 5);
        sec.sort();
        let mut expect = vec![c2(5, 5), c2(6, 5), c2(5, 6), c2(7, 6), c2(6, 7)];
        expect.sort();
        assert_eq!(sec, expect);
        assert!(!big.contains(c3(6, 6, 5)), "hole must stay outside the MCC");
    }

    #[test]
    fn figure5_section_planes() {
        let (_, set) = figure5();
        let big = set.component_containing(c3(5, 5, 5)).unwrap();
        assert_eq!(big.section_planes(Axis3::Z), vec![5, 6, 7]);
        let small = set.component_containing(c3(7, 8, 4)).unwrap();
        assert_eq!(small.section_planes(Axis3::Z), vec![4]);
        assert_eq!(small.section_planes(Axis3::X), vec![7]);
    }

    #[test]
    fn counts() {
        let (lab, set) = figure5();
        let big = set.component_containing(c3(5, 5, 5)).unwrap();
        assert_eq!(big.fault_count, 7);
        assert_eq!(big.sacrificed_count, 2);
        assert_eq!(set.total_sacrificed(), lab.sacrificed_count());
    }

    #[test]
    fn bounds_cover_cells() {
        let (_, set) = figure5();
        for m in set.iter() {
            for &c in &m.cells {
                assert!(m.bounds.contains(c));
            }
        }
    }

    #[test]
    fn component_containing_lookup() {
        let (_, set) = figure5();
        assert!(set.component_containing(c3(0, 0, 0)).is_none());
        assert_eq!(set.component_containing(c3(7, 8, 4)).unwrap().len(), 1);
    }

    #[test]
    fn repair_matches_compute_on_random_churn_3d() {
        use crate::testutil::mcc_repair_tracks_compute;
        mcc_repair_tracks_compute(Mesh3D::kary(6), 31, 18, 25);
        mcc_repair_tracks_compute(Mesh3D::torus(6, 6, 6), 32, 18, 25);
    }
}
