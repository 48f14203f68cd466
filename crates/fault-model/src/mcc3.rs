//! 3-D shape queries on an MCC: plane sections.
//!
//! A 3-D MCC is an 18-connected component (face + planar diagonal, see
//! [`crate::components`]) of the unsafe set of a 3-D labelling. Unlike the
//! 2-D case its plane sections need not be convex — the paper's Figure 5
//! component has a hole at `(6,6,5)` in its `z = 5` section — so a section
//! is the explicit list of the cells on one plane, which the
//! identification protocol walks.
//!
//! No routing step reads the shapes: Theorem 2 and Algorithm 6's exact
//! rule use the labelling's unsafe closure (DESIGN.md §1); the shapes'
//! readers are listed in DESIGN.md §9 (*What a trial builds*).

use mesh_topo::{Axis3, C2, C3};

use crate::mcc::{Mcc, MccSet};

/// One Minimal Connected Component of a 3-D labelling.
pub type Mcc3 = Mcc<C3>;

/// All MCCs of one 3-D labelling.
pub type MccSet3 = MccSet<C3>;

impl Mcc<C3> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::Labelling3;
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
