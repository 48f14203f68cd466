//! Minimal Connected Components in 3-D meshes.
//!
//! A 3-D MCC is an 18-connected component (face + planar diagonal, see
//! [`crate::components`]) of the unsafe set of a 3-D labelling. Unlike the 2-D case its plane sections need not be convex —
//! the paper's Figure 5 component has a hole at `(6,6,5)` in its `z = 5`
//! section — so shapes are kept as explicit cell sets plus derived
//! *line-extent* tables:
//!
//! * for every axis line through the component (e.g. the X-line at fixed
//!   `(y, z)`) the minimum and maximum occupied coordinate,
//! * per-plane 2-D *sections*, which the identification protocol walks.
//!
//! From the line extents come the 3-D forbidden/critical regions: `Q_Y(M)`
//! is everything strictly below the whole Y-extent of its `(x, z)` line,
//! `Q'_Y(M)` everything strictly above, and analogously for X and Z.
//!
//! Storage is bounding-box-local and flat: membership is a
//! [`mesh_topo::NodeSet`] bitset over the box and the line-extent tables are
//! dense arrays indexed by the box-relative plane coordinates — the former
//! `HashSet<C3>` / `BTreeMap` representation is gone. Note the trade-off:
//! per-component memory is O(bounding-box volume), not O(cells) — compact
//! for the localized regions fault injection produces, but a long diagonal
//! chain of cells would allocate its whole spanning box (one bit per box
//! node); revisit with a sparse fallback if such shapes ever dominate.

use mesh_topo::{Axis3, Box3, NodeSet, NodeSpace3, C2, C3};
use serde::{Deserialize, Serialize};

use crate::components::Components3;
use crate::labelling::Labelling3;

/// Sentinel line extent meaning "the component does not touch this line".
const NO_LINE: (i32, i32) = (i32::MAX, i32::MIN);

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
    /// Per-X-line extents, indexed by box-relative `(y, z)`.
    line_x: Vec<(i32, i32)>,
    /// Per-Y-line extents, indexed by box-relative `(x, z)`.
    line_y: Vec<(i32, i32)>,
    /// Per-Z-line extents, indexed by box-relative `(x, y)`.
    line_z: Vec<(i32, i32)>,
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
        let (bx, by, bz) = (
            bounds.hi.x - bounds.lo.x + 1,
            bounds.hi.y - bounds.lo.y + 1,
            bounds.hi.z - bounds.lo.z + 1,
        );
        let box_space = NodeSpace3::new(bx, by, bz);
        let mut cell_set = NodeSet::new(box_space.len());
        let mut line_x = vec![NO_LINE; (by * bz) as usize];
        let mut line_y = vec![NO_LINE; (bx * bz) as usize];
        let mut line_z = vec![NO_LINE; (bx * by) as usize];
        let mut fault_count = 0;
        for &c in &cells {
            let r = c - bounds.lo;
            cell_set.insert(box_space.index(r));
            let ex = &mut line_x[(r.z * by + r.y) as usize];
            ex.0 = ex.0.min(c.x);
            ex.1 = ex.1.max(c.x);
            let ey = &mut line_y[(r.z * bx + r.x) as usize];
            ey.0 = ey.0.min(c.y);
            ey.1 = ey.1.max(c.y);
            let ez = &mut line_z[(r.y * bx + r.x) as usize];
            ez.0 = ez.0.min(c.z);
            ez.1 = ez.1.max(c.z);
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
            line_x,
            line_y,
            line_z,
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

    /// The occupied extent `[lo, hi]` of the axis line through `c`, if the
    /// component touches that line. For `axis = Y` the line is
    /// `{(c.x, *, c.z)}`, etc.
    pub fn line_extent(&self, axis: Axis3, c: C3) -> Option<(i32, i32)> {
        let (lo, hi) = (self.bounds.lo, self.bounds.hi);
        let (bx, by) = (hi.x - lo.x + 1, hi.y - lo.y + 1);
        let entry = match axis {
            Axis3::X => {
                if c.y < lo.y || c.y > hi.y || c.z < lo.z || c.z > hi.z {
                    return None;
                }
                self.line_x[((c.z - lo.z) * by + (c.y - lo.y)) as usize]
            }
            Axis3::Y => {
                if c.x < lo.x || c.x > hi.x || c.z < lo.z || c.z > hi.z {
                    return None;
                }
                self.line_y[((c.z - lo.z) * bx + (c.x - lo.x)) as usize]
            }
            Axis3::Z => {
                if c.x < lo.x || c.x > hi.x || c.y < lo.y || c.y > hi.y {
                    return None;
                }
                self.line_z[((c.y - lo.y) * bx + (c.x - lo.x)) as usize]
            }
        };
        (entry != NO_LINE).then_some(entry)
    }

    /// `c ∈ Q_axis(M)`: strictly on the negative side of the component's
    /// whole extent on `c`'s axis line.
    pub fn in_forbidden(&self, axis: Axis3, c: C3) -> bool {
        matches!(self.line_extent(axis, c), Some((lo, _)) if c.get(axis) < lo)
    }

    /// `c ∈ Q'_axis(M)`: strictly on the positive side of the component's
    /// whole extent on `c`'s axis line.
    pub fn in_critical(&self, axis: Axis3, c: C3) -> bool {
        matches!(self.line_extent(axis, c), Some((_, hi)) if c.get(axis) > hi)
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
    fn line_extents_and_regions() {
        let (_, set) = figure5();
        let big = set.component_containing(c3(5, 5, 5)).unwrap();
        // Z-line through (5,5): cells (5,5,5),(5,5,6),(5,5,7) -> extent 5..7.
        assert_eq!(big.line_extent(Axis3::Z, c3(5, 5, 0)), Some((5, 7)));
        assert!(big.in_forbidden(Axis3::Z, c3(5, 5, 3)));
        assert!(big.in_critical(Axis3::Z, c3(5, 5, 9)));
        assert!(!big.in_forbidden(Axis3::Z, c3(5, 5, 6))); // inside, not below
                                                           // Lines the component does not touch yield no regions.
        assert_eq!(big.line_extent(Axis3::Z, c3(0, 0, 0)), None);
        assert!(!big.in_forbidden(Axis3::Z, c3(0, 0, 0)));
    }

    #[test]
    fn hole_is_not_in_forbidden_or_critical() {
        let (_, set) = figure5();
        let big = set.component_containing(c3(5, 5, 5)).unwrap();
        let hole = c3(6, 6, 5);
        // The hole sits between cells on its X-line ((5,6,5) and (7,6,5)):
        // neither strictly below nor strictly above the extent.
        assert!(!big.in_forbidden(Axis3::X, hole));
        assert!(!big.in_critical(Axis3::X, hole));
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
        use crate::components::Components3;
        use crate::models::repair_mccs;
        use mesh_topo::NodeSpace3;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            let k = 6;
            let mut mesh = if torus {
                Mesh3D::torus(k, k, k)
            } else {
                Mesh3D::kary(k)
            };
            let mut rng = SmallRng::seed_from_u64(torus as u64 + 31);
            for _ in 0..18 {
                mesh.inject_fault(c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                ));
            }
            let mut l =
                Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            let mut comps = Components3::compute(&l);
            let mut set = MccSet3::compute(&l);
            for _ in 0..25 {
                let mut injected = Vec::new();
                let mut healed = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let c = c3(
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                    );
                    if mesh.is_healthy(c) && !injected.contains(&c) {
                        injected.push(c);
                    }
                }
                let faults = mesh.faults().to_vec();
                for _ in 0..rng.gen_range(0..4) {
                    let c = faults[rng.gen_range(0..faults.len())];
                    if !healed.contains(&c) {
                        healed.push(c);
                    }
                }
                for &c in &injected {
                    mesh.inject_fault(c);
                }
                for &c in &healed {
                    mesh.heal_fault(c);
                }
                let changed = l.repair(&injected, &healed);
                let splice = comps.repair(&l, &changed);
                repair_mccs::<NodeSpace3>(&mut set, &l, &comps, &splice, &changed);
                let fresh = MccSet3::compute(&l);
                assert_eq!(set.mccs, fresh.mccs);
            }
        }
    }
}
