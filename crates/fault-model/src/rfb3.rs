//! Cuboid faulty blocks — the classical 3-D baseline model.
//!
//! The 3-D generalization of the rectangular block model (Boppana–Chalasani
//! style, as used by the routing literature the paper compares against): a
//! healthy node is *disabled* if it has **two or more** faulty-or-disabled
//! neighbors. The closure is iterated together with cuboid completion
//! (components widen to bounding boxes, intersecting boxes merge, boxes are
//! filled) until the disabled set is a disjoint union of full cuboids.

use mesh_topo::{Box3, Mesh3D, NodeSet, NodeSpace3, C3};

use crate::oracle;

/// The cuboid-faulty-block decomposition of a 3-D mesh.
///
/// Like [`crate::rfb2::FaultBlocks2`], the disabled set is a [`NodeSet`]
/// bitset over the mesh's [`NodeSpace3`], and the closure runs on linear
/// node indices.
#[derive(Clone, Debug)]
pub struct FaultBlocks3 {
    space: NodeSpace3,
    disabled: NodeSet,
    /// The fault cuboids (bounding boxes of the disabled components).
    pub blocks: Vec<Box3>,
    fault_count: usize,
}

impl FaultBlocks3 {
    /// Compute the cuboid-block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh3D) -> FaultBlocks3 {
        let space = mesh.space();
        let mut disabled = mesh.fault_set().clone();
        let mut blocks;
        loop {
            let grew = Self::close_rule(space, &mut disabled);
            blocks = Self::boxes_of_components(space, &disabled);
            let filled = Self::fill_boxes(space, &mut disabled, &blocks);
            if !grew && !filled {
                break;
            }
        }
        FaultBlocks3 {
            space,
            disabled,
            blocks,
            fault_count: mesh.fault_count(),
        }
    }

    /// "Two or more faulty/disabled neighbors" rule, to a fixpoint.
    /// Returns true if any node was newly disabled.
    fn close_rule(space: NodeSpace3, disabled: &mut NodeSet) -> bool {
        let rule = |set: &NodeSet, i: usize| {
            let mut n = 0;
            space.for_neighbors6(i, |j| n += set.contains(j) as usize);
            n >= 2
        };
        let mut grew = false;
        let mut work: Vec<usize> = (0..space.len()).collect();
        while let Some(u) = work.pop() {
            if disabled.contains(u) || !rule(disabled, u) {
                continue;
            }
            disabled.insert(u);
            grew = true;
            space.for_neighbors6(u, |v| {
                if !disabled.contains(v) {
                    work.push(v);
                }
            });
        }
        grew
    }

    /// Bounding boxes of the connected disabled components, merged until
    /// pairwise disjoint.
    fn boxes_of_components(space: NodeSpace3, disabled: &NodeSet) -> Vec<Box3> {
        let mut seen = NodeSet::new(space.len());
        let mut blocks: Vec<Box3> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        for start in disabled.iter() {
            if seen.contains(start) {
                continue;
            }
            let mut bb = Box3::point(space.coord(start));
            queue.clear();
            queue.push(start);
            seen.insert(start);
            while let Some(u) = queue.pop() {
                bb.include(space.coord(u));
                space.for_neighbors6(u, |v| {
                    if disabled.contains(v) && seen.insert(v) {
                        queue.push(v);
                    }
                });
            }
            blocks.push(bb);
        }
        loop {
            let mut merged = false;
            'outer: for i in 0..blocks.len() {
                for j in (i + 1)..blocks.len() {
                    if blocks[i].intersects(&blocks[j]) {
                        blocks[i] = blocks[i].union(&blocks[j]);
                        blocks.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                return blocks;
            }
        }
    }

    /// Disable every cell of every block. Returns true if anything changed.
    fn fill_boxes(space: NodeSpace3, disabled: &mut NodeSet, blocks: &[Box3]) -> bool {
        let mut changed = false;
        for b in blocks {
            for c in b.iter() {
                if let Some(i) = space.index_checked(c) {
                    changed |= disabled.insert(i);
                }
            }
        }
        changed
    }

    /// True if `c` is inside some fault cuboid.
    #[inline]
    pub fn is_disabled(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.disabled.contains(i))
    }

    /// Healthy nodes sacrificed by the model.
    pub fn sacrificed_count(&self) -> usize {
        self.disabled.len() - self.fault_count
    }

    /// Total disabled nodes (faulty + sacrificed).
    pub fn disabled_count(&self) -> usize {
        self.disabled.len()
    }

    /// Existence of a minimal path from `s` to `d` under the cuboid model:
    /// a monotone path (after canonicalization) avoiding every disabled
    /// node. `s`, `d` are mesh coordinates.
    pub fn minimal_path_exists(&self, mesh: &Mesh3D, s: C3, d: C3) -> bool {
        self.minimal_path_exists_in(mesh, s, d, &mut oracle::Useful3::scratch())
    }

    /// [`FaultBlocks3::minimal_path_exists`] with a caller-provided scratch
    /// buffer for the reachability sweep (see [`oracle::Useful3::recompute`]).
    pub fn minimal_path_exists_in(
        &self,
        mesh: &Mesh3D,
        s: C3,
        d: C3,
        useful: &mut oracle::Useful3,
    ) -> bool {
        if self.is_disabled(s) || self.is_disabled(d) {
            return false;
        }
        let frame = mesh_topo::Frame3::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        oracle::reachable_3d_in(cs, cd, |c| self.is_disabled(frame.from_canon(c)), useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c3;

    fn blocks_of(faults: &[C3], k: i32) -> (Mesh3D, FaultBlocks3) {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let b = FaultBlocks3::compute(&mesh);
        (mesh, b)
    }

    #[test]
    fn single_fault_single_cell() {
        let (_, b) = blocks_of(&[c3(3, 3, 3)], 8);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0].volume(), 1);
        assert_eq!(b.sacrificed_count(), 0);
    }

    #[test]
    fn diagonal_pair_merges_in_3d_blocks() {
        // Planar diagonal: the two nodes between them each see two faulty
        // neighbors -> disabled -> one 2x2x1 block.
        let (_, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Box3::spanning(c3(3, 3, 3), c3(4, 4, 3)));
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn space_diagonal_stays_separate() {
        // Space diagonal (differs in all 3 coords): no node has two
        // faulty neighbors, and the two singleton boxes do not intersect.
        let (_, b) = blocks_of(&[c3(4, 4, 4), c3(5, 5, 5)], 8);
        assert_eq!(b.blocks.len(), 2);
    }

    #[test]
    fn blocks_are_filled_cuboids() {
        let (_, b) = blocks_of(&[c3(2, 2, 2), c3(3, 3, 2), c3(2, 3, 3)], 8);
        for blk in &b.blocks {
            for c in blk.iter() {
                assert!(b.is_disabled(c), "{c} in block {blk:?} not disabled");
            }
        }
        let total: u64 = b.blocks.iter().map(|bb| bb.volume()).sum();
        assert_eq!(total as usize, b.disabled_count());
    }

    #[test]
    fn rfb3_coarser_than_mcc3() {
        use crate::labelling::Labelling3;
        use crate::status::BorderPolicy;
        use mesh_topo::Frame3;
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        // MCC: two blocked dims are not enough in 3-D -> nothing sacrificed.
        assert_eq!(lab.sacrificed_count(), 0);
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn minimal_path_under_cuboids() {
        // A cuboid spanning the full RMP cross-section blocks.
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let (mesh, b) = blocks_of(&faults, 8);
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 3, 4)));
        assert!(b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(4, 3, 4)));
    }

    #[test]
    fn endpoint_in_block_fails() {
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert!(b.is_disabled(c3(3, 4, 3)));
        assert!(mesh.is_healthy(c3(3, 4, 3)));
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 4, 3)));
    }

    #[test]
    fn disjoint_blocks_stay_disjoint() {
        let (_, b) = blocks_of(&[c3(1, 1, 1), c3(6, 6, 6)], 8);
        assert_eq!(b.blocks.len(), 2);
        assert!(!b.blocks[0].intersects(&b.blocks[1]));
    }
}
