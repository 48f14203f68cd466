//! Rectangular faulty blocks — the classical 2-D baseline model.
//!
//! The conventional orthogonal convex fault model (Boppana–Chalasani; Wu's
//! safety levels operate on the same regions): a healthy node is *disabled*
//! if it has **two or more** faulty-or-disabled neighbors. The closure is
//! iterated together with rectangle completion (components are widened to
//! their bounding rectangles, overlapping rectangles merge) until the
//! disabled set is a disjoint union of full rectangles.
//!
//! Compared to the MCC model the rectangle closure is orientation-blind and
//! much more aggressive: it is the baseline the paper's evaluation counts
//! sacrificed healthy nodes against.

use mesh_topo::{Mesh2D, NodeSet, NodeSpace2, Rect, C2};

use crate::oracle;

/// The rectangular-faulty-block decomposition of a mesh.
///
/// The disabled set lives on the flat node-state layer: a [`NodeSet`]
/// bitset over the mesh's [`NodeSpace2`], with the closure worklist and
/// component scans running over linear node indices.
#[derive(Clone, Debug)]
pub struct FaultBlocks2 {
    space: NodeSpace2,
    disabled: NodeSet,
    /// The maximal fault rectangles (disjoint, each fully disabled).
    pub blocks: Vec<Rect>,
    fault_count: usize,
}

impl FaultBlocks2 {
    /// Compute the rectangular-block closure of the mesh's fault set.
    ///
    /// Mesh coordinates are used throughout (the model is
    /// orientation-independent).
    pub fn compute(mesh: &Mesh2D) -> FaultBlocks2 {
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
        FaultBlocks2 {
            space,
            disabled,
            blocks,
            fault_count: mesh.fault_count(),
        }
    }

    /// One pass of the "two or more faulty/disabled neighbors" rule to a
    /// fixpoint. Returns true if any node was newly disabled.
    fn close_rule(space: NodeSpace2, disabled: &mut NodeSet) -> bool {
        let rule = |set: &NodeSet, i: usize| {
            let mut n = 0;
            space.for_neighbors4(i, |j| n += set.contains(j) as usize);
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
            space.for_neighbors4(u, |v| {
                if !disabled.contains(v) {
                    work.push(v);
                }
            });
        }
        grew
    }

    /// Bounding rectangles of the connected disabled components, merged
    /// until pairwise disjoint.
    fn boxes_of_components(space: NodeSpace2, disabled: &NodeSet) -> Vec<Rect> {
        let mut seen = NodeSet::new(space.len());
        let mut blocks: Vec<Rect> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        for start in disabled.iter() {
            if seen.contains(start) {
                continue;
            }
            let mut rect = Rect::point(space.coord(start));
            queue.clear();
            queue.push(start);
            seen.insert(start);
            while let Some(u) = queue.pop() {
                rect.include(space.coord(u));
                space.for_neighbors4(u, |v| {
                    if disabled.contains(v) && seen.insert(v) {
                        queue.push(v);
                    }
                });
            }
            blocks.push(rect);
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
    fn fill_boxes(space: NodeSpace2, disabled: &mut NodeSet, blocks: &[Rect]) -> bool {
        let mut changed = false;
        for r in blocks {
            for c in r.iter() {
                if let Some(i) = space.index_checked(c) {
                    changed |= disabled.insert(i);
                }
            }
        }
        changed
    }

    /// True if `c` is inside some fault block (faulty or disabled).
    #[inline]
    pub fn is_disabled(&self, c: C2) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.disabled.contains(i))
    }

    /// Healthy nodes sacrificed by the model (disabled but not faulty).
    pub fn sacrificed_count(&self) -> usize {
        self.disabled.len() - self.fault_count
    }

    /// Total disabled nodes (faulty + sacrificed).
    pub fn disabled_count(&self) -> usize {
        self.disabled.len()
    }

    /// Existence of a minimal path from `s` to `d` **under the block model**:
    /// a monotone path (after canonicalization) avoiding every disabled node.
    /// This is how block-based routing decides success — endpoints inside a
    /// block or separated by blocks fail even when the physical fault set
    /// would admit a minimal path. `s`, `d` are mesh coordinates.
    pub fn minimal_path_exists(&self, mesh: &Mesh2D, s: C2, d: C2) -> bool {
        self.minimal_path_exists_in(mesh, s, d, &mut oracle::Useful2::scratch())
    }

    /// [`FaultBlocks2::minimal_path_exists`] with a caller-provided scratch
    /// buffer for the reachability sweep (see [`oracle::Useful2::recompute`]).
    pub fn minimal_path_exists_in(
        &self,
        mesh: &Mesh2D,
        s: C2,
        d: C2,
        useful: &mut oracle::Useful2,
    ) -> bool {
        if self.is_disabled(s) || self.is_disabled(d) {
            return false;
        }
        let frame = mesh_topo::Frame2::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        oracle::reachable_2d_in(cs, cd, |c| self.is_disabled(frame.from_canon(c)), useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;

    fn blocks_of(faults: &[C2], w: i32, h: i32) -> (Mesh2D, FaultBlocks2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let b = FaultBlocks2::compute(&mesh);
        (mesh, b)
    }

    #[test]
    fn single_fault_single_cell_block() {
        let (_, b) = blocks_of(&[c2(4, 4)], 10, 10);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Rect::spanning(c2(4, 4), c2(4, 4)));
        assert_eq!(b.sacrificed_count(), 0);
    }

    #[test]
    fn diagonal_faults_close_to_rectangle() {
        // Both diagonal orientations close under the RFB rule (unlike MCC).
        let (_, b) = blocks_of(&[c2(4, 4), c2(5, 5)], 10, 10);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Rect::spanning(c2(4, 4), c2(5, 5)));
        assert_eq!(b.sacrificed_count(), 2);
        let (_, b2) = blocks_of(&[c2(4, 5), c2(5, 4)], 10, 10);
        assert_eq!(b2.blocks.len(), 1);
        assert_eq!(b2.sacrificed_count(), 2);
    }

    #[test]
    fn gap_of_one_in_a_column_closes() {
        // Two faulty nodes two apart in a column: the node between them has
        // two faulty neighbors -> disabled -> a 1x3 rectangle.
        let (_, b) = blocks_of(&[c2(4, 4), c2(4, 6)], 10, 10);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Rect::spanning(c2(4, 4), c2(4, 6)));
        assert_eq!(b.sacrificed_count(), 1);
    }

    #[test]
    fn l_shape_fills_rectangle() {
        let (_, b) = blocks_of(&[c2(4, 4), c2(4, 6), c2(6, 4)], 12, 12);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Rect::spanning(c2(4, 4), c2(6, 6)));
        assert_eq!(b.sacrificed_count(), 6);
    }

    #[test]
    fn blocks_are_full_rectangles() {
        let (_, b) = blocks_of(&[c2(2, 2), c2(3, 3), c2(2, 4), c2(8, 1), c2(8, 2)], 12, 12);
        for r in &b.blocks {
            for c in r.iter() {
                assert!(b.is_disabled(c), "{c} inside block {r:?} but not disabled");
            }
        }
        let total: u64 = b.blocks.iter().map(|r| r.area()).sum();
        assert_eq!(total as usize, b.disabled_count());
        // and blocks are pairwise disjoint
        for i in 0..b.blocks.len() {
            for j in (i + 1)..b.blocks.len() {
                assert!(!b.blocks[i].intersects(&b.blocks[j]));
            }
        }
    }

    #[test]
    fn far_apart_faults_stay_separate() {
        let (_, b) = blocks_of(&[c2(2, 2), c2(8, 8)], 12, 12);
        assert_eq!(b.blocks.len(), 2);
    }

    #[test]
    fn rfb_is_coarser_than_mcc() {
        use crate::labelling::Labelling2;
        use crate::mcc2::MccSet2;
        use crate::status::BorderPolicy;
        use mesh_topo::Frame2;
        // "/"-oriented diagonal: MCC sacrifices nothing, RFB sacrifices 2.
        let (mesh, b) = blocks_of(&[c2(4, 4), c2(5, 5)], 10, 10);
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let mccs = MccSet2::compute(&lab);
        assert_eq!(mccs.total_sacrificed(), 0);
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn minimal_path_under_blocks() {
        let (mesh, b) = blocks_of(&[c2(3, 3), c2(4, 4)], 8, 8);
        // Block is [3..4]x[3..4]; s below it in col 3, d above it in col 4.
        assert!(!b.minimal_path_exists(&mesh, c2(3, 0), c2(4, 7)));
        // Wider RMP escapes.
        assert!(b.minimal_path_exists(&mesh, c2(0, 0), c2(7, 7)));
    }

    #[test]
    fn block_success_implies_fault_oracle_success() {
        // The block model is conservative: whenever it says a minimal path
        // exists, one really does exist among the physical faults.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut mesh = Mesh2D::new(12, 12);
            for _ in 0..rng.gen_range(0..14) {
                let c = c2(rng.gen_range(0..12), rng.gen_range(0..12));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let b = FaultBlocks2::compute(&mesh);
            let s = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            let d = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            if mesh.is_faulty(s) || mesh.is_faulty(d) {
                continue;
            }
            if b.minimal_path_exists(&mesh, s, d) {
                let frame = mesh_topo::Frame2::for_pair(&mesh, s, d);
                assert!(oracle::reachable_2d(
                    frame.to_canon(s),
                    frame.to_canon(d),
                    |c| {
                        mesh.is_faulty(frame.from_canon(c)) || !mesh.contains(frame.from_canon(c))
                    }
                ));
            }
        }
    }

    #[test]
    fn endpoint_in_block_fails() {
        let (mesh, b) = blocks_of(&[c2(3, 3), c2(4, 4)], 8, 8);
        // (3,4) is healthy but disabled.
        assert!(b.is_disabled(c2(3, 4)));
        assert!(mesh.is_healthy(c2(3, 4)));
        assert!(!b.minimal_path_exists(&mesh, c2(0, 0), c2(3, 4)));
    }
}
