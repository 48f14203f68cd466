//! The block-model closure as it ran before the frontier kernel of
//! `fault_model::rfb`, kept verbatim as a test oracle.
//!
//! Each outer round re-runs the "two or more faulty/disabled neighbors"
//! rule from a worklist seeded with every node, re-derives every connected
//! component's bounding box by BFS, merges intersecting boxes and fills
//! them, until a round changes nothing. `rfb_equiv.rs` asserts the
//! shipped kernel reproduces its disabled set, its block list (order
//! included) and its sacrificed count.

use mesh_topo::{Box3, Mesh2D, Mesh3D, NodeSet, NodeSpace2, NodeSpace3, Rect};

/// The rectangular-block closure of a 2-D mesh or torus.
pub struct RefBlocks2 {
    /// Faulty and disabled nodes.
    pub disabled: NodeSet,
    /// The maximal fault rectangles.
    pub blocks: Vec<Rect>,
    /// Healthy nodes disabled by the closure.
    pub sacrificed: usize,
}

/// The cuboid-block closure of a 3-D mesh or torus.
pub struct RefBlocks3 {
    /// Faulty and disabled nodes.
    pub disabled: NodeSet,
    /// The fault cuboids.
    pub blocks: Vec<Box3>,
    /// Healthy nodes disabled by the closure.
    pub sacrificed: usize,
}

impl RefBlocks2 {
    /// Compute the rectangular-block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh2D) -> RefBlocks2 {
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
        RefBlocks2 {
            sacrificed: disabled.len() - mesh.fault_count(),
            disabled,
            blocks,
        }
    }

    /// One pass of the "two or more faulty/disabled neighbors" rule to a
    /// fixpoint. Returns true if any node was newly disabled.
    pub fn close_rule(space: NodeSpace2, disabled: &mut NodeSet) -> bool {
        let rule = |set: &NodeSet, i: usize| {
            let mut n = 0;
            space.for_axis_neighbors(i, |j| n += set.contains(j) as usize);
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
            space.for_axis_neighbors(u, |v| {
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
                space.for_axis_neighbors(u, |v| {
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
}

impl RefBlocks3 {
    /// Compute the cuboid-block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh3D) -> RefBlocks3 {
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
        RefBlocks3 {
            sacrificed: disabled.len() - mesh.fault_count(),
            disabled,
            blocks,
        }
    }

    /// "Two or more faulty/disabled neighbors" rule, to a fixpoint.
    /// Returns true if any node was newly disabled.
    pub fn close_rule(space: NodeSpace3, disabled: &mut NodeSet) -> bool {
        let rule = |set: &NodeSet, i: usize| {
            let mut n = 0;
            space.for_axis_neighbors(i, |j| n += set.contains(j) as usize);
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
            space.for_axis_neighbors(u, |v| {
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
                space.for_axis_neighbors(u, |v| {
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
}
