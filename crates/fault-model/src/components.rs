//! Connected components of unsafe nodes.
//!
//! Each connected component of the unsafe set is one fault region — under
//! the MCC labelling it is exactly one Minimal Connected Component.
//!
//! Connectivity is **8-connectivity** in 2-D and **18-connectivity** (face
//! plus planar-diagonal) in 3-D. Diagonally adjacent unsafe nodes share edge
//! nodes, so the paper's identification process walks them as one region;
//! the Figure 5 example fixes the 3-D flavor: its large MCC holds cells like
//! `(5,6,5)` and `(6,7,5)` (an XY-diagonal pair) while the space-diagonal
//! neighbor `(7,8,4)` forms its own MCC — exactly 18-connectivity.
//!
//! Discovery runs on the flat node-state layer: the labelling's
//! [`mesh_topo::NodeSet`] of unsafe nodes is scanned word-by-word for
//! unvisited seeds, and the BFS frontier holds linear node indices whose
//! neighbors come from [`Space::for_region_neighbors`]
//! ([`NodeSpace2::for_neighbors8`] / [`NodeSpace3::for_neighbors18`]) — no
//! hashing, no per-node coordinate arithmetic beyond one decode per visit.
//! [`Components`] is written once over the node space; [`Components2`] and
//! [`Components3`] are its two instantiations.

use mesh_topo::{NodeGrid, NodeSet, NodeSpace2, NodeSpace3, Space};

use crate::labelling::Labelling;

/// Sentinel for "not part of any component".
pub const NO_COMPONENT: u32 = u32::MAX;

/// Provenance of one component after an incremental repair
/// ([`Components::repair`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompSource {
    /// Fresh DFS re-discovery: membership or cell order may have changed.
    Rebuilt,
    /// Carried over intact from the pre-repair decomposition, where it was
    /// component `old` (only its id can have shifted).
    Carried {
        /// Index of this component before the repair.
        old: usize,
    },
}

/// Component decomposition of the unsafe set of a labelling.
#[derive(Clone, Debug)]
pub struct Components<S: Space> {
    space: S,
    id: NodeGrid<u32>,
    /// Cells of each component, in discovery (BFS) order.
    pub cells: Vec<Vec<S::Coord>>,
}

/// Component decomposition of a 2-D labelling (8-connectivity).
pub type Components2 = Components<NodeSpace2>;

/// Component decomposition of a 3-D labelling (18-connectivity).
pub type Components3 = Components<NodeSpace3>;

impl<S: Space> Components<S> {
    /// Decompose the unsafe set of `lab` into connected components.
    pub fn compute(lab: &Labelling<S>) -> Components<S> {
        let (space, unsafe_set) = (lab.space(), lab.unsafe_set());
        let mut id = NodeGrid::new(space.node_count(), NO_COMPONENT);
        let mut cells = Vec::new();
        let mut queue = Vec::new();
        for start in unsafe_set.iter() {
            if id[start] == NO_COMPONENT {
                let mark = cells.len() as u32;
                cells.push(discover(
                    space, unsafe_set, &mut id, start, mark, &mut queue,
                ));
            }
        }
        Components { space, id, cells }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the unsafe set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Component id of canonical `c`, if it is unsafe.
    pub fn component_of(&self, c: S::Coord) -> Option<u32> {
        match self.space.index_checked(c).map(|i| self.id[i]) {
            Some(i) if i != NO_COMPONENT => Some(i),
            _ => None,
        }
    }

    /// Incrementally repair the decomposition after a labelling repair:
    /// `lab` is the repaired labelling and `changed` the sorted dirty
    /// region [`Labelling::repair`] returned. Components touched by a
    /// membership flip — they lost a cell, or gained or became adjacent to
    /// one — are re-discovered with [`Components::compute`]'s exact DFS;
    /// the rest are carried over, renumbered into the same min-cell-index
    /// order `compute` emits. Ids, component order and per-component cell
    /// order end up **bit-for-bit identical** to a from-scratch
    /// `Components::compute(lab)` (see DESIGN.md §12).
    ///
    /// Returns the provenance of every post-repair component — the input
    /// MCC repair needs to decide which shapes to re-extract.
    pub fn repair(&mut self, lab: &Labelling<S>, changed: &[usize]) -> Vec<CompSource> {
        let (space, unsafe_set) = (self.space, lab.unsafe_set());
        let (id, cells) = (&mut self.id, &mut self.cells);
        let mut affected: Vec<u32> = Vec::new();
        let mut added: Vec<usize> = Vec::new();
        for &i in changed {
            let now = unsafe_set.contains(i);
            let was = id[i] != NO_COMPONENT;
            if now && !was {
                added.push(i);
                space.for_region_neighbors(i, |v| {
                    if id[v] != NO_COMPONENT {
                        affected.push(id[v]);
                    }
                });
            } else if !now && was {
                affected.push(id[i]);
            }
        }
        if added.is_empty() && affected.is_empty() {
            return (0..cells.len())
                .map(|old| CompSource::Carried { old })
                .collect();
        }
        affected.sort_unstable();
        affected.dedup();
        // Clear the affected components and collect the rebuild seeds:
        // their still-unsafe cells plus the newly unsafe nodes, ascending.
        let mut seeds = added;
        for &a in &affected {
            for &c in &cells[a as usize] {
                let i = space.index(c);
                id[i] = NO_COMPONENT;
                if unsafe_set.contains(i) {
                    seeds.push(i);
                }
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        // Re-discover inside the cleared region with compute()'s DFS. A
        // surviving component is never adjacent to the region: any bridge
        // runs through an added node, whose neighbor components were all
        // marked affected above — so the `id[v] == NO_COMPONENT` guard
        // confines the walk exactly as in a full compute.
        let mut rebuilt: Vec<Vec<S::Coord>> = Vec::new();
        let mut queue = Vec::new();
        for &start in &seeds {
            if id[start] == NO_COMPONENT {
                let mark = (cells.len() + rebuilt.len()) as u32;
                rebuilt.push(discover(space, unsafe_set, id, start, mark, &mut queue));
            }
        }
        // Merge survivors and rebuilds in min-cell-index order — the order
        // compute() discovers components in (each seed above, like each
        // compute() seed, is its component's smallest index) — rewriting
        // ids only where they differ from the pre-repair value.
        let mut affected_mask = vec![false; cells.len()];
        for &a in &affected {
            affected_mask[a as usize] = true;
        }
        let survivors: Vec<(usize, Vec<S::Coord>)> = std::mem::take(cells)
            .into_iter()
            .enumerate()
            .filter(|&(o, _)| !affected_mask[o])
            .collect();
        let total = survivors.len() + rebuilt.len();
        let mut sources: Vec<CompSource> = Vec::with_capacity(total);
        cells.reserve(total);
        let mut sv = survivors.into_iter().peekable();
        let mut rb = rebuilt.into_iter().peekable();
        loop {
            let take_survivor = match (sv.peek(), rb.peek()) {
                (Some((_, sc)), Some(rc)) => space.index(sc[0]) < space.index(rc[0]),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let new_id = cells.len() as u32;
            let (source, comp_cells, moved) = if take_survivor {
                let (old, comp_cells) = sv.next().expect("peeked");
                (
                    CompSource::Carried { old },
                    comp_cells,
                    old != new_id as usize,
                )
            } else {
                (CompSource::Rebuilt, rb.next().expect("peeked"), true)
            };
            if moved {
                for &c in &comp_cells {
                    id[space.index(c)] = new_id;
                }
            }
            sources.push(source);
            cells.push(comp_cells);
        }
        sources
    }
}

/// The component BFS: label every unsafe node reachable from `start`
/// through not-yet-labelled unsafe nodes with `mark`, and return them in
/// discovery order.
fn discover<S: Space>(
    space: S,
    unsafe_set: &NodeSet,
    id: &mut NodeGrid<u32>,
    start: usize,
    mark: u32,
    queue: &mut Vec<usize>,
) -> Vec<S::Coord> {
    let mut cells = Vec::new();
    queue.clear();
    queue.push(start);
    id[start] = mark;
    while let Some(u) = queue.pop() {
        cells.push(space.coord(u));
        space.for_region_neighbors(u, |v| {
            if unsafe_set.contains(v) && id[v] == NO_COMPONENT {
                id[v] = mark;
                queue.push(v);
            }
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::{Labelling2, Labelling3};
    use crate::status::BorderPolicy;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2};

    #[test]
    fn two_isolated_faults_two_components() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(2, 2));
        mesh.inject_fault(c2(7, 7));
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let comps = Components2::compute(&lab);
        assert_eq!(comps.len(), 2);
        assert_ne!(comps.component_of(c2(2, 2)), comps.component_of(c2(7, 7)));
        assert_eq!(comps.component_of(c2(5, 5)), None);
    }

    #[test]
    fn closure_merges_antidiagonal_faults() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 6));
        mesh.inject_fault(c2(6, 5));
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let comps = Components2::compute(&lab);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps.cells[0].len(), 4);
    }

    #[test]
    fn figure5_has_two_components() {
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
        let comps = Components3::compute(&lab);
        // Paper: "One MCC contains only one faulty node (7,8,4) and the other
        // MCC contains all the other unsafe nodes."
        assert_eq!(comps.len(), 2);
        let big = comps.component_of(c3(5, 5, 5)).unwrap();
        let small = comps.component_of(c3(7, 8, 4)).unwrap();
        assert_ne!(big, small);
        let big_cells = &comps.cells[big as usize];
        assert_eq!(big_cells.len(), 9); // 7 faults + useless + can't-reach
        assert_eq!(comps.cells[small as usize].len(), 1);
    }

    #[test]
    fn all_cells_have_consistent_ids() {
        let mut mesh = Mesh2D::new(12, 12);
        for c in [c2(3, 4), c2(4, 3), c2(4, 4), c2(8, 8), c2(8, 9)] {
            mesh.inject_fault(c);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let comps = Components2::compute(&lab);
        for (i, cells) in comps.cells.iter().enumerate() {
            for &c in cells {
                assert_eq!(comps.component_of(c), Some(i as u32));
            }
        }
        let total: usize = comps.cells.iter().map(|c| c.len()).sum();
        assert_eq!(total, lab.unsafe_count());
    }

    #[test]
    fn empty_mesh_no_components() {
        let mesh = Mesh3D::kary(4);
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        assert!(Components3::compute(&lab).is_empty());
    }

    fn churn_and_repair(
        mesh: &mut Mesh2D,
        lab: &mut Labelling2,
        comps: &mut Components2,
        injected: &[C2],
        healed: &[C2],
    ) -> Vec<CompSource> {
        for &c in injected {
            assert!(mesh.inject_fault(c));
        }
        for &c in healed {
            assert!(mesh.heal_fault(c));
        }
        let changed = lab.repair(injected, healed);
        comps.repair(lab, &changed)
    }

    fn assert_comps_match<S: Space>(lab: &Labelling<S>, comps: &Components<S>) {
        let fresh = Components::compute(lab);
        assert_eq!(comps.cells, fresh.cells, "cells/order diverged");
        assert_eq!(comps.id, fresh.id, "id grid diverged");
    }

    #[test]
    fn component_split_then_remerge_tracks_compute() {
        // A 3-cell bar at y=4: healing the middle cell splits the region in
        // two; re-injecting it merges them back. Ids, component order and
        // cell order must track a from-scratch compute at every step.
        let mut mesh = Mesh2D::new(12, 12);
        for c in [c2(3, 4), c2(4, 4), c2(5, 4), c2(9, 9)] {
            mesh.inject_fault(c);
        }
        let mut lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let mut comps = Components2::compute(&lab);
        assert_eq!(comps.len(), 2);

        let sources = churn_and_repair(&mut mesh, &mut lab, &mut comps, &[], &[c2(4, 4)]);
        assert_eq!(comps.len(), 3, "split must produce two bar components");
        assert_comps_match(&lab, &comps);
        // The far (9,9) singleton survived the split untouched.
        assert!(sources.contains(&CompSource::Carried { old: 1 }));

        let sources = churn_and_repair(&mut mesh, &mut lab, &mut comps, &[c2(4, 4)], &[]);
        assert_eq!(comps.len(), 2, "re-injection must remerge the bars");
        assert_comps_match(&lab, &comps);
        assert_eq!(
            sources,
            vec![CompSource::Rebuilt, CompSource::Carried { old: 2 }]
        );
    }

    #[test]
    fn repair_matches_compute_on_random_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            let (w, h) = (11, 8);
            let mut mesh = if torus {
                Mesh2D::torus(w, h)
            } else {
                Mesh2D::new(w, h)
            };
            let mut rng = SmallRng::seed_from_u64(29 + torus as u64);
            for _ in 0..14 {
                mesh.inject_fault(c2(rng.gen_range(0..w), rng.gen_range(0..h)));
            }
            let mut lab =
                Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
            let mut comps = Components2::compute(&lab);
            for _ in 0..40 {
                let mut injected = Vec::new();
                let mut healed = Vec::new();
                for _ in 0..rng.gen_range(0..3) {
                    let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
                    if mesh.is_healthy(c) && !injected.contains(&c) {
                        injected.push(c);
                    }
                }
                let faults = mesh.faults().to_vec();
                for _ in 0..rng.gen_range(0..3) {
                    let c = faults[rng.gen_range(0..faults.len())];
                    if !healed.contains(&c) {
                        healed.push(c);
                    }
                }
                churn_and_repair(&mut mesh, &mut lab, &mut comps, &injected, &healed);
                assert_comps_match(&lab, &comps);
            }
        }
    }

    #[test]
    fn repair_matches_compute_on_random_churn_3d() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            let k = 6;
            let mut mesh = if torus {
                Mesh3D::torus_kary(k)
            } else {
                Mesh3D::kary(k)
            };
            let mut rng = SmallRng::seed_from_u64(53 + torus as u64);
            for _ in 0..18 {
                mesh.inject_fault(c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                ));
            }
            let mut lab =
                Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            let mut comps = Components3::compute(&lab);
            for _ in 0..25 {
                let mut injected = Vec::new();
                let mut healed = Vec::new();
                for _ in 0..rng.gen_range(0..3) {
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
                for _ in 0..rng.gen_range(0..3) {
                    let c = faults[rng.gen_range(0..faults.len())];
                    if !healed.contains(&c) {
                        healed.push(c);
                    }
                }
                for &c in &injected {
                    assert!(mesh.inject_fault(c));
                }
                for &c in &healed {
                    assert!(mesh.heal_fault(c));
                }
                let changed = lab.repair(&injected, &healed);
                comps.repair(&lab, &changed);
                assert_comps_match(&lab, &comps);
            }
        }
    }
}
