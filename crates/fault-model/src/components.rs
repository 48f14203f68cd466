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
//! neighbors come from [`NodeSpace::for_region_neighbors`] (the
//! 8-neighborhood in 2-D, the 18-neighborhood in 3-D) — no
//! hashing, no per-node coordinate arithmetic beyond one decode per visit.
//! [`Components`] is written once over the coordinate type; [`Components2`] and
//! [`Components3`] are its two instantiations.

use mesh_topo::{Coord, NodeGrid, NodeSet, NodeSpace, C2, C3};

use crate::labelling::Labelling;

/// Sentinel for "not part of any component".
pub const NO_COMPONENT: u32 = u32::MAX;

/// How one [`Components::repair`] reshaped the component list. Every
/// component not named here kept its cells and its relative order; an
/// array with one entry per component follows the repair by applying the
/// same splice ([`Splice::apply`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Splice {
    /// Pre-repair positions of the removed components, ascending.
    pub removed: Vec<usize>,
    /// Post-repair positions of the re-discovered components, ascending.
    pub inserted: Vec<usize>,
}

impl Splice {
    /// The first position the splice changes, if it changes any.
    pub fn first_change(&self) -> Option<usize> {
        match (self.removed.first(), self.inserted.first()) {
            (Some(&r), Some(&i)) => Some(r.min(i)),
            (Some(&p), None) | (None, Some(&p)) => Some(p),
            (None, None) => None,
        }
    }

    /// Drop the removed entries of `v` and fill each inserted position `p`
    /// with `make(p)`, called in ascending `p`. Entries before
    /// [`first_change`](Splice::first_change) are not touched; the ones
    /// after it are moved, never read.
    pub fn apply<T>(&self, v: &mut Vec<T>, mut make: impl FnMut(usize) -> T) {
        let Some(first) = self.first_change() else {
            return;
        };
        let tail = v.split_off(first);
        let mut removed = self.removed.iter().peekable();
        let mut inserted = self.inserted.iter().peekable();
        for (old, item) in (first..).zip(tail) {
            while inserted.next_if_eq(&&v.len()).is_some() {
                v.push(make(v.len()));
            }
            if removed.next_if_eq(&&old).is_none() {
                v.push(item);
            }
        }
        while inserted.next_if_eq(&&v.len()).is_some() {
            v.push(make(v.len()));
        }
        debug_assert!(removed.next().is_none() && inserted.next().is_none());
    }
}

/// Component decomposition of the unsafe set of a labelling.
///
/// Components are numbered by *position* — their index in `cells`, which
/// is ascending by smallest member index, the order [`Components::compute`]
/// discovers them in. Internally each component also owns a stable
/// *handle*: the node grid stores handles, so a repair that shifts
/// positions rewrites two small tables instead of every shifted cell.
/// Handles depend on the churn history; positions do not, and they are all
/// the public API (including [`Debug`](std::fmt::Debug)) ever shows.
#[derive(Clone)]
pub struct Components<C: Coord> {
    space: NodeSpace<C>,
    /// Handle of each node's component, [`NO_COMPONENT`] if it is safe.
    handle: NodeGrid<u32>,
    /// Position of each handle; [`NO_COMPONENT`] for a free handle.
    position: Vec<u32>,
    /// Handle of each position.
    handle_at: Vec<u32>,
    /// Handles no component holds, reused last-freed first.
    free: Vec<u32>,
    /// Cells of each component, in discovery (BFS) order.
    pub cells: Vec<Vec<C>>,
}

/// Component decomposition of a 2-D labelling (8-connectivity).
pub type Components2 = Components<C2>;

/// Component decomposition of a 3-D labelling (18-connectivity).
pub type Components3 = Components<C3>;

impl<C: Coord> Components<C> {
    /// Decompose the unsafe set of `lab` into connected components.
    pub fn compute(lab: &Labelling<C>) -> Components<C> {
        let (space, unsafe_set) = (lab.space(), lab.unsafe_set());
        let mut handle = NodeGrid::new(space.len(), NO_COMPONENT);
        let mut cells = Vec::new();
        let mut queue = Vec::new();
        for start in unsafe_set.iter() {
            if handle[start] == NO_COMPONENT {
                let mark = cells.len() as u32;
                cells.push(discover(
                    space,
                    unsafe_set,
                    &mut handle,
                    start,
                    mark,
                    &mut queue,
                ));
            }
        }
        let position: Vec<u32> = (0..cells.len() as u32).collect();
        Components {
            space,
            handle,
            handle_at: position.clone(),
            position,
            free: Vec::new(),
            cells,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the unsafe set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Component id (position in `cells`) of canonical `c`, if it is
    /// unsafe.
    pub fn component_of(&self, c: C) -> Option<u32> {
        self.space
            .index_checked(c)
            .and_then(|i| self.position_at(i))
            .map(|p| p as u32)
    }

    /// Position of the component holding node index `i`, if it is unsafe.
    pub(crate) fn position_at(&self, i: usize) -> Option<usize> {
        match self.handle[i] {
            NO_COMPONENT => None,
            h => Some(self.position[h as usize] as usize),
        }
    }

    /// Incrementally repair the decomposition after a labelling repair:
    /// `lab` is the repaired labelling and `changed` any superset of the
    /// nodes whose unsafe membership flipped, such as the merged dirty
    /// regions of one or more [`Labelling::repair`] calls. Components
    /// touched by a flip — they lost a cell, or gained or became adjacent to
    /// one — are cleared and re-discovered with [`Components::compute`]'s
    /// BFS, then spliced into `cells` at their min-cell-index position found
    /// by binary search; no cell of any other component is read or written.
    /// Positions, component order and per-component cell order end up
    /// **bit-for-bit identical** to a from-scratch `Components::compute(lab)`
    /// (see DESIGN.md §12).
    ///
    /// Returns the [`Splice`] it applied to `cells`, which MCC repair
    /// replays on the MCC list.
    pub fn repair(&mut self, lab: &Labelling<C>, changed: &[usize]) -> Splice {
        let (space, unsafe_set) = (self.space, lab.unsafe_set());
        let mut removed: Vec<usize> = Vec::new();
        let mut added: Vec<usize> = Vec::new();
        for &i in changed {
            let now = unsafe_set.contains(i);
            match self.position_at(i) {
                None if now => {
                    added.push(i);
                    space.for_region_neighbors(i, |v| removed.extend(self.position_at(v)));
                }
                Some(p) if !now => removed.push(p),
                _ => {}
            }
        }
        if added.is_empty() && removed.is_empty() {
            return Splice::default();
        }
        removed.sort_unstable();
        removed.dedup();
        // Clear the affected components and collect the rebuild seeds:
        // their still-unsafe cells plus the newly unsafe nodes, ascending.
        let mut seeds = added;
        for &p in &removed {
            for &c in &self.cells[p] {
                let i = space.index(c);
                self.handle[i] = NO_COMPONENT;
                if unsafe_set.contains(i) {
                    seeds.push(i);
                }
            }
            let h = self.handle_at[p];
            self.position[h as usize] = NO_COMPONENT;
            self.free.push(h);
        }
        seeds.sort_unstable();
        seeds.dedup();
        // Re-discover inside the cleared region with compute()'s BFS. A
        // surviving component is never adjacent to the region: any bridge
        // runs through an added node, whose neighbor components were all
        // removed above — so the `NO_COMPONENT` guard confines the walk
        // exactly as in a full compute. Each seed that starts a component
        // is its smallest index (every cleared-and-unsafe node is a seed),
        // so the rebuilt components come out in min-cell-index order.
        let mut rebuilt: Vec<(u32, Vec<C>)> = Vec::new();
        let mut queue = Vec::new();
        for &start in &seeds {
            if self.handle[start] == NO_COMPONENT {
                let h = self.free.pop().unwrap_or_else(|| {
                    self.position.push(NO_COMPONENT);
                    self.position.len() as u32 - 1
                });
                let cells = discover(space, unsafe_set, &mut self.handle, start, h, &mut queue);
                rebuilt.push((h, cells));
            }
        }
        // Post-repair position of rebuilt component j: the pre-repair
        // components that start below it, minus the removed ones among
        // them, plus the j rebuilt components before it. The binary search
        // reads one first cell per probe, removed components included
        // (their cells are still in place and still ordered).
        let inserted: Vec<usize> = rebuilt
            .iter()
            .enumerate()
            .map(|(j, (_, cells))| {
                let start = space.index(cells[0]);
                let below = self.cells.partition_point(|c| space.index(c[0]) < start);
                below - removed.partition_point(|&r| r < below) + j
            })
            .collect();
        let splice = Splice { removed, inserted };
        let mut handles = rebuilt.iter().map(|&(h, _)| h);
        splice.apply(&mut self.handle_at, |_| {
            handles.next().expect("one per insert")
        });
        let mut rebuilt = rebuilt.into_iter().map(|(_, cells)| cells);
        splice.apply(&mut self.cells, |_| rebuilt.next().expect("one per insert"));
        if let Some(first) = splice.first_change() {
            for (p, &h) in self.handle_at.iter().enumerate().skip(first) {
                self.position[h as usize] = p as u32;
            }
        }
        splice
    }
}

/// Prints what [`Components::compute`] would build for the same unsafe set:
/// the node grid as positions, never the history-dependent handles, so two
/// decompositions of one labelling print identically however they were
/// reached.
impl<C: Coord> std::fmt::Debug for Components<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Positions<'a, C: Coord>(&'a Components<C>);
        impl<C: Coord> std::fmt::Debug for Positions<'_, C> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let ids = (0..self.0.handle.len())
                    .map(|i| self.0.position_at(i).map_or(NO_COMPONENT, |p| p as u32));
                f.debug_list().entries(ids).finish()
            }
        }
        f.debug_struct("Components")
            .field("space", &self.space)
            .field("id", &Positions(self))
            .field("cells", &self.cells)
            .finish()
    }
}

/// The component BFS: label every unsafe node reachable from `start`
/// through not-yet-labelled unsafe nodes with `mark`, and return them in
/// discovery order.
fn discover<C: Coord>(
    space: NodeSpace<C>,
    unsafe_set: &NodeSet,
    id: &mut NodeGrid<u32>,
    start: usize,
    mark: u32,
    queue: &mut Vec<usize>,
) -> Vec<C> {
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
    use mesh_topo::{Frame, Frame2, Frame3, Mesh, Mesh2D, Mesh3D};

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
    ) -> Splice {
        for &c in injected {
            assert!(mesh.inject_fault(c));
        }
        for &c in healed {
            assert!(mesh.heal_fault(c));
        }
        let changed = lab.repair(injected, healed);
        comps.repair(lab, &changed)
    }

    /// A repaired decomposition must be indistinguishable from a fresh one:
    /// same cells in the same order, and the same `component_of` on every
    /// node (a now-safe node must map to `None`).
    fn assert_comps_match<C: Coord>(lab: &Labelling<C>, comps: &Components<C>) {
        let fresh = Components::compute(lab);
        assert_eq!(comps.cells, fresh.cells, "cells/order diverged");
        let space = lab.space();
        for i in 0..space.len() {
            let c = space.coord(i);
            assert_eq!(
                comps.component_of(c),
                fresh.component_of(c),
                "component id diverged at {c}"
            );
        }
        assert_eq!(format!("{comps:?}"), format!("{fresh:?}"));
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

        let splice = churn_and_repair(&mut mesh, &mut lab, &mut comps, &[], &[c2(4, 4)]);
        assert_eq!(comps.len(), 3, "split must produce two bar components");
        assert_comps_match(&lab, &comps);
        // The bar was replaced by its two halves; the far (9,9) singleton
        // survived the split untouched, one position later.
        assert_eq!(
            splice,
            Splice {
                removed: vec![0],
                inserted: vec![0, 1]
            }
        );

        let splice = churn_and_repair(&mut mesh, &mut lab, &mut comps, &[c2(4, 4)], &[]);
        assert_eq!(comps.len(), 2, "re-injection must remerge the bars");
        assert_comps_match(&lab, &comps);
        assert_eq!(
            splice,
            Splice {
                removed: vec![0, 1],
                inserted: vec![0]
            }
        );
    }

    #[test]
    fn healing_the_first_and_injecting_a_last_component_shifts_every_position() {
        // Five singletons along the diagonal. One batch heals the
        // lowest-index one and injects a new highest-index one: every
        // surviving component moves down one position, and the new one
        // reuses the freed handle at the far end of the list.
        let mut mesh = Mesh2D::new(14, 14);
        for k in 0..5 {
            mesh.inject_fault(c2(2 * k + 1, 2 * k + 1));
        }
        let mut lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let mut comps = Components2::compute(&lab);
        assert_eq!(comps.len(), 5);

        let splice = churn_and_repair(&mut mesh, &mut lab, &mut comps, &[c2(12, 12)], &[c2(1, 1)]);
        assert_eq!(
            splice,
            Splice {
                removed: vec![0],
                inserted: vec![4]
            }
        );
        assert_eq!(
            comps.handle_at,
            vec![1, 2, 3, 4, 0],
            "handles follow the cells"
        );
        assert_comps_match(&lab, &comps);
        for k in 1..5 {
            assert_eq!(
                comps.component_of(c2(2 * k + 1, 2 * k + 1)),
                Some(k as u32 - 1)
            );
        }
        assert_eq!(comps.component_of(c2(12, 12)), Some(4));
        assert_eq!(comps.component_of(c2(1, 1)), None);

        // Undo it in two batches: the freed handles are reused, positions
        // keep following compute.
        churn_and_repair(&mut mesh, &mut lab, &mut comps, &[c2(1, 1)], &[]);
        assert_comps_match(&lab, &comps);
        churn_and_repair(&mut mesh, &mut lab, &mut comps, &[], &[c2(12, 12)]);
        assert_comps_match(&lab, &comps);
        assert_eq!(comps.len(), 5);
    }

    #[test]
    fn splice_moves_the_tail_and_keeps_the_head() {
        let splice = Splice {
            removed: vec![1, 4],
            inserted: vec![2, 3, 5],
        };
        let mut v = vec!["a", "b", "c", "d", "e"];
        let new = ["x", "y", "z"];
        let mut next = new.iter();
        splice.apply(&mut v, |_| next.next().unwrap());
        assert_eq!(v, ["a", "c", "x", "y", "d", "z"]);
        assert_eq!(splice.first_change(), Some(1));
        Splice::default().apply(&mut v, |_| unreachable!());
        assert_eq!(v.len(), 6);
    }

    /// Random churn through labelling and component repair, checked
    /// against recomputation after every batch.
    fn repair_tracks_compute_under_churn<C: Coord>(
        clean: Mesh<C>,
        seed: u64,
        draws: usize,
        rounds: usize,
    ) {
        use crate::testutil::{churn, with_random_faults};
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mesh = with_random_faults(clean, &mut rng, draws);
        let identity = Frame::identity(&mesh);
        let mut lab = Labelling::<C>::compute(&mesh, identity, BorderPolicy::BorderSafe);
        let mut comps = Components::compute(&lab);
        for _ in 0..rounds {
            let (injected, healed) = churn(&mut rng, &mut mesh, 3);
            let changed = lab.repair(&injected, &healed);
            comps.repair(&lab, &changed);
            assert_comps_match(&lab, &comps);
        }
    }

    #[test]
    fn repair_matches_compute_on_random_churn() {
        repair_tracks_compute_under_churn(Mesh2D::new(11, 8), 29, 14, 40);
        repair_tracks_compute_under_churn(Mesh2D::torus(11, 8), 30, 14, 40);
    }

    #[test]
    fn repair_matches_compute_on_random_churn_3d() {
        repair_tracks_compute_under_churn(Mesh3D::kary(6), 53, 18, 25);
        repair_tracks_compute_under_churn(Mesh3D::torus_kary(6), 54, 18, 25);
    }
}
