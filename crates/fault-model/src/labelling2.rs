//! Algorithm 1 — the MCC labelling closure in 2-D meshes.
//!
//! For a routing from `(0,0)` toward a destination in the all-positive
//! quadrant (after [`Frame2`] canonicalization):
//!
//! 1. faulty nodes are labelled *faulty*, all others *safe*;
//! 2. a safe node whose `+X` **and** `+Y` neighbors are faulty-or-useless
//!    becomes *useless*;
//! 3. a safe node whose `-X` **and** `-Y` neighbors are faulty-or-can't-reach
//!    becomes *can't-reach*;
//! 4. repeat until no new label.
//!
//! The closure runs on the flat node-state layer
//! ([`mesh_topo::nodeset`]) as **two raster sweeps** over a dense status
//! array, not as a worklist: rule 2 makes a node's label depend only on its
//! `+X` and `+Y` neighbors, so one sweep in decreasing `(y, x)` order sees
//! every dependency already finalized and reaches the fixpoint in a single
//! pass; rule 3 is the mirror image, one sweep in increasing order. Each
//! sweep is a linear scan of a flat `u8` array — O(V) with perfect cache
//! behavior and no per-node hashing or queueing. The hash-based worklist
//! formulation is preserved in [`crate::reference`] and property-tested
//! equal.
//!
//! On a **torus** the rules read the wrapped neighbors, whose ring cycles
//! defeat the single-pass argument: the sweeps iterate until quiescent
//! (extra passes only when a label chain crosses the wrap seam), and the
//! fixpoint is property-tested equal to the definitional worklist closure
//! over the wrapped neighbor relation (`tests/properties.rs`).

use mesh_topo::{Frame2, Mesh2D, NodeGrid, NodeSet, NodeSpace2, C2};

use crate::status::{BorderPolicy, NodeStatus};

/// The fixpoint of Algorithm 1 for one quadrant orientation of a mesh.
///
/// All coordinates exposed by this type are **canonical** (post-reflection);
/// use [`Labelling2::frame`] to translate to and from mesh coordinates.
#[derive(Clone, Debug)]
pub struct Labelling2 {
    frame: Frame2,
    policy: BorderPolicy,
    space: NodeSpace2,
    status: NodeGrid<NodeStatus>,
    unsafe_set: NodeSet,
}

impl Labelling2 {
    /// Run the labelling closure for `mesh` under `frame`.
    pub fn compute(mesh: &Mesh2D, frame: Frame2, policy: BorderPolicy) -> Labelling2 {
        let space = mesh.space();
        let mut status = NodeGrid::new(space.len(), NodeStatus::SAFE);
        for &f in mesh.faults() {
            status[space.index(frame.to_canon(f))] = NodeStatus::FAULT;
        }

        let border_blocks = matches!(policy, BorderPolicy::BorderBlocked);
        let w = space.width() as usize;
        let h = space.height() as usize;
        let wraps = space.wraps();
        let s = status.as_mut_slice();

        useless_fixpoint(s, w, h, wraps, border_blocks);
        cant_reach_fixpoint(s, w, h, wraps, border_blocks);

        let mut unsafe_set = NodeSet::new(space.len());
        for (i, st) in status.iter() {
            if st.is_unsafe() {
                unsafe_set.insert(i);
            }
        }
        Labelling2 {
            frame,
            policy,
            space,
            status,
            unsafe_set,
        }
    }

    /// Run the labelling for the canonical pair `(s, d)` in mesh coordinates:
    /// picks the quadrant frame for the pair and computes the closure.
    pub fn for_pair(mesh: &Mesh2D, s: C2, d: C2, policy: BorderPolicy) -> Labelling2 {
        Labelling2::compute(mesh, Frame2::for_pair(mesh, s, d), policy)
    }

    /// The quadrant frame this labelling was computed under.
    #[inline]
    pub fn frame(&self) -> Frame2 {
        self.frame
    }

    /// The border policy used.
    #[inline]
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The linear index space of the underlying mesh (canonical coords).
    #[inline]
    pub fn space(&self) -> NodeSpace2 {
        self.space
    }

    /// Status of the node at **canonical** coordinate `c`.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    #[inline]
    pub fn status(&self, c: C2) -> NodeStatus {
        self.status[self.space.index(c)]
    }

    /// Status at canonical `c`, or `None` if outside the mesh.
    #[inline]
    pub fn status_get(&self, c: C2) -> Option<NodeStatus> {
        self.space.index_checked(c).map(|i| self.status[i])
    }

    /// True if canonical `c` is inside the mesh and unsafe.
    #[inline]
    pub fn is_unsafe(&self, c: C2) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.unsafe_set.contains(i))
    }

    /// True if canonical `c` is inside the mesh and safe.
    #[inline]
    pub fn is_safe(&self, c: C2) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.unsafe_set.contains(i))
    }

    /// Status of the node at **mesh** coordinate `c`.
    #[inline]
    pub fn status_mesh(&self, c: C2) -> NodeStatus {
        self.status[self.space.index(self.frame.to_canon(c))]
    }

    /// The unsafe nodes (faulty + labelled) as a bitset over
    /// [`Labelling2::space`] — the flat input of component discovery.
    #[inline]
    pub fn unsafe_set(&self) -> &NodeSet {
        &self.unsafe_set
    }

    /// Total number of unsafe nodes (faulty + labelled).
    #[inline]
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_set.len()
    }

    /// Number of healthy nodes labelled unsafe (useless and/or can't-reach):
    /// the "sacrificed" nodes the evaluation counts.
    pub fn sacrificed_count(&self) -> usize {
        self.unsafe_set
            .iter()
            .filter(|&i| !self.status[i].is_faulty())
            .count()
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> i32 {
        self.space.width()
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> i32 {
        self.space.height()
    }

    /// Iterate `(canonical coordinate, status)` for all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (C2, NodeStatus)> + '_ {
        self.space
            .coords()
            .zip(self.status.as_slice().iter().copied())
    }

    /// Incrementally repair this labelling after a fault-churn batch on the
    /// underlying mesh: `injected` went healthy→faulty and `healed`
    /// faulty→healthy (both in **mesh** coordinates, like
    /// [`Mesh2D::faults`]; the lists must be disjoint and duplicate-free).
    /// Afterwards every status, and the unsafe set, is **bit-for-bit
    /// equal** to a from-scratch [`Labelling2::compute`] on the churned
    /// mesh — see DESIGN.md §12 for the least-fixpoint argument.
    ///
    /// Small perturbations run a node-granular worklist: labels whose
    /// justification may depend on a healed node are retracted by a flood
    /// over the label's reader direction, then both closures re-propagate
    /// from the perturbed seeds only — O(perturbation + retraction cone),
    /// independent of mesh size. Once the batch is a sizeable fraction of
    /// the mesh (`1/`[`BULK_REPAIR_FANOUT`]) the worklist's per-node
    /// overhead loses to the raster sweeps and the repair falls back to
    /// relabelling with the sweeps [`Labelling2::compute`] uses. Both tiers
    /// return the same statuses and the same changed list; the tier
    /// cut-over is a pure function of batch and mesh size.
    ///
    /// Returns the canonical indices whose status byte changed, sorted
    /// ascending — the dirty region that drives component and MCC repair.
    pub fn repair(&mut self, injected: &[C2], healed: &[C2]) -> Vec<usize> {
        let space = self.space;
        let frame = self.frame;
        let inj: Vec<usize> = injected
            .iter()
            .map(|&c| space.index(frame.to_canon(c)))
            .collect();
        let heal: Vec<usize> = healed
            .iter()
            .map(|&c| space.index(frame.to_canon(c)))
            .collect();
        if inj.is_empty() && heal.is_empty() {
            return Vec::new();
        }
        let mut changed = if (inj.len() + heal.len()) * BULK_REPAIR_FANOUT >= space.len() {
            self.repair_bulk(&inj, &heal)
        } else {
            self.repair_worklist(&inj, &heal)
        };
        changed.sort_unstable();
        for &i in &changed {
            if self.status[i].is_unsafe() {
                self.unsafe_set.insert(i);
            } else {
                self.unsafe_set.remove(i);
            }
        }
        changed
    }

    /// Node-granular repair tier. Returns the changed indices, unsorted.
    fn repair_worklist(&mut self, inj: &[usize], heal: &[usize]) -> Vec<usize> {
        let w = self.space.width() as usize;
        let h = self.space.height() as usize;
        let wraps = self.space.wraps();
        let border_blocks = matches!(self.policy, BorderPolicy::BorderBlocked);
        let s = self.status.as_mut_slice();

        #[cfg(test)]
        let skip_retraction = mutation::SKIP_HEAL_RETRACTION.with(|c| c.get());
        #[cfg(not(test))]
        let skip_retraction = false;

        // `(index, status at first touch)`: every mutation below pushes the
        // node's pre-mutation status first, so after a stable sort the first
        // entry per index holds the true pre-churn status and the rest are
        // intermediate states the dedup drops.
        let mut touched: Vec<(usize, NodeStatus)> = Vec::new();
        for &i in heal {
            debug_assert!(s[i].is_faulty(), "healed node was not faulty");
            touched.push((i, s[i]));
            s[i] = NodeStatus::SAFE;
        }
        for &i in inj {
            debug_assert!(!s[i].is_faulty(), "injected node was already faulty");
            touched.push((i, s[i]));
            s[i] = NodeStatus::FAULT;
        }

        // Readers of node `i` per closure: the nodes whose rule input
        // includes `i` — the wrapped `-X`/`-Y` neighbors for useless
        // (rule 2 reads `+X`/`+Y`), the wrapped `+X`/`+Y` neighbors for
        // can't-reach. Mirrors the sweep formulas exactly.
        let readers_useless = |i: usize, f: &mut dyn FnMut(usize)| {
            let (x, y) = (i % w, i / w);
            if x > 0 {
                f(i - 1);
            } else if wraps {
                f(i + w - 1);
            }
            if y > 0 {
                f(i - w);
            } else if wraps {
                f(x + w * (h - 1));
            }
        };
        let readers_cant_reach = |i: usize, f: &mut dyn FnMut(usize)| {
            let (x, y) = (i % w, i / w);
            if x + 1 < w {
                f(i + 1);
            } else if wraps {
                f(i - x);
            }
            if y + 1 < h {
                f(i + w);
            } else if wraps {
                f(x);
            }
        };
        let useless_fires = |s: &[NodeStatus], i: usize| {
            let (x, y) = (i % w, i / w);
            let row = i - x;
            let xp = if x + 1 < w {
                s[i + 1].blocks_forward()
            } else if wraps {
                s[row].blocks_forward()
            } else {
                border_blocks
            };
            let yp = if y + 1 < h {
                s[i + w].blocks_forward()
            } else if wraps {
                s[x].blocks_forward()
            } else {
                border_blocks
            };
            xp && yp
        };
        let cant_reach_fires = |s: &[NodeStatus], i: usize| {
            let (x, y) = (i % w, i / w);
            let row = i - x;
            let xm = if x > 0 {
                s[i - 1].blocks_backward()
            } else if wraps {
                s[row + w - 1].blocks_backward()
            } else {
                border_blocks
            };
            let ym = if y > 0 {
                s[i - w].blocks_backward()
            } else if wraps {
                s[x + w * (h - 1)].blocks_backward()
            } else {
                border_blocks
            };
            xm && ym
        };

        // Useless closure: retract the reader cone of every healed node
        // (clearing doubles as the visited mark), then re-propagate from
        // the cleared nodes, the healed nodes themselves, and the readers
        // of injected nodes. Injection is monotone (a faulty node still
        // blocks both closures), so it never needs retraction.
        let mut stack: Vec<usize> = Vec::new();
        let mut work: Vec<usize> = Vec::new();
        if !skip_retraction {
            for &i in heal {
                readers_useless(i, &mut |j| {
                    if s[j].is_useless() {
                        stack.push(j);
                    }
                });
            }
            while let Some(i) = stack.pop() {
                if !s[i].is_useless() {
                    continue;
                }
                touched.push((i, s[i]));
                s[i].clear_useless();
                work.push(i);
                readers_useless(i, &mut |j| {
                    if s[j].is_useless() {
                        stack.push(j);
                    }
                });
            }
        }
        work.extend_from_slice(heal);
        for &i in inj {
            readers_useless(i, &mut |j| work.push(j));
        }
        while let Some(i) = work.pop() {
            if s[i].blocks_forward() {
                continue;
            }
            if useless_fires(s, i) {
                touched.push((i, s[i]));
                s[i].mark_useless();
                readers_useless(i, &mut |j| work.push(j));
            }
        }

        // Can't-reach closure: the independent mirror image.
        debug_assert!(stack.is_empty() && work.is_empty());
        for &i in heal {
            readers_cant_reach(i, &mut |j| {
                if s[j].is_cant_reach() {
                    stack.push(j);
                }
            });
        }
        while let Some(i) = stack.pop() {
            if !s[i].is_cant_reach() {
                continue;
            }
            touched.push((i, s[i]));
            s[i].clear_cant_reach();
            work.push(i);
            readers_cant_reach(i, &mut |j| {
                if s[j].is_cant_reach() {
                    stack.push(j);
                }
            });
        }
        work.extend_from_slice(heal);
        for &i in inj {
            readers_cant_reach(i, &mut |j| work.push(j));
        }
        while let Some(i) = work.pop() {
            if s[i].blocks_backward() {
                continue;
            }
            if cant_reach_fires(s, i) {
                touched.push((i, s[i]));
                s[i].mark_cant_reach();
                readers_cant_reach(i, &mut |j| work.push(j));
            }
        }

        touched.sort_by_key(|&(i, _)| i);
        touched.dedup_by_key(|&mut (i, _)| i);
        touched
            .into_iter()
            .filter(|&(i, old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }

    /// Bulk repair tier: reset every label bit and rerun the closures over
    /// the whole grid. The changed list comes from diffing a pre-churn
    /// snapshot.
    fn repair_bulk(&mut self, inj: &[usize], heal: &[usize]) -> Vec<usize> {
        let w = self.space.width() as usize;
        let h = self.space.height() as usize;
        let wraps = self.space.wraps();
        let border_blocks = matches!(self.policy, BorderPolicy::BorderBlocked);
        let snapshot = self.status.as_slice().to_vec();
        let s = self.status.as_mut_slice();
        for &i in heal {
            debug_assert!(s[i].is_faulty(), "healed node was not faulty");
            s[i] = NodeStatus::SAFE;
        }
        for &i in inj {
            debug_assert!(!s[i].is_faulty(), "injected node was already faulty");
            s[i] = NodeStatus::FAULT;
        }
        for st in s.iter_mut() {
            *st = if st.is_faulty() {
                NodeStatus::FAULT
            } else {
                NodeStatus::SAFE
            };
        }
        useless_fixpoint(s, w, h, wraps, border_blocks);
        cant_reach_fixpoint(s, w, h, wraps, border_blocks);
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Perturbation-size fanout above which [`Labelling2::repair`] (and its
/// 3-D twin) abandons the node-granular worklist for a full relabel:
/// batches of `≥ nodes / BULK_REPAIR_FANOUT` flips re-sweep the grid.
pub const BULK_REPAIR_FANOUT: usize = 48;

/// Test-only fault injection for the mutation-style negative tests: prove
/// the churn equivalence gates actually bite by disabling one invalidation
/// path and watching them fail (see `crate::incremental` unit tests).
#[cfg(test)]
pub(crate) mod mutation {
    use std::cell::Cell;
    thread_local! {
        /// When set on the calling thread, [`super::Labelling2::repair`]
        /// skips the heal-retraction flood of the useless closure — exactly
        /// the silent-staleness bug the equivalence battery must catch.
        pub static SKIP_HEAL_RETRACTION: Cell<bool> = const { Cell::new(false) };
    }
}

/// The useless closure over the whole grid, sequential. On a mesh
/// (`wraps == false`) rule 2 depends only on the `+X`/`+Y` neighbors,
/// which a decreasing-`(y, x)` sweep has already finalized, so the loop
/// runs exactly one pass. On a torus the rules read the wrapped
/// neighbors, whose ring cycles defeat the single-pass argument: the
/// sweep iterates until quiescent (extra passes only when a label chain
/// crosses the wrap seam), and the border policy is irrelevant (a torus
/// has no border, so `border_blocks` is never read).
fn useless_fixpoint(s: &mut [NodeStatus], w: usize, h: usize, wraps: bool, border_blocks: bool) {
    loop {
        let mut changed = false;
        for y in (0..h).rev() {
            let row = y * w;
            for x in (0..w).rev() {
                let i = row + x;
                if s[i].blocks_forward() {
                    continue;
                }
                let xp = if x + 1 < w {
                    s[i + 1].blocks_forward()
                } else if wraps {
                    s[row].blocks_forward()
                } else {
                    border_blocks
                };
                let yp = if y + 1 < h {
                    s[i + w].blocks_forward()
                } else if wraps {
                    s[x].blocks_forward()
                } else {
                    border_blocks
                };
                if xp && yp {
                    s[i].mark_useless();
                    changed = true;
                }
            }
        }
        if !(wraps && changed) {
            break;
        }
    }
}

/// The can't-reach mirror of [`useless_fixpoint`]: `-X`/`-Y`
/// dependencies, increasing-`(y, x)` sweep.
fn cant_reach_fixpoint(s: &mut [NodeStatus], w: usize, h: usize, wraps: bool, border_blocks: bool) {
    loop {
        let mut changed = false;
        for y in 0..h {
            let row = y * w;
            for x in 0..w {
                let i = row + x;
                if s[i].blocks_backward() {
                    continue;
                }
                let xm = if x > 0 {
                    s[i - 1].blocks_backward()
                } else if wraps {
                    s[row + w - 1].blocks_backward()
                } else {
                    border_blocks
                };
                let ym = if y > 0 {
                    s[i - w].blocks_backward()
                } else if wraps {
                    s[x + w * (h - 1)].blocks_backward()
                } else {
                    border_blocks
                };
                if xm && ym {
                    s[i].mark_cant_reach();
                    changed = true;
                }
            }
        }
        if !(wraps && changed) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;

    fn lab(mesh: &Mesh2D) -> Labelling2 {
        Labelling2::compute(mesh, Frame2::identity(mesh), BorderPolicy::BorderSafe)
    }

    #[test]
    fn fault_free_mesh_is_all_safe() {
        let mesh = Mesh2D::new(8, 8);
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 0);
        assert!(l.iter().all(|(_, s)| s.is_safe()));
    }

    #[test]
    fn single_fault_labels_nothing_else() {
        let mut mesh = Mesh2D::new(8, 8);
        mesh.inject_fault(c2(4, 4));
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 1);
        assert_eq!(l.sacrificed_count(), 0);
        assert!(l.status(c2(4, 4)).is_faulty());
    }

    #[test]
    fn antidiagonal_pair_fills_corners() {
        // Faults at (5,6) and (6,5): (5,5) gets useless (+X and +Y faulty),
        // (6,6) gets can't-reach (-X and -Y faulty).
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 6));
        mesh.inject_fault(c2(6, 5));
        let l = lab(&mesh);
        assert!(l.status(c2(5, 5)).is_useless());
        assert!(l.status(c2(6, 6)).is_cant_reach());
        assert_eq!(l.unsafe_count(), 4);
        assert_eq!(l.sacrificed_count(), 2);
    }

    #[test]
    fn main_diagonal_pair_stays_separate() {
        // Faults at (5,5) and (6,6) do not interact (the "/" orientation).
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        mesh.inject_fault(c2(6, 6));
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 2);
        assert_eq!(l.sacrificed_count(), 0);
    }

    #[test]
    fn useless_cascade() {
        // A column of faults at x=6 and a row of faults at y=6 with a safe
        // pocket in the corner: the pocket cell (5,5) is useless, and the
        // cascade continues to (4,4)? No — only if both its +X and +Y are
        // unsafe. Construct an L that forces a 2-step cascade.
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(6, 5), c2(6, 4), c2(5, 6), c2(4, 6)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        // (5,5): +X=(6,5) faulty, +Y=(5,6) faulty -> useless.
        assert!(l.status(c2(5, 5)).is_useless());
        // (4,5): +X=(5,5) useless, +Y=(4,6) faulty -> useless.
        assert!(l.status(c2(4, 5)).is_useless());
        // (5,4): +X=(6,4) faulty, +Y=(5,5) useless -> useless.
        assert!(l.status(c2(5, 4)).is_useless());
        // (4,4): +X=(5,4) useless, +Y=(4,5) useless -> useless.
        assert!(l.status(c2(4, 4)).is_useless());
        // (3,3) is not: +X=(4,3) safe.
        assert!(l.status(c2(3, 3)).is_safe());
    }

    #[test]
    fn cant_reach_pocket() {
        // Wall on -X and -Y of a pocket: (6,6) with faults at (5,6) and (6,5).
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(5, 6), c2(6, 5), c2(5, 7), c2(7, 5)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        assert!(l.status(c2(6, 6)).is_cant_reach());
        // (6,7): -X=(5,7) faulty, -Y=(6,6) cant-reach -> cant-reach.
        assert!(l.status(c2(6, 7)).is_cant_reach());
        assert!(l.status(c2(7, 6)).is_cant_reach());
        assert!(l.status(c2(7, 7)).is_cant_reach());
    }

    #[test]
    fn border_safe_policy_keeps_far_corner_safe() {
        let mut mesh = Mesh2D::new(8, 8);
        mesh.inject_fault(c2(3, 3));
        let l = lab(&mesh);
        // With BorderSafe the mesh corner (7,7) must stay safe.
        assert!(l.status(c2(7, 7)).is_safe());
    }

    #[test]
    fn border_blocked_policy_cascades_from_corner() {
        let mesh = {
            let mut m = Mesh2D::new(4, 4);
            // no faults needed; the border itself blocks
            m.inject_fault(c2(0, 0)); // keep one fault so closure has work
            m
        };
        let l = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderBlocked);
        // (3,3): +X and +Y out of mesh -> useless under BorderBlocked.
        assert!(l.status(c2(3, 3)).is_useless());
    }

    #[test]
    fn frame_reflection_relabels() {
        // A fault pattern that is "/"-oriented for the identity frame is
        // "\"-oriented after an X flip, so the labelling differs.
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 5));
        mesh.inject_fault(c2(6, 6));
        let id = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        assert_eq!(id.sacrificed_count(), 0);
        let flipped = Frame2::for_pair(&mesh, c2(9, 0), c2(0, 9)); // flip_x
        let lf = Labelling2::compute(&mesh, flipped, BorderPolicy::BorderSafe);
        assert_eq!(lf.sacrificed_count(), 2);
        // In mesh coordinates the filled cells are (6,5) and (5,6).
        assert!(lf.status_mesh(c2(6, 5)).is_unsafe());
        assert!(lf.status_mesh(c2(5, 6)).is_unsafe());
    }

    #[test]
    fn status_mesh_matches_canonical() {
        let mut mesh = Mesh2D::new(6, 6);
        mesh.inject_fault(c2(2, 3));
        let f = Frame2::for_pair(&mesh, c2(5, 5), c2(0, 0));
        let l = Labelling2::compute(&mesh, f, BorderPolicy::BorderSafe);
        for c in mesh.nodes() {
            assert_eq!(l.status_mesh(c), l.status(f.to_canon(c)));
        }
    }

    #[test]
    fn torus_labels_wrap_across_the_seam() {
        // (0,2) is useless from its in-grid neighbors; (7,2) then becomes
        // useless through the wrap link (its +X neighbor is (0,2)). The
        // decreasing-x sweep sees that dependency only on its second pass,
        // so this also exercises the fixpoint iteration.
        let faults = [c2(1, 2), c2(0, 3), c2(7, 3)];
        let mut torus = Mesh2D::torus(8, 5);
        for c in faults {
            torus.inject_fault(c);
        }
        let lt = lab(&torus);
        assert!(lt.status(c2(0, 2)).is_useless());
        assert!(lt.status(c2(7, 2)).is_useless(), "label must wrap");
        // (1,3) is can't-reach on both topologies: -X=(0,3), -Y=(1,2).
        assert!(lt.status(c2(1, 3)).is_cant_reach());
        assert_eq!(lt.sacrificed_count(), 3);

        // On the mesh with the same faults the seam does not exist: the
        // border is safe and (7,2) keeps its label.
        let mut mesh = Mesh2D::new(8, 5);
        for c in faults {
            mesh.inject_fault(c);
        }
        let lm = lab(&mesh);
        assert!(lm.status(c2(0, 2)).is_useless());
        assert!(lm.status(c2(7, 2)).is_safe());
    }

    #[test]
    fn torus_fixpoint_has_no_missed_labels() {
        // Closure property: no safe node may have both wrapped positive
        // (or both wrapped negative) neighbors blocked.
        let mut torus = Mesh2D::torus(7, 6);
        for c in [c2(0, 0), c2(6, 1), c2(1, 5), c2(3, 3), c2(4, 2), c2(2, 4)] {
            torus.inject_fault(c);
        }
        let l = lab(&torus);
        let space = torus.space();
        for c in torus.nodes() {
            let st = l.status(c);
            let nxp = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Xp)));
            let nyp = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Yp)));
            let nxm = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Xm)));
            let nym = l.status(space.wrap_coord(c.step(mesh_topo::Dir2::Ym)));
            if !st.blocks_forward() {
                assert!(
                    !(nxp.blocks_forward() && nyp.blocks_forward()),
                    "{c} missed useless"
                );
            }
            if !st.blocks_backward() {
                assert!(
                    !(nxm.blocks_backward() && nym.blocks_backward()),
                    "{c} missed can't-reach"
                );
            }
        }
    }

    fn churn_once(
        mesh: &mut Mesh2D,
        lab: &mut Labelling2,
        injected: &[C2],
        healed: &[C2],
    ) -> Vec<usize> {
        for &c in injected {
            assert!(mesh.inject_fault(c));
        }
        for &c in healed {
            assert!(mesh.heal_fault(c));
        }
        lab.repair(injected, healed)
    }

    fn assert_matches_recompute(mesh: &Mesh2D, lab: &Labelling2) {
        let fresh = Labelling2::compute(mesh, lab.frame(), lab.policy());
        for ((c, a), (_, b)) in lab.iter().zip(fresh.iter()) {
            assert_eq!(a, b, "status diverged at {c}");
        }
        assert_eq!(lab.unsafe_set(), fresh.unsafe_set());
    }

    #[test]
    fn repair_reverses_the_seam_crossing_label() {
        // The torus_labels_wrap_across_the_seam scenario, then heal (1,2):
        // (0,2) loses useless, and the retraction must cross the wrap seam
        // backwards to also clear (7,2), whose +X neighbor is (0,2).
        let mut torus = Mesh2D::torus(8, 5);
        for c in [c2(1, 2), c2(0, 3), c2(7, 3)] {
            torus.inject_fault(c);
        }
        let mut l = lab(&torus);
        assert!(l.status(c2(7, 2)).is_useless());
        let changed = churn_once(&mut torus, &mut l, &[], &[c2(1, 2)]);
        assert!(l.status(c2(0, 2)).is_safe());
        assert!(
            l.status(c2(7, 2)).is_safe(),
            "retraction must cross the seam"
        );
        assert!(changed.contains(&l.space().index(c2(7, 2))));
        assert_matches_recompute(&torus, &l);
    }

    #[test]
    fn repair_changed_list_is_exact() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(6, 5), c2(6, 4), c2(5, 6), c2(4, 6)] {
            mesh.inject_fault(c);
        }
        let mut l = lab(&mesh);
        let before: Vec<NodeStatus> = l.iter().map(|(_, s)| s).collect();
        let changed = churn_once(&mut mesh, &mut l, &[c2(2, 2)], &[c2(6, 5)]);
        assert_matches_recompute(&mesh, &l);
        let diff: Vec<usize> = l
            .iter()
            .enumerate()
            .filter(|&(i, (_, s))| s != before[i])
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, diff);
        assert!(changed.windows(2).all(|p| p[0] < p[1]), "sorted ascending");
    }

    #[test]
    fn repair_matches_recompute_on_random_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
                let (w, h) = (12, 9);
                let mut mesh = if torus {
                    Mesh2D::torus(w, h)
                } else {
                    Mesh2D::new(w, h)
                };
                let mut rng = SmallRng::seed_from_u64(torus as u64 * 2 + 11);
                for _ in 0..16 {
                    mesh.inject_fault(c2(rng.gen_range(0..w), rng.gen_range(0..h)));
                }
                let mut l = Labelling2::compute(&mesh, Frame2::identity(&mesh), policy);
                for _ in 0..50 {
                    let mut injected = Vec::new();
                    let mut healed = Vec::new();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
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
                    churn_once(&mut mesh, &mut l, &injected, &healed);
                    assert_matches_recompute(&mesh, &l);
                }
            }
        }
    }

    #[test]
    fn bulk_repair_tier_matches_worklist_tier() {
        // A batch big enough to trip the BULK_REPAIR_FANOUT cut-over on an
        // 8×8 grid (64 nodes: >= 2 flips), exercised against recompute on
        // both topologies.
        for torus in [false, true] {
            let mut mesh = if torus {
                Mesh2D::torus(8, 8)
            } else {
                Mesh2D::new(8, 8)
            };
            for x in 0..8 {
                mesh.inject_fault(c2(x, 3));
            }
            let mut l = lab(&mesh);
            let injected: Vec<C2> = (0..8)
                .map(|y| c2(5, y))
                .filter(|&c| mesh.is_healthy(c))
                .collect();
            let healed = vec![c2(1, 3), c2(2, 3)];
            for &c in &injected {
                mesh.inject_fault(c);
            }
            for &c in &healed {
                mesh.heal_fault(c);
            }
            let changed = l.repair(&injected, &healed);
            assert_matches_recompute(&mesh, &l);
            assert!(changed.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn unsafe_set_matches_statuses() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(5, 6), c2(6, 5), c2(2, 2)] {
            mesh.inject_fault(c);
        }
        let l = lab(&mesh);
        let set = l.unsafe_set();
        for c in mesh.nodes() {
            assert_eq!(set.contains(l.space().index(c)), l.status(c).is_unsafe());
        }
        assert_eq!(set.len(), l.unsafe_count());
    }
}
