//! Algorithm 4 — the MCC labelling closure in 3-D meshes.
//!
//! The 3-D rules strengthen the 2-D ones: a safe node is *useless* only if
//! **all three** of its `+X`, `+Y`, `+Z` neighbors are faulty-or-useless
//! (with only two blocked the message can still escape along the third
//! positive dimension), and *can't-reach* only if all three negative
//! neighbors are faulty-or-can't-reach.
//!
//! Like the 2-D closure, this runs as two raster sweeps over a flat status
//! array on the node-state layer ([`mesh_topo::nodeset`]): the useless rule
//! depends only on strictly-larger `(z, y, x)`, so a single decreasing
//! sweep reaches the fixpoint, and the can't-reach rule is the increasing
//! mirror image. On a torus the sweeps read the wrapped neighbors and
//! iterate to the fixpoint (see [`crate::labelling2`]).

use mesh_topo::{Frame3, Mesh3D, NodeGrid, NodeSet, NodeSpace3, C3};

use crate::status::{BorderPolicy, NodeStatus};

/// The fixpoint of Algorithm 4 for one octant orientation of a 3-D mesh.
///
/// Coordinates exposed by this type are **canonical** (post-reflection).
#[derive(Clone, Debug)]
pub struct Labelling3 {
    frame: Frame3,
    policy: BorderPolicy,
    space: NodeSpace3,
    status: NodeGrid<NodeStatus>,
    unsafe_set: NodeSet,
}

impl Labelling3 {
    /// Run the labelling closure for `mesh` under `frame`.
    pub fn compute(mesh: &Mesh3D, frame: Frame3, policy: BorderPolicy) -> Labelling3 {
        let space = mesh.space();
        let mut status = NodeGrid::new(space.len(), NodeStatus::SAFE);
        for &f in mesh.faults() {
            status[space.index(frame.to_canon(f))] = NodeStatus::FAULT;
        }

        let border_blocks = matches!(policy, BorderPolicy::BorderBlocked);
        let nx = space.nx() as usize;
        let ny = space.ny() as usize;
        let nz = space.nz() as usize;
        let wraps = space.wraps();
        let s = status.as_mut_slice();

        useless_fixpoint3(s, nx, ny, nz, wraps, border_blocks);
        cant_reach_fixpoint3(s, nx, ny, nz, wraps, border_blocks);

        let mut unsafe_set = NodeSet::new(space.len());
        for (i, st) in status.iter() {
            if st.is_unsafe() {
                unsafe_set.insert(i);
            }
        }
        Labelling3 {
            frame,
            policy,
            space,
            status,
            unsafe_set,
        }
    }

    /// Run the labelling for the pair `(s, d)` in mesh coordinates.
    pub fn for_pair(mesh: &Mesh3D, s: C3, d: C3, policy: BorderPolicy) -> Labelling3 {
        Labelling3::compute(mesh, Frame3::for_pair(mesh, s, d), policy)
    }

    /// The octant frame this labelling was computed under.
    #[inline]
    pub fn frame(&self) -> Frame3 {
        self.frame
    }

    /// The border policy used.
    #[inline]
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The linear index space of the underlying mesh (canonical coords).
    #[inline]
    pub fn space(&self) -> NodeSpace3 {
        self.space
    }

    /// Status of the node at **canonical** coordinate `c`.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    #[inline]
    pub fn status(&self, c: C3) -> NodeStatus {
        self.status[self.space.index(c)]
    }

    /// Status at canonical `c`, or `None` if outside the mesh.
    #[inline]
    pub fn status_get(&self, c: C3) -> Option<NodeStatus> {
        self.space.index_checked(c).map(|i| self.status[i])
    }

    /// True if canonical `c` is inside the mesh and unsafe.
    #[inline]
    pub fn is_unsafe(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.unsafe_set.contains(i))
    }

    /// True if canonical `c` is inside the mesh and safe.
    #[inline]
    pub fn is_safe(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.unsafe_set.contains(i))
    }

    /// Status of the node at **mesh** coordinate `c`.
    #[inline]
    pub fn status_mesh(&self, c: C3) -> NodeStatus {
        self.status[self.space.index(self.frame.to_canon(c))]
    }

    /// The unsafe nodes (faulty + labelled) as a bitset over
    /// [`Labelling3::space`] — the flat input of component discovery.
    #[inline]
    pub fn unsafe_set(&self) -> &NodeSet {
        &self.unsafe_set
    }

    /// Total number of unsafe nodes (faulty + labelled).
    #[inline]
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_set.len()
    }

    /// Number of healthy nodes labelled unsafe.
    pub fn sacrificed_count(&self) -> usize {
        self.unsafe_set
            .iter()
            .filter(|&i| !self.status[i].is_faulty())
            .count()
    }

    /// Extent along X.
    #[inline]
    pub fn nx(&self) -> i32 {
        self.space.nx()
    }

    /// Extent along Y.
    #[inline]
    pub fn ny(&self) -> i32 {
        self.space.ny()
    }

    /// Extent along Z.
    #[inline]
    pub fn nz(&self) -> i32 {
        self.space.nz()
    }

    /// Iterate `(canonical coordinate, status)` for all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (C3, NodeStatus)> + '_ {
        self.space
            .coords()
            .zip(self.status.as_slice().iter().copied())
    }

    /// Incrementally repair this labelling after a fault-churn batch —
    /// the 3-D twin of [`crate::Labelling2::repair`], with the same
    /// contract: `injected`/`healed` in mesh coordinates, disjoint and
    /// duplicate-free; afterwards statuses and the unsafe set are
    /// bit-for-bit equal to a from-scratch [`Labelling3::compute`] on the
    /// churned mesh; returns the changed canonical indices, sorted
    /// ascending. Small batches run the node-granular worklist, batches
    /// over `nodes /` [`crate::labelling2::BULK_REPAIR_FANOUT`] fall back
    /// to a full relabel.
    pub fn repair(&mut self, injected: &[C3], healed: &[C3]) -> Vec<usize> {
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
        let bulk = (inj.len() + heal.len()) * crate::labelling2::BULK_REPAIR_FANOUT >= space.len();
        let mut changed = if bulk {
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
        let nx = self.space.nx() as usize;
        let ny = self.space.ny() as usize;
        let nz = self.space.nz() as usize;
        let plane = nx * ny;
        let wraps = self.space.wraps();
        let border_blocks = matches!(self.policy, BorderPolicy::BorderBlocked);
        let s = self.status.as_mut_slice();

        // `(index, status at first touch)` — see the 2-D twin for the
        // dedup argument.
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

        // Readers per closure: the wrapped -X/-Y/-Z neighbors for useless
        // (the rule reads +X/+Y/+Z), the positive mirror for can't-reach.
        let readers_useless = |i: usize, f: &mut dyn FnMut(usize)| {
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / plane;
            if x > 0 {
                f(i - 1);
            } else if wraps {
                f(i + nx - 1);
            }
            if y > 0 {
                f(i - nx);
            } else if wraps {
                f(z * plane + (ny - 1) * nx + x);
            }
            if z > 0 {
                f(i - plane);
            } else if wraps {
                f((nz - 1) * plane + y * nx + x);
            }
        };
        let readers_cant_reach = |i: usize, f: &mut dyn FnMut(usize)| {
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / plane;
            if x + 1 < nx {
                f(i + 1);
            } else if wraps {
                f(i - x);
            }
            if y + 1 < ny {
                f(i + nx);
            } else if wraps {
                f(z * plane + x);
            }
            if z + 1 < nz {
                f(i + plane);
            } else if wraps {
                f(y * nx + x);
            }
        };
        let useless_fires = |s: &[NodeStatus], i: usize| {
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / plane;
            let row = i - x;
            let xp = if x + 1 < nx {
                s[i + 1].blocks_forward()
            } else if wraps {
                s[row].blocks_forward()
            } else {
                border_blocks
            };
            let yp = if y + 1 < ny {
                s[i + nx].blocks_forward()
            } else if wraps {
                s[z * plane + x].blocks_forward()
            } else {
                border_blocks
            };
            let zp = if z + 1 < nz {
                s[i + plane].blocks_forward()
            } else if wraps {
                s[y * nx + x].blocks_forward()
            } else {
                border_blocks
            };
            xp && yp && zp
        };
        let cant_reach_fires = |s: &[NodeStatus], i: usize| {
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / plane;
            let row = i - x;
            let xm = if x > 0 {
                s[i - 1].blocks_backward()
            } else if wraps {
                s[row + nx - 1].blocks_backward()
            } else {
                border_blocks
            };
            let ym = if y > 0 {
                s[i - nx].blocks_backward()
            } else if wraps {
                s[z * plane + (ny - 1) * nx + x].blocks_backward()
            } else {
                border_blocks
            };
            let zm = if z > 0 {
                s[i - plane].blocks_backward()
            } else if wraps {
                s[(nz - 1) * plane + y * nx + x].blocks_backward()
            } else {
                border_blocks
            };
            xm && ym && zm
        };

        // Useless closure: retract the reader cone of the healed nodes,
        // then re-propagate from the perturbed seeds (see the 2-D twin).
        let mut stack: Vec<usize> = Vec::new();
        let mut work: Vec<usize> = Vec::new();
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
    /// the whole grid.
    fn repair_bulk(&mut self, inj: &[usize], heal: &[usize]) -> Vec<usize> {
        let nx = self.space.nx() as usize;
        let ny = self.space.ny() as usize;
        let nz = self.space.nz() as usize;
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
        useless_fixpoint3(s, nx, ny, nz, wraps, border_blocks);
        cant_reach_fixpoint3(s, nx, ny, nz, wraps, border_blocks);
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The useless closure over the whole 3-D grid, sequential. On a mesh the
/// dependencies point to `+X`/`+Y`/`+Z` only, so one decreasing-
/// `(z, y, x)` sweep reaches the fixpoint and the loop runs once. On a
/// torus the rules read the wrapped neighbors; the ring cycles mean the
/// sweep iterates until quiescent, and the border policy is irrelevant
/// (no border exists, `border_blocks` is never read).
fn useless_fixpoint3(
    s: &mut [NodeStatus],
    nx: usize,
    ny: usize,
    nz: usize,
    wraps: bool,
    border_blocks: bool,
) {
    let plane = nx * ny;
    loop {
        let mut changed = false;
        for z in (0..nz).rev() {
            for y in (0..ny).rev() {
                let row = z * plane + y * nx;
                for x in (0..nx).rev() {
                    let i = row + x;
                    if s[i].blocks_forward() {
                        continue;
                    }
                    let xp = if x + 1 < nx {
                        s[i + 1].blocks_forward()
                    } else if wraps {
                        s[row].blocks_forward()
                    } else {
                        border_blocks
                    };
                    let yp = if y + 1 < ny {
                        s[i + nx].blocks_forward()
                    } else if wraps {
                        s[z * plane + x].blocks_forward()
                    } else {
                        border_blocks
                    };
                    let zp = if z + 1 < nz {
                        s[i + plane].blocks_forward()
                    } else if wraps {
                        s[y * nx + x].blocks_forward()
                    } else {
                        border_blocks
                    };
                    if xp && yp && zp {
                        s[i].mark_useless();
                        changed = true;
                    }
                }
            }
        }
        if !(wraps && changed) {
            break;
        }
    }
}

/// The can't-reach mirror of [`useless_fixpoint3`]: `-X`/`-Y`/`-Z`
/// dependencies, increasing-`(z, y, x)` sweep.
fn cant_reach_fixpoint3(
    s: &mut [NodeStatus],
    nx: usize,
    ny: usize,
    nz: usize,
    wraps: bool,
    border_blocks: bool,
) {
    let plane = nx * ny;
    loop {
        let mut changed = false;
        for z in 0..nz {
            for y in 0..ny {
                let row = z * plane + y * nx;
                for x in 0..nx {
                    let i = row + x;
                    if s[i].blocks_backward() {
                        continue;
                    }
                    let xm = if x > 0 {
                        s[i - 1].blocks_backward()
                    } else if wraps {
                        s[row + nx - 1].blocks_backward()
                    } else {
                        border_blocks
                    };
                    let ym = if y > 0 {
                        s[i - nx].blocks_backward()
                    } else if wraps {
                        s[z * plane + (ny - 1) * nx + x].blocks_backward()
                    } else {
                        border_blocks
                    };
                    let zm = if z > 0 {
                        s[i - plane].blocks_backward()
                    } else if wraps {
                        s[(nz - 1) * plane + y * nx + x].blocks_backward()
                    } else {
                        border_blocks
                    };
                    if xm && ym && zm {
                        s[i].mark_cant_reach();
                        changed = true;
                    }
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
    use mesh_topo::coord::c3;

    fn lab(mesh: &Mesh3D) -> Labelling3 {
        Labelling3::compute(mesh, Frame3::identity(mesh), BorderPolicy::BorderSafe)
    }

    /// The exact fault set of Figure 5 of the paper.
    fn figure5_mesh() -> Mesh3D {
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
        mesh
    }

    #[test]
    fn figure5_labelling_matches_paper() {
        // The paper states: "(5,5,5) becomes useless and (5,5,7) becomes
        // can't-reach in our labelling process."
        let l = lab(&figure5_mesh());
        assert!(
            l.status(c3(5, 5, 5)).is_useless(),
            "(5,5,5) must be useless"
        );
        assert!(
            l.status(c3(5, 5, 7)).is_cant_reach(),
            "(5,5,7) must be can't-reach"
        );
        // And exactly those two healthy nodes are sacrificed.
        assert_eq!(l.sacrificed_count(), 2);
        assert_eq!(l.unsafe_count(), 10);
    }

    #[test]
    fn figure5_other_neighbors_stay_safe() {
        let l = lab(&figure5_mesh());
        // The isolated fault (7,8,4) labels nothing around it.
        for c in [
            c3(6, 8, 4),
            c3(7, 7, 4),
            c3(7, 8, 3),
            c3(7, 8, 5),
            c3(8, 8, 4),
        ] {
            assert!(l.status(c).is_safe(), "{c} should stay safe");
        }
        // The hole (6,6,5) of the section z=5 stays safe (non-convex section).
        assert!(l.status(c3(6, 6, 5)).is_safe());
    }

    #[test]
    fn two_blocked_dims_are_not_enough_in_3d() {
        // +X and +Y blocked, +Z open -> still safe (escape along +Z).
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_safe());
        assert_eq!(l.sacrificed_count(), 0);
    }

    #[test]
    fn three_blocked_dims_label_useless() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_useless());
        // and the symmetric pocket on the other side stays safe
        assert!(l.status(c3(5, 5, 5)).is_safe());
    }

    #[test]
    fn cant_reach_in_3d() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(3, 4, 4));
        mesh.inject_fault(c3(4, 3, 4));
        mesh.inject_fault(c3(4, 4, 3));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_cant_reach());
        assert_eq!(l.sacrificed_count(), 1);
    }

    #[test]
    fn torus_pocket_wraps_in_all_three_dimensions() {
        // The corner node (4,4,4) of a 5-ary torus is sealed by its three
        // *wrapped* positive neighbors; on the mesh the BorderSafe policy
        // keeps it safe.
        let faults = [c3(0, 4, 4), c3(4, 0, 4), c3(4, 4, 0)];
        let mut torus = Mesh3D::torus_kary(5);
        for c in faults {
            torus.inject_fault(c);
        }
        let lt = Labelling3::compute(&torus, Frame3::identity(&torus), BorderPolicy::BorderSafe);
        assert!(lt.status(c3(4, 4, 4)).is_useless());
        assert_eq!(lt.sacrificed_count(), 1);

        let mut mesh = Mesh3D::kary(5);
        for c in faults {
            mesh.inject_fault(c);
        }
        let lm = lab(&mesh);
        assert!(lm.status(c3(4, 4, 4)).is_safe());
        assert_eq!(lm.sacrificed_count(), 0);
    }

    #[test]
    fn fault_free_all_safe() {
        let mesh = Mesh3D::kary(6);
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 0);
    }

    #[test]
    fn octant_reflection_changes_labelling() {
        // A useless pocket for the identity octant is a can't-reach pocket
        // for the fully flipped octant.
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let f = Frame3::for_pair(&mesh, c3(7, 7, 7), c3(0, 0, 0));
        let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
        assert!(l.status_mesh(c3(4, 4, 4)).is_cant_reach());
    }

    #[test]
    fn repair_matches_recompute_on_random_churn_3d() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
                let k = 6;
                let mut mesh = if torus {
                    Mesh3D::torus_kary(k)
                } else {
                    Mesh3D::kary(k)
                };
                let mut rng = SmallRng::seed_from_u64(torus as u64 * 2 + 3);
                for _ in 0..20 {
                    mesh.inject_fault(c3(
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                    ));
                }
                let mut l = Labelling3::compute(&mesh, Frame3::identity(&mesh), policy);
                for _ in 0..30 {
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
                        assert!(mesh.inject_fault(c));
                    }
                    for &c in &healed {
                        assert!(mesh.heal_fault(c));
                    }
                    l.repair(&injected, &healed);
                    let fresh = Labelling3::compute(&mesh, l.frame(), policy);
                    for ((c, a), (_, b)) in l.iter().zip(fresh.iter()) {
                        assert_eq!(a, b, "status diverged at {c}");
                    }
                    assert_eq!(l.unsafe_set(), fresh.unsafe_set());
                }
            }
        }
    }

    #[test]
    fn status_mesh_roundtrip() {
        let mut mesh = Mesh3D::kary(5);
        mesh.inject_fault(c3(2, 2, 2));
        for f in Frame3::all(&mesh) {
            let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
            for c in mesh.nodes() {
                assert_eq!(l.status_mesh(c), l.status(f.to_canon(c)));
            }
        }
    }
}
