//! Algorithms 1 and 4 — the MCC labelling closure, written once over the
//! 2-D and 3-D node spaces.
//!
//! For a routing from the origin toward a destination in the all-positive
//! quadrant/octant (after [`Frame2`](mesh_topo::Frame2) /
//! [`Frame3`](mesh_topo::Frame3) canonicalization):
//!
//! 1. faulty nodes are labelled *faulty*, all others *safe*;
//! 2. a safe node whose `+` neighbors along **every** axis are
//!    faulty-or-useless becomes *useless*;
//! 3. a safe node whose `-` neighbors along every axis are
//!    faulty-or-can't-reach becomes *can't-reach*;
//! 4. repeat until no new label.
//!
//! In 2-D that is Algorithm 1 (`+X` and `+Y` blocked). In 3-D it is
//! Algorithm 4: with only two of `+X`, `+Y`, `+Z` blocked the message can
//! still escape along the third positive dimension, so all three must be.
//! The rule is the same over D axes, so [`Labelling`] is generic over the
//! node space and [`Labelling2`] / [`Labelling3`] are its two
//! instantiations.
//!
//! The closure runs on the flat node-state layer
//! ([`mesh_topo::nodeset`]) as **two raster sweeps** over a dense status
//! array, not as a worklist: rule 2 makes a node's label depend only on its
//! `+` neighbors, so one sweep in decreasing linear-index order sees every
//! dependency already finalized and reaches the fixpoint in a single pass;
//! rule 3 is the mirror image, one sweep in increasing order. Each sweep is
//! a row loop: `x` is the inner loop, and every other axis contributes one
//! per-row neighbor offset (the in-grid stride, the wrap jump, or the
//! border), so the loop body is the same for D = 2 and D = 3. The
//! hash-based worklist formulation is preserved as a test oracle beside
//! `tests/properties.rs` and property-tested equal.
//!
//! On a **torus** the rules read the wrapped neighbors, whose ring cycles
//! defeat the single-pass argument: the sweeps iterate until quiescent
//! (extra passes only when a label chain crosses the wrap seam), and the
//! fixpoint is property-tested equal to the definitional worklist closure
//! over the wrapped neighbor relation (`tests/properties.rs`).

use mesh_topo::{Mesh, NodeGrid, NodeSet, NodeSpace2, NodeSpace3, Space};

use crate::status::{BorderPolicy, NodeStatus};

/// The fixpoint of the labelling closure for one orientation of a mesh.
///
/// All coordinates exposed by this type are **canonical** (post-reflection);
/// use [`Labelling::frame`] to translate to and from mesh coordinates.
#[derive(Clone, Debug)]
pub struct Labelling<S: Space> {
    frame: S::Frame,
    policy: BorderPolicy,
    space: S,
    status: NodeGrid<NodeStatus>,
    unsafe_set: NodeSet,
}

/// The 2-D labelling (Algorithm 1), one per quadrant orientation.
pub type Labelling2 = Labelling<NodeSpace2>;

/// The 3-D labelling (Algorithm 4), one per octant orientation.
pub type Labelling3 = Labelling<NodeSpace3>;

impl<S: Space> Labelling<S> {
    /// Run the labelling closure for `mesh` under `frame`.
    pub fn compute(mesh: &Mesh<S>, frame: S::Frame, policy: BorderPolicy) -> Labelling<S> {
        let space = mesh.space();
        let mut status = NodeGrid::new(space.node_count(), NodeStatus::SAFE);
        for &f in mesh.faults() {
            status[space.index(S::to_canon(frame, f))] = NodeStatus::FAULT;
        }
        Raster::new(space, policy).close(status.as_mut_slice());

        let unsafe_set = NodeSet::from_indices(
            space.node_count(),
            status
                .iter()
                .filter(|(_, st)| st.is_unsafe())
                .map(|(i, _)| i),
        );
        Labelling {
            frame,
            policy,
            space,
            status,
            unsafe_set,
        }
    }

    /// The orientation frame this labelling was computed under.
    #[inline]
    pub fn frame(&self) -> S::Frame {
        self.frame
    }

    /// The border policy used.
    #[inline]
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The linear index space of the underlying mesh (canonical coords).
    #[inline]
    pub fn space(&self) -> S {
        self.space
    }

    /// Status of the node at **canonical** coordinate `c`.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    #[inline]
    pub fn status(&self, c: S::Coord) -> NodeStatus {
        self.status[self.space.index(c)]
    }

    /// Status at canonical `c`, or `None` if outside the mesh.
    #[inline]
    pub fn status_get(&self, c: S::Coord) -> Option<NodeStatus> {
        self.space.index_checked(c).map(|i| self.status[i])
    }

    /// True if canonical `c` is inside the mesh and unsafe.
    #[inline]
    pub fn is_unsafe(&self, c: S::Coord) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.unsafe_set.contains(i))
    }

    /// True if canonical `c` is inside the mesh and safe.
    #[inline]
    pub fn is_safe(&self, c: S::Coord) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.unsafe_set.contains(i))
    }

    /// Status of the node at **mesh** coordinate `c`.
    #[inline]
    pub fn status_mesh(&self, c: S::Coord) -> NodeStatus {
        self.status[self.space.index(S::to_canon(self.frame, c))]
    }

    /// The unsafe nodes (faulty + labelled) as a bitset over
    /// [`Labelling::space`] — the flat input of component discovery.
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

    /// Iterate `(canonical coordinate, status)` for all nodes, in index
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (S::Coord, NodeStatus)> + '_ {
        let space = self.space;
        (0..space.node_count()).map(move |i| (space.coord(i), self.status[i]))
    }

    /// Incrementally repair this labelling after a fault-churn batch on the
    /// underlying mesh: `injected` went healthy→faulty and `healed`
    /// faulty→healthy (both in **mesh** coordinates, like the mesh's fault
    /// list; the lists must be disjoint and duplicate-free). Afterwards
    /// every status, and the unsafe set, is **bit-for-bit equal** to a
    /// from-scratch [`Labelling::compute`] on the churned mesh — see
    /// DESIGN.md §12 for the least-fixpoint argument.
    ///
    /// Small perturbations run a node-granular worklist: labels whose
    /// justification may depend on a healed node are retracted by a flood
    /// over the label's reader direction, then both closures re-propagate
    /// from the perturbed seeds only — O(perturbation + retraction cone),
    /// independent of mesh size. Once the batch is a sizeable fraction of
    /// the mesh (`1/`[`BULK_REPAIR_FANOUT`]) the worklist's per-node
    /// overhead loses to the raster sweeps and the repair falls back to
    /// relabelling with the sweeps [`Labelling::compute`] uses. Both tiers
    /// return the same statuses and the same changed list; the tier
    /// cut-over is a pure function of batch and mesh size.
    ///
    /// Returns the canonical indices whose status byte changed, sorted
    /// ascending — the dirty region that drives component and MCC repair.
    pub fn repair(&mut self, injected: &[S::Coord], healed: &[S::Coord]) -> Vec<usize> {
        let (space, frame) = (self.space, self.frame);
        let canon = |cs: &[S::Coord]| -> Vec<usize> {
            cs.iter()
                .map(|&c| space.index(S::to_canon(frame, c)))
                .collect()
        };
        let (inj, heal) = (canon(injected), canon(healed));
        if inj.is_empty() && heal.is_empty() {
            return Vec::new();
        }
        let mut changed = if (inj.len() + heal.len()) * BULK_REPAIR_FANOUT >= space.node_count() {
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
        let raster = Raster::new(self.space, self.policy);
        let s = self.status.as_mut_slice();

        #[cfg(test)]
        let retract = !mutation::SKIP_HEAL_RETRACTION.with(|c| c.get());
        #[cfg(not(test))]
        let retract = true;

        // `(index, status at first touch)`: every mutation below pushes the
        // node's pre-mutation status first, so after a stable sort the first
        // entry per index holds the true pre-churn status and the rest are
        // intermediate states the dedup drops.
        let mut touched = flip(s, inj, heal);
        let mut scratch = (Vec::new(), Vec::new());
        raster.repair_closure::<USELESS>(s, inj, heal, retract, &mut touched, &mut scratch);
        raster.repair_closure::<CANT_REACH>(s, inj, heal, true, &mut touched, &mut scratch);

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
        let snapshot = self.status.as_slice().to_vec();
        let s = self.status.as_mut_slice();
        flip(s, inj, heal);
        for st in s.iter_mut() {
            st.clear_useless();
            st.clear_cant_reach();
        }
        Raster::new(self.space, self.policy).close(s);
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Perturbation-size fanout above which [`Labelling::repair`] abandons the
/// node-granular worklist for a full relabel: batches of
/// `≥ nodes / BULK_REPAIR_FANOUT` flips re-sweep the grid.
pub const BULK_REPAIR_FANOUT: usize = 48;

/// Test-only fault injection for the mutation-style negative tests: prove
/// the churn equivalence gates actually bite by disabling one invalidation
/// path and watching them fail (see `crate::incremental` unit tests).
#[cfg(test)]
pub(crate) mod mutation {
    use std::cell::Cell;
    thread_local! {
        /// When set on the calling thread, [`super::Labelling::repair`]
        /// skips the heal-retraction flood of the useless closure — exactly
        /// the silent-staleness bug the equivalence battery must catch.
        pub static SKIP_HEAL_RETRACTION: Cell<bool> = const { Cell::new(false) };
    }
}

/// Apply a churn batch to the status bytes — healed nodes become safe,
/// injected ones faulty — and return each flipped node with its prior
/// status.
fn flip(s: &mut [NodeStatus], inj: &[usize], heal: &[usize]) -> Vec<(usize, NodeStatus)> {
    let heal = heal.iter().map(|&i| (i, NodeStatus::SAFE));
    let inj = inj.iter().map(|&i| (i, NodeStatus::FAULT));
    heal.chain(inj)
        .map(|(i, new)| {
            debug_assert_ne!(s[i].is_faulty(), new.is_faulty(), "churn must flip {i}");
            (i, std::mem::replace(&mut s[i], new))
        })
        .collect()
}

/// Selects the useless closure (rule 2) in the `const CLOSURE: bool`
/// parameters below.
const USELESS: bool = true;
/// Selects the can't-reach closure (rule 3), the mirror image of rule 2.
const CANT_REACH: bool = false;

/// True if `st` blocks the closure: faulty-or-useless for rule 2,
/// faulty-or-can't-reach for rule 3.
#[inline(always)]
fn blocks<const CLOSURE: bool>(st: NodeStatus) -> bool {
    st.is_faulty() || labelled::<CLOSURE>(st)
}

/// True if `st` carries the closure's own label.
#[inline(always)]
fn labelled<const CLOSURE: bool>(st: NodeStatus) -> bool {
    if CLOSURE == USELESS {
        st.is_useless()
    } else {
        st.is_cant_reach()
    }
}

/// Add the closure's label to `st`.
#[inline(always)]
fn mark<const CLOSURE: bool>(st: &mut NodeStatus) {
    if CLOSURE == USELESS {
        st.mark_useless()
    } else {
        st.mark_cant_reach()
    }
}

/// Remove the closure's label from `st`.
#[inline(always)]
fn clear<const CLOSURE: bool>(st: &mut NodeStatus) {
    if CLOSURE == USELESS {
        st.clear_useless()
    } else {
        st.clear_cant_reach()
    }
}

/// The row geometry of a node space for the closures: per-axis extents
/// (`x` fastest), the wrap mode and the border policy.
#[derive(Clone, Copy)]
struct Raster<S> {
    space: S,
    ext: [usize; 3],
    border_blocks: bool,
}

impl<S: Space> Raster<S> {
    fn new(space: S, policy: BorderPolicy) -> Raster<S> {
        Raster {
            space,
            ext: space.extents(),
            border_blocks: matches!(policy, BorderPolicy::BorderBlocked),
        }
    }

    /// The per-axis coordinates of index `i`.
    #[inline(always)]
    fn coords(&self, i: usize) -> [usize; 3] {
        let mut c = [0; 3];
        let mut rest = i;
        for (ca, &ext) in c.iter_mut().zip(&self.ext).take(S::DIMS - 1) {
            *ca = rest % ext;
            rest /= ext;
        }
        c[S::DIMS - 1] = rest;
        c
    }

    /// The node one step from `i` (coordinate `c` along axis `a`) in the
    /// closure's read direction: `+a` for rule 2, `-a` for rule 3. `None`
    /// past a mesh border; a torus wraps.
    #[inline(always)]
    fn input<const CLOSURE: bool>(&self, i: usize, a: usize, c: usize) -> Option<usize> {
        // The index distance of one step along `a`; 1 along `x`.
        let stride = self.ext[..a].iter().product::<usize>();
        let ext = self.ext[a];
        if CLOSURE == USELESS {
            if c + 1 < ext {
                Some(i + stride)
            } else if self.space.wraps() {
                Some(i - c * stride)
            } else {
                None
            }
        } else if c > 0 {
            Some(i - stride)
        } else if self.space.wraps() {
            Some(i + (ext - 1) * stride)
        } else {
            None
        }
    }

    /// True if the input `j` (`None`: past the border) blocks the closure.
    #[inline(always)]
    fn input_blocks<const CLOSURE: bool>(&self, s: &[NodeStatus], j: Option<usize>) -> bool {
        j.map_or(self.border_blocks, |j| blocks::<CLOSURE>(s[j]))
    }

    /// True if the closure's rule fires at `i`: every input blocks.
    #[inline(always)]
    fn fires<const CLOSURE: bool>(&self, s: &[NodeStatus], i: usize) -> bool {
        let c = self.coords(i);
        (0..S::DIMS).all(|a| self.input_blocks::<CLOSURE>(s, self.input::<CLOSURE>(i, a, c[a])))
    }

    /// Call `f` with every node whose rule reads `i` — its neighbors in the
    /// direction opposite to the closure's read direction, `x` first.
    #[inline(always)]
    fn for_readers<const CLOSURE: bool>(&self, i: usize, mut f: impl FnMut(usize)) {
        for (a, &c) in self.coords(i).iter().enumerate().take(S::DIMS) {
            // The reader of `i` along `a` is the node `i` reads along `a`
            // under the mirror closure.
            let j = if CLOSURE == USELESS {
                self.input::<CANT_REACH>(i, a, c)
            } else {
                self.input::<USELESS>(i, a, c)
            };
            if let Some(j) = j {
                f(j);
            }
        }
    }

    /// Run both closures to their fixpoint over the whole grid.
    fn close(&self, s: &mut [NodeStatus]) {
        self.fixpoint::<USELESS>(s);
        self.fixpoint::<CANT_REACH>(s);
    }

    /// One closure over the whole grid, sequential. On a mesh rule 2
    /// depends only on `+` neighbors, which a decreasing-index sweep has
    /// already finalized, so the loop runs exactly one pass (rule 3 is the
    /// increasing mirror). On a torus the rules read the wrapped neighbors,
    /// whose ring cycles defeat the single-pass argument: the sweep
    /// iterates until quiescent (extra passes only when a label chain
    /// crosses the wrap seam), and the border policy is irrelevant (a torus
    /// has no border, so `border_blocks` is never read).
    fn fixpoint<const CLOSURE: bool>(&self, s: &mut [NodeStatus]) {
        let [nx, ny, nz] = self.ext;
        // Decreasing linear-index order for rule 2, increasing for rule 3.
        let order = |k: usize, n: usize| if CLOSURE == USELESS { n - 1 - k } else { k };
        loop {
            let mut changed = false;
            for kz in 0..nz {
                for ky in 0..ny {
                    let (y, z) = (order(ky, ny), order(kz, nz));
                    let row = (z * ny + y) * nx;
                    // Every axis but `x` reads one neighbor row.
                    let c = [0, y, z];
                    let mut inputs = [None; 2];
                    for a in 1..S::DIMS {
                        inputs[a - 1] = self.input::<CLOSURE>(row, a, c[a]);
                    }
                    let inputs = &inputs[..S::DIMS - 1];
                    for kx in 0..nx {
                        let x = order(kx, nx);
                        let i = row + x;
                        if blocks::<CLOSURE>(s[i]) {
                            continue;
                        }
                        if self.input_blocks::<CLOSURE>(s, self.input::<CLOSURE>(i, 0, x))
                            && inputs
                                .iter()
                                .all(|&r| self.input_blocks::<CLOSURE>(s, r.map(|r| r + x)))
                        {
                            mark::<CLOSURE>(&mut s[i]);
                            changed = true;
                        }
                    }
                }
            }
            if !(self.space.wraps() && changed) {
                break;
            }
        }
    }

    /// One closure's share of the node-granular repair. First retract the
    /// reader cone of every healed node (clearing doubles as the visited
    /// mark), unless `retract` is off; then re-propagate from the cleared
    /// nodes, the healed nodes themselves, and the readers of injected
    /// nodes. Injection is monotone (a faulty node still blocks both
    /// closures), so it never needs retraction. Every mutation records the
    /// node's prior status in `touched`; `scratch` is the reused stack and
    /// worklist.
    fn repair_closure<const CLOSURE: bool>(
        &self,
        s: &mut [NodeStatus],
        inj: &[usize],
        heal: &[usize],
        retract: bool,
        touched: &mut Vec<(usize, NodeStatus)>,
        scratch: &mut (Vec<usize>, Vec<usize>),
    ) {
        let (stack, work) = scratch;
        if retract {
            for &i in heal {
                self.for_readers::<CLOSURE>(i, |j| {
                    if labelled::<CLOSURE>(s[j]) {
                        stack.push(j);
                    }
                });
            }
            while let Some(i) = stack.pop() {
                if !labelled::<CLOSURE>(s[i]) {
                    continue;
                }
                touched.push((i, s[i]));
                clear::<CLOSURE>(&mut s[i]);
                work.push(i);
                self.for_readers::<CLOSURE>(i, |j| {
                    if labelled::<CLOSURE>(s[j]) {
                        stack.push(j);
                    }
                });
            }
        }
        work.extend_from_slice(heal);
        for &i in inj {
            self.for_readers::<CLOSURE>(i, |j| work.push(j));
        }
        while let Some(i) = work.pop() {
            if blocks::<CLOSURE>(s[i]) {
                continue;
            }
            if self.fires::<CLOSURE>(s, i) {
                touched.push((i, s[i]));
                mark::<CLOSURE>(&mut s[i]);
                self.for_readers::<CLOSURE>(i, |j| work.push(j));
            }
        }
    }
}
