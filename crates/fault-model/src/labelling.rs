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
//! The closures run on **words of bit rows** along `x` (`crate::rows`),
//! not per node. Rule 3 makes a node's label depend only on its `-`
//! neighbors, so one pass in increasing `(z, y)` order sees its `-y` and
//! `-z` neighbors final. A candidate is a healthy node whose off-row
//! inputs all block; a candidate is labelled once its `-x` neighbor
//! blocks, so the labels are the candidate runs that start next to a
//! fault (or the border), and one carry-propagating add finds them. Rows
//! of at most 64 nodes are packed `⌊64/nx⌋` to a word (`rows::Lanes`) and
//! a word settles all its rows in at most that many rounds, each lane
//! reading the lane below it in the same word; wider rows settle one at a
//! time over several words. Rule 2 is the same kernel run on the point
//! reflection of the grid (each fault placed at its reflected coordinate,
//! each label mapped back), so the one kernel body serves both closures
//! and both dimensions. The statuses and the unsafe set are then written
//! from the words, touching only unsafe nodes (DESIGN.md §6, "Labelling
//! on lanes").
//! The hash-based worklist formulation is preserved as a test oracle
//! (`tests/reference/`) and checked equal in `tests/labelling_equiv.rs`.
//!
//! On a **torus** the rules read the wrapped neighbors, whose ring cycles
//! defeat the single-pass argument: a word or row is redone until its seam
//! input is settled, and the passes repeat until nothing changes. The
//! fixpoint is checked equal to the definitional worklist closure over
//! the wrapped neighbor relation (`tests/labelling_equiv.rs`,
//! `tests/properties.rs`).

use mesh_topo::{Coord, Frame, Mesh, NodeGrid, NodeSet, NodeSpace, C2, C3};

use crate::rows::{Bases, Lanes, Rows, RunFill};
use crate::status::{BorderPolicy, NodeStatus};

/// The fixpoint of the labelling closure for one orientation of a mesh.
///
/// All coordinates exposed by this type are **canonical** (post-reflection);
/// use [`Labelling::frame`] to translate to and from mesh coordinates.
#[derive(Clone, Debug)]
pub struct Labelling<C: Coord> {
    frame: Frame<C>,
    policy: BorderPolicy,
    space: NodeSpace<C>,
    status: NodeGrid<NodeStatus>,
    unsafe_set: NodeSet,
}

/// The 2-D labelling (Algorithm 1), one per quadrant orientation.
pub type Labelling2 = Labelling<C2>;

/// The 3-D labelling (Algorithm 4), one per octant orientation.
pub type Labelling3 = Labelling<C3>;

impl<C: Coord> Labelling<C> {
    /// Run the labelling closure for `mesh` under `frame`.
    pub fn compute(mesh: &Mesh<C>, frame: Frame<C>, policy: BorderPolicy) -> Labelling<C> {
        let faults = mesh.faults().iter().map(|&f| frame.to_canon(f).xyz());
        Labelling::from_faults(mesh.space(), frame, policy, faults)
    }

    /// Both closures over the faults at the canonical coordinates
    /// `faults`, on lanes when a row fits in a word and on rows otherwise.
    ///
    /// Rule 3 reads the `-` neighbors, the kernel's own orientation. Rule
    /// 2 reads the `+` neighbors, so it runs on the point reflection of
    /// the grid (`flipped`: each fault at its reflected coordinate).
    fn from_faults(
        space: NodeSpace<C>,
        frame: Frame<C>,
        policy: BorderPolicy,
        faults: impl Iterator<Item = [i32; 3]>,
    ) -> Self {
        let rows = Rows::of(space);
        let lanes = Lanes::of(rows);
        let [nx, ny, _] = rows.ext;
        let far = rows.ext.map(|n| n as i32 - 1);
        let zeroed = || lanes.map_or_else(|| rows.zeroed(), Lanes::zeroed);
        let (mut fault_words, mut flipped) = (zeroed(), zeroed());
        let mut status = NodeGrid::new(space.len(), NodeStatus::SAFE);
        let st = status.as_mut_slice();
        for [x, y, z] in faults {
            st[(z as usize * ny + y as usize) * nx + x as usize] = NodeStatus::FAULT;
            let back = [far[0] - x, far[1] - y, far[2] - z];
            match lanes {
                Some(l) => {
                    l.toggle(&mut fault_words, [x, y, z]);
                    l.toggle(&mut flipped, back);
                }
                None => {
                    rows.toggle(&mut fault_words, [x, y, z]);
                    rows.toggle(&mut flipped, back);
                }
            }
        }
        let border_blocks = matches!(policy, BorderPolicy::BorderBlocked);
        let unsafe_set = label(rows, lanes, border_blocks, st, fault_words, flipped);
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
    pub fn frame(&self) -> Frame<C> {
        self.frame
    }

    /// The border policy used.
    #[inline]
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The linear index space of the underlying mesh (canonical coords).
    #[inline]
    pub fn space(&self) -> NodeSpace<C> {
        self.space
    }

    /// Status of the node at **canonical** coordinate `c`.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    #[inline]
    pub fn status(&self, c: C) -> NodeStatus {
        self.status[self.space.index(c)]
    }

    /// Status at canonical `c`, or `None` if outside the mesh.
    #[inline]
    pub fn status_get(&self, c: C) -> Option<NodeStatus> {
        self.space.index_checked(c).map(|i| self.status[i])
    }

    /// True if canonical `c` is inside the mesh and unsafe.
    #[inline]
    pub fn is_unsafe(&self, c: C) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.unsafe_set.contains(i))
    }

    /// True if canonical `c` is inside the mesh and safe.
    #[inline]
    pub fn is_safe(&self, c: C) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.unsafe_set.contains(i))
    }

    /// Status of the node at **mesh** coordinate `c`.
    #[inline]
    pub fn status_mesh(&self, c: C) -> NodeStatus {
        self.status[self.space.index(self.frame.to_canon(c))]
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
    pub fn iter(&self) -> impl Iterator<Item = (C, NodeStatus)> + '_ {
        let space = self.space;
        (0..space.len()).map(move |i| (space.coord(i), self.status[i]))
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
    /// overhead loses to the word kernels and the repair falls back to
    /// relabelling with the kernels [`Labelling::compute`] uses. Both tiers
    /// return the same statuses and the same changed list; the tier
    /// cut-over is a pure function of batch and mesh size.
    ///
    /// Returns the canonical indices whose status byte changed, sorted
    /// ascending — the dirty region that drives component and MCC repair.
    pub fn repair(&mut self, injected: &[C], healed: &[C]) -> Vec<usize> {
        let (space, frame) = (self.space, self.frame);
        let canon = |cs: &[C]| -> Vec<usize> {
            cs.iter().map(|&c| space.index(frame.to_canon(c))).collect()
        };
        let (inj, heal) = (canon(injected), canon(healed));
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

    /// Bulk repair tier: relabel the churned fault set with the word
    /// kernels of [`Labelling::compute`]. The changed list comes from
    /// diffing a pre-churn snapshot.
    fn repair_bulk(&mut self, inj: &[usize], heal: &[usize]) -> Vec<usize> {
        let snapshot = self.status.as_slice().to_vec();
        flip(self.status.as_mut_slice(), inj, heal);
        let space = self.space;
        let faults = self.status.iter().filter(|(_, st)| st.is_faulty());
        let faults = faults.map(|(i, _)| space.coord(i).xyz());
        *self = Labelling::from_faults(space, self.frame, self.policy, faults);
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &old)| self.status[i] != old)
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

/// The neighbor geometry of a node space for the node-granular repair:
/// per-axis extents (`x` fastest), the wrap mode and the border policy.
#[derive(Clone, Copy)]
struct Raster<C> {
    space: NodeSpace<C>,
    ext: [usize; 3],
    border_blocks: bool,
}

impl<C: Coord> Raster<C> {
    fn new(space: NodeSpace<C>, policy: BorderPolicy) -> Raster<C> {
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
        for (ca, &ext) in c.iter_mut().zip(&self.ext).take(C::DIMS - 1) {
            *ca = rest % ext;
            rest /= ext;
        }
        c[C::DIMS - 1] = rest;
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
        (0..C::DIMS).all(|a| self.input_blocks::<CLOSURE>(s, self.input::<CLOSURE>(i, a, c[a])))
    }

    /// Call `f` with every node whose rule reads `i` — its neighbors in the
    /// direction opposite to the closure's read direction, `x` first.
    #[inline(always)]
    fn for_readers<const CLOSURE: bool>(&self, i: usize, mut f: impl FnMut(usize)) {
        for (a, &c) in self.coords(i).iter().enumerate().take(C::DIMS) {
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

/// A word layout of the node space that the closures run on: [`Lanes`]
/// for rows of at most 64 nodes, [`Rows`] for wider ones.
trait Words: Copy {
    /// One closure, in rule 3's orientation: a healthy node is labelled
    /// once its `-x`, `-y` (and `-z`) neighbors all block. `blocked` holds
    /// `faults` on entry and faults plus labels on return.
    fn close(self, border_blocks: bool, faults: &[u64], blocked: &mut [u64]);

    /// The linear node index of bit 0 of each word, in word order
    /// (endless: zip it with the words).
    fn bases(self) -> Bases;

    /// The words as a [`NodeSet`].
    fn pack(self, words: Vec<u64>) -> NodeSet;
}

impl Words for Lanes {
    fn close(self, border_blocks: bool, faults: &[u64], blocked: &mut [u64]) {
        close_lanes(self, border_blocks, faults, blocked)
    }

    fn bases(self) -> Bases {
        Lanes::bases(self)
    }

    fn pack(self, words: Vec<u64>) -> NodeSet {
        Lanes::pack(self, words)
    }
}

impl Words for Rows {
    fn close(self, border_blocks: bool, faults: &[u64], blocked: &mut [u64]) {
        // Rows of two words get their own copy of the sweep, in which the
        // row width `W` is a constant the compiler folds; `W = 0` reads
        // the width at run time.
        if self.wpr == 2 {
            sweep::<2>(self, border_blocks, faults, blocked)
        } else {
            sweep::<0>(self, border_blocks, faults, blocked)
        }
    }

    fn bases(self) -> Bases {
        Bases::new(self.wpr, self.ext[0], 64)
    }

    fn pack(self, words: Vec<u64>) -> NodeSet {
        Rows::pack(self, &words)
    }
}

/// [`close_and_write`] on `lanes`, or on `rows` if a row does not fit in
/// a word. Not generic, so the kernels and their callers are compiled,
/// and inlined into each other, in this crate whichever crate computes
/// the labelling.
fn label(
    rows: Rows,
    lanes: Option<Lanes>,
    border_blocks: bool,
    st: &mut [NodeStatus],
    faults: Vec<u64>,
    flipped: Vec<u64>,
) -> NodeSet {
    match lanes {
        Some(l) => close_and_write(l, border_blocks, st, faults, flipped),
        None => close_and_write(rows, border_blocks, st, faults, flipped),
    }
}

/// Both closures on the layout `l` over the fault words `faults` and
/// those of the point reflection `flipped`, then the statuses (into `st`,
/// which holds the faults and is safe elsewhere) and the unsafe set,
/// written from the words: each set bit is one status write at its word's
/// base index plus the bit, touching only labelled nodes. A label at
/// linear index `i` of the reflection is node `N − 1 − i`.
fn close_and_write<L: Words>(
    l: L,
    border_blocks: bool,
    st: &mut [NodeStatus],
    faults: Vec<u64>,
    flipped: Vec<u64>,
) -> NodeSet {
    let mut blocked = faults.clone();
    l.close(border_blocks, &faults, &mut blocked);
    let mut useless = flipped.clone();
    l.close(border_blocks, &flipped, &mut useless);

    let mut cant = NodeStatus::SAFE;
    cant.mark_cant_reach();
    for ((at, &f), &b) in l.bases().zip(&faults).zip(&blocked) {
        // Labels are rare: most words hold faults alone.
        if b != f {
            for_bits(b & !f, |bit| st[at + bit] = cant);
        }
    }
    let mut unsafe_set = l.pack(blocked);
    let last = st.len() - 1;
    for ((at, &f), &u) in l.bases().zip(&flipped).zip(&useless) {
        if u == f {
            continue;
        }
        for_bits(u & !f, |bit| {
            let i = last - (at + bit);
            st[i].mark_useless();
            unsafe_set.insert(i);
        });
    }
    unsafe_set
}

/// Call `f` with the position of each set bit of `word`, lowest first.
#[inline(always)]
fn for_bits(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// One closure on [`Lanes`] ([`Words::close`]).
///
/// The words are settled in increasing `(z, j)` order, so on a mesh the
/// word a plane below and the word before along `y` are final when a word
/// is reached, and one pass is the fixpoint. A word's free nodes are its
/// healthy nodes whose `-z` input blocks. Each round, a free node whose
/// `-y` input blocks is a candidate — lane 0 reads the last real lane of
/// the word before, the other lanes the lane below them (`cur << nx`) —
/// and the candidates whose `-x` input blocks seed a fill up each lane
/// ([`Lanes::fill_up`]). A round settles at least the lowest unsettled
/// lane, so on a mesh at most `per` rounds reach the word's fixpoint.
///
/// Past a mesh border an input blocks everything under `border_blocks`
/// (and lane starts seed the fill) and nothing otherwise (an open `-y` or
/// `-z` input leaves a lane no candidates). On a torus the `x` wrap is in
/// [`Lanes::x_neighbors`], the `y` and `z` wraps read the far word as it
/// stands when the word is reached (on a one-word plane, the word
/// itself), rounds repeat until the word is stable and the pass repeats
/// until no word changes, which settles any input read stale.
fn close_lanes(l: Lanes, border_blocks: bool, faults: &[u64], blocked: &mut [u64]) {
    let ([nx, _, nz], wrap, wpp) = (l.rows.ext, l.rows.wrap, l.wpp);
    let border = if border_blocks { u64::MAX } else { 0 };
    // A torus has no border along `x`: its wrap is in `x_neighbors`.
    let border_seeds = if wrap { 0 } else { border & l.starts };
    // The offsets of the last lane of a word and of the last real lane of
    // a plane, and the real lanes of a plane's inner and last words.
    let (top, last) = (((l.per - 1) * nx) as u32, l.edge(wpp - 1));
    let (inner, outer) = (l.real(0), l.real(wpp - 1));
    let rounds = if wrap { usize::MAX } else { l.per };
    loop {
        let mut changed = false;
        for z in 0..nz {
            let plane = z * wpp;
            // The plane of the `-z` inputs; in 2-D every one blocks.
            let (under, z_open) = match (l.rows.dims, z) {
                (2, _) => (None, u64::MAX),
                (_, 0) if !wrap => (None, border),
                (_, 0) => (Some((nz - 1) * wpp), 0),
                _ => (Some(plane - wpp), 0),
            };
            // The word before along `y` as settled (final on a mesh).
            let mut prev = 0;
            for j in 0..wpp {
                let w = plane + j;
                let f = faults[w];
                let z_in = under.map_or(z_open, |p| blocked[p + j]);
                let free = !f & z_in & if j + 1 == wpp { outer } else { inner };
                // Lane 0's `-y` input: the last real lane of the word
                // before (of the plane's last word on the wrap).
                let lane0 = match j {
                    0 if !wrap => border & l.lane,
                    0 => l.take(blocked[plane + wpp - 1], last),
                    _ => l.take(prev, top),
                };
                let old = blocked[w];
                let mut cur = old;
                for _ in 0..rounds {
                    let cand = free & (cur.checked_shl(nx as u32).unwrap_or(0) | lane0);
                    let seeds = cand & (l.x_neighbors(cur).0 | border_seeds);
                    let new = f | l.fill_up(cand, seeds);
                    if new == cur {
                        break;
                    }
                    cur = new;
                }
                prev = cur;
                if cur != old {
                    blocked[w] = cur;
                    changed = true;
                }
            }
        }
        if !(wrap && changed) {
            break;
        }
    }
}

/// One closure on [`Rows`] of more than 64 nodes ([`Words::close`]),
/// for rows of `W` words (`0`: any width).
///
/// On a mesh one sweep in increasing row order is the fixpoint: a row's
/// `-y` and `-z` neighbor rows are final when it is reached. A row's
/// candidates are its healthy nodes whose off-row inputs all block; its
/// seeds are the candidates whose `-x` input blocks, and every candidate
/// of a run that starts at a seed is labelled, which one run fill finds. A
/// row past a mesh border blocks everything under `border_blocks` and
/// nothing otherwise. On a torus a row's bit 0 reads bit `nx − 1`, so the
/// row is redone until it is stable, and the sweep repeats until no row
/// changes.
fn sweep<const W: usize>(rows: Rows, border_blocks: bool, faults: &[u64], blocked: &mut [u64]) {
    let [nx, ny, nz] = rows.ext;
    let wpr = if W == 0 { rows.wpr } else { W };
    let (top, top_bit) = ((nx - 1) / 64, (nx - 1) % 64);
    loop {
        let mut changed = false;
        for z in 0..nz {
            for y in 0..ny {
                let r = z * ny + y;
                let (mut inputs, mut n, mut open) = ([0; 2], 0, false);
                for a in 1..rows.dims {
                    match rows.step(r, [y, z], a, false) {
                        Some(j) => {
                            inputs[n] = j * wpr;
                            n += 1;
                        }
                        None => open |= !border_blocks,
                    }
                }
                if open {
                    continue; // an input past an open border: no candidates
                }
                let (inputs, row) = (&inputs[..n], r * wpr);
                loop {
                    // The bit shifted into bit 0: its `-x` input.
                    let mut below = if rows.wrap {
                        blocked[row + top] >> top_bit & 1
                    } else {
                        u64::from(border_blocks)
                    };
                    let mut fill = RunFill::default();
                    let mut row_changed = false;
                    for k in 0..wpr {
                        let f = faults[row + k];
                        let cand = inputs
                            .iter()
                            .fold(!f & rows.mask(k), |c, &j| c & blocked[j + k]);
                        let old = blocked[row + k];
                        if cand == 0 {
                            // No labels here, and no run carries on.
                            fill = RunFill::default();
                            below = old >> 63;
                            continue;
                        }
                        let seeds = cand & (old << 1 | below);
                        below = old >> 63;
                        let new = f | fill.word(cand, seeds);
                        row_changed |= new != old;
                        blocked[row + k] = new;
                    }
                    changed |= row_changed;
                    if !(rows.wrap && row_changed) {
                        break;
                    }
                }
            }
        }
        if !(rows.wrap && changed) {
            break;
        }
    }
}
