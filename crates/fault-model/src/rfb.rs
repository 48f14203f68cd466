//! Rectangular / cuboid faulty blocks — the classical baseline model,
//! written once over the 2-D and 3-D node spaces.
//!
//! The conventional orthogonal convex fault model (Boppana–Chalasani; the
//! 3-D routing literature the paper compares against uses its cuboid
//! form): a healthy node is *disabled* if it has **two or more**
//! faulty-or-disabled neighbors, and each connected disabled component is
//! widened to its bounding box and filled, until the disabled set is a
//! disjoint union of full boxes. The model is orientation-blind and much
//! more aggressive than MCC: it is the baseline the paper's evaluation
//! counts sacrificed healthy nodes against.
//!
//! The rule is 2-neighbour bootstrap percolation, run on bit rows along
//! `x` (`crate::rows`) with a dirty worklist. With its off-row neighbor
//! rows held fixed, a row closes in a few word operations: a node with two
//! disabled off-row neighbors is disabled outright, a node with one is
//! disabled once an in-row neighbor is (a run fill each way along the
//! row), and a node with none once both in-row neighbors are (a shift and
//! an AND). Rows of at most 64 nodes are packed `⌊64/nx⌋` to a word
//! (`rows::Lanes`) and a word settles all its rows at once: the rows
//! beside a row in the word are lane shifts, and the run fill is one
//! segmented add per word that carries no bit across a lane. Wider rows
//! settle a row at a time. A word or row that changes marks its neighbors
//! dirty, and sweeps up and down the grid settle the dirty ones until
//! none is left.
//!
//! On a mesh that closure is the model: a connected set closed under the
//! rule is already a full box, and two boxes closer than ℓ1 distance 3
//! would leave a node with two disabled neighbors, so the disabled set is
//! a union of full boxes pairwise ≥ 3 apart. Only on a torus can a
//! component cross the wrap seam and span the grid without filling its
//! box, so only there are the row runs joined into components after the
//! closure, the boxes that are not full filled and the closure resumed.
//! At the fixpoint no boxes merge. [`FaultBlocks::blocks`] derives the
//! box list from the disabled rows when asked, in ascending linear index
//! of the min corners; no trial reads it (DESIGN.md §6, "The faulty-block
//! kernel").

use std::borrow::Cow;

use mesh_topo::{Coord, Frame, Mesh, NodeSet, NodeSpace, C2, C3};

use crate::oracle::Useful;
use crate::rows::{push_runs, reverse_row, Lanes, Rows, RunFill};

/// The faulty-block decomposition of a mesh or torus.
///
/// The disabled set is a [`NodeSet`] bitset over the mesh's node space.
/// All coordinates are mesh coordinates: the model is
/// orientation-independent.
#[derive(Clone, Debug)]
pub struct FaultBlocks<C: Coord> {
    space: NodeSpace<C>,
    disabled: NodeSet,
    fault_count: usize,
}

/// The rectangular-block model of a 2-D mesh.
pub type FaultBlocks2 = FaultBlocks<C2>;

/// The cuboid-block model of a 3-D mesh.
pub type FaultBlocks3 = FaultBlocks<C3>;

impl<C: Coord> FaultBlocks<C> {
    /// Compute the block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh<C>) -> FaultBlocks<C> {
        let mut p = Percolation::new(mesh);
        p.close();
        // On a mesh the closure is already a union of full boxes (module
        // docs): only a torus can need the fill.
        while p.rows.wrap && p.fill(&component_boxes(p.rows, &p.disabled_rows())) {
            p.close();
        }
        FaultBlocks {
            space: mesh.space(),
            disabled: p.into_set(),
            fault_count: mesh.fault_count(),
        }
    }

    /// The fault blocks: disjoint, each fully disabled, in ascending
    /// linear index of their min corners. Derived from the disabled set
    /// on each call.
    pub fn blocks(&self) -> Vec<C::Block> {
        let rows = Rows::of(self.space);
        let mut boxes = component_boxes(rows, &rows.unpack(&self.disabled));
        // Each box is full, so its min corner is its component's first node.
        let [nx, ny, _] = rows.ext;
        boxes.sort_unstable_by_key(|b| (b.lo[2] * ny + b.lo[1]) * nx + b.lo[0]);
        let corner = |c: [usize; 3]| C::from_xyz(c.map(|v| v as i32));
        boxes
            .iter()
            .map(|b| C::block(corner(b.lo), corner(b.hi)))
            .collect()
    }

    /// True if `c` is inside some fault block (faulty or disabled).
    #[inline]
    pub fn is_disabled(&self, c: C) -> bool {
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
}

impl<C: Coord> FaultBlocks<C> {
    /// Existence of a minimal path from `s` to `d` **under the block model**:
    /// a monotone path (after canonicalization) avoiding every disabled node.
    /// This is how block-based routing decides success — endpoints inside a
    /// block or separated by blocks fail even when the physical fault set
    /// would admit a minimal path. `s`, `d` are mesh coordinates.
    pub fn minimal_path_exists(&self, mesh: &Mesh<C>, s: C, d: C) -> bool {
        self.minimal_path_exists_in(mesh, s, d, &mut Useful::scratch())
    }

    /// [`FaultBlocks::minimal_path_exists`] with a caller-provided scratch
    /// buffer for the reachability sweep, which reads the disabled set's
    /// rows directly (see [`Useful::recompute_set`]). When it returns
    /// `true`, `useful` holds the block-useful set of the canonical pair.
    pub fn minimal_path_exists_in(
        &self,
        mesh: &Mesh<C>,
        s: C,
        d: C,
        useful: &mut Useful<C>,
    ) -> bool {
        if self.is_disabled(s) || self.is_disabled(d) {
            return false;
        }
        let frame = Frame::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        useful.recompute_set(cs, cd, &self.disabled, self.space, Some(frame));
        useful.contains(cs)
    }
}

/// The bounding box of one connected disabled component.
struct Bounds {
    lo: [usize; 3],
    hi: [usize; 3],
    /// The number of nodes in the component.
    size: usize,
}

impl Bounds {
    /// True if every node of the box is disabled.
    fn full(&self) -> bool {
        self.size == (0..3).map(|k| self.hi[k] - self.lo[k] + 1).product()
    }
}

/// The scratch state of one [`FaultBlocks::compute`].
///
/// Rows of at most 64 nodes are settled a word of [`Lanes`] at a time,
/// wider ones a row at a time; `disabled` and `dirty` hold words in the
/// first case and rows in the second. The two are *units* below.
struct Percolation {
    rows: Rows,
    /// The lane layout, if a row fits in one word.
    lanes: Option<Lanes>,
    /// The disabled set, by units.
    disabled: Vec<u64>,
    /// The units to settle, and how many there are.
    dirty: Vec<bool>,
    pending: usize,
    /// Row-sized buffers for [`Percolation::settle`] on rows of more
    /// than two words.
    scratch: [Vec<u64>; 7],
}

impl Percolation {
    /// The state of `mesh`'s faults before any propagation, every unit
    /// dirty.
    fn new<C: Coord>(mesh: &Mesh<C>) -> Percolation {
        let rows = Rows::of(mesh.space());
        let lanes = Lanes::of(rows);
        let mut disabled = lanes.map_or_else(|| rows.zeroed(), Lanes::zeroed);
        for &f in mesh.faults() {
            match lanes {
                Some(l) => l.toggle(&mut disabled, f.xyz()),
                None => rows.toggle(&mut disabled, f.xyz()),
            }
        }
        let units = lanes.map_or(rows.count(), Lanes::count);
        Percolation {
            rows,
            lanes,
            disabled,
            dirty: vec![true; units],
            pending: units,
            // Rows of one or two words use no buffers (`settle`), so these
            // stay empty and allocate nothing.
            scratch: std::array::from_fn(|_| vec![0; if rows.wpr > 2 { rows.wpr } else { 0 }]),
        }
    }

    /// The units next to unit `u` (at `yz`: the `y` of a row, the index
    /// in its plane of a word, and `z`) along `y` and `z`, `u` itself left
    /// out; the first `n` are set.
    #[inline(always)]
    fn neighbors(&self, u: usize, yz: [usize; 2]) -> ([usize; 4], usize) {
        let rows = self.rows;
        let (mut out, mut n) = ([0; 4], 0);
        for a in 1..rows.dims {
            for up in [true, false] {
                let j = match self.lanes {
                    Some(l) => l.step(u, yz, a, up),
                    None => rows.step(u, yz, a, up),
                };
                if let Some(j) = j.filter(|&j| j != u) {
                    out[n] = j;
                    n += 1;
                }
            }
        }
        (out, n)
    }

    fn mark(&mut self, u: usize) {
        if !self.dirty[u] {
            self.dirty[u] = true;
            self.pending += 1;
        }
    }

    /// Settle the dirty units in sweeps up and down the grid, alternately,
    /// until none is left. A unit that changes marks its neighbors dirty,
    /// and a unit later in the same sweep sees the change at once.
    fn close(&mut self) {
        // Rows of two words get their own copy of the row sweep, in which
        // the row width `W` is a constant the compiler folds and the row
        // buffers live on the stack; `W = 0` reads the width at run time.
        match (self.lanes, self.rows.wpr) {
            (Some(l), _) => self.sweep(l.wpp, |p, w, jz| p.settle_word(l, w, jz)),
            (None, 2) => self.sweep(self.rows.ext[1], Self::settle::<2>),
            _ => self.sweep(self.rows.ext[1], Self::settle::<0>),
        }
    }

    /// [`Percolation::close`] over `plane` units per `z` plane.
    #[inline(always)]
    fn sweep(&mut self, plane: usize, mut settle: impl FnMut(&mut Self, usize, [usize; 2])) {
        let nz = self.rows.ext[2];
        let mut up = true;
        while self.pending > 0 {
            for kz in 0..nz {
                for ky in 0..plane {
                    let yz @ [y, z] = if up {
                        [ky, kz]
                    } else {
                        [plane - 1 - ky, nz - 1 - kz]
                    };
                    let u = z * plane + y;
                    if self.dirty[u] {
                        self.dirty[u] = false;
                        self.pending -= 1;
                        settle(self, u, yz);
                    }
                }
            }
            up = !up;
        }
    }

    /// Close word `w` under the rule with the words around it held fixed,
    /// and mark dirty each neighbor word that the nodes it gains can
    /// change.
    ///
    /// A lane's `y` neighbors are the lanes beside it, and past either end
    /// of the word the nearest lane of the neighbor word (on a torus whose
    /// plane is one word, the word's own far lane); its `z` neighbors are
    /// the same lane of the words a plane away. Counted bit-sliced as in
    /// [`Percolation::settle`], a round gives the seeds, and the free runs
    /// that hold one fill in every lane at once ([`Lanes::spread`]). The
    /// lanes beside a lane change with the word, so the rounds repeat
    /// until the word is stable. Phantom lanes need no mask: the only lane
    /// beside one that can hold a node is the last real lane, and one
    /// disabled neighbor off an empty row disables none of its nodes. The
    /// bits the `y` shift pushes above the last lane are harmless the same
    /// way: they reach `any` and `free`, never a seed.
    #[inline(always)]
    fn settle_word(&mut self, l: Lanes, w: usize, jz @ [j, _]: [usize; 2]) {
        let (nx, d) = (self.rows.ext[0] as u32, &self.disabled);
        // The offsets of the last real lanes of `w` and of the word before
        // it along `y`.
        let (edge, edge_below) = (l.edge(j), l.edge(if j == 0 { l.wpp - 1 } else { j - 1 }));
        // The fixed inputs: the planes either side, and the lanes entering
        // from the words either side along `y`.
        let planes = if self.rows.dims == 3 {
            [true, false].map(|up| l.step(w, jz, 2, up))
        } else {
            [None; 2]
        };
        let (mut z_any, mut z_two) = (0, 0);
        for n in planes.into_iter().flatten() {
            z_two |= z_any & d[n];
            z_any |= d[n];
        }
        // On a torus whose plane is one word, that word is its own `y`
        // neighbor, read from `cur` in every round instead.
        let (mut below, mut above) = (l.step(w, jz, 1, false), l.step(w, jz, 1, true));
        let own = below == Some(w);
        if own {
            (below, above) = (None, None);
        }
        let from_below = below.map_or(0, |n| l.take(d[n], edge_below));
        let from_above = above.map_or(0, |n| l.put(d[n], edge));
        let old = d[w];
        let mut cur = old;
        loop {
            let mut y_lo = cur.checked_shl(nx).unwrap_or(0) | from_below;
            let mut y_hi = cur.checked_shr(nx).unwrap_or(0) | from_above;
            if own {
                y_lo |= l.take(cur, edge);
                y_hi |= l.put(cur, edge);
            }
            let any = z_any | y_lo | y_hi;
            let two = z_two | (z_any & (y_lo | y_hi)) | (y_lo & y_hi);
            let (lo, hi) = l.x_neighbors(cur);
            let seeds = cur | two | (any & (lo | hi)) | (lo & hi);
            if seeds == cur {
                break;
            }
            cur = l.spread(any | seeds, seeds);
        }
        if cur == old {
            return;
        }
        self.disabled[w] = cur;
        let gained = cur & !old;
        let d = &self.disabled;
        // The same lanes a plane away, and the lane of the word either
        // side along `y` next to lane 0 or to the last real lane.
        let across = planes.map(|n| n.filter(|&n| gained & !d[n] != 0));
        let along = [
            below.filter(|&n| l.put(gained, edge_below) & !d[n] != 0),
            above.filter(|&n| l.take(gained, edge) & !d[n] != 0),
        ];
        for n in across.into_iter().chain(along).flatten() {
            self.mark(n);
        }
    }

    /// Close row `r` under the rule with its neighbor rows held fixed,
    /// and mark dirty each neighbor row that the nodes it gains can
    /// change: one that does not already hold them all.
    ///
    /// Off the row, `any` and `two` count the disabled neighbor rows
    /// bit-sliced. A node in `two` is disabled, and so is a node whose two
    /// in-row neighbors are. A node in `any` is disabled once an in-row
    /// neighbor is, so every run of `any` nodes that touches a disabled
    /// node fills ([`spread`]). Rounds of these repeat until none adds a
    /// node.
    #[inline(always)]
    fn settle<const W: usize>(&mut self, r: usize, yz: [usize; 2]) {
        let (nbrs, n) = self.neighbors(r, yz);
        let rows = self.rows;
        let wpr = if W == 0 { rows.wpr } else { W };
        let mut stack = [[0; W]; 7];
        let [any, two, cur, seeds, free, rf, rs] = if W == 0 {
            self.scratch.each_mut().map(|b| &mut b[..])
        } else {
            stack.each_mut().map(|b| &mut b[..])
        };
        for k in 0..wpr {
            let (mut a, mut t) = (0, 0);
            for &j in &nbrs[..n] {
                let w = self.disabled[j * wpr + k];
                t |= a & w;
                a |= w;
            }
            any[k] = a;
            two[k] = t;
        }
        let row = &mut self.disabled[r * wpr..(r + 1) * wpr];
        if !round(rows, row, any, two, seeds, free) {
            return;
        }
        loop {
            spread(rows.ext[0], free, seeds, cur, [rf, rs]);
            if !round(rows, cur, any, two, seeds, free) {
                break;
            }
        }
        let gained = seeds;
        for k in 0..wpr {
            gained[k] = cur[k] & !row[k];
        }
        row.copy_from_slice(cur);
        for &j in &nbrs[..n] {
            let there = &self.disabled[j * wpr..(j + 1) * wpr];
            if !self.dirty[j] && (0..wpr).any(|k| gained[k] & !there[k] != 0) {
                self.dirty[j] = true;
                self.pending += 1;
            }
        }
    }

    /// The disabled set as rows.
    fn disabled_rows(&self) -> Cow<'_, [u64]> {
        match self.lanes {
            Some(l) => Cow::Owned(l.to_rows(&self.disabled)),
            None => Cow::Borrowed(&self.disabled),
        }
    }

    /// The disabled set as a [`NodeSet`].
    fn into_set(self) -> NodeSet {
        match self.lanes {
            Some(l) => l.pack(self.disabled),
            None => self.rows.pack(&self.disabled),
        }
    }

    /// Disable every node of every box that is not full, and queue the
    /// changed units and their neighbors. Returns true if any node changed.
    fn fill(&mut self, boxes: &[Bounds]) -> bool {
        let (ny, wpr) = (self.rows.ext[1], self.rows.wpr);
        let mut filled = false;
        for b in boxes.iter().filter(|b| !b.full()) {
            for z in b.lo[2]..=b.hi[2] {
                for y in b.lo[1]..=b.hi[1] {
                    // The row's unit and its place, its first word and the
                    // bit of `x = 0`.
                    let (u, yz, first, at) = match self.lanes {
                        Some(l) => {
                            let (w, at) = l.at(y, z);
                            (w, [y / l.per, z], w, at)
                        }
                        None => (z * ny + y, [y, z], (z * ny + y) * wpr, 0),
                    };
                    let mut changed = false;
                    for k in 0..wpr {
                        let (w0, w1) = (k * 64, k * 64 + 63);
                        if b.hi[0] < w0 || b.lo[0] > w1 {
                            continue;
                        }
                        let (from, to) = (b.lo[0].max(w0) - w0, b.hi[0].min(w1) - w0);
                        let m = (u64::MAX >> (63 - to)) & (u64::MAX << from);
                        let w = &mut self.disabled[first + k];
                        changed |= m << at & !*w != 0;
                        *w |= m << at;
                    }
                    if changed {
                        filled = true;
                        self.mark(u);
                        let (nbrs, n) = self.neighbors(u, yz);
                        for &j in &nbrs[..n] {
                            self.mark(j);
                        }
                    }
                }
            }
        }
        filled
    }
}

/// The bounding box of every connected disabled component of the rows
/// `disabled`. Components are built from the row runs: runs that overlap in neighboring rows
/// join, and on a torus so do the runs at either end of a row.
fn component_boxes(rows: Rows, disabled: &[u64]) -> Vec<Bounds> {
    let ([nx, ny, nz], wpr) = (rows.ext, rows.wpr);
    let ones: usize = disabled.iter().map(|w| w.count_ones() as usize).sum();
    if ones == rows.count() * nx {
        // Percolation: the one component is the whole grid.
        return vec![Bounds {
            lo: [0; 3],
            hi: rows.ext.map(|n| n - 1),
            size: ones,
        }];
    }
    // Row `r`'s runs `(x0, x1)` are `runs[first[r]..first[r + 1]]`.
    let mut runs = Vec::with_capacity(ones);
    let mut first = Vec::with_capacity(rows.count() + 1);
    for row in disabled.chunks_exact(wpr) {
        first.push(runs.len());
        push_runs(row, &mut runs);
    }
    first.push(runs.len());

    let mut parent: Vec<usize> = (0..runs.len()).collect();
    let find = |parent: &mut Vec<usize>, mut i: usize| {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    };
    let join = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (a, b) = (find(parent, a), find(parent, b));
        parent[a.max(b)] = a.min(b);
    };
    for z in 0..nz {
        for y in 0..ny {
            let r = z * ny + y;
            let (a0, a1) = (first[r], first[r + 1]);
            if rows.wrap && a1 - a0 >= 2 && runs[a0].0 == 0 && runs[a1 - 1].1 == nx - 1 {
                join(&mut parent, a0, a1 - 1);
            }
            for a in 1..rows.dims {
                let Some(j) = rows.step(r, [y, z], a, true) else {
                    continue;
                };
                // Each run of the rows' intersection joins the run of
                // either row that holds its first node.
                let (here, there) = (&disabled[r * wpr..], &disabled[j * wpr..]);
                let holder = |r: usize, x: usize| {
                    let row = &runs[first[r]..first[r + 1]];
                    first[r] + row.partition_point(|&(_, x1)| x1 < x)
                };
                for k in 0..wpr {
                    let mut both = here[k] & there[k];
                    let below = if k > 0 { here[k - 1] & there[k - 1] } else { 0 };
                    both &= !(both << 1 | below >> 63);
                    while both != 0 {
                        let x = k * 64 + both.trailing_zeros() as usize;
                        join(&mut parent, holder(r, x), holder(j, x));
                        both &= both - 1;
                    }
                }
            }
        }
    }

    // A run's parent never follows it (`join` keeps the lower index),
    // so in one pass in run order each parent is already a root, and
    // each box opens at its root.
    let mut slot = vec![0; runs.len()];
    let mut boxes: Vec<Bounds> = Vec::with_capacity(runs.len());
    for z in 0..nz {
        for y in 0..ny {
            let r = z * ny + y;
            for i in first[r]..first[r + 1] {
                let (x0, x1) = runs[i];
                let root = parent[parent[i]];
                parent[i] = root;
                if root == i {
                    slot[i] = boxes.len();
                    boxes.push(Bounds {
                        lo: [x0, y, z],
                        hi: [x1, y, z],
                        size: 0,
                    });
                }
                let b = &mut boxes[slot[root]];
                for (k, v) in [(0, x0), (1, y), (2, z)] {
                    b.lo[k] = b.lo[k].min(v);
                }
                for (k, v) in [(0, x1), (1, y), (2, z)] {
                    b.hi[k] = b.hi[k].max(v);
                }
                b.size += x1 - x0 + 1;
            }
        }
    }
    boxes
}

/// One round of the block rule on row `cur`, whose neighbor rows count
/// `any` and `two`: `seeds` = `cur` plus the nodes the rule disables at
/// once — those in `two`, those between two disabled in-row neighbors,
/// and those in `any` next to a disabled node — and `free` = `any` ∪
/// `seeds`, the nodes a disabled in-row neighbor disables. Returns true
/// if `seeds` adds a node to `cur`. On a torus bit 0 and bit `nx − 1`
/// are neighbors.
#[inline(always)]
fn round(
    rows: Rows,
    cur: &[u64],
    any: &[u64],
    two: &[u64],
    seeds: &mut [u64],
    free: &mut [u64],
) -> bool {
    let (w, top) = (cur.len(), (rows.ext[0] - 1) % 64);
    let (mut below, wrap_in) = if rows.wrap {
        (cur[w - 1] >> top & 1, (cur[0] & 1) << top)
    } else {
        (0, 0)
    };
    let mut grows = false;
    for k in 0..w {
        let c = cur[k];
        let above = cur.get(k + 1).map_or(wrap_in, |n| n << 63);
        // Whether each node's `-x` and `+x` neighbor is disabled.
        let (lo, hi) = ((c << 1 | below) & rows.mask(k), c >> 1 | above);
        below = c >> 63;
        let s = c | two[k] | (any[k] & (lo | hi)) | (lo & hi);
        seeds[k] = s;
        free[k] = any[k] | s;
        grows |= s != c;
    }
    grows
}

/// `out` = every bit of the `nx`-bit row `free` in a run that holds a bit
/// of `seeds` (a subset of `free`): a run fill up the row and, where a run
/// reaches below its lowest seed, one down it on the bit-reversed row.
/// `tmp` are two row-sized buffers.
#[inline(always)]
fn spread(nx: usize, free: &[u64], seeds: &[u64], out: &mut [u64], tmp: [&mut [u64]; 2]) {
    let mut fill = RunFill::default();
    for k in 0..free.len() {
        out[k] = fill.word(free[k], seeds[k]);
    }
    let down = (0..out.len()).any(|k| {
        let above = out.get(k + 1).map_or(0, |n| n << 63);
        (out[k] >> 1 | above) & free[k] & !out[k] != 0
    });
    if !down {
        return;
    }
    let [rf, rs] = tmp;
    rf.copy_from_slice(free);
    rs.copy_from_slice(seeds);
    reverse_row(rf, nx);
    reverse_row(rs, nx);
    let mut fill = RunFill::default();
    for k in 0..free.len() {
        rf[k] = fill.word(rf[k], rs[k]);
    }
    reverse_row(rf, nx);
    for (o, &d) in out.iter_mut().zip(rf.iter()) {
        *o |= d;
    }
}
