//! Flat, index-addressed node-state storage: linearized coordinate spaces,
//! a packed bitset over node indices, and a dense per-node value array.
//!
//! Everything that iterates whole meshes — fault sets, labelling closures,
//! connected-component discovery, detection floods — runs over **linear node
//! indices** instead of hashed coordinates. A [`NodeSpace`] is the
//! (copyable) linearization, written once over the coordinate type
//! ([`NodeSpace2`] / [`NodeSpace3`] name its two dimensions): it maps a
//! coordinate to its row-major index and back, and enumerates neighbor
//! indices without allocating. [`NodeSet`] is a `u64`-word bitset over such
//! a space — membership is one shift and mask, iteration scans whole words
//! with `trailing_zeros`, and set difference is word-parallel.
//! [`NodeGrid`] is the matching dense value array.
//!
//! Index layout: `x` fastest, then `y`, then `z` — `i = (z·ny + y)·nx + x`.
//!
//! # Examples
//!
//! ```
//! use mesh_topo::coord::c2;
//! use mesh_topo::{NodeSet, NodeSpace2};
//!
//! let space = NodeSpace2::new(8, 8);
//! let mut frontier = NodeSet::new(space.len());
//! frontier.insert(space.index(c2(3, 4)));
//! frontier.insert(space.index(c2(7, 7)));
//! assert_eq!(frontier.len(), 2);
//! assert!(frontier.contains(space.index(c2(3, 4))));
//!
//! // Fast iteration yields indices in row-major order.
//! let coords: Vec<_> = frontier.iter().map(|i| space.coord(i)).collect();
//! assert_eq!(coords, vec![c2(3, 4), c2(7, 7)]);
//! ```

use core::marker::PhantomData;

use crate::coord::{Coord, C2, C3};

/// Linearization of a node lattice with coordinates `C`: `x` fastest,
/// then `y`, then `z` — `i = (z·ny + y)·nx + x`.
///
/// A space is either a **mesh** (no wrap-around; neighbor probes past a
/// border simply do not exist) or a **torus** ([`NodeSpace2::torus`],
/// [`NodeSpace3::torus`]): every axis wraps modulo its extent, so every
/// node has the full neighborhood. The wrap mode is part of the space's
/// identity (it participates in equality) and is honored by
/// [`NodeSpace::step`] and both neighbor enumerators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeSpace<C> {
    /// Per-axis extents, `x` first; 1 past the space's axes.
    ext: [i32; 3],
    wrap: bool,
    coord: PhantomData<C>,
}

/// The linearization of a `width × height` 2-D node lattice.
pub type NodeSpace2 = NodeSpace<C2>;

/// The linearization of an `nx × ny × nz` 3-D node lattice.
pub type NodeSpace3 = NodeSpace<C3>;

impl<C: Coord> NodeSpace<C> {
    /// The space with extents `ext` (1 past the axes of `C`).
    fn over(ext: [i32; 3], wrap: bool) -> Self {
        let axes = &ext[..C::DIMS];
        if wrap {
            assert!(
                axes.iter().all(|&k| k >= 3),
                "torus dimensions must be at least 3 (distinct +/- neighbors)"
            );
        } else {
            assert!(
                axes.iter().all(|&k| k > 0),
                "node space dimensions must be positive"
            );
        }
        NodeSpace {
            ext,
            wrap,
            coord: PhantomData,
        }
    }

    /// Per-axis extents, `x` first; 1 past the space's axes.
    #[inline]
    pub fn extents(self) -> [usize; 3] {
        self.ext.map(|k| k as usize)
    }

    /// True if this space wraps around (it is a torus).
    #[inline]
    pub fn wraps(self) -> bool {
        self.wrap
    }

    /// Reduce an arbitrary integer coordinate into the space modulo the
    /// extents. The identity for in-space coordinates; meaningful for
    /// out-of-range probes only on a torus.
    #[inline]
    pub fn wrap_coord(self, c: C) -> C {
        C::from_xyz(self.wrap_xyz(c.xyz()))
    }

    /// Topology-aware distance between two in-space nodes: Manhattan on a
    /// mesh, Lee distance (per-axis shorter arc) on a torus.
    #[inline]
    pub fn dist(self, a: C, b: C) -> u32 {
        let (p, q) = (a.xyz(), b.xyz());
        (0..C::DIMS)
            .map(|k| {
                let d = p[k].abs_diff(q[k]);
                if self.wrap {
                    d.min(self.ext[k] as u32 - d)
                } else {
                    d
                }
            })
            .sum()
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(self) -> usize {
        let [x, y, z] = self.ext.map(|k| k as usize);
        if C::DIMS == 3 {
            x * y * z
        } else {
            x * y
        }
    }

    /// Node spaces are never empty (dimensions are positive).
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// True if `c` addresses a node of this space.
    #[inline]
    pub fn contains(self, c: C) -> bool {
        self.contains_xyz(c.xyz())
    }

    /// Linear index of `c`.
    ///
    /// # Panics
    /// If `c` is outside the space.
    #[inline]
    pub fn index(self, c: C) -> usize {
        assert!(
            self.contains(c),
            "coordinate {c:?} outside node space of extents {:?}",
            &self.ext[..C::DIMS]
        );
        self.linear(c.xyz())
    }

    /// Linear index of `c`, or `None` if outside the space.
    #[inline]
    pub fn index_checked(self, c: C) -> Option<usize> {
        let p = c.xyz();
        self.contains_xyz(p).then(|| self.linear(p))
    }

    /// The coordinate of linear index `i`.
    #[inline]
    pub fn coord(self, i: usize) -> C {
        debug_assert!(i < self.len());
        let nx = self.ext[0] as usize;
        let (x, yz) = (i % nx, i / nx);
        let (y, z) = if C::DIMS == 3 {
            let ny = self.ext[1] as usize;
            (yz % ny, yz / ny)
        } else {
            (yz, 0)
        };
        C::from_xyz([x as i32, y as i32, z as i32])
    }

    /// The index one step along `dir` from `i`. `None` at a mesh border;
    /// on a torus every step exists (it wraps).
    #[inline]
    pub fn step(self, i: usize, dir: C::Dir) -> Option<usize> {
        let (axis, positive) = C::axis_sign(dir);
        let v = self.coord(i).xyz()[axis] as usize;
        let k = self.ext[axis] as usize;
        let stride = match axis {
            0 => 1,
            1 => self.ext[0] as usize,
            _ => self.ext[0] as usize * self.ext[1] as usize,
        };
        if positive {
            if v + 1 < k {
                Some(i + stride)
            } else {
                self.wrap.then(|| i + stride - stride * k)
            }
        } else if v > 0 {
            Some(i - stride)
        } else {
            self.wrap.then(|| i + stride * k - stride)
        }
    }

    /// Call `f` with the index of every in-space axis neighbor of `i` (the
    /// 4-neighborhood in 2-D, the 6-neighborhood in 3-D), in `+X, -X, +Y,
    /// -Y[, +Z, -Z]` order ([`Dir2::ALL`](crate::Dir2::ALL) /
    /// [`Dir3::ALL`](crate::Dir3::ALL)). On a torus every probe wraps and
    /// every node has `2·DIMS` distinct neighbors.
    #[inline]
    pub fn for_axis_neighbors(self, i: usize, mut f: impl FnMut(usize)) {
        // One coordinate decomposition for all probes (this runs in the
        // per-message hot loop of the protocol engine).
        let p = self.coord(i).xyz();
        let mut stride = 1;
        for (&v, &k) in p.iter().zip(&self.ext).take(C::DIMS) {
            let (v, k) = (v as usize, k as usize);
            let span = stride * k;
            if v + 1 < k {
                f(i + stride);
            } else if self.wrap {
                f(i + stride - span);
            }
            if v > 0 {
                f(i - stride);
            } else if self.wrap {
                f(i + span - stride);
            }
            stride = span;
        }
    }

    /// Call `f` with the index of every in-space region-connectivity
    /// neighbor of `i` — the 8-neighborhood (face + diagonal) in 2-D, the
    /// 18-neighborhood (face + planar diagonal) in 3-D — in the order of
    /// [`Coord::REGION_OFFSETS`], which MCC component discovery relies on.
    #[inline]
    pub fn for_region_neighbors(self, i: usize, mut f: impl FnMut(usize)) {
        let p = self.coord(i).xyz();
        for off in C::REGION_OFFSETS {
            let q = [p[0] + off[0], p[1] + off[1], p[2] + off[2]];
            if self.wrap {
                f(self.linear(self.wrap_xyz(q)));
            } else if self.contains_xyz(q) {
                f(self.linear(q));
            }
        }
    }

    /// True if `p` lies inside the extents on every axis of `C`.
    #[inline]
    fn contains_xyz(self, p: [i32; 3]) -> bool {
        // A negative coordinate casts past every extent, so one unsigned
        // compare per axis checks both bounds.
        (0..C::DIMS).all(|a| (p[a] as u32) < self.ext[a] as u32)
    }

    /// `p` reduced modulo the extents on every axis of `C`.
    #[inline]
    fn wrap_xyz(self, mut p: [i32; 3]) -> [i32; 3] {
        for (v, &k) in p.iter_mut().zip(&self.ext).take(C::DIMS) {
            *v = v.rem_euclid(k);
        }
        p
    }

    /// The linear index of the in-space point `p`.
    #[inline]
    fn linear(self, p: [i32; 3]) -> usize {
        let nx = self.ext[0] as usize;
        let yz = if C::DIMS == 3 {
            p[2] as usize * self.ext[1] as usize + p[1] as usize
        } else {
            p[1] as usize
        };
        yz * nx + p[0] as usize
    }
}

impl NodeSpace<C2> {
    /// The space of a `width × height` mesh.
    ///
    /// # Panics
    /// If either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Self {
        Self::over([width, height, 1], false)
    }

    /// The space of a `width × height` torus: every axis wraps modulo its
    /// extent.
    ///
    /// # Panics
    /// If either dimension is smaller than 3 — with an extent of 1 a node
    /// would be its own neighbor and with 2 its `+` and `-` neighbors
    /// coincide, so the torus neighbor math (and the routing model on top)
    /// requires `k ≥ 3` per axis.
    pub fn torus(width: i32, height: i32) -> Self {
        Self::over([width, height, 1], true)
    }

    /// Extent along X.
    #[inline]
    pub fn width(self) -> i32 {
        self.ext[0]
    }

    /// Extent along Y.
    #[inline]
    pub fn height(self) -> i32 {
        self.ext[1]
    }
}

impl NodeSpace<C3> {
    /// The space of an `nx × ny × nz` mesh.
    ///
    /// # Panics
    /// If any dimension is not positive.
    pub fn new(nx: i32, ny: i32, nz: i32) -> Self {
        Self::over([nx, ny, nz], false)
    }

    /// The space of an `nx × ny × nz` torus: every axis wraps modulo its
    /// extent.
    ///
    /// # Panics
    /// If any dimension is smaller than 3 (see [`NodeSpace2::torus`]).
    pub fn torus(nx: i32, ny: i32, nz: i32) -> Self {
        Self::over([nx, ny, nz], true)
    }

    /// Extent along X.
    #[inline]
    pub fn nx(self) -> i32 {
        self.ext[0]
    }

    /// Extent along Y.
    #[inline]
    pub fn ny(self) -> i32 {
        self.ext[1]
    }

    /// Extent along Z.
    #[inline]
    pub fn nz(self) -> i32 {
        self.ext[2]
    }
}

/// A packed bitset over the linear indices of a node space.
///
/// One bit per node in `u64` words: membership tests are a shift and mask,
/// iteration scans whole words with `trailing_zeros` (64 absent nodes per
/// loop step), and difference runs word-parallel. This is
/// the frontier/visited/membership representation of every hot mesh kernel
/// (labelling closures, component BFS, detection floods, fault sampling).
///
/// All bits above `capacity()` are kept zero, so derived equality and the
/// word-level operations are exact.
#[derive(Clone, PartialEq, Eq)]
pub struct NodeSet {
    nbits: usize,
    ones: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set over a space of `nbits` nodes.
    pub fn new(nbits: usize) -> NodeSet {
        NodeSet {
            nbits,
            ones: 0,
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    /// Build a set from node indices.
    ///
    /// # Panics
    /// If an index is out of range.
    pub fn from_indices(nbits: usize, indices: impl IntoIterator<Item = usize>) -> NodeSet {
        let mut set = NodeSet::new(nbits);
        for i in indices {
            set.insert(i);
        }
        set
    }

    /// Number of representable nodes (the size of the underlying space).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Number of member nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// True if no node is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// True if node `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits, "index {i} out of range {}", self.nbits);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Add node `i`. Returns `true` if it was not already a member.
    ///
    /// # Panics
    /// If `i` is out of range — a hard assert, since a phantom bit in the
    /// last partial word would break the all-bits-above-capacity-are-zero
    /// invariant that equality, `len` and iteration rely on.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "index {i} out of range {}", self.nbits);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Remove node `i`. Returns `true` if it was a member.
    ///
    /// # Panics
    /// If `i` is out of range (hard assert, as for [`NodeSet::insert`]).
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "index {i} out of range {}", self.nbits);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Remove every member without reallocating.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.ones = 0;
    }

    /// Re-dimension the set to a space of `nbits` nodes and empty it,
    /// growing the word storage only when a larger space than any seen
    /// before demands it. This is the scratch-buffer entry point: a
    /// routing trial loop can carry one `NodeSet` across boxes of varying
    /// size without allocating in steady state.
    pub fn reset(&mut self, nbits: usize) {
        self.clear();
        // Keep the word count exact (not merely sufficient) so derived
        // equality still matches a fresh `NodeSet::new(nbits)`; `Vec`
        // retains its capacity across truncate/resize, so only a space
        // larger than any seen before actually allocates.
        self.words.resize(nbits.div_ceil(64), 0);
        self.nbits = nbits;
    }

    /// In-place difference: `self ∖= other`.
    ///
    /// # Panics
    /// If the sets cover differently sized spaces.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.nbits, other.nbits, "node set size mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        self.recount();
    }

    /// Iterate the members of `self ∖ other` in increasing order without
    /// materializing the difference — the dirty-region view of a churn
    /// delta: `after.difference_iter(before)` walks exactly the nodes that
    /// flipped on, one masked word at a time.
    ///
    /// # Panics
    /// If the sets cover differently sized spaces.
    pub fn difference_iter<'a>(&'a self, other: &'a NodeSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.nbits, other.nbits, "node set size mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| {
                let mut bits = a & !b;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let tz = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(wi * 64 + tz)
                    }
                })
            })
    }

    /// True if the sets share no member.
    ///
    /// # Panics
    /// If the sets cover differently sized spaces.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "node set size mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterate member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// The backing words (64 node bits each, index `i` at word `i / 64`,
    /// bit `i % 64`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Build a set over `nbits` nodes directly from its backing words —
    /// the assembly half of word-chunk-parallel set construction: threads
    /// fill disjoint `&mut [u64]` chunks of one `Vec` (word `w` covers
    /// indices `64·w .. 64·w + 64`, so chunks never share a node), and this
    /// constructor adopts the buffer, masks the tail bits above `nbits`
    /// (restoring the all-bits-above-capacity-are-zero invariant) and
    /// counts the members.
    ///
    /// # Panics
    /// If `words.len() != nbits.div_ceil(64)`.
    pub fn from_raw_words(nbits: usize, mut words: Vec<u64>) -> NodeSet {
        assert_eq!(
            words.len(),
            nbits.div_ceil(64),
            "word count must match the node space"
        );
        if !nbits.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (nbits % 64)) - 1;
            }
        }
        let mut set = NodeSet {
            nbits,
            ones: 0,
            words,
        };
        set.recount();
        set
    }

    fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

impl core::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NodeSet")
            .field("capacity", &self.nbits)
            .field("len", &self.ones)
            .finish()
    }
}

/// Dense per-node values keyed by linear node index.
///
/// The flat-array companion of [`NodeSet`]: same index space, arbitrary
/// payload. Thin by design — it is a `Vec<T>` that documents its indexing
/// contract and matches the node-space vocabulary of the surrounding code.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeGrid<T> {
    data: Vec<T>,
}

impl<T: Clone> NodeGrid<T> {
    /// A grid of `len` nodes, every value set to `fill`.
    pub fn new(len: usize, fill: T) -> NodeGrid<T> {
        NodeGrid {
            data: vec![fill; len],
        }
    }

    /// Reset every value to `fill` without reallocating.
    pub fn fill(&mut self, fill: T) {
        self.data.iter_mut().for_each(|v| *v = fill.clone());
    }
}

impl<T> NodeGrid<T> {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the grid holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the value at node `i`, or `None` if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.data.get(i)
    }

    /// The backing slice in index order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The mutable backing slice in index order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate `(index, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.data.iter().enumerate()
    }
}

impl<T> core::ops::Index<usize> for NodeGrid<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> core::ops::IndexMut<usize> for NodeGrid<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3};
    use crate::dir::{Dir2, Dir3};

    /// Every coordinate of `s`, in index order.
    fn coords<C: Coord>(s: NodeSpace<C>) -> impl Iterator<Item = C> {
        (0..s.len()).map(move |i| s.coord(i))
    }

    #[test]
    fn from_raw_words_masks_tail_and_counts() {
        // 70 bits -> 2 words; the second word's bits above 70 - 64 = 6 must
        // be dropped, and membership must equal an insert-built set.
        let words = vec![0b1011u64, u64::MAX];
        let set = NodeSet::from_raw_words(70, words);
        let expect = NodeSet::from_indices(70, (64..70).chain([0, 1, 3]));
        assert_eq!(set, expect);
        assert_eq!(set.len(), 9);
        assert!(!set.contains(63));
    }

    #[test]
    #[should_panic]
    fn from_raw_words_rejects_wrong_word_count() {
        NodeSet::from_raw_words(70, vec![0u64]);
    }

    #[test]
    fn difference_iter_matches_materialized_difference() {
        let a = NodeSet::from_indices(200, [0, 1, 63, 64, 65, 130, 199]);
        let b = NodeSet::from_indices(200, [1, 64, 130, 140]);
        let lazy: Vec<usize> = a.difference_iter(&b).collect();
        let mut diff = a.clone();
        diff.difference_with(&b);
        let materialized: Vec<usize> = diff.iter().collect();
        assert_eq!(lazy, materialized);
        assert_eq!(lazy, vec![0, 63, 65, 199]);
        assert!(b.difference_iter(&a).eq([140]));
    }

    #[test]
    fn reset_redimensions_and_preserves_equality() {
        let mut set = NodeSet::new(300);
        set.insert(5);
        set.insert(299);
        set.reset(40);
        assert_eq!(set.capacity(), 40);
        assert!(set.is_empty());
        set.insert(39);
        assert_eq!(set, NodeSet::from_indices(40, [39]));
        // Growing again past the original space still behaves like new.
        set.reset(1000);
        assert!(set.is_empty());
        set.insert(999);
        assert_eq!(set, NodeSet::from_indices(1000, [999]));
    }

    #[test]
    fn space2_roundtrip() {
        let s = NodeSpace2::new(5, 3);
        assert_eq!(s.len(), 15);
        let row_major = (0..3).flat_map(|y| (0..5).map(move |x| c2(x, y)));
        for (i, c) in row_major.enumerate() {
            assert_eq!(s.index(c), i);
            assert_eq!(s.coord(i), c);
        }
        assert_eq!(s.index_checked(c2(5, 0)), None);
        assert_eq!(s.index_checked(c2(0, -1)), None);
    }

    #[test]
    fn space3_roundtrip() {
        let s = NodeSpace3::new(3, 4, 5);
        assert_eq!(s.len(), 60);
        let x_fastest =
            (0..5).flat_map(|z| (0..4).flat_map(move |y| (0..3).map(move |x| c3(x, y, z))));
        for (i, c) in x_fastest.enumerate() {
            assert_eq!(s.index(c), i);
            assert_eq!(s.coord(i), c);
        }
        assert_eq!(s.index_checked(c3(3, 0, 0)), None);
    }

    #[test]
    fn space_steps_match_coordinate_steps() {
        let s2 = NodeSpace2::new(4, 4);
        for c in coords(s2) {
            for d in Dir2::ALL {
                let via_coord = s2.index_checked(c.step(d));
                assert_eq!(s2.step(s2.index(c), d), via_coord, "{c:?} {d:?}");
            }
        }
        let s3 = NodeSpace3::new(3, 3, 3);
        for c in coords(s3) {
            for d in Dir3::ALL {
                let via_coord = s3.index_checked(c.step(d));
                assert_eq!(s3.step(s3.index(c), d), via_coord, "{c:?} {d:?}");
            }
        }
    }

    #[test]
    fn neighbors8_matches_offsets() {
        let s = NodeSpace2::new(6, 6);
        for c in coords(s) {
            let mut got = Vec::new();
            s.for_region_neighbors(s.index(c), |j| got.push(s.coord(j)));
            let expect: Vec<C2> = [
                (1, 0),
                (-1, 0),
                (0, 1),
                (0, -1),
                (1, 1),
                (1, -1),
                (-1, 1),
                (-1, -1),
            ]
            .iter()
            .map(|&(dx, dy)| c2(c.x + dx, c.y + dy))
            .filter(|&n| s.contains(n))
            .collect();
            assert_eq!(got, expect, "at {c:?}");
        }
    }

    #[test]
    fn neighbors18_count_is_correct() {
        let s = NodeSpace3::new(4, 4, 4);
        // interior node has all 18 neighbors
        let mut n = 0;
        s.for_region_neighbors(s.index(c3(1, 1, 1)), |_| n += 1);
        assert_eq!(n, 18);
        // a corner keeps only the inward ones
        let mut corner = Vec::new();
        s.for_region_neighbors(s.index(c3(0, 0, 0)), |j| corner.push(s.coord(j)));
        assert_eq!(corner.len(), 6); // 3 faces + 3 planar diagonals
        assert!(corner.contains(&c3(1, 1, 0)));
        assert!(!corner.contains(&c3(1, 1, 1))); // space diagonal excluded
    }

    #[test]
    fn torus2_neighbors_wrap_and_stay_distinct() {
        let s = NodeSpace2::torus(5, 3);
        assert!(s.wraps());
        assert!(!NodeSpace2::new(5, 3).wraps());
        // Every node has exactly 4 distinct face neighbors and 8 distinct
        // 8-neighbors.
        for i in 0..s.len() {
            let mut n4 = Vec::new();
            s.for_axis_neighbors(i, |j| n4.push(j));
            n4.sort_unstable();
            n4.dedup();
            assert_eq!(n4.len(), 4, "node {i}");
            let mut n8 = Vec::new();
            s.for_region_neighbors(i, |j| n8.push(j));
            n8.sort_unstable();
            n8.dedup();
            assert_eq!(n8.len(), 8, "node {i}");
        }
        // A corner wraps to the opposite edges.
        let corner = s.index(c2(0, 0));
        let mut got = Vec::new();
        s.for_axis_neighbors(corner, |j| got.push(s.coord(j)));
        assert_eq!(got, vec![c2(1, 0), c2(4, 0), c2(0, 1), c2(0, 2)]);
    }

    #[test]
    fn torus3_step_wraps_every_direction() {
        let s = NodeSpace3::torus(3, 4, 5);
        for i in 0..s.len() {
            let c = s.coord(i);
            for d in Dir3::ALL {
                let j = s.step(i, d).expect("torus steps always exist");
                assert_eq!(s.coord(j), s.wrap_coord(c.step(d)), "{c:?} {d:?}");
            }
            let mut n6 = Vec::new();
            s.for_axis_neighbors(i, |j| n6.push(j));
            n6.sort_unstable();
            n6.dedup();
            assert_eq!(n6.len(), 6, "node {i}");
            let mut n18 = Vec::new();
            s.for_region_neighbors(i, |j| n18.push(j));
            n18.sort_unstable();
            n18.dedup();
            assert_eq!(n18.len(), 18, "node {i}");
        }
    }

    #[test]
    fn torus_distances_take_the_shorter_arc() {
        let s = NodeSpace2::torus(8, 8);
        assert_eq!(s.dist(c2(0, 0), c2(7, 0)), 1);
        assert_eq!(s.dist(c2(0, 0), c2(4, 4)), 8);
        assert_eq!(s.dist(c2(1, 1), c2(6, 7)), 3 + 2);
        let m = NodeSpace2::new(8, 8);
        assert_eq!(m.dist(c2(0, 0), c2(7, 0)), 7);
        let t3 = NodeSpace3::torus(6, 6, 6);
        assert_eq!(t3.dist(c3(0, 0, 0), c3(5, 3, 4)), 1 + 3 + 2);
    }

    #[test]
    fn wrap_coord_normalizes() {
        let s = NodeSpace2::torus(5, 4);
        assert_eq!(s.wrap_coord(c2(-1, 4)), c2(4, 0));
        assert_eq!(s.wrap_coord(c2(7, -5)), c2(2, 3));
        assert_eq!(s.wrap_coord(c2(3, 2)), c2(3, 2));
    }

    #[test]
    #[should_panic]
    fn tiny_torus_rejected() {
        NodeSpace2::torus(2, 8);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64) && !s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_iteration_is_sorted_and_complete() {
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 129];
        let s = NodeSet::from_indices(200, idx);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, idx.to_vec());
        assert_eq!(s.len(), idx.len());
    }

    #[test]
    fn set_algebra() {
        let a0 = NodeSet::from_indices(100, [1, 2, 3, 70]);
        let b = NodeSet::from_indices(100, [2, 3, 4, 99]);
        let i = NodeSet::from_indices(100, [2, 3]);
        let mut d = a0.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert!(d.is_disjoint(&i));
        assert!(!a0.is_disjoint(&b));
    }

    #[test]
    fn trailing_word_bits_stay_zero() {
        let mut s = NodeSet::new(70);
        s.insert(69);
        let t = NodeSet::from_indices(70, [69]);
        assert_eq!(s, t);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[1] & !0b111111, 0);
    }

    #[test]
    fn node_grid_roundtrip() {
        let mut g = NodeGrid::new(10, 0u32);
        g[3] = 7;
        assert_eq!(g[3], 7);
        assert_eq!(g.get(10), None);
        assert_eq!(g.iter().filter(|&(_, &v)| v != 0).count(), 1);
        g.fill(1);
        assert!(g.as_slice().iter().all(|&v| v == 1));
        assert_eq!(g.len(), 10);
    }
}
