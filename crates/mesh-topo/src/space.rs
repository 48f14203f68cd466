//! One interface over the 2-D and 3-D node spaces.
//!
//! The fault model's closure, repair, component and cache layers are the
//! same rule over D axes (Jiang, Wu & Wang's Algorithms 1 and 4 differ
//! only in the axis count). [`Space`] is what those layers need to be
//! written once: the linearization of a [`NodeSpace`], its per-axis
//! extents, the axis and region-connectivity neighborhoods, the topology's
//! distance, and the coordinate and frame types that belong to the
//! dimension; what a coordinate itself knows (its `[x, y, z]` view, its
//! block and direction types) stays on [`Coord`]. Its one implementation,
//! for every `NodeSpace<C>`, forwards to the node space and its
//! [`Frame`]. [`Mesh<S>`](crate::Mesh) is
//! written over it too, and so is the `sim-net` engine. Generic code is
//! monomorphized per dimension, so it pays no dispatch cost.
//!
//! # Examples
//!
//! ```
//! use mesh_topo::coord::c3;
//! use mesh_topo::{NodeSpace3, Space};
//!
//! fn region_degree<S: Space>(space: S, c: S::Coord) -> usize {
//!     let mut n = 0;
//!     space.for_region_neighbors(space.index(c), |_| n += 1);
//!     n
//! }
//!
//! let space = NodeSpace3::new(4, 4, 4);
//! assert_eq!(region_degree(space, c3(1, 1, 1)), 18);
//! assert_eq!(<NodeSpace3 as Space>::extents(space), [4, 4, 4]);
//! ```

use core::fmt::Debug;

use crate::coord::Coord;
use crate::frame::Frame;
use crate::mesh::Mesh;
use crate::nodeset::NodeSpace;

/// A linearized node space of one dimension, `x` fastest.
pub trait Space: Copy + Eq + Debug + 'static {
    /// The lattice coordinate.
    type Coord: Coord;
    /// The orientation frame (quadrant or octant reflection).
    type Frame: Copy + Eq + Debug;

    /// Number of axes.
    const DIMS: usize;
    /// Number of orientation frames (`2^DIMS`).
    const ORIENTATIONS: usize;

    /// Total number of nodes.
    fn node_count(self) -> usize;
    /// Linear index of `c`; panics outside the space.
    fn index(self, c: Self::Coord) -> usize;
    /// Linear index of `c`, or `None` outside the space.
    fn index_checked(self, c: Self::Coord) -> Option<usize>;
    /// The coordinate of linear index `i`.
    fn coord(self, i: usize) -> Self::Coord;
    /// Per-axis extents, `x` first; entries past [`Space::DIMS`] are 1.
    fn extents(self) -> [usize; 3];
    /// True if every axis wraps (the space is a torus).
    fn wraps(self) -> bool;
    /// Topology-aware distance: Manhattan on a mesh, Lee on a torus.
    fn dist(self, a: Self::Coord, b: Self::Coord) -> u32;
    /// Call `f` with every region-connectivity neighbor of `i`: the
    /// 8-neighborhood in 2-D, the 18-neighborhood in 3-D, in the fixed
    /// order component discovery relies on.
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize));
    /// Call `f` with every axis neighbor of `i` (the 4-neighborhood in
    /// 2-D, the 6-neighborhood in 3-D), in `+X, -X, +Y, -Y[, +Z, -Z]`
    /// order — the order the fault samplers' draw sequence relies on.
    fn for_axis_neighbors(self, i: usize, f: impl FnMut(usize));

    /// The index in `0..ORIENTATIONS` of `frame`'s reflection.
    fn frame_index(frame: Self::Frame) -> usize;
    /// Map a mesh coordinate into `frame`'s canonical coordinates.
    fn to_canon(frame: Self::Frame, c: Self::Coord) -> Self::Coord;
    /// Map a `frame`-canonical coordinate back to mesh coordinates.
    fn from_canon(frame: Self::Frame, c: Self::Coord) -> Self::Coord;
    /// True if `frame` reflects the x axis, so canonical `+x` runs along
    /// mesh `-x` (modulo the extent on a torus).
    fn flips_x(frame: Self::Frame) -> bool;
    /// The identity frame of `mesh`.
    fn identity_frame(mesh: &Mesh<Self>) -> Self::Frame;
    /// Every reflection frame of `mesh`, in [`Space::frame_index`] order.
    fn all_frames(mesh: &Mesh<Self>) -> Vec<Self::Frame>;
    /// The frame that maps `(s, d)` into canonical orientation.
    fn frame_for_pair(mesh: &Mesh<Self>, s: Self::Coord, d: Self::Coord) -> Self::Frame;
}

impl<C: Coord> Space for NodeSpace<C> {
    type Coord = C;
    type Frame = Frame<C>;
    const DIMS: usize = C::DIMS;
    const ORIENTATIONS: usize = 1 << C::DIMS;

    #[inline]
    fn node_count(self) -> usize {
        self.len()
    }
    #[inline]
    fn index(self, c: C) -> usize {
        NodeSpace::index(self, c)
    }
    #[inline]
    fn index_checked(self, c: C) -> Option<usize> {
        NodeSpace::index_checked(self, c)
    }
    #[inline]
    fn coord(self, i: usize) -> C {
        NodeSpace::coord(self, i)
    }
    #[inline]
    fn extents(self) -> [usize; 3] {
        self.ext().map(|k| k as usize)
    }
    #[inline]
    fn wraps(self) -> bool {
        NodeSpace::wraps(self)
    }
    #[inline]
    fn dist(self, a: C, b: C) -> u32 {
        NodeSpace::dist(self, a, b)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        NodeSpace::for_region_neighbors(self, i, f)
    }
    #[inline]
    fn for_axis_neighbors(self, i: usize, f: impl FnMut(usize)) {
        NodeSpace::for_axis_neighbors(self, i, f)
    }
    fn frame_index(frame: Frame<C>) -> usize {
        frame.index()
    }
    #[inline]
    fn to_canon(frame: Frame<C>, c: C) -> C {
        frame.to_canon(c)
    }
    #[inline]
    fn from_canon(frame: Frame<C>, c: C) -> C {
        frame.from_canon(c)
    }
    #[inline]
    fn flips_x(frame: Frame<C>) -> bool {
        frame.flips(0)
    }
    fn identity_frame(mesh: &Mesh<Self>) -> Frame<C> {
        Frame::identity(mesh)
    }
    fn all_frames(mesh: &Mesh<Self>) -> Vec<Frame<C>> {
        Frame::all(mesh)
    }
    fn frame_for_pair(mesh: &Mesh<Self>, s: C, d: C) -> Frame<C> {
        Frame::for_pair(mesh, s, d)
    }
}
