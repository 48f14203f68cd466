//! One interface over the 2-D and 3-D node spaces.
//!
//! The fault model's closure, repair, component and cache layers are the
//! same rule over D axes (Jiang, Wu & Wang's Algorithms 1 and 4 differ
//! only in the axis count). [`Space`] is what those layers need to be
//! written once: the linearization of [`NodeSpace2`] / [`NodeSpace3`], its
//! per-axis extents, the axis and region-connectivity neighborhoods, the
//! topology's distance, and the coordinate, frame and block types that
//! belong to the dimension. [`Mesh<S>`](crate::Mesh) is written over it
//! too. Generic code is monomorphized per dimension, so it pays no
//! dispatch cost.
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

use core::fmt::{Debug, Display};

use crate::coord::{C2, C3};
use crate::frame::{Frame2, Frame3};
use crate::mesh::Mesh;
use crate::nodeset::{NodeSpace2, NodeSpace3};
use crate::region::{Box3, Rect};

/// A linearized node space of one dimension, `x` fastest.
pub trait Space: Copy + Eq + Debug + 'static {
    /// The lattice coordinate.
    type Coord: Copy + Eq + Debug + Display;
    /// The orientation frame (quadrant or octant reflection).
    type Frame: Copy + Eq + Debug;
    /// The axis-aligned box: [`Rect`] in 2-D, [`Box3`] in 3-D.
    type Block: Copy + Eq + Debug;

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
    /// The coordinate as `[x, y, z]`; `z` is 0 in 2-D.
    fn xyz(c: Self::Coord) -> [i32; 3];
    /// The coordinate with axes `[x, y, z]`; `z` is ignored in 2-D.
    fn from_xyz(p: [i32; 3]) -> Self::Coord;
    /// The box with inclusive corners `lo` and `hi`.
    fn block(lo: Self::Coord, hi: Self::Coord) -> Self::Block;
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
    /// The identity frame of `mesh`.
    fn identity_frame(mesh: &Mesh<Self>) -> Self::Frame;
    /// Every reflection frame of `mesh`, in [`Space::frame_index`] order.
    fn all_frames(mesh: &Mesh<Self>) -> Vec<Self::Frame>;
    /// The frame that maps `(s, d)` into canonical orientation.
    fn frame_for_pair(mesh: &Mesh<Self>, s: Self::Coord, d: Self::Coord) -> Self::Frame;
}

impl Space for NodeSpace2 {
    type Coord = C2;
    type Frame = Frame2;
    type Block = Rect;
    const DIMS: usize = 2;
    const ORIENTATIONS: usize = 4;

    #[inline]
    fn node_count(self) -> usize {
        self.len()
    }
    #[inline]
    fn index(self, c: C2) -> usize {
        NodeSpace2::index(self, c)
    }
    #[inline]
    fn index_checked(self, c: C2) -> Option<usize> {
        NodeSpace2::index_checked(self, c)
    }
    #[inline]
    fn coord(self, i: usize) -> C2 {
        NodeSpace2::coord(self, i)
    }
    #[inline]
    fn extents(self) -> [usize; 3] {
        [self.width() as usize, self.height() as usize, 1]
    }
    #[inline]
    fn wraps(self) -> bool {
        NodeSpace2::wraps(self)
    }
    #[inline]
    fn dist(self, a: C2, b: C2) -> u32 {
        NodeSpace2::dist(self, a, b)
    }
    #[inline]
    fn xyz(c: C2) -> [i32; 3] {
        [c.x, c.y, 0]
    }
    #[inline]
    fn from_xyz(p: [i32; 3]) -> C2 {
        C2 { x: p[0], y: p[1] }
    }
    fn block(lo: C2, hi: C2) -> Rect {
        Rect::spanning(lo, hi)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors8(i, f)
    }
    #[inline]
    fn for_axis_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors4(i, f)
    }
    fn frame_index(frame: Frame2) -> usize {
        frame.index()
    }
    #[inline]
    fn to_canon(frame: Frame2, c: C2) -> C2 {
        frame.to_canon(c)
    }
    #[inline]
    fn from_canon(frame: Frame2, c: C2) -> C2 {
        frame.from_canon(c)
    }
    fn identity_frame(mesh: &Mesh<Self>) -> Frame2 {
        Frame2::identity(mesh)
    }
    fn all_frames(mesh: &Mesh<Self>) -> Vec<Frame2> {
        Frame2::all(mesh).to_vec()
    }
    fn frame_for_pair(mesh: &Mesh<Self>, s: C2, d: C2) -> Frame2 {
        Frame2::for_pair(mesh, s, d)
    }
}

impl Space for NodeSpace3 {
    type Coord = C3;
    type Frame = Frame3;
    type Block = Box3;
    const DIMS: usize = 3;
    const ORIENTATIONS: usize = 8;

    #[inline]
    fn node_count(self) -> usize {
        self.len()
    }
    #[inline]
    fn index(self, c: C3) -> usize {
        NodeSpace3::index(self, c)
    }
    #[inline]
    fn index_checked(self, c: C3) -> Option<usize> {
        NodeSpace3::index_checked(self, c)
    }
    #[inline]
    fn coord(self, i: usize) -> C3 {
        NodeSpace3::coord(self, i)
    }
    #[inline]
    fn extents(self) -> [usize; 3] {
        [self.nx() as usize, self.ny() as usize, self.nz() as usize]
    }
    #[inline]
    fn wraps(self) -> bool {
        NodeSpace3::wraps(self)
    }
    #[inline]
    fn dist(self, a: C3, b: C3) -> u32 {
        NodeSpace3::dist(self, a, b)
    }
    #[inline]
    fn xyz(c: C3) -> [i32; 3] {
        [c.x, c.y, c.z]
    }
    #[inline]
    fn from_xyz(p: [i32; 3]) -> C3 {
        C3 {
            x: p[0],
            y: p[1],
            z: p[2],
        }
    }
    fn block(lo: C3, hi: C3) -> Box3 {
        Box3::spanning(lo, hi)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors18(i, f)
    }
    #[inline]
    fn for_axis_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors6(i, f)
    }
    fn frame_index(frame: Frame3) -> usize {
        frame.index()
    }
    #[inline]
    fn to_canon(frame: Frame3, c: C3) -> C3 {
        frame.to_canon(c)
    }
    #[inline]
    fn from_canon(frame: Frame3, c: C3) -> C3 {
        frame.from_canon(c)
    }
    fn identity_frame(mesh: &Mesh<Self>) -> Frame3 {
        Frame3::identity(mesh)
    }
    fn all_frames(mesh: &Mesh<Self>) -> Vec<Frame3> {
        Frame3::all(mesh).to_vec()
    }
    fn frame_for_pair(mesh: &Mesh<Self>, s: C3, d: C3) -> Frame3 {
        Frame3::for_pair(mesh, s, d)
    }
}
