//! One interface over the 2-D and 3-D node spaces.
//!
//! The fault model's closure, repair, component and cache layers are the
//! same rule over D axes (Jiang, Wu & Wang's Algorithms 1 and 4 differ
//! only in the axis count). [`Space`] is what those layers need to be
//! written once: the linearization of [`NodeSpace2`] / [`NodeSpace3`], its
//! per-axis extents, the region-connectivity neighborhood, and the
//! coordinate, frame and mesh types that belong to the dimension. Generic
//! code is monomorphized per dimension, so it pays no dispatch cost.
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
use crate::mesh::{Mesh2D, Mesh3D};
use crate::nodeset::{NodeSet, NodeSpace2, NodeSpace3};
use crate::region::{Box3, Rect};

/// A linearized node space of one dimension, `x` fastest.
pub trait Space: Copy + Eq + Debug + 'static {
    /// The lattice coordinate.
    type Coord: Copy + Eq + Debug + Display;
    /// The orientation frame (quadrant or octant reflection).
    type Frame: Copy + Eq + Debug;
    /// The mesh (or torus) with its fault set.
    type Mesh: Clone + Debug;
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
    /// The box with inclusive corners `lo` and `hi`.
    fn block(lo: Self::Coord, hi: Self::Coord) -> Self::Block;
    /// Call `f` with every region-connectivity neighbor of `i`: the
    /// 8-neighborhood in 2-D, the 18-neighborhood in 3-D, in the fixed
    /// order component discovery relies on.
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize));

    /// The index in `0..ORIENTATIONS` of `frame`'s reflection.
    fn frame_index(frame: Self::Frame) -> usize;
    /// Map a mesh coordinate into `frame`'s canonical coordinates.
    fn to_canon(frame: Self::Frame, c: Self::Coord) -> Self::Coord;
    /// The node space of `mesh`.
    fn of_mesh(mesh: &Self::Mesh) -> Self;
    /// The faulty nodes of `mesh`, in injection order.
    fn faults(mesh: &Self::Mesh) -> &[Self::Coord];
    /// The faulty nodes of `mesh` as a bitset over its space.
    fn fault_set(mesh: &Self::Mesh) -> &NodeSet;
    /// Inject every node of `injected` and heal every node of `healed`
    /// (bitsets over the mesh's space); returns how many nodes flipped.
    fn flip_faults(mesh: &mut Self::Mesh, injected: &NodeSet, healed: &NodeSet) -> usize;
}

impl Space for NodeSpace2 {
    type Coord = C2;
    type Frame = Frame2;
    type Mesh = Mesh2D;
    type Block = Rect;
    const DIMS: usize = 2;
    const ORIENTATIONS: usize = 4;

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
    fn extents(self) -> [usize; 3] {
        [self.width() as usize, self.height() as usize, 1]
    }
    fn wraps(self) -> bool {
        NodeSpace2::wraps(self)
    }
    fn block(lo: C2, hi: C2) -> Rect {
        Rect::spanning(lo, hi)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors8(i, f)
    }
    fn frame_index(frame: Frame2) -> usize {
        frame.index()
    }
    #[inline]
    fn to_canon(frame: Frame2, c: C2) -> C2 {
        frame.to_canon(c)
    }
    fn of_mesh(mesh: &Mesh2D) -> NodeSpace2 {
        mesh.space()
    }
    fn faults(mesh: &Mesh2D) -> &[C2] {
        mesh.faults()
    }
    fn fault_set(mesh: &Mesh2D) -> &NodeSet {
        mesh.fault_set()
    }
    fn flip_faults(mesh: &mut Mesh2D, injected: &NodeSet, healed: &NodeSet) -> usize {
        mesh.inject_fault_set(injected) + mesh.heal_fault_set(healed)
    }
}

impl Space for NodeSpace3 {
    type Coord = C3;
    type Frame = Frame3;
    type Mesh = Mesh3D;
    type Block = Box3;
    const DIMS: usize = 3;
    const ORIENTATIONS: usize = 8;

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
    fn extents(self) -> [usize; 3] {
        [self.nx() as usize, self.ny() as usize, self.nz() as usize]
    }
    fn wraps(self) -> bool {
        NodeSpace3::wraps(self)
    }
    fn block(lo: C3, hi: C3) -> Box3 {
        Box3::spanning(lo, hi)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors18(i, f)
    }
    fn frame_index(frame: Frame3) -> usize {
        frame.index()
    }
    #[inline]
    fn to_canon(frame: Frame3, c: C3) -> C3 {
        frame.to_canon(c)
    }
    fn of_mesh(mesh: &Mesh3D) -> NodeSpace3 {
        mesh.space()
    }
    fn faults(mesh: &Mesh3D) -> &[C3] {
        mesh.faults()
    }
    fn fault_set(mesh: &Mesh3D) -> &NodeSet {
        mesh.fault_set()
    }
    fn flip_faults(mesh: &mut Mesh3D, injected: &NodeSet, healed: &NodeSet) -> usize {
        mesh.inject_fault_set(injected) + mesh.heal_fault_set(healed)
    }
}
