//! Static link structure of a simulated network.
//!
//! The flat engine addresses nodes by **linear index**; a [`Topology`] is
//! the compile-time-known link relation over those indices. It replaces
//! the boxed `neighbor_check` closure of the pre-refactor engine (kept as
//! a test oracle in `mcc-protocols`): the engine and its handlers are
//! generic over a `Copy` topology value, so neighbor tests inline and carry
//! no dynamic dispatch or hashing.
//!
//! [`Grid2`] and [`Grid3`] are the full rectangular/cuboid meshes of the
//! paper, linearized by [`mesh_topo::NodeSpace2`] / [`mesh_topo::NodeSpace3`]
//! (`x` fastest, then `y`, then `z`). Protocol handlers capture the
//! underlying node space (it is `Copy`) and use its `step`/`index`/`coord`
//! methods to move between indices and coordinates.

use mesh_topo::{NodeSpace2, NodeSpace3, C2, C3};

/// The static link relation of a network over linear node indices
/// `0..len()`.
///
/// Implementors are cheap `Copy` values: the engine stores one and hands
/// references to handlers through [`crate::Ctx`].
pub trait Topology: Copy {
    /// The coordinate type nodes are named by outside the engine.
    type Coord: Copy + Eq + core::fmt::Debug;

    /// Number of nodes.
    fn len(&self) -> usize;

    /// True if the topology has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `c`, or `None` if `c` is not a node.
    fn index_of(&self, c: Self::Coord) -> Option<usize>;

    /// The coordinate of linear index `i`.
    fn coord_of(&self, i: usize) -> Self::Coord;

    /// True if nodes `a` and `b` share a link.
    fn linked(&self, a: usize, b: usize) -> bool;

    /// Call `f` with the index of every neighbor of `i`, in a fixed
    /// deterministic order.
    fn for_neighbors(&self, i: usize, f: impl FnMut(usize));
}

/// A full `width × height` 2-D mesh (or torus) with 4-neighbor links.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grid2 {
    space: NodeSpace2,
}

impl Grid2 {
    /// The topology of a `width × height` mesh.
    ///
    /// # Panics
    /// If either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Grid2 {
        Grid2 {
            space: NodeSpace2::new(width, height),
        }
    }

    /// The topology of a `width × height` torus: every axis wraps, every
    /// node has exactly four links.
    ///
    /// # Panics
    /// If either dimension is smaller than 3 (see
    /// [`mesh_topo::NodeSpace2::torus`]).
    pub fn torus(width: i32, height: i32) -> Grid2 {
        Grid2 {
            space: NodeSpace2::torus(width, height),
        }
    }

    /// The topology over an existing linearization — the handle protocol
    /// layers use so a mesh's wrap mode carries over unchanged.
    pub fn from_space(space: NodeSpace2) -> Grid2 {
        Grid2 { space }
    }

    /// The underlying linearization (copy it into handlers for
    /// index/coordinate math).
    #[inline]
    pub fn space(&self) -> NodeSpace2 {
        self.space
    }
}

impl Topology for Grid2 {
    type Coord = C2;

    #[inline]
    fn len(&self) -> usize {
        self.space.len()
    }

    #[inline]
    fn index_of(&self, c: C2) -> Option<usize> {
        self.space.index_checked(c)
    }

    #[inline]
    fn coord_of(&self, i: usize) -> C2 {
        self.space.coord(i)
    }

    #[inline]
    fn linked(&self, a: usize, b: usize) -> bool {
        a < self.space.len()
            && b < self.space.len()
            && self.space.dist(self.space.coord(a), self.space.coord(b)) == 1
    }

    #[inline]
    fn for_neighbors(&self, i: usize, f: impl FnMut(usize)) {
        self.space.for_neighbors4(i, f);
    }
}

/// A full `nx × ny × nz` 3-D mesh (or torus) with 6-neighbor links.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grid3 {
    space: NodeSpace3,
}

impl Grid3 {
    /// The topology of an `nx × ny × nz` mesh.
    ///
    /// # Panics
    /// If any dimension is not positive.
    pub fn new(nx: i32, ny: i32, nz: i32) -> Grid3 {
        Grid3 {
            space: NodeSpace3::new(nx, ny, nz),
        }
    }

    /// The topology of an `nx × ny × nz` torus (see [`Grid2::torus`]).
    ///
    /// # Panics
    /// If any dimension is smaller than 3.
    pub fn torus(nx: i32, ny: i32, nz: i32) -> Grid3 {
        Grid3 {
            space: NodeSpace3::torus(nx, ny, nz),
        }
    }

    /// The topology over an existing linearization (see
    /// [`Grid2::from_space`]).
    pub fn from_space(space: NodeSpace3) -> Grid3 {
        Grid3 { space }
    }

    /// The underlying linearization.
    #[inline]
    pub fn space(&self) -> NodeSpace3 {
        self.space
    }
}

impl Topology for Grid3 {
    type Coord = C3;

    #[inline]
    fn len(&self) -> usize {
        self.space.len()
    }

    #[inline]
    fn index_of(&self, c: C3) -> Option<usize> {
        self.space.index_checked(c)
    }

    #[inline]
    fn coord_of(&self, i: usize) -> C3 {
        self.space.coord(i)
    }

    #[inline]
    fn linked(&self, a: usize, b: usize) -> bool {
        a < self.space.len()
            && b < self.space.len()
            && self.space.dist(self.space.coord(a), self.space.coord(b)) == 1
    }

    #[inline]
    fn for_neighbors(&self, i: usize, f: impl FnMut(usize)) {
        self.space.for_neighbors6(i, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};

    #[test]
    fn grid2_links_match_manhattan_distance() {
        let g = Grid2::new(4, 3);
        assert_eq!(g.len(), 12);
        let a = g.index_of(c2(1, 1)).unwrap();
        let b = g.index_of(c2(2, 1)).unwrap();
        let d = g.index_of(c2(2, 2)).unwrap();
        assert!(g.linked(a, b));
        assert!(!g.linked(a, d)); // diagonal
        assert!(!g.linked(a, a));
        assert_eq!(g.index_of(c2(4, 0)), None);
        assert_eq!(g.coord_of(b), c2(2, 1));
    }

    #[test]
    fn grid2_neighbor_enumeration_is_in_space() {
        let g = Grid2::new(3, 3);
        let mut seen = Vec::new();
        g.for_neighbors(g.index_of(c2(0, 0)).unwrap(), |j| seen.push(g.coord_of(j)));
        assert_eq!(seen, vec![c2(1, 0), c2(0, 1)]);
    }

    #[test]
    fn torus_grids_link_across_the_seam() {
        let g = Grid2::torus(5, 4);
        assert!(g.space().wraps());
        let a = g.index_of(c2(0, 2)).unwrap();
        let b = g.index_of(c2(4, 2)).unwrap();
        assert!(g.linked(a, b), "x wrap link");
        assert!(g.linked(g.index_of(c2(3, 0)).unwrap(), g.index_of(c2(3, 3)).unwrap()));
        assert!(!g.linked(a, g.index_of(c2(2, 2)).unwrap()));
        // Every node has exactly four links, and for_neighbors agrees
        // with linked().
        for i in 0..g.len() {
            let mut n = Vec::new();
            g.for_neighbors(i, |j| n.push(j));
            assert_eq!(n.len(), 4);
            for j in n {
                assert!(g.linked(i, j));
            }
        }

        let g3 = Grid3::torus(3, 4, 5);
        let a = g3.index_of(c3(0, 0, 0)).unwrap();
        for b in [c3(2, 0, 0), c3(0, 3, 0), c3(0, 0, 4)] {
            assert!(g3.linked(a, g3.index_of(b).unwrap()), "{b:?}");
        }
        let mut n = 0;
        g3.for_neighbors(a, |_| n += 1);
        assert_eq!(n, 6);
        // from_space preserves the wrap mode.
        assert_eq!(Grid3::from_space(g3.space()), g3);
    }

    #[test]
    fn grid3_links_and_roundtrip() {
        let g = Grid3::new(3, 3, 3);
        assert_eq!(g.len(), 27);
        let a = g.index_of(c3(1, 1, 1)).unwrap();
        let b = g.index_of(c3(1, 1, 2)).unwrap();
        assert!(g.linked(a, b));
        assert!(!g.linked(a, g.index_of(c3(2, 2, 1)).unwrap()));
        let mut n = 0;
        g.for_neighbors(a, |_| n += 1);
        assert_eq!(n, 6);
        for i in 0..g.len() {
            assert_eq!(g.index_of(g.coord_of(i)), Some(i));
        }
    }
}
