//! The link relation of a simulated network.
//!
//! The engine runs over a `Copy` [`NodeSpace`] — a mesh or torus node space —
//! and needs only one fact about its links: two nodes share a link when
//! both exist and their topology-aware distance is 1. This module holds
//! that check, which [`crate::Ctx::send`] and [`crate::Ctx::try_send`]
//! apply to every send; there is no separate link-relation type.

use mesh_topo::{Coord, NodeSpace};

/// True if nodes `a` and `b` of `space` share a link: both exist and their
/// topology-aware distance is 1, so torus wrap links count.
#[inline]
pub(crate) fn linked<C: Coord>(space: NodeSpace<C>, a: usize, b: usize) -> bool {
    let n = space.len();
    a < n && b < n && space.dist(space.coord(a), space.coord(b)) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{NodeSpace2, NodeSpace3};

    #[test]
    fn grid2_links_match_manhattan_distance() {
        let g = NodeSpace2::new(4, 3);
        let a = g.index(c2(1, 1));
        let b = g.index(c2(2, 1));
        assert!(linked(g, a, b));
        assert!(!linked(g, a, g.index(c2(2, 2)))); // diagonal
        assert!(!linked(g, a, a));
        assert!(!linked(g, g.index(c2(0, 0)), g.index(c2(3, 0)))); // no wrap on a mesh
        assert!(!linked(g, a, g.len())); // not a node
        assert!(!linked(g, g.len(), a));
    }

    #[test]
    fn grid3_links_and_roundtrip() {
        let g = NodeSpace3::new(3, 3, 3);
        assert_eq!(g.len(), 27);
        let a = g.index(c3(1, 1, 1));
        assert!(linked(g, a, g.index(c3(1, 1, 2))));
        assert!(!linked(g, a, g.index(c3(2, 2, 1))));
        // No wrap link on a mesh.
        assert!(!linked(g, g.index(c3(0, 0, 0)), g.index(c3(0, 0, 2))));
        // The centre has six links, and the axis enumerator agrees with the
        // link check on every node.
        assert_eq!((0..g.len()).filter(|&j| linked(g, a, j)).count(), 6);
        for i in 0..g.len() {
            let mut n = Vec::new();
            g.for_axis_neighbors(i, |j| n.push(j));
            assert_eq!((0..g.len()).filter(|&j| linked(g, i, j)).count(), n.len());
            assert!(n.iter().all(|&j| linked(g, i, j)));
            assert_eq!(g.index(g.coord(i)), i);
        }
    }

    #[test]
    fn torus_grids_link_across_the_seam() {
        let g = NodeSpace2::torus(5, 4);
        let a = g.index(c2(0, 2));
        assert!(linked(g, a, g.index(c2(4, 2))), "x wrap link");
        assert!(
            linked(g, g.index(c2(3, 0)), g.index(c2(3, 3))),
            "y wrap link"
        );
        assert!(!linked(g, a, g.index(c2(2, 2))));
        // Every node has exactly four links, and the axis enumerator
        // agrees with the link check.
        for i in 0..g.len() {
            let mut n = Vec::new();
            g.for_axis_neighbors(i, |j| n.push(j));
            assert_eq!(n.len(), 4);
            assert_eq!((0..g.len()).filter(|&j| linked(g, i, j)).count(), 4);
            assert!(n.iter().all(|&j| linked(g, i, j)));
        }
        let g3 = NodeSpace3::torus(3, 4, 5);
        let a = g3.index(c3(0, 0, 0));
        for b in [c3(2, 0, 0), c3(0, 3, 0), c3(0, 0, 4)] {
            assert!(linked(g3, a, g3.index(b)), "{b:?}");
        }
    }
}
