//! Routing paths and their validity / minimality checks.
//!
//! A routing process is *minimal* if the length of the path from source `s`
//! to destination `d` equals the Manhattan distance `D(s, d)`. [`Path`]
//! records the visited nodes and provides the checks the test-suite and
//! the experiment harness rely on, once over every node space;
//! [`Path2`] and [`Path3`] name it per dimension.

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, C2, C3};
use crate::mesh::Mesh;

/// A (possibly partial) route through a mesh with coordinates `C`: the
/// sequence of visited nodes, starting at the source.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Path<C> {
    nodes: Vec<C>,
}

/// A route through a 2-D mesh.
pub type Path2 = Path<C2>;

/// A route through a 3-D mesh.
pub type Path3 = Path<C3>;

impl<C> Default for Path<C> {
    fn default() -> Path<C> {
        Path { nodes: Vec::new() }
    }
}

impl<C: Coord> Path<C> {
    /// A path consisting of only the source node.
    pub fn start(s: C) -> Path<C> {
        Path { nodes: vec![s] }
    }

    /// Construct from a complete node sequence.
    pub fn from_nodes(nodes: Vec<C>) -> Path<C> {
        Path { nodes }
    }

    /// Append the next visited node.
    pub fn push(&mut self, c: C) {
        self.nodes.push(c);
    }

    /// Visited nodes, source first.
    pub fn nodes(&self) -> &[C] {
        &self.nodes
    }

    /// Number of hops (edges) taken.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// The node the route currently sits on.
    pub fn head(&self) -> Option<C> {
        self.nodes.last().copied()
    }

    /// True if consecutive nodes are linked in `mesh` (wrap links count on
    /// a torus) and all nodes lie in `mesh` and are healthy.
    pub fn is_valid(&self, mesh: &Mesh<C>) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        if !self.nodes.iter().all(|&c| mesh.is_healthy(c)) {
            return false;
        }
        self.nodes
            .windows(2)
            .all(|w| mesh.are_neighbors(w[0], w[1]))
    }

    /// True if this is a complete **minimal** route from `s` to `d`: valid,
    /// starts at `s`, ends at `d`, and takes exactly `D(s, d)` hops (the
    /// topology-aware distance: Manhattan on a mesh, Lee on a torus).
    pub fn is_minimal(&self, mesh: &Mesh<C>, s: C, d: C) -> bool {
        self.is_valid(mesh)
            && self.nodes.first() == Some(&s)
            && self.nodes.last() == Some(&d)
            && self.hops() as u32 == mesh.dist(s, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3};
    use crate::mesh::{Mesh2D, Mesh3D};

    #[test]
    fn minimal_path_2d() {
        let mesh = Mesh2D::new(5, 5);
        let p = Path2::from_nodes(vec![c2(0, 0), c2(1, 0), c2(1, 1), c2(2, 1)]);
        assert!(p.is_valid(&mesh));
        assert!(p.is_minimal(&mesh, c2(0, 0), c2(2, 1)));
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn non_minimal_detour_detected() {
        let mesh = Mesh2D::new(5, 5);
        // Detour: goes up then back down.
        let p = Path2::from_nodes(vec![c2(0, 0), c2(0, 1), c2(0, 0), c2(1, 0)]);
        assert!(p.is_valid(&mesh));
        assert!(!p.is_minimal(&mesh, c2(0, 0), c2(1, 0)));
    }

    #[test]
    fn path_through_fault_invalid() {
        let mut mesh = Mesh2D::new(5, 5);
        mesh.inject_fault(c2(1, 0));
        let p = Path2::from_nodes(vec![c2(0, 0), c2(1, 0), c2(2, 0)]);
        assert!(!p.is_valid(&mesh));
    }

    #[test]
    fn teleporting_path_invalid() {
        let mesh = Mesh3D::kary(4);
        let p = Path3::from_nodes(vec![c3(0, 0, 0), c3(1, 1, 0)]);
        assert!(!p.is_valid(&mesh));
    }

    #[test]
    fn minimal_path_3d() {
        let mesh = Mesh3D::kary(4);
        let p = Path3::from_nodes(vec![
            c3(0, 0, 0),
            c3(0, 0, 1),
            c3(0, 1, 1),
            c3(1, 1, 1),
            c3(2, 1, 1),
        ]);
        assert!(p.is_minimal(&mesh, c3(0, 0, 0), c3(2, 1, 1)));
    }

    #[test]
    fn incremental_building() {
        let mut p = Path3::start(c3(0, 0, 0));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.head(), Some(c3(0, 0, 0)));
        p.push(c3(1, 0, 0));
        assert_eq!(p.hops(), 1);
        assert_eq!(p.head(), Some(c3(1, 0, 0)));
    }

    #[test]
    fn empty_path_is_invalid() {
        let mesh = Mesh2D::new(3, 3);
        assert!(!Path2::default().is_valid(&mesh));
    }
}
