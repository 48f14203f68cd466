//! The mesh networks themselves: bounds, links and fault sets.
//!
//! A k-ary n-dimensional mesh connects nodes along each dimension as a linear
//! array (no wrap-around); the torus variants ([`Mesh2D::torus`],
//! [`Mesh3D::torus`]) close every axis on itself, so wrap links exist and
//! every node has the full neighborhood. Node faults are the unit of
//! failure; link faults are modelled, as in the paper, by disabling the
//! adjacent nodes.
//!
//! [`Mesh<S>`] is written once over the node [`Space`]; [`Mesh2D`] and
//! [`Mesh3D`] name its two dimensions. Only the constructors and the
//! per-axis extent getters are per-dimension.
//!
//! Fault membership is a packed [`NodeSet`] over the mesh's linear
//! [`NodeSpace2`]/[`NodeSpace3`] index space — `is_faulty` is a shift and
//! mask, and whole-mesh consumers (labelling, component discovery, fault
//! sampling) can grab the bitset directly via [`Mesh::fault_set`] instead
//! of re-deriving it per call.

use crate::nodeset::{NodeSet, NodeSpace2, NodeSpace3};
use crate::space::Space;

/// A mesh (or torus) over the node space `S`, with a set of faulty nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mesh<S: Space> {
    space: S,
    faulty: NodeSet,
    fault_list: Vec<S::Coord>,
}

/// A `width × height` 2-D mesh with a set of faulty nodes.
pub type Mesh2D = Mesh<NodeSpace2>;

/// An `nx × ny × nz` 3-D mesh with a set of faulty nodes.
pub type Mesh3D = Mesh<NodeSpace3>;

impl<S: Space> Mesh<S> {
    /// A fault-free mesh over `space`.
    fn over(space: S) -> Self {
        Mesh {
            space,
            faulty: NodeSet::new(space.node_count()),
            fault_list: Vec::new(),
        }
    }

    /// True if this network wraps around (it is a torus).
    #[inline]
    pub fn wraps(&self) -> bool {
        self.space.wraps()
    }

    /// Topology-aware distance between two nodes: Manhattan on a mesh, Lee
    /// distance (per-axis shorter arc) on a torus.
    #[inline]
    pub fn dist(&self, a: S::Coord, b: S::Coord) -> u32 {
        self.space.dist(a, b)
    }

    /// True if both coordinates address nodes of this network and the nodes
    /// share a link (wrap links included on a torus).
    pub fn are_neighbors(&self, a: S::Coord, b: S::Coord) -> bool {
        self.contains(a) && self.contains(b) && self.space.dist(a, b) == 1
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.space.node_count()
    }

    /// The linear index space of this mesh's nodes.
    #[inline]
    pub fn space(&self) -> S {
        self.space
    }

    /// True if `c` addresses a node of this mesh.
    #[inline]
    pub fn contains(&self, c: S::Coord) -> bool {
        self.space.index_checked(c).is_some()
    }

    /// The full extent of the mesh as an inclusive rectangle (2-D) or box
    /// (3-D).
    pub fn bounds(&self) -> S::Block {
        S::block(self.space.coord(0), self.space.coord(self.node_count() - 1))
    }

    /// Mark `c` faulty. Returns `true` if the node was previously healthy.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    pub fn inject_fault(&mut self, c: S::Coord) -> bool {
        assert!(self.contains(c), "fault injected outside mesh: {c:?}");
        if self.faulty.insert(self.space.index(c)) {
            self.fault_list.push(c);
            true
        } else {
            false
        }
    }

    /// Return `c` to healthy. Returns `true` if the node was previously
    /// faulty. The fault list keeps the injection order of the survivors.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    pub fn heal_fault(&mut self, c: S::Coord) -> bool {
        assert!(self.contains(c), "fault healed outside mesh: {c:?}");
        if self.faulty.remove(self.space.index(c)) {
            self.fault_list.retain(|&f| f != c);
            true
        } else {
            false
        }
    }

    /// Batch-inject every node of `delta` (a bitset over [`Mesh::space`]).
    /// Already-faulty nodes are left untouched; new faults are appended to
    /// the fault list in index order. Returns how many nodes flipped.
    ///
    /// # Panics
    /// If `delta` is not sized for this mesh's node space.
    pub fn inject_fault_set(&mut self, delta: &NodeSet) -> usize {
        assert_eq!(
            delta.capacity(),
            self.node_count(),
            "delta/mesh size mismatch"
        );
        let mut flipped = 0;
        for i in delta.iter() {
            if self.faulty.insert(i) {
                self.fault_list.push(self.space.coord(i));
                flipped += 1;
            }
        }
        flipped
    }

    /// Batch-heal every node of `delta` (a bitset over [`Mesh::space`])
    /// in one pass over the fault list (injection order of the survivors is
    /// preserved). Healthy members of `delta` are ignored. Returns how many
    /// nodes flipped.
    ///
    /// # Panics
    /// If `delta` is not sized for this mesh's node space.
    pub fn heal_fault_set(&mut self, delta: &NodeSet) -> usize {
        assert_eq!(
            delta.capacity(),
            self.node_count(),
            "delta/mesh size mismatch"
        );
        let before = self.fault_list.len();
        let space = self.space;
        self.fault_list.retain(|&f| !delta.contains(space.index(f)));
        self.faulty.difference_with(delta);
        before - self.fault_list.len()
    }

    /// True if the node exists and is faulty.
    #[inline]
    pub fn is_faulty(&self, c: S::Coord) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.faulty.contains(i))
    }

    /// True if the node exists and is healthy.
    #[inline]
    pub fn is_healthy(&self, c: S::Coord) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.faulty.contains(i))
    }

    /// All injected faults, in injection order.
    #[inline]
    pub fn faults(&self) -> &[S::Coord] {
        &self.fault_list
    }

    /// The fault set as a packed bitset over [`Mesh::space`].
    #[inline]
    pub fn fault_set(&self) -> &NodeSet {
        &self.faulty
    }

    /// Number of faulty nodes.
    #[inline]
    pub fn fault_count(&self) -> usize {
        self.fault_list.len()
    }

    /// Neighbors of `c`, in [`Dir2::ALL`](crate::Dir2::ALL) /
    /// [`Dir3::ALL`](crate::Dir3::ALL) order (`+X, -X, +Y, -Y[, +Z, -Z]`):
    /// 2–4 (3–6) of them on a mesh, where border nodes lose probes, and
    /// always 4 (6) on a torus, where steps wrap.
    pub fn neighbors(&self, c: S::Coord) -> impl Iterator<Item = S::Coord> + '_ {
        let ext = self.space.extents().map(|e| e as i32);
        (0..2 * S::DIMS)
            .map(move |k| {
                let mut p = S::xyz(c);
                p[k / 2] += if k % 2 == 0 { 1 } else { -1 };
                if self.wraps() {
                    for axis in 0..S::DIMS {
                        p[axis] = p[axis].rem_euclid(ext[axis]);
                    }
                }
                S::from_xyz(p)
            })
            .filter(|&n| self.contains(n))
    }

    /// Iterate all node coordinates in index order (x fastest).
    pub fn nodes(&self) -> impl Iterator<Item = S::Coord> + '_ {
        (0..self.node_count()).map(|i| self.space.coord(i))
    }

    /// Remove all faults.
    pub fn clear_faults(&mut self) {
        self.faulty.clear();
        self.fault_list.clear();
    }
}

impl Mesh2D {
    /// A fault-free `width × height` mesh.
    ///
    /// # Panics
    /// If either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Self {
        Mesh::over(NodeSpace2::new(width, height))
    }

    /// A `k × k` mesh (the paper's "k-ary 2-dimensional mesh").
    pub fn kary(k: i32) -> Self {
        Mesh2D::new(k, k)
    }

    /// A fault-free `width × height` torus: the wrap-around variant of the
    /// mesh, every axis closing on itself.
    ///
    /// # Panics
    /// If either dimension is smaller than 3 (see [`NodeSpace2::torus`]).
    pub fn torus(width: i32, height: i32) -> Self {
        Mesh::over(NodeSpace2::torus(width, height))
    }

    /// A `k × k` torus (the "k-ary 2-cube" of the routing literature).
    pub fn torus_kary(k: i32) -> Self {
        Mesh2D::torus(k, k)
    }

    /// Width (extent along X).
    #[inline]
    pub fn width(&self) -> i32 {
        self.space.width()
    }

    /// Height (extent along Y).
    #[inline]
    pub fn height(&self) -> i32 {
        self.space.height()
    }
}

impl Mesh3D {
    /// A fault-free `nx × ny × nz` mesh.
    ///
    /// # Panics
    /// If any dimension is not positive.
    pub fn new(nx: i32, ny: i32, nz: i32) -> Self {
        Mesh::over(NodeSpace3::new(nx, ny, nz))
    }

    /// A `k × k × k` mesh (the paper's "k-ary 3-dimensional mesh").
    pub fn kary(k: i32) -> Self {
        Mesh3D::new(k, k, k)
    }

    /// A fault-free `nx × ny × nz` torus: the wrap-around variant of the
    /// mesh, every axis closing on itself.
    ///
    /// # Panics
    /// If any dimension is smaller than 3 (see [`NodeSpace3::torus`]).
    pub fn torus(nx: i32, ny: i32, nz: i32) -> Self {
        Mesh::over(NodeSpace3::torus(nx, ny, nz))
    }

    /// A `k × k × k` torus (the "k-ary 3-cube" of the routing literature).
    pub fn torus_kary(k: i32) -> Self {
        Mesh3D::torus(k, k, k)
    }

    /// Extent along X.
    #[inline]
    pub fn nx(&self) -> i32 {
        self.space.nx()
    }

    /// Extent along Y.
    #[inline]
    pub fn ny(&self) -> i32 {
        self.space.ny()
    }

    /// Extent along Z.
    #[inline]
    pub fn nz(&self) -> i32 {
        self.space.nz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{c2, c3, C2, C3};

    #[test]
    fn mesh2_bounds_and_neighbors() {
        let m = Mesh2D::new(4, 3);
        assert_eq!(m.node_count(), 12);
        // interior degree 4, corner degree 2, edge degree 3
        assert_eq!(m.neighbors(c2(1, 1)).count(), 4);
        assert_eq!(m.neighbors(c2(0, 0)).count(), 2);
        assert_eq!(m.neighbors(c2(1, 0)).count(), 3);
        assert!(m.contains(c2(3, 2)));
        assert!(!m.contains(c2(4, 0)));
        assert!(!m.contains(c2(0, -1)));
    }

    #[test]
    fn mesh3_degrees() {
        let m = Mesh3D::new(3, 3, 3);
        assert_eq!(m.node_count(), 27);
        assert_eq!(m.neighbors(c3(1, 1, 1)).count(), 6); // interior degree 2n = 6
        assert_eq!(m.neighbors(c3(0, 0, 0)).count(), 3);
        assert_eq!(m.neighbors(c3(1, 0, 0)).count(), 4);
    }

    #[test]
    fn fault_injection() {
        let mut m = Mesh2D::new(5, 5);
        assert!(m.inject_fault(c2(2, 2)));
        assert!(!m.inject_fault(c2(2, 2))); // idempotent
        assert!(m.is_faulty(c2(2, 2)));
        assert!(m.is_healthy(c2(2, 3)));
        assert!(!m.is_healthy(c2(9, 9))); // off-mesh is neither healthy...
        assert!(!m.is_faulty(c2(9, 9))); // ...nor faulty
        assert_eq!(m.fault_count(), 1);
        m.clear_faults();
        assert_eq!(m.fault_count(), 0);
        assert!(m.is_healthy(c2(2, 2)));
    }

    #[test]
    fn mesh3_fault_roundtrip() {
        let mut m = Mesh3D::kary(4);
        for c in [c3(0, 0, 0), c3(3, 3, 3), c3(1, 2, 3)] {
            assert!(m.inject_fault(c));
        }
        assert_eq!(m.faults().len(), 3);
        assert_eq!(m.nodes().filter(|&c| m.is_faulty(c)).count(), 3);
    }

    #[test]
    fn fault_set_mirrors_fault_list() {
        let mut m = Mesh2D::new(6, 6);
        for c in [c2(0, 0), c2(5, 5), c2(2, 3)] {
            m.inject_fault(c);
        }
        let set = m.fault_set();
        assert_eq!(set.len(), 3);
        let from_set: Vec<C2> = set.iter().map(|i| m.space().coord(i)).collect();
        let mut from_list = m.faults().to_vec();
        from_list.sort();
        assert_eq!(from_set, from_list); // bitset iterates in index order
    }

    #[test]
    fn torus_meshes_have_full_degree_and_wrap_links() {
        let t = Mesh2D::torus(4, 3);
        assert!(t.wraps());
        for c in t.nodes() {
            assert_eq!(t.neighbors(c).count(), 4, "{c}");
        }
        assert!(t.are_neighbors(c2(0, 0), c2(3, 0)));
        assert!(t.are_neighbors(c2(0, 0), c2(0, 2)));
        assert!(!t.are_neighbors(c2(0, 0), c2(2, 0)));
        assert_eq!(t.dist(c2(0, 0), c2(3, 2)), 2);

        let t3 = Mesh3D::torus_kary(3);
        assert!(t3.wraps());
        for c in t3.nodes() {
            assert_eq!(t3.neighbors(c).count(), 6, "{c}");
        }
        assert!(t3.are_neighbors(c3(0, 0, 0), c3(0, 0, 2)));

        let m = Mesh2D::new(4, 3);
        assert!(!m.wraps());
        assert!(!m.are_neighbors(c2(0, 0), c2(3, 0)));
        assert_eq!(m.dist(c2(0, 0), c2(3, 2)), 5);
    }

    #[test]
    fn heal_fault_reverses_injection_and_keeps_order() {
        let mut m = Mesh2D::new(6, 6);
        for c in [c2(1, 1), c2(4, 2), c2(3, 3)] {
            m.inject_fault(c);
        }
        assert!(m.heal_fault(c2(4, 2)));
        assert!(!m.heal_fault(c2(4, 2))); // idempotent
        assert!(m.is_healthy(c2(4, 2)));
        assert_eq!(m.faults(), &[c2(1, 1), c2(3, 3)]); // injection order kept
        assert_eq!(m.fault_set().len(), 2);
    }

    #[test]
    fn batch_churn_matches_node_by_node() {
        let mut a = Mesh2D::new(8, 8);
        let mut b = Mesh2D::new(8, 8);
        for c in [c2(0, 0), c2(3, 4), c2(7, 7), c2(2, 2)] {
            a.inject_fault(c);
            b.inject_fault(c);
        }
        let space = a.space();
        let inject = NodeSet::from_indices(
            space.len(),
            [space.index(c2(5, 5)), space.index(c2(2, 2))], // one already faulty
        );
        let heal = NodeSet::from_indices(
            space.len(),
            [space.index(c2(3, 4)), space.index(c2(6, 6))], // one already healthy
        );
        assert_eq!(a.inject_fault_set(&inject), 1);
        assert_eq!(a.heal_fault_set(&heal), 1);
        b.inject_fault(c2(5, 5));
        b.heal_fault(c2(3, 4));
        assert_eq!(a.fault_set(), b.fault_set());
        assert_eq!(a.faults(), b.faults());
    }

    #[test]
    fn mesh3_heal_and_batch_churn() {
        let mut m = Mesh3D::kary(4);
        for c in [c3(0, 0, 0), c3(3, 3, 3), c3(1, 2, 3)] {
            m.inject_fault(c);
        }
        assert!(m.heal_fault(c3(3, 3, 3)));
        assert_eq!(m.faults(), &[c3(0, 0, 0), c3(1, 2, 3)]);
        let space = m.space();
        let inject = NodeSet::from_indices(space.len(), [space.index(c3(2, 2, 2))]);
        assert_eq!(m.inject_fault_set(&inject), 1);
        let heal = NodeSet::from_indices(
            space.len(),
            [space.index(c3(0, 0, 0)), space.index(c3(1, 2, 3))],
        );
        assert_eq!(m.heal_fault_set(&heal), 2);
        assert_eq!(m.faults(), &[c3(2, 2, 2)]);
        assert_eq!(m.fault_set().len(), 1);
    }

    #[test]
    fn diameter_is_k_minus_1_times_n() {
        let m = Mesh3D::kary(5);
        let far = c3(4, 4, 4);
        assert_eq!(C3::ORIGIN.dist(far), (5 - 1) * 3);
        assert_eq!(m.bounds().hi, far);
    }
}
