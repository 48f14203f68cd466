//! Hash-based reference implementations of labelling and component
//! discovery — the pre-flat-layer representation, kept as a test oracle.
//!
//! Before the flat node-state layer ([`mesh_topo::nodeset`]) landed, the
//! labelling closure ran as a coordinate worklist over pointer-chased maps
//! and component discovery BFS'd through `HashSet<C2>`/`HashSet<C3>`
//! membership. This module preserves that representation verbatim so the
//! property tests in `properties.rs` can assert the flat pipeline produces
//! *identical* statuses and component partitions on random meshes, both
//! border policies included. The definitional worklist closure over the
//! wrapped neighbor relation is the matching oracle on tori.

use std::collections::{HashMap, HashSet};

use fault_model::{BorderPolicy, NodeStatus};
use mesh_topo::{Coord, Frame, Frame2, Frame3, Mesh, Mesh2D, Mesh3D, C2, C3};

/// The 8-neighborhood (face + diagonal) used for 2-D region connectivity.
const NEIGHBORS_8: [(i32, i32); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];

/// The 18-neighborhood (face + planar-diagonal) used for 3-D region
/// connectivity. Space diagonals (all three coordinates differing) are
/// excluded, matching the paper's Figure 5 decomposition.
const NEIGHBORS_18: [(i32, i32, i32); 18] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (-1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (-1, 0, 1),
    (-1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (0, -1, 1),
    (0, -1, -1),
];

/// The hash-based 2-D labelling: per-node status keyed by canonical
/// coordinate.
#[derive(Clone, Debug)]
pub struct HashLabelling2 {
    /// Status of every node, keyed by canonical coordinate.
    pub status: HashMap<C2, NodeStatus>,
}

/// The hash-based 3-D labelling.
#[derive(Clone, Debug)]
pub struct HashLabelling3 {
    /// Status of every node, keyed by canonical coordinate.
    pub status: HashMap<C3, NodeStatus>,
}

impl HashLabelling2 {
    /// Run the worklist closure of Algorithm 1 over hashed coordinates.
    pub fn compute(mesh: &Mesh2D, frame: Frame2, policy: BorderPolicy) -> HashLabelling2 {
        use mesh_topo::dir::Dir2::{Xm, Xp, Ym, Yp};
        let mut status: HashMap<C2, NodeStatus> = mesh
            .nodes()
            .map(|c| (frame.to_canon(c), NodeStatus::SAFE))
            .collect();
        for &f in mesh.faults() {
            status.insert(frame.to_canon(f), NodeStatus::FAULT);
        }
        let border_blocks = matches!(policy, BorderPolicy::BorderBlocked);
        let blocks_fwd = |st: &HashMap<C2, NodeStatus>, c: C2| match st.get(&c) {
            Some(s) => s.blocks_forward(),
            None => border_blocks,
        };
        let blocks_bwd = |st: &HashMap<C2, NodeStatus>, c: C2| match st.get(&c) {
            Some(s) => s.blocks_backward(),
            None => border_blocks,
        };

        let mut fwd: Vec<C2> = status.keys().copied().collect();
        while let Some(u) = fwd.pop() {
            let st = status[&u];
            if st.blocks_forward() {
                continue;
            }
            if blocks_fwd(&status, u.step(Xp)) && blocks_fwd(&status, u.step(Yp)) {
                status.get_mut(&u).expect("u is in the map").mark_useless();
                for v in [u.step(Xm), u.step(Ym)] {
                    if status.contains_key(&v) {
                        fwd.push(v);
                    }
                }
            }
        }
        let mut bwd: Vec<C2> = status.keys().copied().collect();
        while let Some(u) = bwd.pop() {
            let st = status[&u];
            if st.blocks_backward() {
                continue;
            }
            if blocks_bwd(&status, u.step(Xm)) && blocks_bwd(&status, u.step(Ym)) {
                status
                    .get_mut(&u)
                    .expect("u is in the map")
                    .mark_cant_reach();
                for v in [u.step(Xp), u.step(Yp)] {
                    if status.contains_key(&v) {
                        bwd.push(v);
                    }
                }
            }
        }
        HashLabelling2 { status }
    }

    /// The unsafe cells as a hash set.
    pub fn unsafe_cells(&self) -> HashSet<C2> {
        self.status
            .iter()
            .filter(|(_, s)| s.is_unsafe())
            .map(|(&c, _)| c)
            .collect()
    }
}

impl HashLabelling3 {
    /// Run the worklist closure of Algorithm 4 over hashed coordinates.
    pub fn compute(mesh: &Mesh3D, frame: Frame3, policy: BorderPolicy) -> HashLabelling3 {
        use mesh_topo::dir::Dir3::{Xm, Xp, Ym, Yp, Zm, Zp};
        let mut status: HashMap<C3, NodeStatus> = mesh
            .nodes()
            .map(|c| (frame.to_canon(c), NodeStatus::SAFE))
            .collect();
        for &f in mesh.faults() {
            status.insert(frame.to_canon(f), NodeStatus::FAULT);
        }
        let border_blocks = matches!(policy, BorderPolicy::BorderBlocked);
        let blocks_fwd = |st: &HashMap<C3, NodeStatus>, c: C3| match st.get(&c) {
            Some(s) => s.blocks_forward(),
            None => border_blocks,
        };
        let blocks_bwd = |st: &HashMap<C3, NodeStatus>, c: C3| match st.get(&c) {
            Some(s) => s.blocks_backward(),
            None => border_blocks,
        };

        let mut fwd: Vec<C3> = status.keys().copied().collect();
        while let Some(u) = fwd.pop() {
            let st = status[&u];
            if st.blocks_forward() {
                continue;
            }
            if blocks_fwd(&status, u.step(Xp))
                && blocks_fwd(&status, u.step(Yp))
                && blocks_fwd(&status, u.step(Zp))
            {
                status.get_mut(&u).expect("u is in the map").mark_useless();
                for v in [u.step(Xm), u.step(Ym), u.step(Zm)] {
                    if status.contains_key(&v) {
                        fwd.push(v);
                    }
                }
            }
        }
        let mut bwd: Vec<C3> = status.keys().copied().collect();
        while let Some(u) = bwd.pop() {
            let st = status[&u];
            if st.blocks_backward() {
                continue;
            }
            if blocks_bwd(&status, u.step(Xm))
                && blocks_bwd(&status, u.step(Ym))
                && blocks_bwd(&status, u.step(Zm))
            {
                status
                    .get_mut(&u)
                    .expect("u is in the map")
                    .mark_cant_reach();
                for v in [u.step(Xp), u.step(Yp), u.step(Zp)] {
                    if status.contains_key(&v) {
                        bwd.push(v);
                    }
                }
            }
        }
        HashLabelling3 { status }
    }

    /// The unsafe cells as a hash set.
    pub fn unsafe_cells(&self) -> HashSet<C3> {
        self.status
            .iter()
            .filter(|(_, s)| s.is_unsafe())
            .map(|(&c, _)| c)
            .collect()
    }
}

/// Definitional worklist closure with wrapped neighbors, in the canonical
/// coordinates of `frame`: a node is useless once its `+` neighbor on
/// every axis blocks forward, and can't-reach once its `-` neighbor on
/// every axis blocks backward. Statuses are indexed by canonical node.
pub fn worklist_closure<C: Coord>(mesh: &Mesh<C>, frame: Frame<C>) -> Vec<NodeStatus> {
    let space = mesh.space();
    let ext = space.extents();
    let mut st = vec![NodeStatus::SAFE; space.len()];
    for &f in mesh.faults() {
        st[space.index(frame.to_canon(f))] = NodeStatus::FAULT;
    }
    let nbr = |c: C, axis: usize, step: i32| {
        let mut p = c.xyz();
        p[axis] = (p[axis] + step).rem_euclid(ext[axis] as i32);
        space.index(C::from_xyz(p))
    };
    loop {
        let mut changed = false;
        for c in mesh.nodes() {
            let i = space.index(c);
            if !st[i].blocks_forward() && (0..C::DIMS).all(|a| st[nbr(c, a, 1)].blocks_forward()) {
                st[i].mark_useless();
                changed = true;
            }
            if !st[i].blocks_backward() && (0..C::DIMS).all(|a| st[nbr(c, a, -1)].blocks_backward())
            {
                st[i].mark_cant_reach();
                changed = true;
            }
        }
        if !changed {
            return st;
        }
    }
}

/// Hash-based 8-connected component discovery over the unsafe set of a
/// 2-D hash labelling. Components are returned sorted (each component's
/// cells sorted, components ordered by minimum cell) so results are
/// representation-independent.
pub fn components2_hash(lab: &HashLabelling2) -> Vec<Vec<C2>> {
    let unsafe_cells = lab.unsafe_cells();
    let mut seen: HashSet<C2> = HashSet::new();
    let mut comps: Vec<Vec<C2>> = Vec::new();
    for &start in &unsafe_cells {
        if seen.contains(&start) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(u) = stack.pop() {
            comp.push(u);
            for (dx, dy) in NEIGHBORS_8 {
                let v = C2 {
                    x: u.x + dx,
                    y: u.y + dy,
                };
                if unsafe_cells.contains(&v) && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        comp.sort();
        comps.push(comp);
    }
    comps.sort();
    comps
}

/// Hash-based 18-connected component discovery over the unsafe set of a
/// 3-D hash labelling (sorted like [`components2_hash`]).
pub fn components3_hash(lab: &HashLabelling3) -> Vec<Vec<C3>> {
    let unsafe_cells = lab.unsafe_cells();
    let mut seen: HashSet<C3> = HashSet::new();
    let mut comps: Vec<Vec<C3>> = Vec::new();
    for &start in &unsafe_cells {
        if seen.contains(&start) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(u) = stack.pop() {
            comp.push(u);
            for (dx, dy, dz) in NEIGHBORS_18 {
                let v = C3 {
                    x: u.x + dx,
                    y: u.y + dy,
                    z: u.z + dz,
                };
                if unsafe_cells.contains(&v) && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        comp.sort();
        comps.push(comp);
    }
    comps.sort();
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};

    #[test]
    fn hash_labelling_matches_figure5() {
        let mut mesh = Mesh3D::kary(10);
        for c in [
            c3(5, 5, 6),
            c3(6, 5, 5),
            c3(5, 6, 5),
            c3(6, 7, 5),
            c3(7, 6, 5),
            c3(5, 4, 7),
            c3(4, 5, 7),
            c3(7, 8, 4),
        ] {
            mesh.inject_fault(c);
        }
        let lab = HashLabelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        assert!(lab.status[&c3(5, 5, 5)].is_useless());
        assert!(lab.status[&c3(5, 5, 7)].is_cant_reach());
        assert_eq!(lab.unsafe_cells().len(), 10);
        assert_eq!(components3_hash(&lab).len(), 2);
    }

    #[test]
    fn hash_labelling_2d_antidiagonal() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(5, 6));
        mesh.inject_fault(c2(6, 5));
        let lab = HashLabelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        assert!(lab.status[&c2(5, 5)].is_useless());
        assert!(lab.status[&c2(6, 6)].is_cant_reach());
        let comps = components2_hash(&lab);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
    }
}
