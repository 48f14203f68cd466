//! Algorithm 6 step 1 — feasibility detection in 3-D meshes.
//!
//! Three detection floods are sent from the source along the three surfaces
//! of the Region of Minimal Paths (RMP):
//!
//! * the `(-X)`-surface flood propagates along `+Y` and `+Z`, makes `+X`
//!   turns around fault regions, and succeeds when it reaches the
//!   `y = yd` face of the RMP,
//! * the `(-Y)`-surface flood propagates along `+X`/`+Z` with `+Y` turns,
//!   targeting the `z = zd` face,
//! * the `(-Z)`-surface flood propagates along `+X`/`+Y` with `+Z` turns,
//!   targeting the `x = xd` face.
//!
//! A minimal path exists iff all three floods succeed — the operational form
//! of Theorem 2, property-tested against the semantic condition.

use std::collections::VecDeque;

use fault_model::Labelling3;
use mesh_topo::{Axis3, NodeSet, NodeSpace3, C3};
use serde::{Deserialize, Serialize};

/// Result of the source feasibility check in 3-D.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Detection3 {
    /// The `(-X)`-surface flood reached the `y = yd` face.
    pub x_surface_ok: bool,
    /// The `(-Y)`-surface flood reached the `z = zd` face.
    pub y_surface_ok: bool,
    /// The `(-Z)`-surface flood reached the `x = xd` face.
    pub z_surface_ok: bool,
    /// Total nodes visited by the three floods (detection message cost).
    pub visited: usize,
}

impl Detection3 {
    /// True iff routing may be activated (all three floods succeeded).
    pub fn feasible(self) -> bool {
        self.x_surface_ok && self.y_surface_ok && self.z_surface_ok
    }
}

/// Reusable flood state for [`detect_3d_in`]: the visited bitset over the
/// RMP box and the BFS queue, shared by the three surface floods. One
/// instance carried across many detections keeps the floods
/// allocation-free in steady state (the bitset grows to the largest box
/// seen, the queue to the widest frontier).
#[derive(Clone, Debug)]
pub struct FloodScratch3 {
    seen: NodeSet,
    queue: VecDeque<C3>,
}

impl FloodScratch3 {
    /// Fresh, empty flood state.
    pub fn new() -> FloodScratch3 {
        FloodScratch3 {
            seen: NodeSet::new(1),
            queue: VecDeque::new(),
        }
    }
}

impl Default for FloodScratch3 {
    fn default() -> FloodScratch3 {
        FloodScratch3::new()
    }
}

/// Run the three surface floods for canonical safe `s ≤ d`.
///
/// # Panics
/// If `s` does not precede `d` componentwise, or an endpoint is unsafe.
pub fn detect_3d(lab: &Labelling3, s: C3, d: C3) -> Detection3 {
    detect_3d_in(lab, s, d, &mut FloodScratch3::new())
}

/// [`detect_3d`] with caller-provided flood state (see [`FloodScratch3`]).
///
/// # Panics
/// If `s` does not precede `d` componentwise, or an endpoint is unsafe.
pub fn detect_3d_in(lab: &Labelling3, s: C3, d: C3, scratch: &mut FloodScratch3) -> Detection3 {
    assert!(s.dominated_by(d), "detection requires canonical s <= d");
    assert!(
        lab.is_safe(s) && lab.is_safe(d),
        "detection requires safe endpoints; triage labelled endpoints first"
    );
    // Flood main axes / detour axis / target face, per the paper's pairing.
    const SURFACES: [([Axis3; 2], Axis3, Axis3); 3] = [
        ([Axis3::Y, Axis3::Z], Axis3::X, Axis3::Y),
        ([Axis3::X, Axis3::Z], Axis3::Y, Axis3::Z),
        ([Axis3::X, Axis3::Y], Axis3::Z, Axis3::X),
    ];
    let mut visited = 0;
    let [x, y, z] = SURFACES.map(|(main, detour, target)| {
        flood(lab, s, d, main, detour, target, &mut visited, scratch)
    });
    Detection3 {
        x_surface_ok: x,
        y_surface_ok: y,
        z_surface_ok: z,
        visited,
    }
}

/// Surface flood: breadth-first propagation from `s` over safe nodes of the
/// RMP. Moves along the two `main` axes are always allowed; a move along
/// the `detour` axis is taken only by a node with a blocked `main` move
/// (the "+turn" of the paper). Succeeds upon reaching the face where the
/// `target` coordinate equals the destination's.
///
/// The visited map is a flat `NodeSet` bitset over the `[s, d]` RMP box
/// (the flood never leaves it), so per-detection cost scales with the
/// routing box, not the whole mesh — and no coordinate is ever re-hashed.
/// Both the bitset and the queue live in the caller's [`FloodScratch3`].
#[allow(clippy::too_many_arguments)] // axis roles + counters are clearest flat
fn flood(
    lab: &Labelling3,
    s: C3,
    d: C3,
    main: [Axis3; 2],
    detour: Axis3,
    target: Axis3,
    visited_count: &mut usize,
    scratch: &mut FloodScratch3,
) -> bool {
    if s.get(target) == d.get(target) {
        return true;
    }
    let space = NodeSpace3::new(d.x - s.x + 1, d.y - s.y + 1, d.z - s.z + 1);
    let seen = &mut scratch.seen;
    let queue = &mut scratch.queue;
    seen.reset(space.len());
    queue.clear();
    seen.insert(space.index(C3::ORIGIN));
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        *visited_count += 1;
        let mut any_main_blocked = false;
        for axis in main {
            if u.get(axis) >= d.get(axis) {
                continue; // face of the RMP along this axis
            }
            let v = u.step(axis.pos());
            if lab.is_safe(v) {
                if v.get(target) == d.get(target) {
                    return true;
                }
                if seen.insert(space.index(v - s)) {
                    queue.push_back(v);
                }
            } else {
                any_main_blocked = true;
            }
        }
        if any_main_blocked && u.get(detour) < d.get(detour) {
            let v = u.step(detour.pos());
            if lab.is_safe(v) {
                if v.get(target) == d.get(target) {
                    return true;
                }
                if seen.insert(space.index(v - s)) {
                    queue.push_back(v);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::BorderPolicy;
    use mesh_topo::coord::c3;
    use mesh_topo::{Frame3, Mesh3D};

    fn lab_of(faults: &[C3], k: i32) -> Labelling3 {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe)
    }

    #[test]
    fn open_mesh_feasible() {
        let lab = lab_of(&[], 6);
        let det = detect_3d(&lab, c3(0, 0, 0), c3(5, 5, 5));
        assert!(det.feasible());
        assert!(det.visited > 0);
    }

    #[test]
    fn line_rmp_block_detected() {
        let lab = lab_of(&[c3(0, 0, 3)], 8);
        let det = detect_3d(&lab, c3(0, 0, 0), c3(0, 0, 6));
        assert!(!det.feasible());
    }

    #[test]
    fn plane_wall_detected() {
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let lab = lab_of(&faults, 8);
        assert!(!detect_3d(&lab, c3(0, 0, 0), c3(3, 3, 4)).feasible());
        assert!(detect_3d(&lab, c3(0, 0, 0), c3(4, 3, 4)).feasible());
    }

    #[test]
    fn floods_agree_with_semantic_condition_randomized() {
        use fault_model::{minimal_path_exists_3d, Existence3};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        let mut checked = 0;
        for trial in 0..400 {
            let mut mesh = Mesh3D::kary(7);
            for _ in 0..rng.gen_range(0..24) {
                let c = c3(
                    rng.gen_range(0..7),
                    rng.gen_range(0..7),
                    rng.gen_range(0..7),
                );
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            let a = c3(
                rng.gen_range(0..7),
                rng.gen_range(0..7),
                rng.gen_range(0..7),
            );
            let b = c3(
                rng.gen_range(0..7),
                rng.gen_range(0..7),
                rng.gen_range(0..7),
            );
            let s = c3(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z));
            let d = c3(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z));
            if !lab.is_safe(s) || !lab.is_safe(d) {
                continue;
            }
            checked += 1;
            let semantic = minimal_path_exists_3d(&lab, s, d) == Existence3::Exists;
            let operational = detect_3d(&lab, s, d).feasible();
            assert_eq!(
                semantic,
                operational,
                "trial {trial}: flood/condition mismatch s={s} d={d} faults={:?}",
                mesh.faults()
            );
        }
        assert!(checked > 150, "too few safe-endpoint trials: {checked}");
    }

    #[test]
    fn degenerate_pairs() {
        let lab = lab_of(&[c3(4, 4, 4)], 6);
        assert!(detect_3d(&lab, c3(1, 1, 1), c3(1, 1, 1)).feasible());
        assert!(detect_3d(&lab, c3(0, 0, 0), c3(5, 0, 0)).feasible());
    }

    #[test]
    #[should_panic]
    fn unsafe_endpoint_panics() {
        let lab = lab_of(&[c3(3, 3, 3)], 8);
        detect_3d(&lab, c3(0, 0, 0), c3(3, 3, 3));
    }
}
