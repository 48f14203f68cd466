//! Algorithm 3 step 1 — feasibility detection in 2-D meshes.
//!
//! At the source two detection messages are sent:
//!
//! * the first along the `+Y` direction, turning `+X` when it runs into a
//!   fault region and back to `+Y` as soon as possible, succeeding when it
//!   reaches the segment `[xs : xd, yd : yd]` (the top edge of the RMP);
//! * the second along `+X` with `+Y` detours, targeting the right edge
//!   `[xd : xd, ys : yd]`.
//!
//! A minimal path exists iff both messages succeed (the operational form of
//! Theorem 1, property-tested equivalent to the semantic condition).
//!
//! The walks need only node-local status: a detour step is always possible
//! because a safe node with both positive neighbors unsafe would have been
//! labelled useless, contradicting its safety — the closure is exactly what
//! makes this local rule complete. [`walk_step`] states that rule once, for
//! the walks below and for the message protocol of `mcc-protocols`.

use std::ops::ControlFlow;

use fault_model::Labelling2;
use mesh_topo::{Coord, Dir2, C2};
use serde::{Deserialize, Serialize};

/// The two detection walks as `(main, side)` directions: the `+Y` walk
/// with `+X` detours, then the `+X` walk with `+Y` detours.
pub const WALKS: [(Dir2, Dir2); 2] = [(Dir2::Yp, Dir2::Xp), (Dir2::Xp, Dir2::Yp)];

/// Result of the source feasibility check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Detection2 {
    /// The `+Y` detection message reached the top edge of the RMP.
    pub y_ok: bool,
    /// The `+X` detection message reached the right edge of the RMP.
    pub x_ok: bool,
    /// Total hops travelled by both detection messages (the detection cost
    /// in message transmissions).
    pub hops: usize,
}

impl Detection2 {
    /// True iff routing may be activated (both messages succeeded).
    pub fn feasible(self) -> bool {
        self.y_ok && self.x_ok
    }
}

/// Run the two detection walks for canonical safe `s ≤ d`.
///
/// Endpoints must be safe under `lab` (the theorems' precondition; callers
/// triage labelled endpoints first — see `fault_model::condition`).
///
/// # Panics
/// If `s` does not precede `d` componentwise, or an endpoint is unsafe.
pub fn detect_2d(lab: &Labelling2, s: C2, d: C2) -> Detection2 {
    assert!(s.dominated_by(d), "detection requires canonical s <= d");
    assert!(
        lab.is_safe(s) && lab.is_safe(d),
        "detection requires safe endpoints; triage labelled endpoints first"
    );
    let mut hops = 0;
    let [(y_main, y_side), (x_main, x_side)] = WALKS;
    let y_ok = walk(lab, s, d, y_main, y_side, &mut hops);
    let x_ok = walk(lab, s, d, x_main, x_side, &mut hops);
    Detection2 { y_ok, x_ok, hops }
}

/// Wall-hugging monotone walk from `s`, one [`walk_step`] per node.
fn walk(lab: &Labelling2, s: C2, d: C2, main: Dir2, side: Dir2, hops: &mut usize) -> bool {
    let mut pos = s;
    loop {
        match walk_step(pos, d, main, side, |v| lab.is_safe(v)) {
            ControlFlow::Continue(next) => {
                pos = next;
                *hops += 1;
            }
            ControlFlow::Break(ok) => return ok,
        }
    }
}

/// What a detection walk does at `at` on its way to `d`: advance along
/// `main` whenever that neighbor is safe, detour along `side` when it is
/// blocked, succeed on reaching the target edge of the RMP (`main`'s
/// coordinate equals `d`'s) and fail when a detour would leave the RMP.
/// Returns the next node, or the verdict once the walk ends. `safe` is
/// asked only about neighbors inside the RMP.
#[inline]
pub fn walk_step(
    at: C2,
    d: C2,
    main: Dir2,
    side: Dir2,
    safe: impl Fn(C2) -> bool,
) -> ControlFlow<bool, C2> {
    if at.get(main.axis()) == d.get(main.axis()) {
        return ControlFlow::Break(true); // reached the target edge of the RMP
    }
    let fwd = at.step(main);
    if safe(fwd) {
        return ControlFlow::Continue(fwd);
    }
    if at.get(side.axis()) == d.get(side.axis()) {
        return ControlFlow::Break(false); // cannot detour without leaving the RMP
    }
    let detour = at.step(side);
    let detour_safe = safe(detour);
    debug_assert!(
        detour_safe,
        "safe node {at:?} with both positive neighbors unsafe cannot exist"
    );
    if detour_safe {
        ControlFlow::Continue(detour)
    } else {
        ControlFlow::Break(false) // defensive: should be unreachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::BorderPolicy;
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D};

    fn lab_of(faults: &[C2], w: i32, h: i32) -> Labelling2 {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe)
    }

    #[test]
    fn open_mesh_feasible() {
        let lab = lab_of(&[], 8, 8);
        let det = detect_2d(&lab, c2(0, 0), c2(7, 7));
        assert!(det.feasible());
        assert!(det.hops >= 14); // both walks cross the RMP
    }

    #[test]
    fn single_column_block_detected() {
        let lab = lab_of(&[c2(3, 4)], 8, 8);
        let det = detect_2d(&lab, c2(3, 0), c2(3, 7));
        assert!(!det.feasible());
        assert!(
            !det.y_ok,
            "the +Y walk cannot detour in a single-column RMP"
        );
    }

    #[test]
    fn detour_around_region() {
        // A small region forces a detour but the RMP is wide enough.
        let lab = lab_of(&[c2(1, 3), c2(2, 3)], 8, 8);
        let det = detect_2d(&lab, c2(0, 0), c2(7, 7));
        assert!(det.feasible());
    }

    #[test]
    fn joint_blocking_detected() {
        // The narrow-RMP two-MCC composition the unmerged pair condition
        // misses; the walk must catch it (boundary-merge semantics).
        let lab = lab_of(&[c2(2, 1), c2(3, 8)], 12, 12);
        let det = detect_2d(&lab, c2(2, 0), c2(3, 10));
        assert!(!det.feasible());
    }

    #[test]
    fn walks_agree_with_semantic_condition_randomized() {
        use fault_model::mcc2::MccSet2;
        use fault_model::{minimal_path_exists_2d, Existence2};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let mut checked = 0;
        for trial in 0..500 {
            let mut mesh = Mesh2D::new(12, 12);
            for _ in 0..rng.gen_range(0..16) {
                let c = c2(rng.gen_range(0..12), rng.gen_range(0..12));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            let (sx, sy) = (rng.gen_range(0..12), rng.gen_range(0..12));
            let (dx, dy) = (rng.gen_range(0..12), rng.gen_range(0..12));
            let s = c2(sx.min(dx), sy.min(dy));
            let d = c2(sx.max(dx), sy.max(dy));
            if !lab.is_safe(s) || !lab.is_safe(d) {
                continue;
            }
            checked += 1;
            let semantic = minimal_path_exists_2d(&lab, &set, s, d);
            let operational = detect_2d(&lab, s, d).feasible();
            assert_eq!(
                semantic == Existence2::Exists,
                operational,
                "trial {trial}: walk/condition mismatch s={s} d={d} faults={:?}",
                mesh.faults()
            );
        }
        assert!(checked > 200, "too few safe-endpoint trials: {checked}");
    }

    #[test]
    fn degenerate_pairs() {
        let lab = lab_of(&[c2(5, 5)], 8, 8);
        // Same node.
        assert!(detect_2d(&lab, c2(1, 1), c2(1, 1)).feasible());
        // Straight safe line.
        assert!(detect_2d(&lab, c2(0, 2), c2(6, 2)).feasible());
    }

    #[test]
    #[should_panic]
    fn unsafe_endpoint_panics() {
        let lab = lab_of(&[c2(3, 3)], 8, 8);
        detect_2d(&lab, c2(0, 0), c2(3, 3));
    }
}
