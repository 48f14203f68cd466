//! Baseline routers the MCC router is compared against.
//!
//! * [`route_greedy_2d`] / [`route_greedy_3d`] — *no fault information*:
//!   forward along any preferred direction whose neighbor is healthy,
//!   getting stuck in dead ends the labelling would have flagged. The gap
//!   between its delivery rate and the oracle quantifies the value of fault
//!   information.
//! * [`route_rfb_2d_in`] / [`route_rfb_3d_in`] — routing under the
//!   rectangular / cuboid block model: identical two-phase structure to
//!   the MCC router but with the coarser disabled set, so feasibility is
//!   refused more often.
//!
//! Both run the one minimal-forwarding walk of the MCC routers, written
//! once over the node space (`greedy`, `rfb`); the per-dimension
//! functions only wrap its result in the dimension's outcome record.

use fault_model::oracle::{Useful, Useful2, Useful3};
use fault_model::{FaultBlocks2, FaultBlocks3, Labelling, Labelling2, Labelling3};
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D, C2, C3};

use crate::policy::Policy;
use crate::trace::{RouteOutcome2, RouteOutcome3};
use crate::walk::{walk, Trail, Walk};

/// Greedy fault-information-free routing in 2-D (canonical `s ≤ d`).
///
/// Moves along preferred directions avoiding only *faulty* neighbors. May
/// strand in dead ends; never produces a non-minimal path.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn route_greedy_2d(lab: &Labelling2, s: C2, d: C2, policy: &mut Policy) -> RouteOutcome2 {
    RouteOutcome2::new(s, greedy(lab, s, d, policy), 0)
}

/// Greedy fault-information-free routing in 3-D (canonical `s ≤ d`).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn route_greedy_3d(lab: &Labelling3, s: C3, d: C3, policy: &mut Policy) -> RouteOutcome3 {
    RouteOutcome3::new(s, greedy(lab, s, d, policy), 0)
}

/// The greedy walk over healthy nodes for canonical `s ≤ d`; `None` if an
/// endpoint is faulty or off the mesh.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub(crate) fn greedy<C: Coord, T: Trail<C>>(
    lab: &Labelling<C>,
    s: C,
    d: C,
    policy: &mut Policy,
) -> Option<Walk<C, T>> {
    assert!(s.dominated_by(d), "router requires canonical s <= d");
    let healthy = |c| lab.status_get(c).is_some_and(|t| !t.is_faulty());
    (healthy(s) && healthy(d)).then(|| walk(s, d, policy, healthy, |u| u))
}

/// Routing under the 2-D rectangular-block model. `s`, `d` are **mesh**
/// coordinates (the block model is orientation-free; canonicalization is
/// internal). Refuses whenever the block model sees no minimal path; the
/// block-useful set is swept into the caller's `useful` (see
/// [`FaultBlocks2::minimal_path_exists_in`]).
pub fn route_rfb_2d_in(
    blocks: &FaultBlocks2,
    mesh: &Mesh2D,
    s: C2,
    d: C2,
    policy: &mut Policy,
    useful: &mut Useful2,
) -> RouteOutcome2 {
    let admitted = blocks.minimal_path_exists_in(mesh, s, d, useful);
    RouteOutcome2::new(
        s,
        admitted.then(|| rfb(mesh, s, d, policy, useful)).flatten(),
        0,
    )
}

/// Routing under the 3-D cuboid-block model (mesh coordinates; see
/// [`route_rfb_2d_in`]).
pub fn route_rfb_3d_in(
    blocks: &FaultBlocks3,
    mesh: &Mesh3D,
    s: C3,
    d: C3,
    policy: &mut Policy,
    useful: &mut Useful3,
) -> RouteOutcome3 {
    let admitted = blocks.minimal_path_exists_in(mesh, s, d, useful);
    RouteOutcome3::new(
        s,
        admitted.then(|| rfb(mesh, s, d, policy, useful)).flatten(),
        0,
    )
}

/// The block router's walk over the block-useful set `useful` of the mesh
/// pair `(s, d)`, in the pair's canonical frame with the path mapped back
/// to mesh coordinates; `None` if the source is not block-useful. The
/// trial pipeline calls it straight after the admission check, whose sweep
/// is exactly this set.
pub(crate) fn rfb<C: Coord, T: Trail<C>>(
    mesh: &Mesh<C>,
    s: C,
    d: C,
    policy: &mut Policy,
    useful: &Useful<C>,
) -> Option<Walk<C, T>> {
    let frame = Frame::for_pair(mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    if !useful.contains(cs) {
        return None;
    }
    let contains = |v| useful.contains(v);
    let walk = walk(cs, cd, policy, contains, |u| frame.from_canon(u));
    assert!(walk.stuck_at.is_none(), "block-useful set cannot strand");
    Some(walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RouteResult;
    use fault_model::BorderPolicy;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};

    #[test]
    fn greedy_can_get_stuck_where_mcc_would_not() {
        // A staircase wall funnels the X-first walk into the dead-end
        // pocket at (4,2): +X = (5,2) and +Y = (4,3) are both faulty there.
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(5, 0), c2(5, 1), c2(5, 2), c2(4, 3)] {
            mesh.inject_fault(c);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        assert!(lab.status(c2(4, 2)).is_useless());
        let mut policy = Policy::x_first();
        let out = route_greedy_2d(&lab, c2(0, 0), c2(6, 8), &mut policy);
        assert_eq!(out.result, RouteResult::Stuck);
        // The MCC router refuses nothing here — a minimal path exists and it
        // finds one.
        use fault_model::mcc2::MccSet2;
        let set = MccSet2::compute(&lab);
        let router = crate::router2::Router2::new(&lab, &set);
        let mcc_out = router.route(c2(0, 0), c2(6, 8), &mut Policy::x_first());
        assert!(mcc_out.delivered());
        assert!(mcc_out.path.is_minimal(&mesh, c2(0, 0), c2(6, 8)));
    }

    #[test]
    fn greedy_delivers_when_lucky() {
        let mesh = Mesh2D::new(8, 8);
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let out = route_greedy_2d(&lab, c2(0, 0), c2(7, 7), &mut Policy::balanced());
        assert!(out.delivered());
        assert_eq!(out.path.hops(), 14);
    }

    #[test]
    fn greedy_3d_stuck_needs_all_three_blocked() {
        // The three preferred neighbors of (4,4,4) toward (6,6,6) are
        // faulty: greedy strands at the source. Heal any one of them and
        // the walk leaves through it and never meets the other two.
        let faults = [c3(5, 4, 4), c3(4, 5, 4), c3(4, 4, 5)];
        let (s, d) = (c3(4, 4, 4), c3(6, 6, 6));
        let mesh_without = |healed: Option<C3>| {
            let mut mesh = Mesh3D::kary(8);
            for c in faults.into_iter().filter(|&c| Some(c) != healed) {
                mesh.inject_fault(c);
            }
            let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            (mesh, lab)
        };
        let (_, lab) = mesh_without(None);
        for mut policy in Policy::suite(5) {
            let out = route_greedy_3d(&lab, s, d, &mut policy);
            assert_eq!(out.result, RouteResult::Stuck, "{policy:?}");
            assert_eq!(out.path.hops(), 0);
        }
        for healed in faults {
            let (mesh, lab) = mesh_without(Some(healed));
            for mut policy in Policy::suite(5) {
                let out = route_greedy_3d(&lab, s, d, &mut policy);
                assert!(out.delivered(), "healed {healed}, {policy:?}");
                assert!(out.path.is_minimal(&mesh, s, d));
            }
        }
    }

    #[test]
    fn rfb_router_minimal_when_it_routes() {
        let mut mesh = Mesh2D::new(10, 10);
        for c in [c2(3, 3), c2(4, 4)] {
            mesh.inject_fault(c);
        }
        let blocks = FaultBlocks2::compute(&mesh);
        for mut policy in Policy::suite(7) {
            let out = route_rfb_2d_in(
                &blocks,
                &mesh,
                c2(0, 0),
                c2(8, 8),
                &mut policy,
                &mut Useful2::scratch(),
            );
            assert!(out.delivered());
            assert!(out.path.is_minimal(&mesh, c2(0, 0), c2(8, 8)));
            // Never touches a disabled node.
            for &n in out.path.nodes() {
                assert!(!blocks.is_disabled(n));
            }
        }
    }

    #[test]
    fn rfb_refuses_what_mcc_accepts() {
        // Endpoint healthy but inside a block: RFB refuses, MCC routes.
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(3, 3));
        mesh.inject_fault(c2(4, 4));
        let blocks = FaultBlocks2::compute(&mesh);
        let d = c2(3, 4); // healthy, inside the 2x2 block
        assert!(mesh.is_healthy(d));
        let out = route_rfb_2d_in(
            &blocks,
            &mesh,
            c2(0, 0),
            d,
            &mut Policy::x_first(),
            &mut Useful2::scratch(),
        );
        assert_eq!(out.result, RouteResult::Infeasible);
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        use fault_model::mcc2::MccSet2;
        let set = MccSet2::compute(&lab);
        let router = crate::router2::Router2::new(&lab, &set);
        let mcc_out = router.route(c2(0, 0), d, &mut Policy::x_first());
        assert!(
            mcc_out.delivered(),
            "MCC must deliver to the healthy in-block node"
        );
    }

    #[test]
    fn rfb_router_works_in_all_orientations() {
        let mut mesh = Mesh3D::kary(6);
        mesh.inject_fault(c3(3, 3, 3));
        let blocks = FaultBlocks3::compute(&mesh);
        let pairs = [
            (c3(0, 0, 0), c3(5, 5, 5)),
            (c3(5, 5, 5), c3(0, 0, 0)),
            (c3(0, 5, 0), c3(5, 0, 5)),
            (c3(5, 0, 5), c3(0, 5, 0)),
        ];
        for (s, d) in pairs {
            let out = route_rfb_3d_in(
                &blocks,
                &mesh,
                s,
                d,
                &mut Policy::balanced(),
                &mut Useful3::scratch(),
            );
            assert!(out.delivered(), "{s} -> {d}");
            assert!(out.path.is_minimal(&mesh, s, d));
        }
    }
}
