//! Algorithm 3 — boundary-information-based routing in 2-D meshes.
//!
//! Phase one: the feasibility check of [`crate::feasibility2`] runs at the
//! source; routing is activated only when a minimal path is guaranteed.
//! Phase two: at every node (source included) the candidate set `F` holds
//! the preferred (positive) directions; a direction is excluded when the
//! neighbor behind it lies in a detour area for the current destination.
//! Any [`Policy`] then picks the forwarding direction.
//!
//! The exclusion rule is the merged-region semantics of the boundary
//! construction: a neighbor is excluded iff the destination is not
//! monotonically reachable from it while avoiding the unsafe closure (the
//! precomputed [`Useful2`] set). With this rule the router is provably
//! stuck-free and minimal whenever feasibility held.
//!
//! Both phases are the two-phase route of [`crate::route_space`], written
//! once over the node space; only the detection walks are 2-D. This module
//! keeps the 2-D entry points and their outcome record.

use fault_model::mcc2::MccSet2;
use fault_model::oracle::Useful2;
use fault_model::Labelling2;
use mesh_topo::C2;
use serde::{Deserialize, Serialize};

use crate::policy::Policy;
use crate::route_space::route_exact_in;
use crate::trace::RouteOutcome2;

/// Per-hop direction-exclusion rule: the exact one is the only rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum DecisionRule {
    /// Merged-region (exact) boundary information.
    #[default]
    BoundaryExact,
}

/// The two-phase 2-D router over one labelled quadrant.
#[derive(Clone, Debug)]
pub struct Router2<'a> {
    lab: &'a Labelling2,
}

impl<'a> Router2<'a> {
    /// A router using the labelling of the destination quadrant. All
    /// coordinates are canonical. The MCC set is not read: the exact rule
    /// needs only the labelling's unsafe closure.
    pub fn new(lab: &'a Labelling2, _mccs: &'a MccSet2) -> Router2<'a> {
        Router2 { lab }
    }

    /// Route from `s` to `d` (canonical, `s ≤ d`) with the exact rule.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn route(&self, s: C2, d: C2, policy: &mut Policy) -> RouteOutcome2 {
        let rule = DecisionRule::BoundaryExact;
        self.route_with_rule_in(s, d, policy, rule, &mut Useful2::scratch())
    }

    /// [`Router2::route`] with a caller-provided scratch buffer for the
    /// backward-reachability set, so batched trials recompute it in place
    /// instead of allocating per route.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn route_with_rule_in(
        &self,
        s: C2,
        d: C2,
        policy: &mut Policy,
        _rule: DecisionRule,
        useful: &mut Useful2,
    ) -> RouteOutcome2 {
        let (walk, hops) = route_exact_in(self.lab, s, d, policy, useful, &mut ());
        RouteOutcome2::new(s, walk, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RouteResult;
    use fault_model::mcc2::MccSet2;
    use fault_model::BorderPolicy;
    use mesh_topo::coord::c2;
    use mesh_topo::{Frame2, Mesh2D};

    fn setup(faults: &[C2], w: i32, h: i32) -> (Mesh2D, Labelling2, MccSet2) {
        let mut mesh = Mesh2D::new(w, h);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let set = MccSet2::compute(&lab);
        (mesh, lab, set)
    }

    #[test]
    fn routes_fault_free_minimally_under_every_policy() {
        let (mesh, lab, set) = setup(&[], 10, 10);
        let router = Router2::new(&lab, &set);
        for mut policy in Policy::suite(1) {
            let out = router.route(c2(0, 0), c2(7, 5), &mut policy);
            assert!(out.delivered());
            assert!(out.path.is_minimal(&mesh, c2(0, 0), c2(7, 5)));
            assert_eq!(out.path.hops() as u32, 12);
        }
    }

    #[test]
    fn routes_around_single_region() {
        let faults = [c2(3, 3), c2(4, 3), c2(3, 4)];
        let (mesh, lab, set) = setup(&faults, 10, 10);
        let router = Router2::new(&lab, &set);
        for mut policy in Policy::suite(2) {
            let out = router.route(c2(0, 0), c2(8, 8), &mut policy);
            assert!(out.delivered());
            assert!(out.path.is_minimal(&mesh, c2(0, 0), c2(8, 8)));
            for &n in out.path.nodes() {
                assert!(lab.is_safe(n), "route stepped on unsafe node {n}");
            }
        }
    }

    #[test]
    fn refuses_infeasible_routes() {
        let (_, lab, set) = setup(&[c2(3, 4)], 8, 8);
        let router = Router2::new(&lab, &set);
        let out = router.route(c2(3, 0), c2(3, 7), &mut Policy::x_first());
        assert_eq!(out.result, RouteResult::Infeasible);
        assert_eq!(out.path.hops(), 0);
    }

    #[test]
    fn refuses_labelled_endpoints() {
        // d useless: the model does not activate routing.
        let (_, lab, set) = setup(&[c2(6, 5), c2(5, 6)], 9, 9);
        assert!(lab.status(c2(5, 5)).is_useless());
        let router = Router2::new(&lab, &set);
        let out = router.route(c2(0, 0), c2(5, 5), &mut Policy::balanced());
        assert_eq!(out.result, RouteResult::Infeasible);
    }

    #[test]
    fn adaptivity_shrinks_near_regions() {
        let (_, lab, set) = setup(&[], 10, 10);
        let router = Router2::new(&lab, &set);
        let open = router.route(c2(0, 0), c2(8, 8), &mut Policy::balanced());
        // In an open mesh almost every hop has both directions allowed.
        assert!(
            open.adaptivity() > 1.5,
            "open-mesh adaptivity {}",
            open.adaptivity()
        );
        let line = router.route(c2(0, 3), c2(9, 3), &mut Policy::balanced());
        assert!(
            (line.adaptivity() - 1.0).abs() < 1e-12,
            "line RMP is fully forced"
        );
    }

    #[test]
    fn exact_rule_never_sticks_randomized() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let mut delivered = 0;
        for _ in 0..300 {
            let mut mesh = Mesh2D::new(12, 12);
            for _ in 0..rng.gen_range(0..18) {
                let c = c2(rng.gen_range(0..12), rng.gen_range(0..12));
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            let router = Router2::new(&lab, &set);
            let (ax, ay) = (rng.gen_range(0..12), rng.gen_range(0..12));
            let (bx, by) = (rng.gen_range(0..12), rng.gen_range(0..12));
            let s = c2(ax.min(bx), ay.min(by));
            let d = c2(ax.max(bx), ay.max(by));
            let mut policy = Policy::random(rng.gen());
            let out = router.route(s, d, &mut policy);
            match out.result {
                RouteResult::Delivered => {
                    delivered += 1;
                    assert!(out.path.is_minimal(&mesh, s, d));
                }
                RouteResult::Infeasible => {}
                RouteResult::Stuck => panic!(
                    "exact rule stranded: s={s} d={d} faults={:?}",
                    mesh.faults()
                ),
            }
        }
        assert!(delivered > 100, "too few delivered routes: {delivered}");
    }

    #[test]
    fn trivial_route() {
        let (_, lab, set) = setup(&[], 4, 4);
        let router = Router2::new(&lab, &set);
        let out = router.route(c2(2, 2), c2(2, 2), &mut Policy::x_first());
        assert!(out.delivered());
        assert_eq!(out.path.hops(), 0);
    }
}
