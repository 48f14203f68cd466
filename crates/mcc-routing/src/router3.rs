//! Algorithm 6 — boundary-information-based routing in 3-D meshes.
//!
//! Same two-phase structure as the 2-D router ([`crate::router2`]): the
//! feasibility floods of [`crate::feasibility3`] run at the source, then
//! per-hop forwarding picks among the preferred directions that do not lead
//! into a detour area, under the same exact rule (the precomputed
//! [`Useful3`] over the unsafe closure). Both phases are the two-phase
//! route of [`crate::route_space`]; only the detection floods are 3-D, and
//! they need flood state of their own beside the reachability set
//! ([`RouteScratch3`]).

use fault_model::mcc3::MccSet3;
use fault_model::oracle::Useful3;
use fault_model::Labelling3;
use mesh_topo::C3;

use crate::feasibility3::FloodScratch3;
use crate::policy::Policy;
use crate::route_space::route_exact_in;
use crate::router2::DecisionRule;
use crate::trace::RouteOutcome3;

/// Reusable buffers for one 3-D route: the backward-reachability set and
/// the detection-flood state. One instance carried across a batch of
/// routes keeps the steady-state per-route allocation count at the output
/// path itself.
#[derive(Clone, Debug)]
pub struct RouteScratch3 {
    useful: Useful3,
    flood: FloodScratch3,
}

impl RouteScratch3 {
    /// Fresh, empty scratch.
    pub fn new() -> RouteScratch3 {
        RouteScratch3 {
            useful: Useful3::scratch(),
            flood: FloodScratch3::new(),
        }
    }
}

impl Default for RouteScratch3 {
    fn default() -> RouteScratch3 {
        RouteScratch3::new()
    }
}

/// The two-phase 3-D router over one labelled octant.
#[derive(Clone, Debug)]
pub struct Router3<'a> {
    lab: &'a Labelling3,
}

impl<'a> Router3<'a> {
    /// A router using the labelling of the destination octant. All
    /// coordinates are canonical. The MCC set is not read: the exact rule
    /// needs only the labelling's unsafe closure.
    pub fn new(lab: &'a Labelling3, _mccs: &'a MccSet3) -> Router3<'a> {
        Router3 { lab }
    }

    /// Route from `s` to `d` (canonical, `s ≤ d`) with the exact rule.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn route(&self, s: C3, d: C3, policy: &mut Policy) -> RouteOutcome3 {
        let rule = DecisionRule::BoundaryExact;
        self.route_with_rule_in(s, d, policy, rule, &mut RouteScratch3::new())
    }

    /// [`Router3::route`] with caller-provided scratch buffers
    /// (backward-reachability set + detection-flood state), so batched
    /// trials recompute them in place instead of allocating per route.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn route_with_rule_in(
        &self,
        s: C3,
        d: C3,
        policy: &mut Policy,
        _rule: DecisionRule,
        scratch: &mut RouteScratch3,
    ) -> RouteOutcome3 {
        let RouteScratch3 { useful, flood } = scratch;
        let (walk, visited) = route_exact_in(self.lab, s, d, policy, useful, flood);
        RouteOutcome3::new(s, walk, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RouteResult;
    use fault_model::mcc3::MccSet3;
    use fault_model::BorderPolicy;
    use mesh_topo::coord::c3;
    use mesh_topo::{Frame3, Mesh3D};

    fn setup(faults: &[C3], k: i32) -> (Mesh3D, Labelling3, MccSet3) {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        let set = MccSet3::compute(&lab);
        (mesh, lab, set)
    }

    #[test]
    fn routes_fault_free_minimally() {
        let (mesh, lab, set) = setup(&[], 8);
        let router = Router3::new(&lab, &set);
        for mut policy in Policy::suite(4) {
            let out = router.route(c3(0, 0, 0), c3(6, 5, 4), &mut policy);
            assert!(out.delivered());
            assert!(out.path.is_minimal(&mesh, c3(0, 0, 0), c3(6, 5, 4)));
            assert_eq!(out.path.hops() as u32, 15);
        }
    }

    #[test]
    fn routes_around_figure5_regions() {
        let faults = [
            c3(5, 5, 6),
            c3(6, 5, 5),
            c3(5, 6, 5),
            c3(6, 7, 5),
            c3(7, 6, 5),
            c3(5, 4, 7),
            c3(4, 5, 7),
            c3(7, 8, 4),
        ];
        let (mesh, lab, set) = setup(&faults, 10);
        let router = Router3::new(&lab, &set);
        for mut policy in Policy::suite(5) {
            let out = router.route(c3(0, 0, 0), c3(9, 9, 9), &mut policy);
            assert!(out.delivered());
            assert!(out.path.is_minimal(&mesh, c3(0, 0, 0), c3(9, 9, 9)));
            for &n in out.path.nodes() {
                assert!(lab.is_safe(n));
            }
        }
    }

    #[test]
    fn refuses_infeasible() {
        let (_, lab, set) = setup(&[c3(0, 0, 3)], 8);
        let router = Router3::new(&lab, &set);
        let out = router.route(c3(0, 0, 0), c3(0, 0, 6), &mut Policy::x_first());
        assert_eq!(out.result, RouteResult::Infeasible);
    }

    #[test]
    fn adaptivity_in_open_mesh() {
        let (_, lab, set) = setup(&[], 8);
        let router = Router3::new(&lab, &set);
        let out = router.route(c3(0, 0, 0), c3(7, 7, 7), &mut Policy::balanced());
        assert!(
            out.adaptivity() > 2.0,
            "3-D open-mesh adaptivity {}",
            out.adaptivity()
        );
    }

    #[test]
    fn exact_rule_never_sticks_randomized() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(41);
        let mut delivered = 0;
        for _ in 0..200 {
            let mut mesh = Mesh3D::kary(8);
            for _ in 0..rng.gen_range(0..30) {
                let c = c3(
                    rng.gen_range(0..8),
                    rng.gen_range(0..8),
                    rng.gen_range(0..8),
                );
                if mesh.is_healthy(c) {
                    mesh.inject_fault(c);
                }
            }
            let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
            let set = MccSet3::compute(&lab);
            let router = Router3::new(&lab, &set);
            let a = c3(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            let b = c3(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            let s = c3(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z));
            let d = c3(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z));
            let mut policy = Policy::random(rng.gen());
            let out = router.route(s, d, &mut policy);
            match out.result {
                RouteResult::Delivered => {
                    delivered += 1;
                    assert!(out.path.is_minimal(&mesh, s, d));
                }
                RouteResult::Infeasible => {}
                RouteResult::Stuck => {
                    panic!(
                        "exact rule stranded: s={s} d={d} faults={:?}",
                        mesh.faults()
                    )
                }
            }
        }
        assert!(delivered > 100, "too few delivered routes: {delivered}");
    }
}
