//! Algorithm 6 — boundary-information-based routing in 3-D meshes.
//!
//! Same two-phase structure as the 2-D router ([`crate::router2`]): the
//! feasibility floods of [`crate::feasibility3`] run at the source, then
//! per-hop forwarding picks among the preferred directions that do not lead
//! into a detour area. The exact rule uses the merged-region semantics
//! (precomputed [`Useful3`] over the unsafe closure); the ablation rule uses
//! unmerged per-MCC line-shadow records. The forwarding walk is the one
//! every router shares (`crate::walk`); the detection floods and the
//! line-shadow records are what stays 3-D.

use fault_model::mcc3::MccSet3;
use fault_model::oracle::Useful3;
use fault_model::Labelling3;
use mesh_topo::{Axis3, C3};

use crate::feasibility3::{detect_3d_in, FloodScratch3};
use crate::policy::Policy;
use crate::router2::DecisionRule;
use crate::trace::RouteOutcome3;
use crate::walk::walk;

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
    mccs: &'a MccSet3,
}

impl<'a> Router3<'a> {
    /// A router using the labelling and MCC decomposition of the
    /// destination octant. All coordinates are canonical. Only the
    /// [`DecisionRule::PairRecords`] ablation reads `mccs`.
    pub fn new(lab: &'a Labelling3, mccs: &'a MccSet3) -> Router3<'a> {
        Router3 { lab, mccs }
    }

    /// Route from `s` to `d` (canonical, `s ≤ d`) with the exact rule.
    pub fn route(&self, s: C3, d: C3, policy: &mut Policy) -> RouteOutcome3 {
        self.route_with_rule(s, d, policy, DecisionRule::BoundaryExact)
    }

    /// Route with an explicit decision rule.
    ///
    /// # Panics
    /// If `s` does not precede `d` componentwise.
    pub fn route_with_rule(
        &self,
        s: C3,
        d: C3,
        policy: &mut Policy,
        rule: DecisionRule,
    ) -> RouteOutcome3 {
        self.route_with_rule_in(s, d, policy, rule, &mut RouteScratch3::new())
    }

    /// [`Router3::route_with_rule`] with caller-provided scratch buffers
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
        rule: DecisionRule,
        scratch: &mut RouteScratch3,
    ) -> RouteOutcome3 {
        let RouteScratch3 { useful, flood } = scratch;
        match rule {
            DecisionRule::BoundaryExact => route_exact_in(self.lab, s, d, policy, useful, flood),
            DecisionRule::PairRecords => route(self.lab, s, d, policy, rule, flood, || {
                |v| !self.pair_forbidden(v, d)
            }),
        }
    }

    /// The unmerged-record exclusion via 3-D line shadows.
    fn pair_forbidden(&self, v: C3, d: C3) -> bool {
        self.mccs.iter().any(|m| {
            Axis3::ALL
                .into_iter()
                .any(|axis| m.in_critical(axis, d) && m.in_forbidden(axis, v))
        })
    }
}

/// The exact rule over the labelling alone (it reads no MCC record),
/// sweeping the backward-reachability set into `useful` once detection
/// admits the pair.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub(crate) fn route_exact_in(
    lab: &Labelling3,
    s: C3,
    d: C3,
    policy: &mut Policy,
    useful: &mut Useful3,
    flood: &mut FloodScratch3,
) -> RouteOutcome3 {
    route(
        lab,
        s,
        d,
        policy,
        DecisionRule::BoundaryExact,
        flood,
        move || {
            useful.recompute_set(s, d, lab.unsafe_set(), lab.space(), None);
            move |v| useful.contains(v)
        },
    )
}

/// [`route_exact_in`] reusing a backward-reachability set the caller just
/// computed for exactly this `(s, d)` over the unsafe closure (see the
/// 2-D twin [`crate::router2::route_exact_reusing`]).
pub(crate) fn route_exact_reusing(
    lab: &Labelling3,
    s: C3,
    d: C3,
    policy: &mut Policy,
    useful: &Useful3,
    flood: &mut FloodScratch3,
) -> RouteOutcome3 {
    let exact = DecisionRule::BoundaryExact;
    route(lab, s, d, policy, exact, flood, || |v| useful.contains(v))
}

/// The route every entry point runs: refuse labelled endpoints, run the
/// detection floods, and once they admit the pair, forward over the
/// neighbors that `clear()` passes (see the 2-D twin
/// `crate::router2::route`).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
fn route<F: Fn(C3) -> bool>(
    lab: &Labelling3,
    s: C3,
    d: C3,
    policy: &mut Policy,
    rule: DecisionRule,
    flood: &mut FloodScratch3,
    clear: impl FnOnce() -> F,
) -> RouteOutcome3 {
    assert!(s.dominated_by(d), "router requires canonical s <= d");
    if !lab.is_safe(s) || !lab.is_safe(d) {
        return RouteOutcome3::new(s, None, 0);
    }
    let det = detect_3d_in(lab, s, d, flood);
    if !det.feasible() {
        return RouteOutcome3::new(s, None, det.visited);
    }
    let clear = clear();
    // Never forward into a fault region or a detour area.
    let walk = walk(s, d, policy, |v| lab.is_safe(v) && clear(v), |u| u);
    if let Some(u) = walk.stuck_at {
        debug_assert!(
            rule == DecisionRule::PairRecords,
            "exact rule can never strand a feasible route (at {u:?})"
        );
    }
    RouteOutcome3::new(s, Some(walk), det.visited)
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

    #[test]
    fn pair_records_rule_never_misroutes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..150 {
            let mut mesh = Mesh3D::kary(7);
            for _ in 0..rng.gen_range(0..25) {
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
            let set = MccSet3::compute(&lab);
            let router = Router3::new(&lab, &set);
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
            let mut policy = Policy::random(rng.gen());
            let out = router.route_with_rule(s, d, &mut policy, DecisionRule::PairRecords);
            if out.result == RouteResult::Delivered {
                assert!(out.path.is_minimal(&mesh, s, d));
            }
        }
    }
}
