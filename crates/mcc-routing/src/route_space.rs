//! The per-pair steps the paper makes dimension-specific, behind one
//! trait.
//!
//! Everything around a routing trial — model caching, the reachability
//! oracle, the block check, frame handling, result assembly — is written
//! once over a node space ([`crate::prepared::PreparedMesh`], the shard
//! bodies of `mesh-service`). What the paper states once per dimension
//! stays twinned, and [`RouteSpace`] names exactly that:
//!
//! * the existence condition gating the MCC model — Theorem 1 in 2-D,
//!   Theorem 2 in 3-D;
//! * the exact router — Algorithm 3 in 2-D, Algorithm 6 in 3-D (whose
//!   detection floods need scratch of their own);
//! * the Section 6 baselines it is compared against — the
//!   information-free greedy router and the faulty-block router.
//!
//! Every method forwards to the existing per-dimension function, so a
//! generic caller runs exactly the code a dimension-specific one did. No
//! hook reads an MCC set: the condition and the exact rule are evaluated
//! over the labelling's unsafe closure (DESIGN.md §1, §9).

use fault_model::condition2;
use fault_model::minimal_path_exists_3d_in;
use fault_model::oracle::{Useful, Useful2, Useful3};
use fault_model::{Labelling, Labelling2, Labelling3, ModelSpace};
use mesh_topo::{Mesh, Mesh2D, Mesh3D, NodeSpace2, NodeSpace3, C2, C3};

use crate::baseline;
use crate::feasibility3::FloodScratch3;
use crate::policy::Policy;
use crate::trace::RouteSummary;
use crate::{router2, router3};

/// A node space with the paper's per-dimension routing steps.
pub trait RouteSpace: ModelSpace {
    /// The exact router's per-route scratch beside its reachability set:
    /// the detection-flood state of Algorithm 6 in 3-D, nothing in 2-D.
    type RouteScratch: Clone + std::fmt::Debug + Default;

    /// The existence condition on the canonical pair, over the labelling
    /// alone. The condition's sweep is left in `useful`.
    fn mcc_ok(
        lab: &Labelling<Self>,
        s: Self::Coord,
        d: Self::Coord,
        useful: &mut Useful<Self>,
    ) -> bool;

    /// Route the canonical pair with the exact rule, reusing the
    /// backward-reachability set the admission gate just left in `useful`
    /// for exactly this pair (the trial form: no second sweep).
    fn route_reusing(
        lab: &Labelling<Self>,
        s: Self::Coord,
        d: Self::Coord,
        policy: &mut Policy,
        useful: &Useful<Self>,
        scratch: &mut Self::RouteScratch,
    ) -> RouteSummary;

    /// Route the canonical pair with the exact rule, sweeping the
    /// backward-reachability set into `useful` once detection admits the
    /// pair (the service form).
    fn route_in(
        lab: &Labelling<Self>,
        s: Self::Coord,
        d: Self::Coord,
        policy: &mut Policy,
        useful: &mut Useful<Self>,
        scratch: &mut Self::RouteScratch,
    ) -> RouteSummary;

    /// The information-free greedy baseline on the canonical pair.
    fn route_greedy(
        lab: &Labelling<Self>,
        s: Self::Coord,
        d: Self::Coord,
        policy: &mut Policy,
    ) -> RouteSummary;

    /// The faulty-block baseline on the **mesh** pair, forwarding over the
    /// block-useful set the block check just left in `useful`.
    fn route_rfb_reusing(
        mesh: &Mesh<Self>,
        s: Self::Coord,
        d: Self::Coord,
        policy: &mut Policy,
        useful: &Useful<Self>,
    ) -> RouteSummary;
}

impl RouteSpace for NodeSpace2 {
    type RouteScratch = ();

    fn mcc_ok(lab: &Labelling2, s: C2, d: C2, useful: &mut Useful2) -> bool {
        condition2::evaluate_in(lab, s, d, useful).exists()
    }

    fn route_reusing(
        lab: &Labelling2,
        s: C2,
        d: C2,
        policy: &mut Policy,
        useful: &Useful2,
        _: &mut (),
    ) -> RouteSummary {
        router2::route_exact_reusing(lab, s, d, policy, useful).summary()
    }

    fn route_in(
        lab: &Labelling2,
        s: C2,
        d: C2,
        policy: &mut Policy,
        useful: &mut Useful2,
        _: &mut (),
    ) -> RouteSummary {
        router2::route_exact_in(lab, s, d, policy, useful).summary()
    }

    fn route_greedy(lab: &Labelling2, s: C2, d: C2, policy: &mut Policy) -> RouteSummary {
        baseline::route_greedy_2d(lab, s, d, policy).summary()
    }

    fn route_rfb_reusing(m: &Mesh2D, s: C2, d: C2, p: &mut Policy, u: &Useful2) -> RouteSummary {
        baseline::route_rfb_2d_reusing(m, s, d, p, u).summary()
    }
}

impl RouteSpace for NodeSpace3 {
    type RouteScratch = FloodScratch3;

    fn mcc_ok(lab: &Labelling3, s: C3, d: C3, useful: &mut Useful3) -> bool {
        minimal_path_exists_3d_in(lab, s, d, useful).exists()
    }

    fn route_reusing(
        lab: &Labelling3,
        s: C3,
        d: C3,
        policy: &mut Policy,
        useful: &Useful3,
        flood: &mut FloodScratch3,
    ) -> RouteSummary {
        router3::route_exact_reusing(lab, s, d, policy, useful, flood).summary()
    }

    fn route_in(
        lab: &Labelling3,
        s: C3,
        d: C3,
        policy: &mut Policy,
        useful: &mut Useful3,
        flood: &mut FloodScratch3,
    ) -> RouteSummary {
        router3::route_exact_in(lab, s, d, policy, useful, flood).summary()
    }

    fn route_greedy(lab: &Labelling3, s: C3, d: C3, policy: &mut Policy) -> RouteSummary {
        baseline::route_greedy_3d(lab, s, d, policy).summary()
    }

    fn route_rfb_reusing(m: &Mesh3D, s: C3, d: C3, p: &mut Policy, u: &Useful3) -> RouteSummary {
        baseline::route_rfb_3d_reusing(m, s, d, p, u).summary()
    }
}
