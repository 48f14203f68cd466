//! The two-phase route of Algorithms 3 and 6, written once over the node
//! space, and the one step of it the paper makes dimension-specific.
//!
//! Both algorithms run the same two phases at the source: step 1 checks
//! feasibility with detection messages, and only if they admit the pair
//! does step 2 forward the message over the preferred directions whose
//! neighbour is safe and not in a detour area (the one shared walk). The
//! existence condition gating the MCC model is one function too
//! ([`fault_model::condition::evaluate`]), because Theorems 1 and 2 are
//! both evaluated as reachability that avoids the unsafe closure
//! (DESIGN.md §1). What differs is detection alone — two boundary walks in
//! 2-D ([`crate::feasibility2`]), three surface floods in 3-D
//! ([`crate::feasibility3`], with scratch of their own) — so [`RouteSpace`]
//! names exactly that step.
//!
//! Everything around it — endpoint triage, the exact rule's
//! backward-reachability set over the unsafe closure, the walk and its
//! never-stranded check — is the generic code below, which the routers
//! ([`crate::Router2`], [`crate::Router3`]), the trial pipeline
//! ([`crate::prepared::PreparedMesh`]) and the shard bodies of
//! `mesh-service` ([`route_in`]) call. No step reads an MCC set.

use fault_model::oracle::Useful;
use fault_model::Labelling;
use mesh_topo::{Coord, C2, C3};

use crate::feasibility2::detect_2d;
use crate::feasibility3::{detect_3d_in, FloodScratch3};
use crate::policy::Policy;
use crate::trace::RouteSummary;
use crate::walk::{walk, Trail, Walk};

/// A dimension's coordinate with the paper's per-dimension routing step:
/// detection.
pub trait RouteSpace: Coord {
    /// Detection's per-route scratch: the flood state of Algorithm 6 in
    /// 3-D, nothing in 2-D.
    type RouteScratch: Clone + std::fmt::Debug + Default;

    /// Step 1 of Algorithm 3 or 6 for canonical safe `s ≤ d`: whether the
    /// detection messages admit the pair, and their cost (hops in 2-D,
    /// visited nodes in 3-D).
    fn detect(
        lab: &Labelling<Self>,
        s: Self,
        d: Self,
        scratch: &mut Self::RouteScratch,
    ) -> (bool, usize);
}

impl RouteSpace for C2 {
    type RouteScratch = ();

    fn detect(lab: &Labelling<Self>, s: C2, d: C2, _: &mut ()) -> (bool, usize) {
        let det = detect_2d(lab, s, d);
        (det.feasible(), det.hops)
    }
}

impl RouteSpace for C3 {
    type RouteScratch = FloodScratch3;

    fn detect(lab: &Labelling<Self>, s: C3, d: C3, flood: &mut FloodScratch3) -> (bool, usize) {
        let det = detect_3d_in(lab, s, d, flood);
        (det.feasible(), det.visited)
    }
}

/// A route's walk (`None` if the source refused it), recording the trail
/// `T`, and its detection cost.
pub(crate) type Routed<C, T> = (Option<Walk<C, T>>, usize);

/// Route the canonical pair with the exact rule, sweeping the
/// backward-reachability set into `useful` once detection admits the pair
/// (the service form).
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn route_in<C: RouteSpace>(
    lab: &Labelling<C>,
    s: C,
    d: C,
    policy: &mut Policy,
    useful: &mut Useful<C>,
    scratch: &mut C::RouteScratch,
) -> RouteSummary {
    let (walk, cost) = route_exact_in(lab, s, d, policy, useful, scratch);
    RouteSummary::new(s, walk, cost)
}

/// The walk of [`route_in`].
pub(crate) fn route_exact_in<C: RouteSpace, T: Trail<C>>(
    lab: &Labelling<C>,
    s: C,
    d: C,
    policy: &mut Policy,
    useful: &mut Useful<C>,
    scratch: &mut C::RouteScratch,
) -> Routed<C, T> {
    route(lab, s, d, policy, scratch, move || {
        useful.recompute_set(s, d, lab.unsafe_set(), lab.space(), None);
        move |v| useful.contains(v)
    })
}

/// [`route_exact_in`] reusing a backward-reachability set the caller just
/// computed for exactly this `(s, d)` over the unsafe closure — what the
/// safe-endpoints branch of the existence condition leaves behind (the
/// trial form). Skips one box sweep per route; the set's content is
/// identical to what [`route_exact_in`] would recompute, so outcomes are
/// unchanged. (The buffer is never read when `s == d`, the one case where
/// the condition skips the sweep.)
pub(crate) fn route_exact_reusing<C: RouteSpace, T: Trail<C>>(
    lab: &Labelling<C>,
    s: C,
    d: C,
    policy: &mut Policy,
    useful: &Useful<C>,
    scratch: &mut C::RouteScratch,
) -> Routed<C, T> {
    route(lab, s, d, policy, scratch, || |v| useful.contains(v))
}

/// The route every entry point runs. Source-side triage first: refuse
/// labelled endpoints (the model routes between safe nodes; cf. the
/// endpoint triage of `fault_model::condition`), then run detection. Once
/// it admits the pair, `useful()` builds the exact rule's test (the
/// neighbour is not in a detour area) and the shared walk forwards.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
fn route<C: RouteSpace, T: Trail<C>, F: Fn(C) -> bool>(
    lab: &Labelling<C>,
    s: C,
    d: C,
    policy: &mut Policy,
    scratch: &mut C::RouteScratch,
    useful: impl FnOnce() -> F,
) -> Routed<C, T> {
    assert!(s.dominated_by(d), "router requires canonical s <= d");
    if !lab.is_safe(s) || !lab.is_safe(d) {
        return (None, 0);
    }
    let (admitted, cost) = C::detect(lab, s, d, scratch);
    if !admitted {
        return (None, cost);
    }
    let useful = useful();
    // Never forward into a fault region or a detour area.
    let walk = walk(s, d, policy, |v| lab.is_safe(v) && useful(v), |u| u);
    if cfg!(debug_assertions) {
        if let Some(u) = walk.stuck_at {
            panic!("exact rule can never strand a feasible route (at {u:?})");
        }
    }
    (Some(walk), cost)
}
