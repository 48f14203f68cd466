//! The minimal-forwarding walk every router runs: step 2 of Algorithms 3
//! and 6.
//!
//! At each hop the candidate set `F` holds the preferred directions, in
//! [`Coord::POSITIVE`] order, whose neighbor the caller's rule allows; a
//! [`Policy`] picks one member ("any fully adaptive and minimal routing
//! process"). The routers differ only in that rule — safe and useful (or
//! the per-MCC records) for the MCC routers, healthy for greedy,
//! block-useful for the block router — and in what an empty set means to
//! them, so the walk is written once and they keep just those.
//!
//! The caller picks what the walk records ([`Trail`]): the router entry
//! points that return a [`Path`] record it, and the summary-only callers
//! (the trial pipeline and the service's routes) count hops and allocate
//! nothing.

use mesh_topo::{Coord, Path};

use crate::dirbuf::DirBuf;
use crate::policy::Policy;

/// What a walk records of the nodes it visits: the whole [`Path`] for the
/// routers' outcome records, or only their number ([`Hops`]) for the
/// summaries the trial pipeline and the service read.
pub(crate) trait Trail<C>: Sized {
    /// The trail of a walk standing at `s`.
    fn start(s: C) -> Self;

    /// Record the next visited node.
    fn push(&mut self, c: C);
}

impl<C: Coord> Trail<C> for Path<C> {
    fn start(s: C) -> Self {
        Path::start(s)
    }

    fn push(&mut self, c: C) {
        Path::push(self, c)
    }
}

/// A trail that counts hops and allocates nothing.
pub(crate) struct Hops(pub(crate) usize);

impl<C> Trail<C> for Hops {
    fn start(_: C) -> Self {
        Hops(0)
    }

    fn push(&mut self, _: C) {
        self.0 += 1;
    }
}

/// What a walk produced.
pub(crate) struct Walk<C, T> {
    /// The visited nodes, each mapped by the walk's `to_mesh`, as the
    /// trail `T` records them.
    pub(crate) trail: T,
    /// Sum over hops of the candidate set's size.
    pub(crate) adaptivity_sum: usize,
    /// The node whose candidate set came up empty, or `None` when the walk
    /// reached its destination.
    pub(crate) stuck_at: Option<C>,
}

/// Walk from `s` to `d` (canonical, `s ≤ d`) along preferred directions
/// whose neighbor passes `allowed`, recording each node as `to_mesh` maps
/// it in the trail `T`. Allocates only what the trail does.
#[inline]
pub(crate) fn walk<C: Coord, T: Trail<C>>(
    s: C,
    d: C,
    policy: &mut Policy,
    allowed: impl Fn(C) -> bool,
    to_mesh: impl Fn(C) -> C,
) -> Walk<C, T> {
    let mut trail = T::start(to_mesh(s));
    let mut adaptivity_sum = 0;
    let mut u = s;
    let mut set = DirBuf::new(C::POSITIVE[0]);
    let target = d.xyz();
    while u != d {
        set.clear();
        let at = u.xyz();
        for (axis, &dir) in C::POSITIVE.iter().enumerate() {
            if at[axis] < target[axis] && allowed(u.step(dir)) {
                set.push(dir);
            }
        }
        if set.as_slice().is_empty() {
            return Walk {
                trail,
                adaptivity_sum,
                stuck_at: Some(u),
            };
        }
        adaptivity_sum += set.as_slice().len();
        u = u.step(policy.choose(u, d, set.as_slice()));
        trail.push(to_mesh(u));
    }
    Walk {
        trail,
        adaptivity_sum,
        stuck_at: None,
    }
}
