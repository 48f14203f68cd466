//! The existence condition of Theorems 1 and 2, written once over the
//! node space.
//!
//! Both theorems state when a minimal path exists between safe endpoints
//! in terms of the fault regions' boundaries: Lemma 1 / Theorem 1 with the
//! merged forbidden and critical regions of the 2-D MCCs, Theorem 2 with
//! the boundary intersections of the 3-D ones. Semantically both equal
//! monotone reachability avoiding the **unsafe closure**, which by MCC
//! minimality equals reachability avoiding only the faults (both
//! equalities are property-tested). [`evaluate`] decides the condition
//! that way in either dimension; [`crate::condition2`] and
//! [`crate::condition3`] keep the per-theorem entry points. The
//! operational forms — the detection messages of Algorithms 3 and 6 —
//! live in `mcc-routing` and are tested against this function.
//!
//! Endpoint triage: the theorems assume safe endpoints. A can't-reach
//! destination (safe source) is unreachable; a useless source (safe
//! destination) is stuck; other labelled-endpoint combinations fall back to
//! the exact fault-avoiding oracle.

use mesh_topo::Coord;
use serde::{Deserialize, Serialize};

use crate::labelling::Labelling;
use crate::oracle::Useful;

/// Outcome of the existence condition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Existence {
    /// A minimal path exists (both endpoints safe).
    Exists,
    /// No minimal path: the merged fault regions separate `s` from `d`
    /// inside the Region of Minimal Paths.
    Blocked,
    /// No minimal path: the destination is can't-reach.
    DestinationCantReach,
    /// No minimal path: the source is useless.
    SourceUseless,
    /// An endpoint is faulty — invalid query.
    EndpointFaulty,
    /// Labelled endpoint(s): decided by the exact fault-avoiding oracle.
    OracleExists,
    /// Same, negative.
    OracleBlocked,
}

impl Existence {
    /// True when a minimal path exists.
    pub fn exists(self) -> bool {
        matches!(self, Existence::Exists | Existence::OracleExists)
    }
}

/// Evaluate the existence condition for canonical `s ≤ d` under `lab`,
/// the labelling of the pair's orientation. The safe-endpoints branch
/// leaves its sweep over the unsafe closure in `useful` (see
/// [`Useful::recompute_set`]); the router reuses it.
///
/// # Panics
/// If `s` does not precede `d` componentwise.
pub fn evaluate<C: Coord>(lab: &Labelling<C>, s: C, d: C, useful: &mut Useful<C>) -> Existence {
    assert!(
        s.dominated_by(d),
        "condition requires canonical coordinates with s <= d, got {s:?} {d:?}"
    );
    let ss = lab.status(s);
    let sd = lab.status(d);
    if ss.is_faulty() || sd.is_faulty() {
        return Existence::EndpointFaulty;
    }
    if s == d {
        return Existence::Exists;
    }
    match (ss.is_unsafe(), sd.is_unsafe()) {
        (false, false) => {
            // Safe endpoints: avoiding the closure loses nothing
            // (property-tested); this is the semantic content of Lemma 1
            // with merged regions and of Theorem 2.
            useful.recompute_set(s, d, lab.unsafe_set(), lab.space(), None);
            if useful.contains(s) {
                Existence::Exists
            } else {
                Existence::Blocked
            }
        }
        (false, true) if sd.is_cant_reach() => Existence::DestinationCantReach,
        (true, false) if ss.is_useless() => Existence::SourceUseless,
        _ => {
            useful.recompute(s, d, |c| {
                lab.status_get(c).map(|st| st.is_faulty()).unwrap_or(true)
            });
            if useful.contains(s) {
                Existence::OracleExists
            } else {
                Existence::OracleBlocked
            }
        }
    }
}
