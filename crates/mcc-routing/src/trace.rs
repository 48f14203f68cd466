//! Route outcomes and path-quality metrics.

use mesh_topo::{Coord, Path2, Path3, C2, C3};
use serde::{Deserialize, Serialize};

use crate::walk::{Hops, Trail, Walk};

/// Why a routing attempt ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RouteResult {
    /// The message reached the destination over a minimal path.
    Delivered,
    /// The source-side check refused to activate routing (no minimal path,
    /// or an endpoint inside a fault region).
    Infeasible,
    /// The router entered a node with no allowed forwarding direction.
    /// Cannot happen with exact boundary information; measures the cost of
    /// weaker information models.
    Stuck,
}

/// Full record of one 2-D routing attempt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteOutcome2 {
    /// How the attempt ended.
    pub result: RouteResult,
    /// The nodes visited (source only, if routing was not activated).
    pub path: Path2,
    /// Sum over hops of the number of allowed forwarding directions —
    /// `adaptivity()` gives the per-hop average.
    pub adaptivity_sum: usize,
    /// Hops spent by source-side detection messages.
    pub detection_hops: usize,
}

/// Full record of one 3-D routing attempt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteOutcome3 {
    /// How the attempt ended.
    pub result: RouteResult,
    /// The nodes visited (source only, if routing was not activated).
    pub path: Path3,
    /// Sum over hops of the number of allowed forwarding directions.
    pub adaptivity_sum: usize,
    /// Nodes visited by source-side detection floods.
    pub detection_cost: usize,
}

/// What the trial pipeline and the service read of a routing attempt,
/// the same in both dimensions.
#[derive(Clone, Copy, Debug)]
pub struct RouteSummary {
    /// The message was delivered.
    pub delivered: bool,
    /// Hops taken.
    pub hops: usize,
    /// Average allowed forwarding directions per hop.
    pub adaptivity: f64,
    /// Cost of the source detection (hops in 2-D, visited nodes in 3-D).
    pub detection_cost: usize,
}

/// The result, trail and adaptivity sum of an attempt from `s` that
/// `walk` finished, or that was refused before its first hop (`None`).
fn settle<C: Coord, T: Trail<C>>(s: C, walk: Option<Walk<C, T>>) -> (RouteResult, T, usize) {
    match walk {
        Some(w) if w.stuck_at.is_some() => (RouteResult::Stuck, w.trail, w.adaptivity_sum),
        Some(w) => (RouteResult::Delivered, w.trail, w.adaptivity_sum),
        None => (RouteResult::Infeasible, T::start(s), 0),
    }
}

/// Average allowed forwarding directions per hop; 0 for a route of no hops.
fn adaptivity(sum: usize, hops: usize) -> f64 {
    if hops == 0 {
        return 0.0;
    }
    sum as f64 / hops as f64
}

impl RouteSummary {
    /// The summary of an attempt from `s` (see [`settle`]), from a walk
    /// that counted its hops and recorded no path.
    pub(crate) fn new<C: Coord>(s: C, walk: Option<Walk<C, Hops>>, detection_cost: usize) -> Self {
        let (result, Hops(hops), adaptivity_sum) = settle(s, walk);
        RouteSummary {
            delivered: result == RouteResult::Delivered,
            hops,
            adaptivity: adaptivity(adaptivity_sum, hops),
            detection_cost,
        }
    }
}

impl RouteOutcome2 {
    /// The record of an attempt from `s` (see [`settle`]).
    pub(crate) fn new(
        s: C2,
        walk: Option<Walk<C2, Path2>>,
        detection_hops: usize,
    ) -> RouteOutcome2 {
        let (result, path, adaptivity_sum) = settle(s, walk);
        RouteOutcome2 {
            result,
            path,
            adaptivity_sum,
            detection_hops,
        }
    }

    /// The dimension-free summary of this attempt.
    pub fn summary(&self) -> RouteSummary {
        RouteSummary {
            delivered: self.delivered(),
            hops: self.path.hops(),
            adaptivity: self.adaptivity(),
            detection_cost: self.detection_hops,
        }
    }

    /// True when the message was delivered.
    pub fn delivered(&self) -> bool {
        self.result == RouteResult::Delivered
    }

    /// Average number of allowed forwarding directions per hop (1.0 means
    /// the route was fully forced; 2.0 means every hop was free in 2-D).
    pub fn adaptivity(&self) -> f64 {
        adaptivity(self.adaptivity_sum, self.path.hops())
    }
}

impl RouteOutcome3 {
    /// The record of an attempt from `s` (see [`settle`]).
    pub(crate) fn new(
        s: C3,
        walk: Option<Walk<C3, Path3>>,
        detection_cost: usize,
    ) -> RouteOutcome3 {
        let (result, path, adaptivity_sum) = settle(s, walk);
        RouteOutcome3 {
            result,
            path,
            adaptivity_sum,
            detection_cost,
        }
    }

    /// The dimension-free summary of this attempt.
    pub fn summary(&self) -> RouteSummary {
        RouteSummary {
            delivered: self.delivered(),
            hops: self.path.hops(),
            adaptivity: self.adaptivity(),
            detection_cost: self.detection_cost,
        }
    }

    /// True when the message was delivered.
    pub fn delivered(&self) -> bool {
        self.result == RouteResult::Delivered
    }

    /// Average number of allowed forwarding directions per hop.
    pub fn adaptivity(&self) -> f64 {
        adaptivity(self.adaptivity_sum, self.path.hops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;

    #[test]
    fn adaptivity_math() {
        let o = RouteOutcome2 {
            result: RouteResult::Delivered,
            path: Path2::from_nodes(vec![c2(0, 0), c2(1, 0), c2(1, 1)]),
            adaptivity_sum: 3,
            detection_hops: 5,
        };
        assert!(o.delivered());
        assert!((o.adaptivity() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_hop_adaptivity_is_zero() {
        let o = RouteOutcome2 {
            result: RouteResult::Infeasible,
            path: Path2::start(c2(0, 0)),
            adaptivity_sum: 0,
            detection_hops: 0,
        };
        assert_eq!(o.adaptivity(), 0.0);
        assert!(!o.delivered());
    }
}
