//! Distributed routing in 3-D meshes.
//!
//! Phase one runs the detection floods of [`crate::detect3`] as real
//! messages. For phase two the paper stores boundary records along the six
//! edge/boundary surfaces of each 3-D MCC; as documented in DESIGN.md this
//! reproduction substitutes the per-hop record lookup with a per-hop
//! *neighbor detection re-run*: before forwarding, the current node checks
//! each candidate neighbor by the same detection procedure the source used
//! (its message cost is accounted analytically via the semantic twin, which
//! the flood protocol is test-equivalent to). The forwarding decision
//! itself uses only the node's neighbor statuses plus those verdicts, so no
//! global state leaks into the data path.

use fault_model::{BorderPolicy, Labelling3};
use mesh_topo::{Coord, Dir3, Mesh3D, Path3, C3};
use sim_net::RunStats;

use crate::detect3::detect_distributed_3d;
use crate::labelling::DistLabelling3;

/// Outcome of one distributed 3-D routing attempt.
#[derive(Clone, Debug)]
pub struct DistRouteOutcome3 {
    /// Was the routing activated?
    pub feasible: bool,
    /// The delivered path, if any.
    pub path: Option<Path3>,
    /// Message statistics of the source detection floods.
    pub detection_stats: RunStats,
    /// Analytic cost of the per-hop neighbor detections (visited nodes of
    /// the equivalent floods).
    pub hop_detection_cost: usize,
}

/// Route from canonical safe `s` to `d` over a converged distributed
/// labelling.
///
/// # Panics
/// If `s` does not precede `d` componentwise or an endpoint is unsafe.
pub fn route_distributed_3d(
    mesh: &Mesh3D,
    lab: &DistLabelling3,
    s: C3,
    d: C3,
) -> DistRouteOutcome3 {
    assert!(
        s.dominated_by(d),
        "distributed routing requires canonical s <= d"
    );
    let (feasible, detection_stats) = detect_distributed_3d(mesh, lab, s, d);
    if !feasible {
        return DistRouteOutcome3 {
            feasible,
            path: None,
            detection_stats,
            hop_detection_cost: 0,
        };
    }
    // Semantic twin of the flood for the per-hop checks (test-equivalent).
    let sem = Labelling3::compute(mesh, lab.frame(), BorderPolicy::BorderSafe);
    let mut hop_detection_cost = 0usize;
    let mut path = Path3::start(s);
    let mut u = s;
    while u != d {
        let mut next: Option<(Dir3, i32)> = None;
        for dir in Dir3::POSITIVE {
            if u.get(dir.axis()) >= d.get(dir.axis()) {
                continue;
            }
            let v = u.step(dir);
            if !sem.is_safe(v) {
                continue;
            }
            let det = mcc_routing::detect_3d(&sem, v, d);
            hop_detection_cost += det.visited;
            if det.feasible() {
                let remaining = d.get(dir.axis()) - u.get(dir.axis());
                if next.map(|(_, r)| remaining > r).unwrap_or(true) {
                    next = Some((dir, remaining));
                }
            }
        }
        let (dir, _) = next.expect("feasible routing can always advance");
        u = u.step(dir);
        path.push(u);
    }
    DistRouteOutcome3 {
        feasible,
        path: Some(path),
        detection_stats,
        hop_detection_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::c3;
    use mesh_topo::Frame3;

    fn setup(faults: &[C3], k: i32) -> (Mesh3D, DistLabelling3) {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let lab = DistLabelling3::run(&mesh, Frame3::identity(&mesh));
        (mesh, lab)
    }

    #[test]
    fn routes_fault_free() {
        let (mesh, lab) = setup(&[], 6);
        let out = route_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(5, 5, 5));
        assert!(out.feasible);
        assert!(out
            .path
            .unwrap()
            .is_minimal(&mesh, c3(0, 0, 0), c3(5, 5, 5)));
    }

    #[test]
    fn routes_around_figure5() {
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
        let (mesh, lab) = setup(&faults, 10);
        let out = route_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(9, 9, 9));
        assert!(out.feasible);
        let path = out.path.unwrap();
        assert!(path.is_minimal(&mesh, c3(0, 0, 0), c3(9, 9, 9)));
        assert!(out.hop_detection_cost > 0);
    }

    #[test]
    fn refuses_blocked() {
        let (mesh, lab) = setup(&[c3(0, 0, 3)], 8);
        let out = route_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(0, 0, 6));
        assert!(!out.feasible);
        assert!(out.path.is_none());
    }

    #[test]
    fn delivers_whenever_feasible_randomized() {
        for seed in 0..15u64 {
            let mut mesh = Mesh3D::kary(7);
            FaultRegime::Uniform.inject(
                &mut mesh,
                18,
                seed,
                &[c3(0, 0, 0), c3(6, 6, 6)],
                BorderPolicy::BorderSafe,
            );
            let lab = DistLabelling3::run(&mesh, Frame3::identity(&mesh));
            if !lab.status(c3(0, 0, 0)).is_safe() || !lab.status(c3(6, 6, 6)).is_safe() {
                continue;
            }
            let out = route_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(6, 6, 6));
            if out.feasible {
                let path = out.path.expect("feasible must deliver");
                assert!(
                    path.is_minimal(&mesh, c3(0, 0, 0), c3(6, 6, 6)),
                    "seed {seed}"
                );
            }
        }
    }
}
