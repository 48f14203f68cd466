//! Distributed 3-D feasibility detection (Algorithm 6 step 1 as messages).
//!
//! The three surface floods of `mcc_routing::feasibility3` executed as real
//! neighbor messages. Every node knows its neighbors' statuses (the
//! labelling phase ends with each node having heard each neighbor's final
//! announcement), so a node joining a flood:
//!
//! * forwards it along each in-RMP main axis whose neighbor is safe,
//! * takes the `+` detour step only when some in-RMP main neighbor is
//!   unsafe (the paper's "+turn" rule),
//! * reports success by retracing its parent chain when it reaches the
//!   flood's target face.
//!
//! The first two are `mcc_routing::feasibility3::Surface::for_each_move`
//! and the last `Surface::arrived`, over the node's neighbor statuses: the
//! same functions the semantic floods call, so the rule is stated once.
//!
//! Tests verify the verdict equals the semantic `detect_3d` on random
//! instances, and the message counts feed experiment E5.

use fault_model::NodeStatus;
use mcc_routing::feasibility3::SURFACES;
use mesh_topo::{Axis3, Coord, Dir3, Mesh3D, NodeSpace3, C3};
use sim_net::{RunStats, SimNet};

use crate::labelling::DistLabelling3;

/// Per-node flood state.
#[derive(Clone, Debug, Default)]
pub struct Detect3State {
    /// Own status.
    pub status: NodeStatus,
    /// Neighbor statuses by direction index (from the labelling phase).
    pub nbr_status: [Option<NodeStatus>; 6],
    /// Already joined flood `kind`?
    pub joined: [bool; 3],
    /// Verdicts collected (meaningful at the source).
    pub verdicts: Vec<(usize, bool)>,
}

/// Flood messages.
#[derive(Clone, Debug)]
pub enum Detect3Msg {
    /// A flood propagation step carrying the parent chain.
    Flood {
        /// Surface kind: 0 = (-X) surface, 1 = (-Y), 2 = (-Z).
        kind: usize,
        /// Canonical destination.
        d: C3,
        /// Parent chain back to the source (source first).
        path: Vec<C3>,
    },
    /// Success report retracing `path` toward the source.
    Reply {
        /// Surface kind reporting.
        kind: usize,
        /// Remaining retrace chain.
        path: Vec<C3>,
    },
}

/// Run the three detection floods from canonical safe `s` toward `d` over a
/// converged distributed labelling. Returns `(feasible, stats)`.
///
/// # Panics
/// If `s` does not precede `d` componentwise or an endpoint is unsafe.
pub fn detect_distributed_3d(
    mesh: &Mesh3D,
    lab: &DistLabelling3,
    s: C3,
    d: C3,
) -> (bool, RunStats) {
    assert!(s.dominated_by(d), "detection requires canonical s <= d");
    assert!(
        lab.status(s).is_safe() && lab.status(d).is_safe(),
        "detection requires safe endpoints"
    );
    // Floods and their replies never leave the RMP box `[s, d]`, so the
    // network is that box alone: node `c` of the mesh is node `c - s`.
    let space = mesh.space();
    let local = NodeSpace3::new(d.x - s.x + 1, d.y - s.y + 1, d.z - s.z + 1);
    let mut net: SimNet<C3, Detect3State, Detect3Msg> = SimNet::new(local, |j| {
        let i = space.index(s + local.coord(j));
        let mut nbr_status = [None; 6];
        for dir in Dir3::ALL {
            if let Some(n) = space.step(i, dir) {
                nbr_status[dir.index()] = Some(lab.net.state(n).status);
            }
        }
        Detect3State {
            status: lab.net.state(i).status,
            nbr_status,
            ..Detect3State::default()
        }
    });
    let trivially_ok = SURFACES.map(|surface| surface.arrived(s, d));
    for kind in (0..3).filter(|&kind| !trivially_ok[kind]) {
        let path = vec![];
        net.post(0, Detect3Msg::Flood { kind, d, path });
    }
    let max_rounds = 4 * (mesh.nx() + mesh.ny() + mesh.nz()) as usize + 32;
    let stats = net.run(max_rounds, move |state, inbox, ctx| {
        let me = s + local.coord(ctx.me());
        for (_, msg) in inbox {
            match msg {
                Detect3Msg::Flood { kind, d, path } => {
                    let (kind, d) = (*kind, *d);
                    if !state.status.is_safe() || state.joined[kind] {
                        continue;
                    }
                    state.joined[kind] = true;
                    let mut path = path.clone();
                    path.push(me);
                    let surface = SURFACES[kind];
                    if surface.arrived(me, d) {
                        path.pop();
                        if let Some(&back) = path.last() {
                            ctx.send(local.index(back - s), Detect3Msg::Reply { kind, path });
                        } else {
                            state.verdicts.push((kind, true));
                        }
                        continue;
                    }
                    let nbr_safe = |axis: Axis3, _| {
                        matches!(
                            state.nbr_status[axis.pos().index()],
                            Some(st) if st.is_safe()
                        )
                    };
                    surface.for_each_move(me, d, nbr_safe, |v| {
                        let path = path.clone();
                        ctx.send(local.index(v - s), Detect3Msg::Flood { kind, d, path });
                        false
                    });
                }
                Detect3Msg::Reply { kind, path } => {
                    let mut path = path.clone();
                    path.pop();
                    if let Some(&back) = path.last() {
                        ctx.send(
                            local.index(back - s),
                            Detect3Msg::Reply { kind: *kind, path },
                        );
                    } else {
                        state.verdicts.push((*kind, true));
                    }
                }
            }
        }
    });
    let verdicts = &net.state(0).verdicts;
    let ok = (0..3).all(|kind| trivially_ok[kind] || verdicts.iter().any(|&(k, v)| k == kind && v));
    (ok, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::FaultRegime;
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
    fn open_mesh_feasible() {
        let (mesh, lab) = setup(&[], 6);
        let (ok, stats) = detect_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(5, 5, 5));
        assert!(ok);
        assert!(stats.messages > 0);
    }

    #[test]
    fn line_block_detected() {
        let (mesh, lab) = setup(&[c3(0, 0, 3)], 8);
        let (ok, _) = detect_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(0, 0, 6));
        assert!(!ok);
    }

    #[test]
    fn plane_wall_detected() {
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let (mesh, lab) = setup(&faults, 8);
        let (ok, _) = detect_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(3, 3, 4));
        assert!(!ok);
        let (ok2, _) = detect_distributed_3d(&mesh, &lab, c3(0, 0, 0), c3(4, 3, 4));
        assert!(ok2);
    }

    #[test]
    fn matches_semantic_walks_randomized() {
        use fault_model::{BorderPolicy, Labelling3};
        use mcc_routing::detect_3d;
        let mut checked = 0;
        for seed in 0..25u64 {
            let mut mesh = Mesh3D::kary(6);
            FaultRegime::Uniform.inject(
                &mut mesh,
                12,
                seed,
                &[c3(0, 0, 0), c3(5, 5, 5)],
                BorderPolicy::BorderSafe,
            );
            let frame = Frame3::identity(&mesh);
            let sem_lab = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let (s, d) = (c3(0, 0, 0), c3(5, 5, 5));
            if !sem_lab.is_safe(s) || !sem_lab.is_safe(d) {
                continue;
            }
            let dist_lab = DistLabelling3::run(&mesh, frame);
            let (ok, _) = detect_distributed_3d(&mesh, &dist_lab, s, d);
            let semantic = detect_3d(&sem_lab, s, d).feasible();
            assert_eq!(
                ok,
                semantic,
                "seed {seed}: flood mismatch, faults={:?}",
                mesh.faults()
            );
            checked += 1;
        }
        assert!(checked >= 10);
    }

    #[test]
    fn torus_matches_semantic_walks_randomized() {
        // On a torus the flood runs in the canonical RMP box exactly as on
        // a mesh; the torus enters through the wrap-correct labelling and
        // the pair frame. Pin agreement with the semantic condition.
        use fault_model::{minimal_path_exists_3d, BorderPolicy, Existence3, Labelling3};
        let mut checked = 0;
        for seed in 0..25u64 {
            let mut mesh = Mesh3D::torus_kary(6);
            FaultRegime::Uniform.inject(&mut mesh, 12, seed, &[], BorderPolicy::BorderSafe);
            let (s, d) = (c3(5, 1, 4), c3(2, 4, 0));
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let frame = Frame3::for_pair(&mesh, s, d);
            let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
            let sem_lab = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
            if !sem_lab.is_safe(cs) || !sem_lab.is_safe(cd) {
                continue;
            }
            let dist_lab = DistLabelling3::run(&mesh, frame);
            let (ok, _) = detect_distributed_3d(&mesh, &dist_lab, cs, cd);
            let semantic = minimal_path_exists_3d(&sem_lab, cs, cd) == Existence3::Exists;
            assert_eq!(
                ok,
                semantic,
                "seed {seed}: torus flood mismatch, faults={:?}",
                mesh.faults()
            );
            checked += 1;
        }
        assert!(checked >= 10);
    }

    #[test]
    fn degenerate_faces_are_trivial() {
        let (mesh, lab) = setup(&[c3(4, 4, 4)], 6);
        let (ok, _) = detect_distributed_3d(&mesh, &lab, c3(1, 1, 1), c3(1, 1, 1));
        assert!(ok);
        let (ok2, _) = detect_distributed_3d(&mesh, &lab, c3(0, 2, 2), c3(5, 2, 2));
        assert!(ok2);
    }
}
