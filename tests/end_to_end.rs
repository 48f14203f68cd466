//! Workspace-level integration tests: the semantic layer, the routing
//! layer and the distributed protocol layer must tell one consistent story
//! on shared scenarios.

use mcc_mesh::fault_model::mcc2::MccSet2;
use mcc_mesh::fault_model::mcc3::MccSet3;
use mcc_mesh::fault_model::FaultRegime;
use mcc_mesh::fault_model::{
    minimal_path_exists_2d, minimal_path_exists_3d, oracle, BorderPolicy, FaultBlocks2, Labelling2,
    Labelling3,
};
use mcc_mesh::mcc_protocols::boundary2::build_pipeline_2d;
use mcc_mesh::mcc_protocols::labelling::{DistLabelling2, DistLabelling3};
use mcc_mesh::mcc_protocols::route2::route_distributed_2d;
use mcc_mesh::mcc_protocols::route3::route_distributed_3d;
use mcc_mesh::mcc_routing::policy::Policy;
use mcc_mesh::mcc_routing::trial::{run_trial_2d, run_trial_3d};
use mcc_mesh::mcc_routing::{Router2, Router3};
use mcc_mesh::mesh_topo::coord::{c2, c3};
use mcc_mesh::mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One shared 2-D scenario, checked across all layers.
#[test]
fn all_layers_agree_2d() {
    let mut rng = SmallRng::seed_from_u64(1001);
    for trial in 0..20 {
        let mut mesh = Mesh2D::new(16, 16);
        for _ in 0..10 {
            let c = c2(rng.gen_range(1..15), rng.gen_range(1..15));
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let (s, d) = (c2(0, 0), c2(15, 15));
        let frame = Frame2::for_pair(&mesh, s, d);
        let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
        if !lab.is_safe(s) || !lab.is_safe(d) {
            continue;
        }
        let mccs = MccSet2::compute(&lab);

        // Layer 1: semantic condition vs oracle.
        let semantic = minimal_path_exists_2d(&lab, &mccs, s, d).exists();
        let truth = oracle::reachable_2d(s, d, |c| !mesh.is_healthy(c));
        assert_eq!(semantic, truth, "trial {trial}");

        // Layer 2: centralized router.
        let router = Router2::new(&lab, &mccs);
        let out = router.route(s, d, &mut Policy::random(trial));
        assert_eq!(out.delivered(), truth, "trial {trial}");
        if out.delivered() {
            assert!(out.path.is_minimal(&mesh, s, d));
        }

        // Layer 3: distributed labelling equals centralized.
        let dist = DistLabelling2::run(&mesh, frame);
        assert!(dist.matches(&lab), "trial {trial}");

        // Layer 4: full distributed pipeline + message routing.
        let (bound, _) = build_pipeline_2d(&mesh, frame);
        let dout = route_distributed_2d(&mesh, &bound, s, d);
        assert_eq!(dout.feasible, truth, "trial {trial}");
        if truth {
            let p = dout.path.expect("feasible must deliver");
            assert!(p.is_minimal(&mesh, s, d), "trial {trial}");
        }
    }
}

/// One shared 3-D scenario, checked across all layers.
#[test]
fn all_layers_agree_3d() {
    for seed in 0..10u64 {
        let mut mesh = Mesh3D::kary(8);
        FaultRegime::Uniform.inject(
            &mut mesh,
            24,
            seed,
            &[c3(0, 0, 0), c3(7, 7, 7)],
            BorderPolicy::BorderSafe,
        );
        let (s, d) = (c3(0, 0, 0), c3(7, 7, 7));
        let frame = Frame3::for_pair(&mesh, s, d);
        let lab = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
        if !lab.is_safe(s) || !lab.is_safe(d) {
            continue;
        }
        let truth = oracle::reachable_3d(s, d, |c| !mesh.is_healthy(c));
        assert_eq!(
            minimal_path_exists_3d(&lab, s, d).exists(),
            truth,
            "seed {seed}"
        );

        let mccs = MccSet3::compute(&lab);
        let router = Router3::new(&lab, &mccs);
        let out = router.route(s, d, &mut Policy::random(seed));
        assert_eq!(out.delivered(), truth, "seed {seed}");

        let dist = DistLabelling3::run(&mesh, frame);
        assert!(dist.matches(&lab), "seed {seed}");
        let dout = route_distributed_3d(&mesh, &dist, s, d);
        assert_eq!(dout.feasible, truth, "seed {seed}");
        if truth {
            assert!(dout.path.unwrap().is_minimal(&mesh, s, d), "seed {seed}");
        }
    }
}

/// Every quadrant orientation routes correctly (reflection plumbing).
#[test]
fn routing_works_in_all_quadrants() {
    let mut mesh = Mesh2D::new(12, 12);
    for c in [c2(5, 5), c2(6, 6), c2(5, 6), c2(6, 5)] {
        mesh.inject_fault(c);
    }
    let corners = [c2(0, 0), c2(11, 0), c2(0, 11), c2(11, 11)];
    for &s in &corners {
        for &d in &corners {
            if s == d {
                continue;
            }
            let t = run_trial_2d(&mesh, s, d, 9);
            assert!(t.oracle_ok, "{s}->{d} should be routable");
            assert_eq!(t.mcc_ok, t.oracle_ok);
            if t.endpoints_safe {
                assert!(t.mcc_delivered, "{s}->{d}");
                assert_eq!(t.mcc_hops as u32, s.dist(d));
            }
        }
    }
}

/// Every octant orientation routes correctly in 3-D.
#[test]
fn routing_works_in_all_octants() {
    let mut mesh = Mesh3D::kary(7);
    mesh.inject_fault(c3(3, 3, 3));
    mesh.inject_fault(c3(4, 3, 3));
    let corners = [
        c3(0, 0, 0),
        c3(6, 0, 0),
        c3(0, 6, 0),
        c3(0, 0, 6),
        c3(6, 6, 0),
        c3(6, 0, 6),
        c3(0, 6, 6),
        c3(6, 6, 6),
    ];
    for &s in &corners {
        for &d in &corners {
            if s == d {
                continue;
            }
            let t = run_trial_3d(&mesh, s, d, 5);
            assert_eq!(t.mcc_ok, t.oracle_ok, "{s}->{d}");
            if t.endpoints_safe && t.oracle_ok {
                assert!(t.mcc_delivered, "{s}->{d}");
            }
        }
    }
}

/// The paper's headline comparison holds end to end: MCC admits at least
/// every routing the block model admits, and strictly more on the classic
/// "/"-diagonal configuration.
#[test]
fn mcc_strictly_beats_blocks_on_diagonals() {
    let mut mesh = Mesh2D::new(10, 10);
    mesh.inject_fault(c2(4, 4));
    mesh.inject_fault(c2(5, 5));
    let blocks = FaultBlocks2::compute(&mesh);
    // Healthy node inside the block: block model refuses, MCC delivers.
    let d = c2(4, 5);
    assert!(blocks.is_disabled(d) && mesh.is_healthy(d));
    let t = run_trial_2d(&mesh, c2(0, 0), d, 3);
    assert!(t.oracle_ok && t.mcc_ok && !t.rfb_ok);
    assert!(t.mcc_delivered);
}
