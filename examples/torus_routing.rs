//! Wrap-around routing: the same fault-tolerant minimal routing on a
//! 2-D torus, where every axis closes on itself and routes follow the
//! per-axis shorter arcs (Lee distance).
//!
//! Demonstrates the pieces DESIGN.md §10 describes: the shorter-arc
//! canonical frame (rotation + reflection), the wrap-aware labelling
//! closure, and a prepared mesh batching trials against one fault
//! configuration.
//!
//! ```text
//! cargo run --example torus_routing
//! ```

use mcc_mesh::fault_model::mcc2::MccSet2;
use mcc_mesh::fault_model::{minimal_path_exists_2d, BorderPolicy, FaultRegime, Labelling2};
use mcc_mesh::mcc_routing::policy::Policy;
use mcc_mesh::mcc_routing::prepared::PreparedMesh2;
use mcc_mesh::mcc_routing::{Router2, TrialOptions};
use mcc_mesh::mesh_topo::coord::c2;
use mcc_mesh::mesh_topo::{Frame2, Mesh2D};

fn main() {
    // A 16x16 torus with 24 random faults (source/destination spared).
    let (s, d) = (c2(14, 2), c2(3, 13));
    let mut mesh = Mesh2D::torus_kary(16);
    let injected = FaultRegime::Uniform.inject(&mut mesh, 24, 7, &[s, d], BorderPolicy::BorderSafe);
    println!(
        "torus: 16x16 = {} nodes, {injected} faults; D({s}, {d}) = {} (Lee), \
         {} on the open mesh",
        mesh.node_count(),
        mesh.dist(s, d),
        s.dist(d),
    );

    // The torus frame reflects per-axis toward the shorter arc, then
    // rotates the source onto the origin: the canonical destination is
    // the Lee-distance vector and the routing box never meets the seam.
    let frame = Frame2::for_pair(&mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    println!("canonical pair: {cs} -> {cd}");

    let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
    let mccs = MccSet2::compute(&lab);
    println!(
        "labelling: {} unsafe nodes, {} fault regions",
        lab.unsafe_count(),
        mccs.len()
    );

    let verdict = minimal_path_exists_2d(&lab, &mccs, cs, cd);
    println!("existence condition: {verdict:?}");
    if verdict.exists() {
        let router = Router2::new(&lab, &mccs);
        let out = router.route(cs, cd, &mut Policy::balanced());
        assert!(out.delivered());
        assert_eq!(out.path.hops() as u32, mesh.dist(s, d));
        // Map the canonical route back to torus coordinates: steps that
        // cross the seam show up as jumps between opposite edges.
        let mesh_path: Vec<_> = out
            .path
            .nodes()
            .iter()
            .map(|&c| frame.from_canon(c))
            .collect();
        println!(
            "delivered over {} Lee-minimal hops: {mesh_path:?}",
            out.path.hops()
        );
    }

    // Batch more pairs against the same fault configuration: the
    // prepared mesh caches fault blocks per mesh and labellings per
    // rotation frame.
    let mut pm = PreparedMesh2::new(&mesh, TrialOptions::default());
    let mut delivered = 0;
    let pairs = [
        (c2(0, 0), c2(15, 15)),
        (c2(8, 1), c2(9, 14)),
        (c2(2, 7), c2(13, 7)),
        (c2(5, 5), c2(6, 6)),
    ];
    for (i, (a, b)) in pairs.into_iter().enumerate() {
        if !mesh.is_healthy(a) || !mesh.is_healthy(b) {
            continue;
        }
        let t = pm.run_trial(a, b, 100 + i as u64);
        assert_eq!(t.mcc_ok, t.oracle_ok, "the MCC condition is exact on tori");
        delivered += t.mcc_delivered as usize;
    }
    println!("batched trials: {delivered} delivered over one prepared torus");
}
