//! Quickstart: fault-tolerant minimal routing in a 3-D mesh.
//!
//! Builds a 16x16x16 mesh, injects random faults, checks the MCC
//! existence condition, and routes a message over a provably minimal path.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mcc_mesh::fault_model::mcc3::MccSet3;
use mcc_mesh::fault_model::{minimal_path_exists_3d, BorderPolicy, FaultRegime, Labelling3};
use mcc_mesh::mcc_routing::policy::Policy;
use mcc_mesh::mcc_routing::Router3;
use mcc_mesh::mesh_topo::coord::c3;
use mcc_mesh::mesh_topo::{Frame3, Mesh3D};

fn main() {
    // A 16-ary 3-D mesh with 60 random faults (source/destination spared).
    let (s, d) = (c3(1, 2, 0), c3(14, 13, 15));
    let mut mesh = Mesh3D::kary(16);
    let injected =
        FaultRegime::Uniform.inject(&mut mesh, 60, 2024, &[s, d], BorderPolicy::BorderSafe);
    println!(
        "mesh: 16^3 = {} nodes, {injected} faults",
        mesh.node_count()
    );

    // Canonicalize the pair and run the labelling closure for its octant.
    let frame = Frame3::for_pair(&mesh, s, d);
    let lab = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
    println!(
        "labelling: {} unsafe nodes ({} healthy nodes captured by MCCs)",
        lab.unsafe_count(),
        lab.sacrificed_count()
    );
    let mccs = MccSet3::compute(&lab);
    println!("fault regions: {} MCCs", mccs.len());

    // Existence condition (Theorem 2) at the source.
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let verdict = minimal_path_exists_3d(&lab, cs, cd);
    println!("existence condition: {verdict:?}");
    if !verdict.exists() {
        println!("no minimal path — routing is not activated");
        return;
    }

    // Two-phase adaptive minimal routing (Algorithm 6).
    let router = Router3::new(&lab, &mccs);
    let out = router.route(cs, cd, &mut Policy::balanced());
    assert!(out.delivered());
    let hops = out.path.hops();
    println!(
        "delivered: {hops} hops (D(s,d) = {}), adaptivity {:.2} dirs/hop, \
         detection visited {} nodes",
        s.dist(d),
        out.adaptivity(),
        out.detection_cost
    );
    // Print the first few hops in mesh coordinates.
    let mesh_path: Vec<_> = out
        .path
        .nodes()
        .iter()
        .map(|&c| frame.from_canon(c))
        .collect();
    println!("route head: {:?} ...", &mesh_path[..mesh_path.len().min(6)]);
    assert_eq!(hops as u32, s.dist(d), "the route is minimal");
}
