//! Run the full distributed MCC construction and routing pipeline on a
//! simulated message-passing mesh: labelling → component identification →
//! identification walks → boundary construction → detection → data
//! forwarding, with per-phase message counts.
//!
//! ```text
//! cargo run --example distributed_pipeline
//! ```

use std::io::{self, Write};

use mcc_mesh::mcc_protocols::boundary2::build_pipeline_2d;
use mcc_mesh::mcc_protocols::route2::route_distributed_2d;
use mcc_mesh::mesh_topo::coord::c2;
use mcc_mesh::mesh_topo::{Frame2, Mesh2D};

fn main() -> io::Result<()> {
    render(&mut io::stdout().lock())
}

/// Write the example's report to `out`.
pub fn render(out: &mut impl Write) -> io::Result<()> {
    let mut mesh = Mesh2D::new(20, 20);
    // Interior fault clusters (the identification walks assume regions do
    // not touch the mesh border; see DESIGN.md).
    for c in [
        c2(5, 6),
        c2(6, 5),
        c2(6, 6),
        c2(12, 12),
        c2(13, 11),
        c2(9, 15),
        c2(15, 4),
        c2(16, 5),
    ] {
        mesh.inject_fault(c);
    }

    writeln!(
        out,
        "constructing MCC information on a 20x20 message-passing mesh..."
    )?;
    let (bound, stats) = build_pipeline_2d(&mesh, Frame2::identity(&mesh));
    writeln!(
        out,
        "  labelling:      {:>6} messages, {:>3} rounds",
        stats.labelling.messages, stats.labelling.rounds
    )?;
    writeln!(
        out,
        "  component ids:  {:>6} messages, {:>3} rounds",
        stats.components.messages, stats.components.rounds
    )?;
    writeln!(
        out,
        "  identification: {:>6} messages, {:>3} rounds",
        stats.identification.messages, stats.identification.rounds
    )?;
    writeln!(
        out,
        "  boundaries:     {:>6} messages, {:>3} rounds",
        stats.boundary.messages, stats.boundary.rounds
    )?;
    writeln!(
        out,
        "  total:          {:>6} messages ({} boundary records stored)",
        stats.total_messages(),
        bound.total_records()
    )?;

    let (s, d) = (c2(0, 0), c2(19, 19));
    writeln!(
        out,
        "\nrouting {s} -> {d} with node-local information only..."
    )?;
    let routed = route_distributed_2d(&mesh, &bound, s, d);
    writeln!(out, "  detection verdict: feasible = {}", routed.feasible)?;
    let path = routed.path.expect("feasible routing must deliver");
    writeln!(
        out,
        "  delivered over {} hops (D(s,d) = {}), {} routing-phase messages",
        path.hops(),
        s.dist(d),
        routed.stats.messages
    )?;
    assert_eq!(
        path.hops() as u32,
        s.dist(d),
        "the distributed route is minimal"
    );

    // A pair the detection must refuse: straight line through a fault.
    let (s2, d2) = (c2(5, 0), c2(5, 19));
    // Column 5 carries the fault (5,6): a single-column RMP cannot avoid it.
    let out2 = route_distributed_2d(&mesh, &bound, s2, d2);
    writeln!(
        out,
        "\nrouting {s2} -> {d2}: feasible = {} (expected false)",
        out2.feasible
    )?;
    assert!(!out2.feasible);
    Ok(())
}
