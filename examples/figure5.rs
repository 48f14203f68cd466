//! Reproduce Figure 5 of the paper: the 3-D MCC decomposition of a sample
//! rectangular faulty block, including the non-convex section with the
//! hole at (6,6,5).
//!
//! ```text
//! cargo run --example figure5
//! ```

use std::io::{self, Write};

use mcc_mesh::fault_model::mcc3::MccSet3;
use mcc_mesh::fault_model::{BorderPolicy, FaultBlocks3, Labelling3};
use mcc_mesh::mesh_topo::coord::c3;
use mcc_mesh::mesh_topo::{Axis3, Frame3, Mesh3D};

fn main() -> io::Result<()> {
    render(&mut io::stdout().lock())
}

/// Write the example's report to `out`.
pub fn render(out: &mut impl Write) -> io::Result<()> {
    // The exact fault set of Figure 5(a).
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
    let mut mesh = Mesh3D::kary(10);
    for f in faults {
        mesh.inject_fault(f);
    }

    let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
    writeln!(out, "labelling (canonical octant):")?;
    writeln!(
        out,
        "  (5,5,5): {:?}   <- paper: useless",
        lab.status(c3(5, 5, 5))
    )?;
    writeln!(
        out,
        "  (5,5,7): {:?} <- paper: can't-reach",
        lab.status(c3(5, 5, 7))
    )?;

    let mccs = MccSet3::compute(&lab);
    writeln!(
        out,
        "\nMCC decomposition: {} components (paper: 2)",
        mccs.len()
    )?;
    for (id, m) in mccs.iter().enumerate() {
        writeln!(
            out,
            "  MCC #{}: {} cells ({} faulty, {} healthy captured), bounds {:?}..{:?}",
            id,
            m.cells.len(),
            m.fault_count,
            m.sacrificed_count,
            m.bounds.lo,
            m.bounds.hi
        )?;
    }

    // The z = 5 section of the large MCC with its hole at (6,6).
    let big = mccs.component_containing(c3(5, 5, 5)).expect("large MCC");
    let mut section = big.section(Axis3::Z, 5);
    section.sort();
    writeln!(out, "\nsection z = 5 of the large MCC: {section:?}")?;
    writeln!(
        out,
        "hole at (6,6,5): in MCC? {} (paper: no — the section is not convex)",
        big.contains(c3(6, 6, 5))
    )?;

    // Contrast with the rectangular-faulty-block view of Figure 5(a).
    let blocks = FaultBlocks3::compute(&mesh);
    writeln!(
        out,
        "\ncuboid fault blocks (the conventional model): {}",
        blocks.blocks().len()
    )?;
    let mut total = 0u64;
    for b in &blocks.blocks() {
        writeln!(out, "  block {:?}..{:?} ({} cells)", b.lo, b.hi, b.volume())?;
        total += b.volume();
    }
    writeln!(
        out,
        "conventional model disables {total} nodes ({} healthy) — the MCC model \
         captures only {} healthy nodes",
        blocks.sacrificed_count(),
        lab.sacrificed_count()
    )?;
    Ok(())
}
