//! Visualize 2-D fault regions: MCC labelling vs rectangular faulty
//! blocks, for a sample mesh printed as ASCII.
//!
//! ```text
//! cargo run --example fault_regions
//! ```
//!
//! Legend: `#` faulty, `u` useless, `c` can't-reach, `b` healthy node
//! disabled by the rectangular-block model only, `.` free.

use std::io::{self, Write};

use mcc_mesh::fault_model::mcc2::MccSet2;
use mcc_mesh::fault_model::{BorderPolicy, FaultBlocks2, FaultRegime, Labelling2};
use mcc_mesh::mesh_topo::coord::c2;
use mcc_mesh::mesh_topo::{Frame2, Mesh2D};

fn main() -> io::Result<()> {
    render(&mut io::stdout().lock())
}

/// Write the example's report to `out`.
pub fn render(out: &mut impl Write) -> io::Result<()> {
    let mut mesh = Mesh2D::new(24, 16);
    // A staircase, a "/" diagonal and some random sprinkle.
    for x in 4..=8 {
        mesh.inject_fault(c2(x, 14 - x));
    }
    for i in 0..3 {
        mesh.inject_fault(c2(14 + i, 4 + i));
    }
    FaultRegime::Uniform.inject(&mut mesh, 6, 7, &[], BorderPolicy::BorderSafe);

    let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
    let mccs = MccSet2::compute(&lab);
    let blocks = FaultBlocks2::compute(&mesh);

    writeln!(
        out,
        "faults: {}   MCC captures: {} healthy   RFB disables: {} healthy",
        mesh.fault_count(),
        lab.sacrificed_count(),
        blocks.sacrificed_count()
    )?;
    writeln!(
        out,
        "MCCs: {}   blocks: {}\n",
        mccs.len(),
        blocks.blocks().len()
    )?;

    for y in (0..mesh.height()).rev() {
        let mut row = String::with_capacity(mesh.width() as usize * 2);
        for x in 0..mesh.width() {
            let c = c2(x, y);
            let st = lab.status(c);
            let ch = if st.is_faulty() {
                '#'
            } else if st.is_useless() && st.is_cant_reach() {
                'x'
            } else if st.is_useless() {
                'u'
            } else if st.is_cant_reach() {
                'c'
            } else if blocks.is_disabled(c) {
                'b'
            } else {
                '.'
            };
            row.push(ch);
            row.push(' ');
        }
        writeln!(out, "{row}")?;
    }

    writeln!(out, "\nper-MCC summary (canonical quadrant):")?;
    for (id, m) in mccs.iter().enumerate() {
        writeln!(
            out,
            "  MCC #{}: {:>3} cells ({} faulty + {} captured), bbox x {}..{}, y {}..{}, HV-convex: {}",
            id,
            m.len(),
            m.fault_count,
            m.sacrificed_count,
            m.bounds.x0,
            m.bounds.x1,
            m.bounds.y0,
            m.bounds.y1,
            m.is_hv_convex()
        )?;
    }
    Ok(())
}
