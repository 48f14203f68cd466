//! Fault-region statistics for the evaluation tables.
//!
//! The paper's simulation study (§1) reports, per fault count:
//!
//! * how many non-faulty nodes each fault model captures (sacrifices), and
//! * the rate of successful minimal routing under each model.
//!
//! These helpers compute the per-instance numbers; the `mcc-bench` crate
//! aggregates them over seeds into the tables of `EXPERIMENTS.md`.

use mesh_topo::{Coord, Frame, Mesh};
use serde::{Deserialize, Serialize};

use crate::labelling::Labelling;
use crate::mcc::MccSet;
use crate::rfb::FaultBlocks;
use crate::status::BorderPolicy;

/// Sacrifice counts of the competing fault models on one fault configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionStats {
    /// Faulty nodes in the mesh.
    pub faults: usize,
    /// Healthy nodes captured by MCCs for the canonical orientation.
    pub mcc_sacrificed: usize,
    /// Healthy nodes captured by MCCs in the *worst* orientation.
    pub mcc_sacrificed_worst: usize,
    /// Healthy nodes captured in at least one orientation (union).
    pub mcc_sacrificed_union: usize,
    /// Healthy nodes captured by the rectangular / cuboid block model.
    pub rfb_sacrificed: usize,
    /// Number of MCCs (canonical orientation).
    pub mcc_count: usize,
    /// Number of fault blocks.
    pub rfb_count: usize,
}

/// Compute [`RegionStats`] for a 2-D or 3-D mesh.
pub fn region_stats<C: Coord>(mesh: &Mesh<C>, policy: BorderPolicy) -> RegionStats {
    let labs: Vec<Labelling<C>> = Frame::all(mesh)
        .into_iter()
        .map(|f| Labelling::compute(mesh, f, policy))
        .collect();
    let canonical = &labs[0];
    let mcc_sacrificed = canonical.sacrificed_count();
    let mcc_sacrificed_worst = labs.iter().map(|l| l.sacrificed_count()).max().unwrap_or(0);
    // Union over orientations, in mesh coordinates.
    let mut union = 0usize;
    for c in mesh.nodes() {
        if mesh.is_healthy(c) && labs.iter().any(|l| l.status_mesh(c).is_unsafe()) {
            union += 1;
        }
    }
    let blocks = FaultBlocks::compute(mesh);
    RegionStats {
        faults: mesh.fault_count(),
        mcc_sacrificed,
        mcc_sacrificed_worst,
        mcc_sacrificed_union: union,
        rfb_sacrificed: blocks.sacrificed_count(),
        mcc_count: MccSet::compute(canonical).len(),
        rfb_count: blocks.blocks().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultRegime;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Mesh2D, Mesh3D};

    const B: BorderPolicy = BorderPolicy::BorderSafe;

    /// MCCs never sacrifice more than blocks, and the canonical, worst
    /// and union counts nest, over `seeds` uniform fault sets of `count`.
    fn assert_models_nest<C: Coord>(clean: Mesh<C>, count: usize, seeds: u64) {
        for seed in 0..seeds {
            let mut mesh = clean.clone();
            FaultRegime::Uniform.inject(&mut mesh, count, seed, &[], B);
            let s = region_stats(&mesh, B);
            assert!(s.mcc_sacrificed <= s.rfb_sacrificed, "seed {seed}: {s:?}");
            assert!(
                s.mcc_sacrificed <= s.mcc_sacrificed_worst,
                "seed {seed}: {s:?}"
            );
            assert!(
                s.mcc_sacrificed_worst <= s.mcc_sacrificed_union,
                "seed {seed}: {s:?}"
            );
        }
    }

    #[test]
    fn mcc_never_sacrifices_more_than_rfb_2d() {
        assert_models_nest(Mesh2D::new(16, 16), 12, 20);
    }

    #[test]
    fn mcc_never_sacrifices_more_than_rfb_3d() {
        assert_models_nest(Mesh3D::kary(8), 20, 10);
    }

    #[test]
    fn fault_free_stats_are_zero() {
        let mesh = Mesh2D::new(8, 8);
        let s = region_stats(&mesh, B);
        assert_eq!(s, RegionStats::default());
    }

    #[test]
    fn example_gap_2d() {
        // The "/" diagonal: RFB pays 2 nodes, canonical MCC pays 0.
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(4, 4));
        mesh.inject_fault(c2(5, 5));
        let s = region_stats(&mesh, B);
        assert_eq!(s.mcc_sacrificed, 0);
        assert_eq!(s.rfb_sacrificed, 2);
        // Some orientation does pay (the "\" view of the same faults).
        assert_eq!(s.mcc_sacrificed_worst, 2);
    }

    #[test]
    fn example_gap_3d() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(3, 3, 3));
        mesh.inject_fault(c3(4, 4, 3));
        let s = region_stats(&mesh, B);
        assert_eq!(s.mcc_sacrificed, 0);
        assert_eq!(s.mcc_sacrificed_worst, 0); // 3-D needs all 3 dims blocked
        assert_eq!(s.rfb_sacrificed, 2);
    }
}
