//! Fault-region statistics for the evaluation tables.
//!
//! The paper's simulation study (§1) reports, per fault count:
//!
//! * how many non-faulty nodes each fault model captures (sacrifices), and
//! * the rate of successful minimal routing under each model.
//!
//! These helpers compute the per-instance numbers; the `mcc-bench` crate
//! aggregates them over seeds into the tables of `EXPERIMENTS.md`.

use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};
use serde::{Deserialize, Serialize};

use crate::labelling::Labelling2;
use crate::labelling::Labelling3;
use crate::rfb::{FaultBlocks2, FaultBlocks3};
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

/// Compute [`RegionStats`] for a 2-D mesh.
pub fn region_stats_2d(mesh: &Mesh2D, policy: BorderPolicy) -> RegionStats {
    let labs: Vec<Labelling2> = Frame2::all(mesh)
        .into_iter()
        .map(|f| Labelling2::compute(mesh, f, policy))
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
    let blocks = FaultBlocks2::compute(mesh);
    let mccs = crate::mcc2::MccSet2::compute(canonical);
    RegionStats {
        faults: mesh.fault_count(),
        mcc_sacrificed,
        mcc_sacrificed_worst,
        mcc_sacrificed_union: union,
        rfb_sacrificed: blocks.sacrificed_count(),
        mcc_count: mccs.len(),
        rfb_count: blocks.blocks.len(),
    }
}

/// Compute [`RegionStats`] for a 3-D mesh.
pub fn region_stats_3d(mesh: &Mesh3D, policy: BorderPolicy) -> RegionStats {
    let labs: Vec<Labelling3> = Frame3::all(mesh)
        .into_iter()
        .map(|f| Labelling3::compute(mesh, f, policy))
        .collect();
    let canonical = &labs[0];
    let mcc_sacrificed = canonical.sacrificed_count();
    let mcc_sacrificed_worst = labs.iter().map(|l| l.sacrificed_count()).max().unwrap_or(0);
    let mut union = 0usize;
    for c in mesh.nodes() {
        if mesh.is_healthy(c) && labs.iter().any(|l| l.status_mesh(c).is_unsafe()) {
            union += 1;
        }
    }
    let blocks = FaultBlocks3::compute(mesh);
    let mccs = crate::mcc3::MccSet3::compute(canonical);
    RegionStats {
        faults: mesh.fault_count(),
        mcc_sacrificed,
        mcc_sacrificed_worst,
        mcc_sacrificed_union: union,
        rfb_sacrificed: blocks.sacrificed_count(),
        mcc_count: mccs.len(),
        rfb_count: blocks.blocks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::FaultSpec;

    #[test]
    fn mcc_never_sacrifices_more_than_rfb_2d() {
        for seed in 0..20 {
            let mut mesh = Mesh2D::new(16, 16);
            FaultSpec::uniform(12, seed).inject_2d(&mut mesh, &[]);
            let s = region_stats_2d(&mesh, BorderPolicy::BorderSafe);
            assert!(
                s.mcc_sacrificed <= s.rfb_sacrificed,
                "seed {seed}: MCC {} > RFB {}",
                s.mcc_sacrificed,
                s.rfb_sacrificed
            );
            assert!(s.mcc_sacrificed <= s.mcc_sacrificed_worst);
            assert!(s.mcc_sacrificed_worst <= s.mcc_sacrificed_union);
        }
    }

    #[test]
    fn mcc_never_sacrifices_more_than_rfb_3d() {
        for seed in 0..10 {
            let mut mesh = Mesh3D::kary(8);
            FaultSpec::uniform(20, seed).inject_3d(&mut mesh, &[]);
            let s = region_stats_3d(&mesh, BorderPolicy::BorderSafe);
            assert!(
                s.mcc_sacrificed <= s.rfb_sacrificed,
                "seed {seed}: MCC {} > RFB {}",
                s.mcc_sacrificed,
                s.rfb_sacrificed
            );
        }
    }

    #[test]
    fn fault_free_stats_are_zero() {
        let mesh = Mesh2D::new(8, 8);
        let s = region_stats_2d(&mesh, BorderPolicy::BorderSafe);
        assert_eq!(s, RegionStats::default());
    }

    #[test]
    fn example_gap_2d() {
        // The "/" diagonal: RFB pays 2 nodes, canonical MCC pays 0.
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(4, 4));
        mesh.inject_fault(c2(5, 5));
        let s = region_stats_2d(&mesh, BorderPolicy::BorderSafe);
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
        let s = region_stats_3d(&mesh, BorderPolicy::BorderSafe);
        assert_eq!(s.mcc_sacrificed, 0);
        assert_eq!(s.mcc_sacrificed_worst, 0); // 3-D needs all 3 dims blocked
        assert_eq!(s.rfb_sacrificed, 2);
    }
}
