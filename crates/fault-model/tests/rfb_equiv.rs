//! The block-model equivalence battery.
//!
//! [`FaultBlocks2`] / [`FaultBlocks3`] compute the faulty-block closure
//! with a frontier kernel. The closure they replaced is kept verbatim in
//! [`reference/rfb.rs`](reference) as the oracle, and every case here
//! asserts the kernel reproduces it exactly: the same disabled set, the
//! same `blocks` Vec (order included) and the same sacrificed count.
//!
//! Cases cover 2-D and 3-D meshes (extents 2–16) and tori (extents 3–16;
//! the node space rejects smaller tori), the uniform, clustered, front and
//! plane fault regimes, and fault shares from none up to well past the
//! point where the closure percolates to the whole grid. The battery
//! counts the cases where the closure disables every node and the cases
//! whose box fill adds nodes the rule alone does not. It fails if either
//! kind is missing on tori, or if a fill adds anything on a mesh (where a
//! connected set closed under the rule is already a full box).
//!
//! `cargo test` runs a bounded slice; the full battery (12,000 cases) is
//! the ignored test, run in release:
//!
//! ```text
//! cargo test --release -p fault-model --test rfb_equiv -- --include-ignored
//! ```

#[path = "reference/rfb.rs"]
mod reference;

use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, FaultRegime};
use mesh_topo::{Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{RefBlocks2, RefBlocks3};

/// What one battery run covered.
#[derive(Default, Debug)]
struct Coverage {
    cases: usize,
    full_percolation: usize,
    torus_fill: usize,
    mesh_fill: usize,
}

/// One of the four spatial regimes, drawn from `rng`.
fn regime(rng: &mut SmallRng, dims: usize) -> FaultRegime {
    match rng.gen_range(0..4) {
        0 => FaultRegime::Uniform,
        1 => FaultRegime::Clustered {
            clusters: rng.gen_range(1..6),
        },
        2 => FaultRegime::CorrelatedFront {
            fronts: rng.gen_range(1..4),
        },
        _ => FaultRegime::SweepingPlane {
            axis: rng.gen_range(0..dims),
        },
    }
}

/// A fault count for `nodes` nodes: shares up to 40 %, biased low.
fn fault_count(rng: &mut SmallRng, nodes: usize) -> usize {
    let share: f64 = rng.gen_range(0.0..1.0);
    (share * share * 0.4 * nodes as f64) as usize
}

fn check_2d(mesh: &Mesh2D, cov: &mut Coverage) {
    let new = FaultBlocks2::compute(mesh);
    let old = RefBlocks2::compute(mesh);
    let space = mesh.space();
    for c in mesh.nodes() {
        assert_eq!(
            new.is_disabled(c),
            old.disabled.contains(space.index(c)),
            "disabled set differs at {c} on {mesh:?}"
        );
    }
    assert_eq!(new.disabled_count(), old.disabled.len(), "{mesh:?}");
    assert_eq!(new.blocks, old.blocks, "blocks differ on {mesh:?}");
    assert_eq!(new.sacrificed_count(), old.sacrificed, "{mesh:?}");

    cov.cases += 1;
    cov.full_percolation += usize::from(old.disabled.len() == space.len());
    let mut rule_only = mesh.fault_set().clone();
    RefBlocks2::close_rule(space, &mut rule_only);
    let filled = usize::from(rule_only != old.disabled);
    if space.wraps() {
        cov.torus_fill += filled;
    } else {
        cov.mesh_fill += filled;
    }
}

fn check_3d(mesh: &Mesh3D, cov: &mut Coverage) {
    let new = FaultBlocks3::compute(mesh);
    let old = RefBlocks3::compute(mesh);
    let space = mesh.space();
    for c in mesh.nodes() {
        assert_eq!(
            new.is_disabled(c),
            old.disabled.contains(space.index(c)),
            "disabled set differs at {c} on {mesh:?}"
        );
    }
    assert_eq!(new.disabled_count(), old.disabled.len(), "{mesh:?}");
    assert_eq!(new.blocks, old.blocks, "blocks differ on {mesh:?}");
    assert_eq!(new.sacrificed_count(), old.sacrificed, "{mesh:?}");

    cov.cases += 1;
    cov.full_percolation += usize::from(old.disabled.len() == space.len());
    let mut rule_only = mesh.fault_set().clone();
    RefBlocks3::close_rule(space, &mut rule_only);
    let filled = usize::from(rule_only != old.disabled);
    if space.wraps() {
        cov.torus_fill += filled;
    } else {
        cov.mesh_fill += filled;
    }
}

/// Run `cases` random 2-D and `cases` random 3-D cases from `seed`, half
/// of each on tori. 3-D extents stop at `max3`.
fn battery(seed: u64, cases: usize, max3: i32) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cov = Coverage::default();
    for case in 0..cases {
        let torus = case % 2 == 1;
        let lo = if torus { 3 } else { 2 };
        let (w, h) = (rng.gen_range(lo..=16), rng.gen_range(lo..=16));
        let mut mesh = if torus {
            Mesh2D::torus(w, h)
        } else {
            Mesh2D::new(w, h)
        };
        let count = fault_count(&mut rng, mesh.space().len());
        regime(&mut rng, 2).inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_2d(&mesh, &mut cov);

        let e = [
            rng.gen_range(lo..=max3),
            rng.gen_range(lo..=max3),
            rng.gen_range(lo..=max3),
        ];
        let mut mesh = if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        };
        let count = fault_count(&mut rng, mesh.space().len());
        regime(&mut rng, 3).inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, &mut cov);
    }
    cov
}

#[test]
fn block_model_matches_reference_slice() {
    let cov = battery(17, 300, 10);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn block_model_matches_reference_full() {
    let cov = battery(0x5eed, 6_000, 16);
    assert_eq!(cov.cases, 12_000);
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert!(cov.torus_fill > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}

/// 3-D meshes at the `sweep` benchmark's size (16³) and fault counts
/// (10–120), where 2-neighbour percolation to the whole grid is common.
#[test]
fn block_model_matches_reference_at_16_cubed() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut cov = Coverage::default();
    for _ in 0..24 {
        let mut mesh = Mesh3D::kary(16);
        let count = rng.gen_range(10..=120);
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], BorderPolicy::BorderSafe);
        check_3d(&mesh, &mut cov);
    }
    assert!(cov.full_percolation > 0, "{cov:?}");
    assert_eq!(cov.mesh_fill, 0, "{cov:?}");
}
