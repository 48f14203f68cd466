//! Engine-refactor parity: the flat index-addressed engine must change the
//! protocol layer's **cost accounting by zero**.
//!
//! Two lines of defense:
//!
//! * **Old-vs-new [`RunStats`] equality** — the distributed labelling runs
//!   on both engines (the flat one and the pre-refactor hash engine kept
//!   in [`reference`], beside this file) over fixed seeds; rounds, messages,
//!   max-inflight and quiescence must agree exactly, and so must every
//!   node's converged label.
//! * **Pinned E7 pipeline counts** — the full 2-D construction pipeline
//!   (labelling → compid → ident → boundary) on fixed seeds is pinned to
//!   literal per-phase round/message counts. The literals were verified
//!   identical against the pre-refactor engine at the commit boundary, so
//!   any future engine or protocol change that silently shifts the paper's
//!   overhead tables (E5/E7) fails here, not in a regenerated table.

mod reference;

use fault_model::{BorderPolicy, FaultRegime};
use mcc_protocols::boundary2::build_pipeline_2d;
use mcc_protocols::labelling::{DistLabelling2, DistLabelling3};
use mesh_topo::coord::c2;
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::{RefDistLabelling2, RefDistLabelling3};

#[test]
fn labelling_stats_parity_2d() {
    // Ten 24×24 meshes at 80 faults, plus one sparse 12×12 mesh.
    let cases = (0..10u64).map(|seed| (24, 80, seed)).chain([(12, 14, 7)]);
    for (width, faults, seed) in cases {
        let mut mesh = Mesh2D::new(width, width);
        FaultRegime::Uniform.inject(&mut mesh, faults, seed, &[], BorderPolicy::BorderSafe);
        for frame in Frame2::all(&mesh) {
            let new = DistLabelling2::run(&mesh, frame);
            let old = RefDistLabelling2::run(&mesh, frame);
            assert_eq!(
                new.stats, old.stats,
                "seed {seed} frame {frame:?}: engines disagree on cost"
            );
            assert!(new.stats.quiescent);
            for (c, s) in old.net.iter() {
                assert_eq!(s.status, new.status(c), "seed {seed}: label differs at {c}");
            }
        }
    }
}

#[test]
fn labelling_stats_parity_3d() {
    for seed in 0..6u64 {
        let mut mesh = Mesh3D::kary(10);
        FaultRegime::Uniform.inject(&mut mesh, 120, seed, &[], BorderPolicy::BorderSafe);
        let frame = Frame3::identity(&mesh);
        let new = DistLabelling3::run(&mesh, frame);
        let old = RefDistLabelling3::run(&mesh, frame);
        assert_eq!(new.stats, old.stats, "seed {seed}: engines disagree");
        assert!(new.stats.quiescent);
        for (c, s) in old.net.iter() {
            assert_eq!(s.status, new.status(c), "seed {seed}: label differs at {c}");
        }
    }
}

/// The E7 overhead runner's mesh construction: `n` uniform faults in the
/// interior of a `w × w` mesh (see `mcc_bench::runner::run_overhead_2d`).
fn interior_mesh(w: i32, n: usize, seed: u64) -> Mesh2D {
    let mut mesh = Mesh2D::new(w, w);
    let mut rng = SmallRng::seed_from_u64(seed ^ ((n as u64) << 24));
    let mut placed = 0;
    while placed < n {
        let c = c2(rng.gen_range(1..w - 1), rng.gen_range(1..w - 1));
        if mesh.is_healthy(c) {
            mesh.inject_fault(c);
            placed += 1;
        }
    }
    mesh
}

#[test]
fn pinned_e7_pipeline_counts() {
    // (mesh width, faults, seed) → per-phase (rounds, messages), pinned.
    // Verified equal to the pre-refactor engine's counts at the refactor
    // boundary; a diff here means the overhead tables changed meaning.
    #[allow(clippy::type_complexity)]
    let cases: [(i32, usize, u64, [(usize, usize); 4]); 3] = [
        (24, 10, 0, [(3, 2208), (4, 8552), (21, 190), (26, 230)]),
        (24, 20, 3, [(4, 2216), (6, 8664), (29, 328), (25, 333)]),
        (16, 6, 1, [(3, 960), (5, 3672), (25, 99), (19, 74)]),
    ];
    for (w, n, seed, expect) in cases {
        let mesh = interior_mesh(w, n, seed);
        let (_, st) = build_pipeline_2d(&mesh, Frame2::identity(&mesh));
        let got = [
            (st.labelling.rounds, st.labelling.messages),
            (st.components.rounds, st.components.messages),
            (st.identification.rounds, st.identification.messages),
            (st.boundary.rounds, st.boundary.messages),
        ];
        assert_eq!(
            got, expect,
            "pipeline cost accounting drifted for ({w}x{w}, {n} faults, seed {seed})"
        );
        let total: usize = expect.iter().map(|&(_, m)| m).sum();
        assert_eq!(st.total_messages(), total);
    }
}
