//! Fixed-seed smoke battery for the adversarial boundary search — the CI
//! job runs this test target directly (`--test regime_adversarial`), so a
//! regression in the search (failing to find a violation, losing
//! 1-minimality, or drifting off the pinned seed) fails fast and by name.
//!
//! The violation being hunted is the paper's endpoint-sacrifice gap: the
//! labelling closure can mark a *healthy* endpoint useless/can't-reach
//! (e.g. the antidiagonal fault pair around a corner of the pair's
//! bounding box), so the MCC router refuses a pair the oracle can still
//! route minimally. The MCC existence condition itself stays exact —
//! `mcc_ok == oracle_ok` everywhere — which is why the minimal violating
//! sets are interesting: they chart exactly where endpoint safety, not
//! the condition, is the binding constraint.

use fault_model::regime::adversarial_search;
use fault_model::BorderPolicy;
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Mesh2D, Mesh3D};

const B: BorderPolicy = BorderPolicy::BorderSafe;

#[test]
fn fixed_seed_2d_search_reports_minimal_violation() {
    let mesh = Mesh2D::new(16, 16);
    let (s, d) = (c2(3, 3), c2(12, 12));
    let report = adversarial_search(&mesh, s, d, 8, 42, B)
        .expect("seed 42 finds a violation on a clean 16x16 mesh");
    assert!(report.violates());
    assert!(report.oracle_ok && !report.endpoints_safe);
    // In 2-D the minimal endpoint-sacrificing set is an antidiagonal
    // fault pair: two faults.
    assert_eq!(report.cardinality(), 2, "faults: {:?}", report.faults);
    // Every reported fault is healthy-mesh-adjacent to the story: near an
    // endpoint (the search pool guarantees Chebyshev distance <= 2).
    for f in &report.faults {
        let near_s = (f.x - s.x).abs().max((f.y - s.y).abs()) <= 2;
        let near_d = (f.x - d.x).abs().max((f.y - d.y).abs()) <= 2;
        assert!(near_s || near_d, "fault {f:?} far from both endpoints");
    }
}

#[test]
fn fixed_seed_2d_search_is_deterministic() {
    let mesh = Mesh2D::new(16, 16);
    let (s, d) = (c2(3, 3), c2(12, 12));
    let a = adversarial_search(&mesh, s, d, 8, 42, B).expect("violation");
    let b = adversarial_search(&mesh, s, d, 8, 42, B).expect("violation");
    assert_eq!(a.faults, b.faults, "same seed, same violating set");
}

#[test]
fn fixed_seed_3d_search_reports_verified_violation() {
    let mesh = Mesh3D::kary(8);
    let (s, d) = (c3(1, 1, 1), c3(6, 6, 6));
    let report = adversarial_search(&mesh, s, d, 8, 7, B)
        .expect("seed 7 finds a violation on a clean 8^3 mesh");
    assert!(report.violates());
    // 3-D endpoints have three forward neighbors, so sacrificing one
    // takes at least three faults; the pruned set must not exceed the
    // search's own working-set cap either.
    assert!(
        (3..=6).contains(&report.cardinality()),
        "cardinality {} out of range, faults: {:?}",
        report.cardinality(),
        report.faults
    );
}
