//! Property-based validation of the MCC model's central theorems.
//!
//! * **Closure minimality** (Wang 2-D, Jiang–Wu–Wang 3-D): for safe
//!   endpoints, a monotone path avoiding the *faults* exists iff one
//!   avoiding the whole *unsafe closure* exists — no healthy node an MCC
//!   captures could ever have helped a minimal routing.
//! * **Shape**: every 2-D MCC is HV-convex (contiguous rows/columns).
//! * **Condition exactness**: the existence condition of Theorems 1 and 2
//!   (`fault_model::condition::evaluate`) agrees with the fault-avoiding
//!   oracle for every endpoint combination, on meshes and tori.
//! * **Model ordering**: MCC sacrifices ≤ RFB sacrifices; RFB success
//!   implies MCC success.
//! * **Representation equivalence**: the flat bitset pipeline
//!   (raster-sweep labelling + index-BFS components) produces identical
//!   statuses and component partitions to the hash-based reference
//!   ([`reference`], beside this file) on random meshes, under both border
//!   policies.

mod reference;

use fault_model::components::{Components2, Components3};
use fault_model::condition::evaluate;
use fault_model::mcc2::MccSet2;
use fault_model::mcc3::MccSet3;
use fault_model::oracle::{self, Useful};
use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, Labelling, Labelling2, Labelling3};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Coord, Frame, Frame2, Frame3, Mesh, Mesh2D, Mesh3D, C2, C3};
use proptest::prelude::*;

const W: i32 = 12;
const K: i32 = 8;

/// `mesh` with every (deduplicated) node of `faults` injected.
fn with_faults<C: Coord>(mut mesh: Mesh<C>, faults: impl IntoIterator<Item = C>) -> Mesh<C> {
    for c in faults {
        if mesh.is_healthy(c) {
            mesh.inject_fault(c);
        }
    }
    mesh
}

fn arb_mesh2() -> impl Strategy<Value = Mesh2D> {
    proptest::collection::vec((0..W, 0..W), 0..20)
        .prop_map(|f| with_faults(Mesh2D::new(W, W), f.into_iter().map(|(x, y)| c2(x, y))))
}

fn arb_mesh3() -> impl Strategy<Value = Mesh3D> {
    proptest::collection::vec((0..K, 0..K, 0..K), 0..32)
        .prop_map(|f| with_faults(Mesh3D::kary(K), f.into_iter().map(|(x, y, z)| c3(x, y, z))))
}

fn canon_pair2(s: C2, d: C2) -> (C2, C2) {
    (
        c2(s.x.min(d.x), s.y.min(d.y)),
        c2(s.x.max(d.x), s.y.max(d.y)),
    )
}

fn canon_pair3(s: C3, d: C3) -> (C3, C3) {
    (
        c3(s.x.min(d.x), s.y.min(d.y), s.z.min(d.z)),
        c3(s.x.max(d.x), s.y.max(d.y), s.z.max(d.z)),
    )
}

/// The existence condition equals the fault-avoiding oracle for the
/// healthy pair `(s, d)`, evaluated through the pair's frame.
fn condition_exact<C: Coord>(mesh: &Mesh<C>, s: C, d: C) -> Result<(), TestCaseError> {
    let frame = Frame::for_pair(mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let lab = Labelling::<C>::compute(mesh, frame, BorderPolicy::BorderSafe);
    let claim = evaluate(&lab, cs, cd, &mut Useful::scratch()).exists();
    let blocked = |c| mesh.is_faulty(frame.from_canon(c));
    let truth = Useful::<C>::compute(cs, cd, blocked).contains(cs);
    prop_assert_eq!(
        claim,
        truth,
        "condition mismatch: s={:?} d={:?} cs={:?} cd={:?} statuses {:?} {:?} faults={:?}",
        s,
        d,
        cs,
        cd,
        lab.status(cs),
        lab.status(cd),
        mesh.faults()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wang's minimality theorem in 2-D: the closure blocks no reachable
    /// safe destination.
    #[test]
    fn closure_minimality_2d(mesh in arb_mesh2(), sx in 0..W, sy in 0..W, dx in 0..W, dy in 0..W) {
        let (s, d) = canon_pair2(c2(sx, sy), c2(dx, dy));
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        prop_assume!(lab.status(s).is_safe() && lab.status(d).is_safe());
        let via_faults = oracle::reachable_2d(s, d, |c| mesh.is_faulty(c) || !mesh.contains(c));
        let via_closure = oracle::reachable_2d(s, d, |c| lab.status_get(c).map(|t| t.is_unsafe()).unwrap_or(true));
        prop_assert_eq!(via_faults, via_closure,
            "closure changed reachability: s={} d={} faults={:?}", s, d, mesh.faults());
    }

    /// Jiang–Wu–Wang minimality in 3-D.
    #[test]
    fn closure_minimality_3d(mesh in arb_mesh3(),
                             sx in 0..K, sy in 0..K, sz in 0..K,
                             dx in 0..K, dy in 0..K, dz in 0..K) {
        let (s, d) = canon_pair3(c3(sx, sy, sz), c3(dx, dy, dz));
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        prop_assume!(lab.status(s).is_safe() && lab.status(d).is_safe());
        let via_faults = oracle::reachable_3d(s, d, |c| mesh.is_faulty(c) || !mesh.contains(c));
        let via_closure = oracle::reachable_3d(s, d, |c| lab.status_get(c).map(|t| t.is_unsafe()).unwrap_or(true));
        prop_assert_eq!(via_faults, via_closure,
            "closure changed reachability: s={} d={} faults={:?}", s, d, mesh.faults());
    }

    /// Every 2-D MCC is HV-convex, for every quadrant orientation.
    #[test]
    fn mcc2_shape_hv_convex(mesh in arb_mesh2()) {
        for frame in Frame2::all(&mesh) {
            let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            let set = MccSet2::compute(&lab);
            for m in set.iter() {
                prop_assert!(m.is_hv_convex(),
                    "non-HV-convex MCC (frame {:?}): cells {:?}", frame, m.cells);
                // contains() (profile-based) must agree with the cell list.
                for &c in &m.cells {
                    prop_assert!(m.contains(c));
                }
            }
        }
    }

    /// The 2-D existence condition equals ground truth for all endpoint
    /// statuses (safe, useless, can't-reach) of healthy endpoints.
    #[test]
    fn condition2_exact(mesh in arb_mesh2(), sx in 0..W, sy in 0..W, dx in 0..W, dy in 0..W) {
        let (s, d) = canon_pair2(c2(sx, sy), c2(dx, dy));
        prop_assume!(mesh.is_healthy(s) && mesh.is_healthy(d));
        condition_exact(&mesh, s, d)?;
    }

    /// The 3-D existence condition equals ground truth.
    #[test]
    fn condition3_exact(mesh in arb_mesh3(),
                        sx in 0..K, sy in 0..K, sz in 0..K,
                        dx in 0..K, dy in 0..K, dz in 0..K) {
        let (s, d) = canon_pair3(c3(sx, sy, sz), c3(dx, dy, dz));
        prop_assume!(mesh.is_healthy(s) && mesh.is_healthy(d));
        condition_exact(&mesh, s, d)?;
    }

    /// MCC is the finer model: it never sacrifices more healthy nodes than
    /// rectangular blocks, in any orientation (2-D).
    #[test]
    fn mcc2_finer_than_rfb2(mesh in arb_mesh2()) {
        let blocks = FaultBlocks2::compute(&mesh);
        for frame in Frame2::all(&mesh) {
            let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
            prop_assert!(lab.sacrificed_count() <= blocks.sacrificed_count());
            // Stronger: every node an MCC captures, RFB captures too.
            for c in mesh.nodes() {
                if lab.status_mesh(c).is_unsafe() {
                    prop_assert!(blocks.is_disabled(c),
                        "MCC captured {} but RFB did not", c);
                }
            }
        }
    }

    /// Same in 3-D.
    #[test]
    fn mcc3_finer_than_rfb3(mesh in arb_mesh3()) {
        let blocks = FaultBlocks3::compute(&mesh);
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        prop_assert!(lab.sacrificed_count() <= blocks.sacrificed_count());
        for c in mesh.nodes() {
            if lab.status_mesh(c).is_unsafe() {
                prop_assert!(blocks.is_disabled(c));
            }
        }
    }

    /// RFB success implies MCC success (the success-rate ordering of the
    /// paper's evaluation): if a monotone path avoids all block nodes it
    /// certainly avoids all faults.
    #[test]
    fn rfb2_success_implies_mcc_success(mesh in arb_mesh2(),
                                        sx in 0..W, sy in 0..W, dx in 0..W, dy in 0..W) {
        let (s, d) = canon_pair2(c2(sx, sy), c2(dx, dy));
        prop_assume!(mesh.is_healthy(s) && mesh.is_healthy(d));
        let blocks = FaultBlocks2::compute(&mesh);
        if blocks.minimal_path_exists(&mesh, s, d) {
            let truth = oracle::reachable_2d(s, d, |c| mesh.is_faulty(c) || !mesh.contains(c));
            prop_assert!(truth);
        }
    }

    /// The flat (bitset) labelling equals the hash-based reference on every
    /// node, for both border policies and every quadrant orientation (2-D).
    #[test]
    fn flat_labelling2_equals_hash_reference(mesh in arb_mesh2()) {
        for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
            for frame in Frame2::all(&mesh) {
                let flat = Labelling2::compute(&mesh, frame, policy);
                let hash = reference::HashLabelling2::compute(&mesh, frame, policy);
                for (c, st) in flat.iter() {
                    prop_assert_eq!(st, hash.status[&c],
                        "status mismatch at {} (policy {:?}, frame {:?})", c, policy, frame);
                }
                prop_assert_eq!(flat.unsafe_count(), hash.unsafe_cells().len());
            }
        }
    }

    /// Same in 3-D (identity octant, both policies — the octant sweep is
    /// covered by the labelling unit tests).
    #[test]
    fn flat_labelling3_equals_hash_reference(mesh in arb_mesh3()) {
        for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
            let frame = Frame3::identity(&mesh);
            let flat = Labelling3::compute(&mesh, frame, policy);
            let hash = reference::HashLabelling3::compute(&mesh, frame, policy);
            for (c, st) in flat.iter() {
                prop_assert_eq!(st, hash.status[&c],
                    "status mismatch at {} (policy {:?})", c, policy);
            }
            prop_assert_eq!(flat.unsafe_count(), hash.unsafe_cells().len());
        }
    }

    /// The flat component discovery produces the same partition of the
    /// unsafe set as the hash-based reference (compared as sorted sets of
    /// sorted cell lists, so discovery order cannot mask a difference).
    #[test]
    fn flat_components_equal_hash_reference(mesh in arb_mesh2(), mesh3 in arb_mesh3()) {
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let mut flat: Vec<Vec<_>> = Components2::compute(&lab)
            .cells
            .into_iter()
            .map(|mut v| { v.sort(); v })
            .collect();
        flat.sort();
        let hash = reference::components2_hash(&reference::HashLabelling2::compute(
            &mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe));
        prop_assert_eq!(flat, hash, "2-D partition mismatch: faults {:?}", mesh.faults());

        let lab3 = Labelling3::compute(&mesh3, Frame3::identity(&mesh3), BorderPolicy::BorderSafe);
        let mut flat3: Vec<Vec<_>> = Components3::compute(&lab3)
            .cells
            .into_iter()
            .map(|mut v| { v.sort(); v })
            .collect();
        flat3.sort();
        let hash3 = reference::components3_hash(&reference::HashLabelling3::compute(
            &mesh3, Frame3::identity(&mesh3), BorderPolicy::BorderSafe));
        prop_assert_eq!(flat3, hash3, "3-D partition mismatch: faults {:?}", mesh3.faults());
    }

    /// Components partition the unsafe set (2-D and 3-D).
    #[test]
    fn components_partition_unsafe(mesh in arb_mesh2(), mesh3 in arb_mesh3()) {
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let comps = Components2::compute(&lab);
        let total: usize = comps.cells.iter().map(|v| v.len()).sum();
        prop_assert_eq!(total, lab.unsafe_count());
        let lab3 = Labelling3::compute(&mesh3, Frame3::identity(&mesh3), BorderPolicy::BorderSafe);
        let comps3 = Components3::compute(&lab3);
        let total3: usize = comps3.cells.iter().map(|v| v.len()).sum();
        prop_assert_eq!(total3, lab3.unsafe_count());
        let set3 = MccSet3::compute(&lab3);
        prop_assert_eq!(set3.len(), comps3.len());
    }
}

// ---- torus battery -------------------------------------------------------
//
// On a torus every axis wraps, so the raster sweeps iterate to a fixpoint
// and the per-pair frame composes a rotation with the reflection. These
// properties pin the whole wrap layer:
//
// * the sweep fixpoint equals a brute-force worklist closure over the
//   wrapped neighbor relation (the definitional form of Algorithms 1/4),
// * closure minimality and condition exactness carry over to the torus
//   through the shorter-arc canonical frame.

fn arb_torus2() -> impl Strategy<Value = Mesh2D> {
    (
        3i32..9,
        3i32..9,
        proptest::collection::vec((0i32..9, 0i32..9), 0..14),
    )
        .prop_map(|(w, h, f)| {
            with_faults(
                Mesh2D::torus(w, h),
                f.into_iter().map(|(x, y)| c2(x % w, y % h)),
            )
        })
}

fn arb_torus3() -> impl Strategy<Value = Mesh3D> {
    let faults = proptest::collection::vec((0i32..6, 0i32..6, 0i32..6), 0..18);
    (3i32..6, 3i32..6, 3i32..6, faults).prop_map(|(nx, ny, nz, f)| {
        let f = f.into_iter().map(|(x, y, z)| c3(x % nx, y % ny, z % nz));
        with_faults(Mesh3D::torus(nx, ny, nz), f)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The wrap-aware sweep fixpoint equals the definitional worklist
    /// closure, per node and per status bit (2-D).
    #[test]
    fn torus_labelling2_equals_worklist_oracle(mesh in arb_torus2()) {
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        let oracle_status = reference::worklist_closure(&mesh, Frame2::identity(&mesh));
        let space = mesh.space();
        for c in mesh.nodes() {
            prop_assert_eq!(
                lab.status(c), oracle_status[space.index(c)],
                "status mismatch at {} faults={:?}", c, mesh.faults());
        }
    }

    /// Same in 3-D.
    #[test]
    fn torus_labelling3_equals_worklist_oracle(mesh in arb_torus3()) {
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        let oracle_status = reference::worklist_closure(&mesh, Frame3::identity(&mesh));
        let space = mesh.space();
        for c in mesh.nodes() {
            prop_assert_eq!(
                lab.status(c), oracle_status[space.index(c)],
                "status mismatch at {} faults={:?}", c, mesh.faults());
        }
    }

    /// Closure minimality survives the wrap: through the shorter-arc
    /// canonical frame, avoiding the closure blocks no safe destination a
    /// fault-avoiding minimal path could reach.
    #[test]
    fn torus_closure_minimality_2d(mesh in arb_torus2(), sx in 0i32..9, sy in 0i32..9,
                                   dx in 0i32..9, dy in 0i32..9) {
        let (w, h) = (mesh.width(), mesh.height());
        let (s, d) = (c2(sx % w, sy % h), c2(dx % w, dy % h));
        let frame = Frame2::for_pair(&mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let lab = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
        prop_assume!(lab.status(cs).is_safe() && lab.status(cd).is_safe());
        let via_faults = oracle::reachable_2d(cs, cd, |c| {
            !mesh.contains(frame.from_canon(c)) || mesh.is_faulty(frame.from_canon(c))
        });
        let via_closure = oracle::reachable_2d(cs, cd,
            |c| lab.status_get(c).map(|t| t.is_unsafe()).unwrap_or(true));
        prop_assert_eq!(via_faults, via_closure,
            "closure changed torus reachability: s={} d={} faults={:?}", s, d, mesh.faults());
    }

    /// The 2-D existence condition stays exact on tori for healthy
    /// endpoints of any label.
    #[test]
    fn torus_condition2_exact(mesh in arb_torus2(), sx in 0i32..9, sy in 0i32..9,
                              dx in 0i32..9, dy in 0i32..9) {
        let (w, h) = (mesh.width(), mesh.height());
        let (s, d) = (c2(sx % w, sy % h), c2(dx % w, dy % h));
        prop_assume!(mesh.is_healthy(s) && mesh.is_healthy(d));
        condition_exact(&mesh, s, d)?;
    }

    /// The 3-D existence condition stays exact on tori.
    #[test]
    fn torus_condition3_exact(mesh in arb_torus3(),
                              sx in 0i32..6, sy in 0i32..6, sz in 0i32..6,
                              dx in 0i32..6, dy in 0i32..6, dz in 0i32..6) {
        let (nx, ny, nz) = (mesh.nx(), mesh.ny(), mesh.nz());
        let (s, d) = (c3(sx % nx, sy % ny, sz % nz), c3(dx % nx, dy % ny, dz % nz));
        prop_assume!(mesh.is_healthy(s) && mesh.is_healthy(d));
        condition_exact(&mesh, s, d)?;
    }
}

// ---- wide rows -------------------------------------------------------------
//
// The batteries above keep every row within one word. These cases draw
// rows of one, two and three words (`x` extents up to 130; 2-D heights up
// to 7, 3-D `y` and `z` extents up to 4) on meshes and tori, and check
// every frame under both border policies: meshes against the hash
// reference, tori against the wrapped worklist closure. The unsafe set is
// checked against the statuses too, since the kernel writes both.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a wide-row run covered.
#[derive(Default, Debug)]
struct WideCoverage {
    /// Meshes and tori by words per row: one, two, three.
    words: [usize; 3],
    /// Labellings with at least one labelled (useless or can't-reach) node.
    labelled: usize,
}

/// `mesh` with each node faulty with a random probability below 30 %.
fn random_faults<C: Coord>(mut mesh: Mesh<C>, rng: &mut SmallRng) -> Mesh<C> {
    let share = rng.gen_range(0.0..0.3);
    for i in 0..mesh.node_count() {
        if rng.gen_bool(share) {
            mesh.inject_fault(mesh.space().coord(i));
        }
    }
    mesh
}

/// Check every frame and both policies of `mesh`; `hash` gives the mesh
/// reference's statuses for one frame and policy, by canonical index.
fn check_wide<C: Coord>(
    mesh: &Mesh<C>,
    hash: impl Fn(Frame<C>, BorderPolicy) -> Vec<fault_model::NodeStatus>,
    cov: &mut WideCoverage,
) {
    let space = mesh.space();
    cov.words[space.extents()[0].div_ceil(64) - 1] += 1;
    for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
        for frame in Frame::all(mesh) {
            let lab = fault_model::Labelling::<C>::compute(mesh, frame, policy);
            let want = if mesh.wraps() {
                reference::worklist_closure(mesh, frame)
            } else {
                hash(frame, policy)
            };
            for (c, st) in lab.iter() {
                let i = space.index(c);
                assert_eq!(
                    st, want[i],
                    "status at {c:?} ({policy:?}, {frame:?}) on {mesh:?}"
                );
                assert_eq!(
                    lab.is_unsafe(c),
                    st.is_unsafe(),
                    "unsafe set at {c:?} on {mesh:?}"
                );
            }
            let unsafe_count = want.iter().filter(|st| st.is_unsafe()).count();
            assert_eq!(lab.unsafe_count(), unsafe_count, "{mesh:?}");
            cov.labelled += usize::from(lab.sacrificed_count() > 0);
        }
    }
}

/// A random `x` extent of at least `lo`: first the words per row, one to
/// three, then the extent within them.
fn wide_x(rng: &mut SmallRng, lo: i32) -> i32 {
    let words = rng.gen_range(1..=3);
    rng.gen_range(lo.max(64 * (words - 1) + 1)..=130.min(64 * words))
}

/// `cases` random wide 2-D and 3-D meshes and tori from `seed`.
fn wide_battery(seed: u64, cases: usize) -> (WideCoverage, WideCoverage) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut cov2, mut cov3) = (WideCoverage::default(), WideCoverage::default());
    for case in 0..cases {
        let torus = case % 2 == 1;
        let lo = if torus { 3 } else { 1 };
        let (w, h) = (wide_x(&mut rng, lo), rng.gen_range(lo..=7));
        let mesh = if torus {
            Mesh2D::torus(w, h)
        } else {
            Mesh2D::new(w, h)
        };
        let mesh = random_faults(mesh, &mut rng);
        let space = mesh.space();
        let hash = |f, p| {
            let st = reference::HashLabelling2::compute(&mesh, f, p).status;
            (0..space.len()).map(|i| st[&space.coord(i)]).collect()
        };
        check_wide(&mesh, hash, &mut cov2);

        let e = [
            wide_x(&mut rng, lo),
            rng.gen_range(lo..=4),
            rng.gen_range(lo..=4),
        ];
        let mesh = if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        };
        let mesh = random_faults(mesh, &mut rng);
        let space = mesh.space();
        let hash = |f, p| {
            let st = reference::HashLabelling3::compute(&mesh, f, p).status;
            (0..space.len()).map(|i| st[&space.coord(i)]).collect()
        };
        check_wide(&mesh, hash, &mut cov3);
    }
    (cov2, cov3)
}

#[test]
fn labelling_wide_rows_match_references_slice() {
    let (cov2, cov3) = wide_battery(27, 24);
    for cov in [cov2, cov3] {
        assert!(cov.words.iter().all(|&n| n > 0), "{cov:?}");
        assert!(cov.labelled > 0, "{cov:?}");
    }
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn labelling_wide_rows_match_references_full() {
    let (cov2, cov3) = wide_battery(0x51de, 1_000);
    for cov in [cov2, cov3] {
        assert_eq!(cov.words.iter().sum::<usize>(), 1_000);
        assert!(cov.words.iter().all(|&n| n > 100), "{cov:?}");
        assert!(cov.labelled > 0, "{cov:?}");
    }
}
