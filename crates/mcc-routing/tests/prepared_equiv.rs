//! Property batteries: the prepared (amortized) trial pipeline is
//! observationally identical to the fresh-per-trial functions, and to the
//! decomposed public calls that build every MCC set.
//!
//! For random meshes, fault ramps and both border policies (the one
//! `TrialOptions` knob), a batch of pairs run through one
//! [`PreparedMesh2`]/[`PreparedMesh3`] must produce `TrialResult`s whose
//! every field — including the adaptivity and detection floats, compared
//! bit-for-bit — equals a fresh `run_trial_*_with` call on the same
//! inputs. This is the contract that lets `mcc-bench` swap the batched
//! runner in without perturbing a single table row.
//!
//! A trial builds no MCC set: it evaluates Theorems 1 and 2 and the exact
//! rule over the labelling's unsafe closure. The decomposed battery pins
//! that against the pipeline spelled out in public calls — `MccSet2/3::
//! compute`, `minimal_path_exists_{2d,3d}_in`, `Router2/3::new(lab,
//! &mccs)` under `BoundaryExact`, `FaultBlocks::compute` and the two
//! baselines — on meshes and tori of both dimensions, under both border
//! policies. `cargo test` runs a slice; the full battery is the
//! ignored test, run in release:
//!
//! ```text
//! cargo test --release -p mcc-routing --test prepared_equiv -- --include-ignored
//! ```

use fault_model::mcc2::MccSet2;
use fault_model::mcc3::MccSet3;
use fault_model::oracle::{self, Useful2, Useful3};
use fault_model::{minimal_path_exists_2d_in, minimal_path_exists_3d_in};
use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, FaultRegime, Labelling2, Labelling3};
use mcc_routing::prepared::{PreparedMesh2, PreparedMesh3};
use mcc_routing::router2::DecisionRule;
use mcc_routing::trial::run_trial_with;
use mcc_routing::{baseline, Policy, RouteScratch3, RouteSummary, Router2, Router3};
use mcc_routing::{TrialOptions, TrialResult};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn options(border_blocked: bool) -> TrialOptions {
    TrialOptions {
        border: if border_blocked {
            BorderPolicy::BorderBlocked
        } else {
            BorderPolicy::BorderSafe
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D: every pair of a batch agrees with its fresh twin, under both
    /// border policies.
    #[test]
    fn prepared_equals_fresh_2d(
        dims in (6..14i32, 6..14i32),
        faults in proptest::collection::vec((0..14i32, 0..14i32), 0..24),
        pairs in proptest::collection::vec((0..14i32, 0..14i32, 0..14i32, 0..14i32), 1..10),
        border_blocked in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims;
        let mut mesh = Mesh2D::new(w, h);
        for (x, y) in faults {
            let c = c2(x % w, y % h);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let opts = options(border_blocked);
        let mut pm = PreparedMesh2::new(&mesh, opts);
        for (i, (sx, sy, dx, dy)) in pairs.into_iter().enumerate() {
            let s = c2(sx % w, sy % h);
            let d = c2(dx % w, dy % h);
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let policy_seed = seed.wrapping_add(i as u64);
            let prepared = pm.run_trial(s, d, policy_seed);
            let fresh = run_trial_with(&mesh, s, d, policy_seed, &opts);
            prop_assert!(
                prepared.bit_identical(&fresh),
                "pair {s}->{d} opts {opts:?} faults {:?}: {prepared:?} != {fresh:?}",
                mesh.faults()
            );
        }
    }

    /// 3-D twin of the battery above.
    #[test]
    fn prepared_equals_fresh_3d(
        k in (5..9i32,),
        faults in proptest::collection::vec((0..9i32, 0..9i32, 0..9i32), 0..28),
        pairs in proptest::collection::vec(
            (0..9i32, 0..9i32, 0..9i32, 0..9i32, 0..9i32, 0..9i32),
            1..8,
        ),
        border_blocked in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = k.0;
        let mut mesh = Mesh3D::kary(k);
        for (x, y, z) in faults {
            let c = c3(x % k, y % k, z % k);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let opts = options(border_blocked);
        let mut pm = PreparedMesh3::new(&mesh, opts);
        for (i, (sx, sy, sz, dx, dy, dz)) in pairs.into_iter().enumerate() {
            let s = c3(sx % k, sy % k, sz % k);
            let d = c3(dx % k, dy % k, dz % k);
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let policy_seed = seed.wrapping_add(i as u64);
            let prepared = pm.run_trial(s, d, policy_seed);
            let fresh = run_trial_with(&mesh, s, d, policy_seed, &opts);
            prop_assert!(
                prepared.bit_identical(&fresh),
                "pair {s}->{d} opts {opts:?} faults {:?}: {prepared:?} != {fresh:?}",
                mesh.faults()
            );
        }
    }

    /// 2-D torus: the cache key now includes the pair-specific rotation of
    /// the wrap frame; batches must still equal their fresh twins
    /// bit-for-bit (and the repeated-pair entries exercise slot reuse).
    #[test]
    fn prepared_equals_fresh_torus_2d(
        dims in (3..12i32, 3..12i32),
        faults in proptest::collection::vec((0..12i32, 0..12i32), 0..20),
        pairs in proptest::collection::vec((0..12i32, 0..12i32, 0..12i32, 0..12i32), 1..10),
        seed in any::<u64>(),
    ) {
        let (w, h) = dims;
        let mut mesh = Mesh2D::torus(w, h);
        for (x, y) in faults {
            let c = c2(x % w, y % h);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let opts = TrialOptions::default();
        let mut pm = PreparedMesh2::new(&mesh, opts);
        // Run the batch twice: the second lap re-hits every slot with a
        // frame already seen, the aliasing case the full-frame key guards.
        let pairs2 = pairs.clone();
        for (i, (sx, sy, dx, dy)) in pairs.into_iter().chain(pairs2).enumerate() {
            let s = c2(sx % w, sy % h);
            let d = c2(dx % w, dy % h);
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let policy_seed = seed.wrapping_add(i as u64);
            let prepared = pm.run_trial(s, d, policy_seed);
            let fresh = run_trial_with(&mesh, s, d, policy_seed, &opts);
            prop_assert!(
                prepared.bit_identical(&fresh),
                "torus pair {s}->{d} opts {opts:?} faults {:?}: {prepared:?} != {fresh:?}",
                mesh.faults()
            );
        }
    }

    /// 3-D torus twin.
    #[test]
    fn prepared_equals_fresh_torus_3d(
        dims in (3..7i32, 3..7i32, 3..7i32),
        faults in proptest::collection::vec((0..7i32, 0..7i32, 0..7i32), 0..24),
        pairs in proptest::collection::vec(
            (0..7i32, 0..7i32, 0..7i32, 0..7i32, 0..7i32, 0..7i32),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let (nx, ny, nz) = dims;
        let mut mesh = Mesh3D::torus(nx, ny, nz);
        for (x, y, z) in faults {
            let c = c3(x % nx, y % ny, z % nz);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let opts = TrialOptions::default();
        let mut pm = PreparedMesh3::new(&mesh, opts);
        let pairs2 = pairs.clone();
        for (i, (sx, sy, sz, dx, dy, dz)) in pairs.into_iter().chain(pairs2).enumerate() {
            let s = c3(sx % nx, sy % ny, sz % nz);
            let d = c3(dx % nx, dy % ny, dz % nz);
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let policy_seed = seed.wrapping_add(i as u64);
            let prepared = pm.run_trial(s, d, policy_seed);
            let fresh = run_trial_with(&mesh, s, d, policy_seed, &opts);
            prop_assert!(
                prepared.bit_identical(&fresh),
                "torus pair {s}->{d} opts {opts:?} faults {:?}: {prepared:?} != {fresh:?}",
                mesh.faults()
            );
        }
    }
}

/// A trial's result from its parts: the three admission verdicts, the
/// endpoint safety and the summaries of the routes that ran. The routes'
/// seeds and the fields they fill are those of `PreparedMesh::run_trial`.
fn assemble(
    [oracle_ok, mcc_ok, rfb_ok, endpoints_safe]: [bool; 4],
    greedy: RouteSummary,
    mcc: Option<RouteSummary>,
    rfb: Option<RouteSummary>,
) -> TrialResult {
    let mut r = TrialResult {
        oracle_ok,
        mcc_ok,
        rfb_ok,
        endpoints_safe,
        greedy_ok: greedy.delivered,
        ..TrialResult::default()
    };
    if let Some(out) = mcc {
        r.detection_cost = out.detection_cost;
        if out.delivered {
            r.mcc_delivered = true;
            r.mcc_hops = out.hops;
            r.mcc_adaptivity = out.adaptivity;
        }
    }
    if let Some(out) = rfb.filter(|o| o.delivered) {
        r.rfb_adaptivity = out.adaptivity;
    }
    r
}

/// One 2-D trial through the public per-layer calls, building the MCC set
/// of the pair's quadrant and routing with it.
fn decomposed_2d(mesh: &Mesh2D, s: C2, d: C2, seed: u64, opts: &TrialOptions) -> TrialResult {
    let frame = Frame2::for_pair(mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let lab = Labelling2::compute(mesh, frame, opts.border);
    let mccs = MccSet2::compute(&lab);
    let blocks = FaultBlocks2::compute(mesh);
    let oracle_ok = oracle::reachable_2d(cs, cd, |c| mesh.is_faulty(frame.from_canon(c)));
    let mut useful = Useful2::scratch();
    let mcc_ok = minimal_path_exists_2d_in(&lab, &mccs, cs, cd, &mut useful).exists();
    let rfb_ok = blocks.minimal_path_exists_in(mesh, s, d, &mut useful);
    let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);
    let greedy = baseline::route_greedy_2d(&lab, cs, cd, &mut Policy::random(seed)).summary();
    let mcc = endpoints_safe.then(|| {
        let policy = &mut Policy::random(seed ^ 0x9e37_79b9);
        Router2::new(&lab, &mccs)
            .route_with_rule_in(cs, cd, policy, DecisionRule::BoundaryExact, &mut useful)
            .summary()
    });
    let rfb = rfb_ok.then(|| {
        let policy = &mut Policy::random(seed ^ 0x51);
        baseline::route_rfb_2d_in(&blocks, mesh, s, d, policy, &mut useful).summary()
    });
    assemble(
        [oracle_ok, mcc_ok, rfb_ok, endpoints_safe],
        greedy,
        mcc,
        rfb,
    )
}

/// 3-D twin of [`decomposed_2d`].
fn decomposed_3d(mesh: &Mesh3D, s: C3, d: C3, seed: u64, opts: &TrialOptions) -> TrialResult {
    let frame = Frame3::for_pair(mesh, s, d);
    let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
    let lab = Labelling3::compute(mesh, frame, opts.border);
    let mccs = MccSet3::compute(&lab);
    let blocks = FaultBlocks3::compute(mesh);
    let oracle_ok = oracle::reachable_3d(cs, cd, |c| mesh.is_faulty(frame.from_canon(c)));
    let mut useful = Useful3::scratch();
    let mcc_ok = minimal_path_exists_3d_in(&lab, cs, cd, &mut useful).exists();
    let rfb_ok = blocks.minimal_path_exists_in(mesh, s, d, &mut useful);
    let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);
    let greedy = baseline::route_greedy_3d(&lab, cs, cd, &mut Policy::random(seed)).summary();
    let mcc = endpoints_safe.then(|| {
        let policy = &mut Policy::random(seed ^ 0x9e37_79b9);
        Router3::new(&lab, &mccs)
            .route_with_rule_in(
                cs,
                cd,
                policy,
                DecisionRule::BoundaryExact,
                &mut RouteScratch3::new(),
            )
            .summary()
    });
    let rfb = rfb_ok.then(|| {
        let policy = &mut Policy::random(seed ^ 0x51);
        baseline::route_rfb_3d_in(&blocks, mesh, s, d, policy, &mut useful).summary()
    });
    assemble(
        [oracle_ok, mcc_ok, rfb_ok, endpoints_safe],
        greedy,
        mcc,
        rfb,
    )
}

/// Run `cases` random 2-D and `cases` random 3-D fault configurations
/// from `seed`, every other one a torus, alternating the border policy
/// every two cases, and require every pair of a batch through one
/// prepared mesh to equal its decomposed trial. Returns the number of
/// pairs checked.
fn decomposed_battery(seed: u64, cases: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs = 0;
    for case in 0..cases {
        let torus = case % 2 == 1;
        let opts = options(case / 2 % 2 == 1);
        let lo = if torus { 3 } else { 2 };
        let share = rng.gen_range(0.0..0.3);

        let (w, h) = (rng.gen_range(lo..=12), rng.gen_range(lo..=12));
        let mut mesh = if torus {
            Mesh2D::torus(w, h)
        } else {
            Mesh2D::new(w, h)
        };
        let count = (share * (w * h) as f64) as usize;
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], opts.border);
        let mut pm = PreparedMesh2::new(&mesh, opts);
        for _ in 0..8 {
            let at = |rng: &mut SmallRng| c2(rng.gen_range(0..w), rng.gen_range(0..h));
            let (s, d, policy_seed) = (at(&mut rng), at(&mut rng), rng.gen());
            if mesh.is_healthy(s) && mesh.is_healthy(d) {
                let (got, want) = (
                    pm.run_trial(s, d, policy_seed),
                    decomposed_2d(&mesh, s, d, policy_seed, &opts),
                );
                assert!(
                    got.bit_identical(&want),
                    "{mesh:?} {s}->{d} seed {policy_seed} {opts:?}: {got:?} != {want:?}"
                );
                pairs += 1;
            }
        }

        let e = [0; 3].map(|_| rng.gen_range(lo..=7));
        let mut mesh = if torus {
            Mesh3D::torus(e[0], e[1], e[2])
        } else {
            Mesh3D::new(e[0], e[1], e[2])
        };
        let count = (share * (e[0] * e[1] * e[2]) as f64) as usize;
        FaultRegime::Uniform.inject(&mut mesh, count, rng.gen(), &[], opts.border);
        let mut pm = PreparedMesh3::new(&mesh, opts);
        for _ in 0..8 {
            let at = |rng: &mut SmallRng| e.map(|n| rng.gen_range(0..n));
            let ([sx, sy, sz], [dx, dy, dz]) = (at(&mut rng), at(&mut rng));
            let (s, d, policy_seed) = (c3(sx, sy, sz), c3(dx, dy, dz), rng.gen());
            if mesh.is_healthy(s) && mesh.is_healthy(d) {
                let (got, want) = (
                    pm.run_trial(s, d, policy_seed),
                    decomposed_3d(&mesh, s, d, policy_seed, &opts),
                );
                assert!(
                    got.bit_identical(&want),
                    "{mesh:?} {s}->{d} seed {policy_seed} {opts:?}: {got:?} != {want:?}"
                );
                pairs += 1;
            }
        }
    }
    pairs
}

#[test]
fn trial_matches_mcc_set_pipeline_slice() {
    // Forty laps of both border policies, each on a mesh and a torus.
    assert!(decomposed_battery(41, 160) > 1_500);
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn trial_matches_mcc_set_pipeline_full() {
    assert!(decomposed_battery(0xdec0, 20_000) > 200_000);
}
