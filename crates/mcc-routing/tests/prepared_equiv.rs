//! Property battery: the prepared (amortized) trial pipeline is
//! observationally identical to the fresh-per-trial functions.
//!
//! For random meshes, fault ramps, border policies and `TrialOptions`
//! combinations, a batch of pairs run through one
//! [`PreparedMesh2`]/[`PreparedMesh3`] must produce `TrialResult`s whose
//! every field — including the adaptivity and detection floats, compared
//! bit-for-bit — equals a fresh `run_trial_*_with` call on the same
//! inputs. This is the contract that lets `mcc-bench` swap the batched
//! runner in without perturbing a single table row.

use fault_model::BorderPolicy;
use mcc_routing::prepared::{PreparedMesh2, PreparedMesh3};
use mcc_routing::trial::run_trial_with;
use mcc_routing::TrialOptions;
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Mesh2D, Mesh3D};
use proptest::prelude::*;

fn options(border_blocked: bool, mcc: bool, rfb: bool, greedy: bool) -> TrialOptions {
    TrialOptions {
        border: if border_blocked {
            BorderPolicy::BorderBlocked
        } else {
            BorderPolicy::BorderSafe
        },
        eval_mcc: mcc,
        eval_rfb: rfb,
        eval_greedy: greedy,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D: every pair of a batch agrees with its fresh twin, across all
    /// 16 `TrialOptions` combinations and both border policies.
    #[test]
    fn prepared_equals_fresh_2d(
        dims in (6..14i32, 6..14i32),
        faults in proptest::collection::vec((0..14i32, 0..14i32), 0..24),
        pairs in proptest::collection::vec((0..14i32, 0..14i32, 0..14i32, 0..14i32), 1..10),
        border_blocked in any::<bool>(),
        eval_mcc in any::<bool>(),
        eval_rfb in any::<bool>(),
        eval_greedy in any::<bool>(),
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
        let opts = options(border_blocked, eval_mcc, eval_rfb, eval_greedy);
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
        eval_mcc in any::<bool>(),
        eval_rfb in any::<bool>(),
        eval_greedy in any::<bool>(),
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
        let opts = options(border_blocked, eval_mcc, eval_rfb, eval_greedy);
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
        eval_mcc in any::<bool>(),
        eval_rfb in any::<bool>(),
        eval_greedy in any::<bool>(),
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
        let opts = options(false, eval_mcc, eval_rfb, eval_greedy);
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
        eval_mcc in any::<bool>(),
        eval_rfb in any::<bool>(),
        eval_greedy in any::<bool>(),
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
        let opts = options(false, eval_mcc, eval_rfb, eval_greedy);
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
