//! Churn-batch validation ≡ the node-set scan it replaced.
//!
//! On random batches over 2-D and 3-D meshes and tori, the one validation
//! routine ([`CheckedBatch::new`], behind [`IncrementalModels::check`] and
//! [`IncrementalModels::try_apply`]) must return the same `Ok` or the same
//! [`ChurnError`], coordinate included, as the reference in
//! `reference/churn.rs`. The batches draw healthy and faulty nodes, nodes
//! outside the mesh, repeats and nodes of the other set, often several in
//! one batch. A batch both accept is applied both ways — by
//! `try_apply`'s index flips and by the reference's `inject_fault_set` /
//! `heal_fault_set` — and the fault list and bitset must agree.

#[path = "reference/churn.rs"]
mod reference;

use fault_model::{BorderPolicy, CheckedBatch, ChurnError, IncrementalModels};
use mesh_topo::{Coord, Mesh, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which `ChurnError` variant (or `Ok`, 6) an outcome is.
fn kind<C, T>(r: &Result<T, ChurnError<C>>) -> usize {
    match r {
        Err(ChurnError::OutOfBounds(_)) => 0,
        Err(ChurnError::DuplicateInjected(_)) => 1,
        Err(ChurnError::DuplicateHealed(_)) => 2,
        Err(ChurnError::Overlap(_)) => 3,
        Err(ChurnError::AlreadyFaulty(_)) => 4,
        Err(ChurnError::NotFaulty(_)) => 5,
        Ok(_) => 6,
    }
}

/// A node for a batch: mostly in the mesh, sometimes just past an edge,
/// sometimes a repeat of a node already drawn for either set.
fn draw<C: Coord>(rng: &mut SmallRng, ext: [usize; 3], dims: usize, seen: &[C]) -> C {
    match rng.gen_range(0..10) {
        0..=1 if !seen.is_empty() => seen[rng.gen_range(0..seen.len())],
        2 => {
            let mut p = [0i32; 3];
            for (axis, v) in p.iter_mut().enumerate().take(dims) {
                *v = rng.gen_range(0..ext[axis] as i32);
            }
            let axis = rng.gen_range(0..dims);
            p[axis] = if rng.gen_bool(0.5) {
                -1
            } else {
                ext[axis] as i32
            };
            C::from_xyz(p)
        }
        _ => {
            let mut p = [0i32; 3];
            for (axis, v) in p.iter_mut().enumerate().take(dims) {
                *v = rng.gen_range(0..ext[axis] as i32);
            }
            C::from_xyz(p)
        }
    }
}

/// Check `batches` random batches against `mesh` and its churn; returns
/// how often each outcome (see [`kind`]) came up.
fn battery<C: Coord>(mesh: Mesh<C>, seed: u64, batches: usize) -> [usize; 7] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let space = mesh.space();
    let (ext, dims) = (space.extents(), C::DIMS);
    let mut inc = IncrementalModels::new(mesh, BorderPolicy::BorderSafe);
    let mut seen = [0usize; 7];
    for step in 0..batches {
        let mut both: Vec<C> = Vec::new();
        let injected: Vec<C> = (0..rng.gen_range(0..5))
            .map(|_| {
                let c = draw(&mut rng, ext, dims, &both);
                both.push(c);
                c
            })
            .collect();
        // Heals lean on the faults so that valid heals come up too.
        let faults = inc.mesh().faults().to_vec();
        let healed: Vec<C> = (0..rng.gen_range(0..5))
            .map(|_| {
                let c = if !faults.is_empty() && rng.gen_bool(0.6) {
                    faults[rng.gen_range(0..faults.len())]
                } else {
                    draw(&mut rng, ext, dims, &both)
                };
                both.push(c);
                c
            })
            .collect();

        let want = reference::validated_sets(inc.mesh(), &injected, &healed);
        let got = CheckedBatch::new(space, inc.mesh().fault_set(), &injected, &healed);
        let ctx = || format!("step {step}: injected {injected:?}, healed {healed:?}");
        assert_eq!(got.as_ref().err(), want.as_ref().err(), "{}", ctx());
        assert_eq!(
            inc.check(&injected, &healed),
            want.as_ref().map(drop).map_err(|e| *e)
        );
        seen[kind(&want)] += 1;

        let mut expect = inc.mesh().clone();
        let got = inc.try_apply(&injected, &healed);
        assert_eq!(got.is_ok(), want.is_ok(), "{}", ctx());
        if let Ok((inj, heal)) = want {
            expect.inject_fault_set(&inj);
            expect.heal_fault_set(&heal);
        }
        assert_eq!(inc.mesh().faults(), expect.faults(), "{}", ctx());
        assert_eq!(inc.mesh().fault_set(), expect.fault_set(), "{}", ctx());
    }
    seen
}

#[test]
fn batch_check_matches_the_node_set_scan_on_meshes_and_tori() {
    let mut seen = [0usize; 7];
    let runs = [
        battery(Mesh2D::new(5, 4), 1, 3000),
        battery(Mesh2D::torus(4, 5), 2, 3000),
        battery(Mesh3D::new(3, 4, 3), 3, 3000),
        battery(Mesh3D::torus(3, 3, 4), 4, 3000),
    ];
    for run in runs {
        for (total, n) in seen.iter_mut().zip(run) {
            *total += n;
        }
    }
    // Every outcome must come up often, or the battery proves little.
    for (k, &n) in seen.iter().enumerate() {
        assert!(n >= 100, "outcome {k} came up {n} times: {seen:?}");
    }
}

#[test]
fn several_faults_in_one_batch_report_the_first_in_scan_order() {
    use mesh_topo::coord::c2;
    let mut mesh = Mesh2D::new(4, 4);
    mesh.inject_fault(c2(1, 1));
    let space = mesh.space();
    let faulty = mesh.fault_set();
    let check = |inj: &[_], heal: &[_]| CheckedBatch::new(space, faulty, inj, heal).map(drop);
    // A repeat before the first outside node wins; after it, the outside
    // node does.
    let (a, b, out) = (c2(0, 0), c2(2, 2), c2(4, 0));
    assert_eq!(
        check(&[a, b, a, out], &[]),
        Err(ChurnError::DuplicateInjected(a))
    );
    assert_eq!(check(&[a, out, a], &[]), Err(ChurnError::OutOfBounds(out)));
    // The later of two repeats in input order is not the one reported:
    // the scan meets b's repeat first.
    assert_eq!(
        check(&[a, b, b, a], &[]),
        Err(ChurnError::DuplicateInjected(b))
    );
    // The injected set is scanned before the healed one.
    assert_eq!(
        check(&[a, a], &[out]),
        Err(ChurnError::DuplicateInjected(a))
    );
    assert_eq!(
        check(&[a], &[out, c2(1, 1)]),
        Err(ChurnError::OutOfBounds(out))
    );
    // Overlap precedes the fault probes; the first healed node in input
    // order that is also injected is reported.
    assert_eq!(
        check(&[c2(1, 1), b, a], &[c2(3, 3), a, b]),
        Err(ChurnError::Overlap(a))
    );
    assert_eq!(
        check(&[b, c2(1, 1)], &[c2(3, 3)]),
        Err(ChurnError::AlreadyFaulty(c2(1, 1)))
    );
    assert_eq!(
        check(&[b], &[c2(1, 1), c2(3, 3)]),
        Err(ChurnError::NotFaulty(c2(3, 3)))
    );
    assert_eq!(check(&[b, a], &[c2(1, 1)]), Ok(()));
}
