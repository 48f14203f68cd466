//! Distributed detection ≡ semantic detection on every small fault set.
//!
//! Step 1 of Algorithms 3 and 6 runs twice in this workspace: as the
//! semantic walks and floods of `mcc_routing` (`detect_2d`, `detect_3d`)
//! and as the message protocols of this crate (`route_distributed_2d`'s
//! detection phase, `detect_distributed_3d`). Both call the one step rule
//! (`feasibility2::walk_step`, `feasibility3::Surface`), and this battery
//! checks that their verdicts agree on every fault set of a small window,
//! in the fixed order of the fault-set enumerator, so the failure reported
//! is the first in that order: the fewest faults, then the lowest indices.
//!
//! * 3-D: on the 3×3×3 mesh, every set of up to two faults and every
//!   canonical pair (`s ≤ d`) with safe endpoints. The full battery adds
//!   three faults, and the 3-ary torus with the source at the origin and
//!   every destination through the pair's frame.
//! * 2-D: faults inside the interior of a `k × k` mesh (the
//!   identification walks of the boundary pipeline assume regions off the
//!   border, DESIGN.md §3), every interior fault set and every canonical
//!   pair with safe endpoints: `k = 4` in the slice, `k = 5` on the mesh
//!   and the torus in the full battery.
//!
//! Since both sides share the step rule, each is also checked against an
//! independent witness, so that a fault in the shared rule shows: in 3-D a
//! plain breadth-first transcription of Algorithm 6's floods
//! ([`reference_floods`]), in 2-D Theorem 1, which the walks decide
//! exactly. 3-D detection is not compared with Theorem 2: the floods still
//! differ from it on some one-wide and planar boxes (ROADMAP item 1).
//! `cargo test` runs the slice; the full battery is the ignored test, run
//! in release:
//!
//! ```text
//! cargo test --release -p mcc-protocols --test detection_equiv -- --include-ignored
//! ```

#[path = "../../fault-model/tests/fault_sets/list.rs"]
mod fault_sets;

use std::collections::{HashSet, VecDeque};

use fault_model::condition::evaluate;
use fault_model::oracle::Useful2;
use fault_model::{BorderPolicy, Labelling2, Labelling3};
use fault_sets::FaultSets;
use mcc_protocols::boundary2::build_pipeline_2d;
use mcc_protocols::detect3::detect_distributed_3d;
use mcc_protocols::route2::route_distributed_2d;
use mcc_protocols::DistLabelling3;
use mcc_routing::{detect_2d, detect_3d};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Coord, Frame2, Frame3, Mesh, Mesh2D, Mesh3D, C2, C3};

/// Fault sets per checked range.
const CHUNK: u64 = 8;

/// Every pair `(s, d)` of `nodes` with `s ≤ d`.
fn canonical_pairs<C: Coord>(nodes: &[C]) -> Vec<(C, C)> {
    let mut pairs = Vec::new();
    for &s in nodes {
        for &d in nodes {
            if s.dominated_by(d) {
                pairs.push((s, d));
            }
        }
    }
    pairs
}

/// Check every set of at most `max` faults among `sites` on `clean`; panic
/// with the first failure. Returns the number of sets.
fn exhaust<C: Coord + Sync>(
    clean: &Mesh<C>,
    sites: &[C],
    max: usize,
    check: impl Fn(&Mesh<C>) -> Result<(), String> + Sync,
) -> u64 {
    let sets = FaultSets::new(sites.len(), max);
    let failure = sets.first_failure(CHUNK, |faults| {
        let mut mesh = clean.clone();
        for &i in faults {
            mesh.inject_fault(sites[i]);
        }
        check(&mesh)
    });
    if let Some(f) = failure {
        let faults: Vec<C> = f.faults.iter().map(|&i| sites[i]).collect();
        panic!("set {} with faults {faults:?}: {}", f.index, f.message);
    }
    sets.len()
}

/// Algorithm 6 step 1 transcribed on its own, for canonical safe `s ≤ d`:
/// three breadth-first floods over safe nodes of the box `[s, d]`, each
/// moving along its two main axes and along its detour axis from a node
/// with a blocked in-box main move, and succeeding on reaching its target
/// face. Axes are indices; the pairing is the paper's (`(-X)`, `(-Y)`,
/// `(-Z)` surfaces).
fn reference_floods(lab: &Labelling3, s: C3, d: C3) -> bool {
    let (s3, d3) = (s.xyz(), d.xyz());
    let floods = [([1, 2], 0, 1), ([0, 2], 1, 2), ([0, 1], 2, 0)];
    floods.into_iter().all(|(main, detour, target)| {
        if s3[target] == d3[target] {
            return true;
        }
        let mut seen = HashSet::from([s3]);
        let mut queue = VecDeque::from([s3]);
        while let Some(u) = queue.pop_front() {
            let up = |axis: usize| {
                let mut v = u;
                v[axis] += 1;
                (u[axis] < d3[axis]).then_some(v)
            };
            let safe = |v: [i32; 3]| lab.is_safe(C3::from_xyz(v));
            let mut next: Vec<[i32; 3]> = main.iter().filter_map(|&a| up(a)).collect();
            let blocked = next.iter().any(|&v| !safe(v));
            next.retain(|&v| safe(v));
            if blocked {
                next.extend(up(detour).filter(|&v| safe(v)));
            }
            for v in next {
                if v[target] == d3[target] {
                    return true;
                }
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        false
    })
}

/// The 3-D verdicts on `mesh` for every pair of `pairs` (mesh
/// coordinates), each in its own frame, whose endpoints are safe there.
fn check_3d(mesh: &Mesh3D, pairs: &[(C3, C3)]) -> Result<(), String> {
    let mut labs: Vec<(Frame3, DistLabelling3, Labelling3)> = Vec::new();
    for &(s, d) in pairs {
        if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
            continue;
        }
        let frame = Frame3::for_pair(mesh, s, d);
        let at = match labs.iter().position(|l| l.0 == frame) {
            Some(at) => at,
            None => {
                let dist = DistLabelling3::run(mesh, frame);
                let sem = Labelling3::compute(mesh, frame, BorderPolicy::BorderSafe);
                if !dist.matches(&sem) {
                    return Err(format!("distributed labelling differs in {frame:?}"));
                }
                labs.push((frame, dist, sem));
                labs.len() - 1
            }
        };
        let (_, dist, sem) = &labs[at];
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        if !sem.is_safe(cs) || !sem.is_safe(cd) {
            continue;
        }
        let (distributed, _) = detect_distributed_3d(mesh, dist, cs, cd);
        let semantic = detect_3d(sem, cs, cd).feasible();
        let reference = reference_floods(sem, cs, cd);
        if distributed != semantic || semantic != reference {
            return Err(format!(
                "{s} -> {d}: distributed {distributed}, semantic {semantic}, \
                 reference {reference}"
            ));
        }
    }
    Ok(())
}

/// The 2-D verdicts on `mesh`, in the identity frame, for every canonical
/// pair of `pairs` whose endpoints are safe.
fn check_2d(mesh: &Mesh2D, pairs: &[(C2, C2)]) -> Result<(), String> {
    let frame = Frame2::identity(mesh);
    let sem = Labelling2::compute(mesh, frame, BorderPolicy::BorderSafe);
    let (bound, _) = build_pipeline_2d(mesh, frame);
    for &(s, d) in pairs {
        if !sem.is_safe(s) || !sem.is_safe(d) {
            continue;
        }
        let distributed = route_distributed_2d(mesh, &bound, s, d).feasible;
        let semantic = detect_2d(&sem, s, d).feasible();
        let theorem = evaluate(&sem, s, d, &mut Useful2::scratch()).exists();
        if distributed != semantic || semantic != theorem {
            return Err(format!(
                "{s} -> {d}: distributed {distributed}, semantic {semantic}, \
                 Theorem 1 {theorem}"
            ));
        }
    }
    Ok(())
}

/// Every node of the 3×3×3 box.
fn cube3() -> Vec<C3> {
    (0..27).map(|i| c3(i % 3, i / 3 % 3, i / 9)).collect()
}

/// Every 3-D mesh set of at most `max` faults, every canonical pair.
fn mesh_3d(max: usize) -> u64 {
    let pairs = canonical_pairs(&cube3());
    exhaust(&Mesh3D::kary(3), &cube3(), max, |m| check_3d(m, &pairs))
}

/// Every fault set inside the interior of a `k × k` mesh (or torus),
/// every canonical pair.
fn interior_2d(k: i32, torus: bool) -> u64 {
    let clean = if torus {
        Mesh2D::torus(k, k)
    } else {
        Mesh2D::new(k, k)
    };
    let nodes: Vec<C2> = (0..k * k).map(|i| c2(i % k, i / k)).collect();
    let inner = k - 2;
    let interior: Vec<C2> = (0..inner * inner)
        .map(|i| c2(1 + i % inner, 1 + i / inner))
        .collect();
    let pairs = canonical_pairs(&nodes);
    exhaust(&clean, &interior, interior.len(), |m| check_2d(m, &pairs))
}

#[test]
fn distributed_detection_matches_semantic_detection_slice() {
    assert_eq!(mesh_3d(2), 1 + 27 + 351);
    assert_eq!(interior_2d(4, false), 1 << 4);
}

#[test]
#[ignore = "the full battery; run in release with --include-ignored"]
fn distributed_detection_matches_semantic_detection_full() {
    assert_eq!(mesh_3d(3), 1 + 27 + 351 + 2925);
    let pairs: Vec<(C3, C3)> = cube3().into_iter().map(|d| (C3::ORIGIN, d)).collect();
    let torus = Mesh3D::torus_kary(3);
    let sets = exhaust(&torus, &cube3(), 3, |m| check_3d(m, &pairs));
    assert_eq!(sets, 1 + 27 + 351 + 2925);
    for torus in [false, true] {
        assert_eq!(interior_2d(5, torus), 1 << 9);
    }
}
