//! The churn equivalence battery (headline artifact of DESIGN.md §12).
//!
//! Random churn traces — interleaved fault injections and heals on 2-D and
//! 3-D meshes **and** tori, under both border policies — are driven
//! through [`IncrementalModels2`] /
//! [`IncrementalModels3`], and after **every** step each maintained model
//! is pinned bit-for-bit against a from-scratch recomputation on the
//! churned mesh:
//!
//! * node statuses and the unsafe [`NodeSet`](mesh_topo::NodeSet),
//! * component cell lists (membership *and* discovery order) and the
//!   component id of every unsafe node,
//! * MCC shapes — `Mcc2`/`Mcc3` are `PartialEq`, so ids, cells, bounds,
//!   profiles and fault/sacrificed splits are all compared at once,
//! * the rectangular block model after its lazy recompute.
//!
//! Orientation sync is deliberately staggered (one orientation synced every
//! step, the rest every few steps) so the log-replay path — not just the
//! single-batch repair — is what the battery exercises.

use fault_model::components::{Components2, Components3};
use fault_model::incremental::{IncrementalModels2, IncrementalModels3};
use fault_model::mcc2::MccSet2;
use fault_model::mcc3::MccSet3;
use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, Labelling2, Labelling3};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};
use proptest::prelude::*;

fn border(blocked: bool) -> BorderPolicy {
    if blocked {
        BorderPolicy::BorderBlocked
    } else {
        BorderPolicy::BorderSafe
    }
}

/// One churn step decoded from raw proptest integers: up to 3 injections
/// and up to 3 heals, both clamped to currently-legal nodes.
fn decode_step_2d(mesh: &Mesh2D, raw: &(Vec<(i32, i32)>, Vec<u8>)) -> (Vec<C2>, Vec<C2>) {
    let (w, h) = (mesh.width(), mesh.height());
    let mut injected = Vec::new();
    for &(x, y) in &raw.0 {
        let c = c2(x.rem_euclid(w), y.rem_euclid(h));
        if mesh.is_healthy(c) && !injected.contains(&c) {
            injected.push(c);
        }
    }
    let faults = mesh.faults();
    let mut healed = Vec::new();
    for &pick in &raw.1 {
        if faults.is_empty() {
            break;
        }
        let c = faults[pick as usize % faults.len()];
        if !healed.contains(&c) {
            healed.push(c);
        }
    }
    (injected, healed)
}

fn decode_step_3d(mesh: &Mesh3D, raw: &(Vec<(i32, i32, i32)>, Vec<u8>)) -> (Vec<C3>, Vec<C3>) {
    let (nx, ny, nz) = (mesh.nx(), mesh.ny(), mesh.nz());
    let mut injected = Vec::new();
    for &(x, y, z) in &raw.0 {
        let c = c3(x.rem_euclid(nx), y.rem_euclid(ny), z.rem_euclid(nz));
        if mesh.is_healthy(c) && !injected.contains(&c) {
            injected.push(c);
        }
    }
    let faults = mesh.faults();
    let mut healed = Vec::new();
    for &pick in &raw.1 {
        if faults.is_empty() {
            break;
        }
        let c = faults[pick as usize % faults.len()];
        if !healed.contains(&c) {
            healed.push(c);
        }
    }
    (injected, healed)
}

/// Pin every maintained 2-D model of `frame` against from-scratch twins.
fn assert_models_equal_fresh_2d(inc: &mut IncrementalModels2, frame: Frame2) {
    let mesh = inc.mesh().clone();
    let b = inc.border();
    let m = inc.models(frame);
    let lab = Labelling2::compute(&mesh, frame, b);
    for ((c, a), (_, f)) in m.lab.iter().zip(lab.iter()) {
        assert_eq!(a, f, "status diverged at {c} for {frame:?}");
    }
    assert_eq!(m.lab.unsafe_set(), lab.unsafe_set(), "unsafe set diverged");
    let comps = Components2::compute(&lab);
    assert_eq!(m.comps.cells, comps.cells, "component cells diverged");
    for cells in &comps.cells {
        for &c in cells {
            assert_eq!(
                m.comps.component_of(c),
                comps.component_of(c),
                "component id diverged at {c}"
            );
        }
    }
    assert_eq!(m.mccs.mccs, MccSet2::compute(&lab).mccs, "MCCs diverged");
}

fn assert_models_equal_fresh_3d(inc: &mut IncrementalModels3, frame: Frame3) {
    let mesh = inc.mesh().clone();
    let b = inc.border();
    let m = inc.models(frame);
    let lab = Labelling3::compute(&mesh, frame, b);
    for ((c, a), (_, f)) in m.lab.iter().zip(lab.iter()) {
        assert_eq!(a, f, "status diverged at {c} for {frame:?}");
    }
    assert_eq!(m.lab.unsafe_set(), lab.unsafe_set(), "unsafe set diverged");
    let comps = Components3::compute(&lab);
    assert_eq!(m.comps.cells, comps.cells, "component cells diverged");
    for cells in &comps.cells {
        for &c in cells {
            assert_eq!(
                m.comps.component_of(c),
                comps.component_of(c),
                "component id diverged at {c}"
            );
        }
    }
    assert_eq!(m.mccs.mccs, MccSet3::compute(&lab).mccs, "MCCs diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-D: every orientation's maintained labelling, components and MCCs
    /// stay bit-for-bit equal to from-scratch recomputation after every
    /// step of a random inject/heal trace, on mesh and torus, both border
    /// policies.
    #[test]
    fn incremental_equals_fresh_2d(
        dims in (7..13i32, 7..13i32),
        torus in any::<bool>(),
        border_blocked in any::<bool>(),
        init in proptest::collection::vec((0..13i32, 0..13i32), 0..18),
        trace in proptest::collection::vec(
            (proptest::collection::vec((0..13i32, 0..13i32), 0..3),
             proptest::collection::vec(any::<u8>(), 0..3)),
            1..10),
    ) {
        let (w, h) = dims;
        let mut mesh = if torus { Mesh2D::torus(w, h) } else { Mesh2D::new(w, h) };
        for (x, y) in init {
            let c = c2(x % w, y % h);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let mut inc = IncrementalModels2::new(mesh, border(border_blocked));
        let frames = Frame2::all(inc.mesh());
        for (step, raw) in trace.iter().enumerate() {
            let (injected, healed) = decode_step_2d(inc.mesh(), raw);
            inc.apply(&injected, &healed);
            // Stagger sync: the first orientation every step, the rest only
            // every other step, so slots replay logs of varying depth.
            let sync = if step % 2 == 0 { frames.len() } else { 1 };
            for &frame in frames.iter().take(sync) {
                assert_models_equal_fresh_2d(&mut inc, frame);
            }
            let fresh_blocks = FaultBlocks2::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks.clone(), fresh_blocks.blocks);
        }
        for frame in frames {
            assert_models_equal_fresh_2d(&mut inc, frame);
        }
    }

    /// 3-D twin of the battery above (k-ary meshes and tori).
    #[test]
    fn incremental_equals_fresh_3d(
        k in 5..8i32,
        torus in any::<bool>(),
        border_blocked in any::<bool>(),
        init in proptest::collection::vec((0..8i32, 0..8i32, 0..8i32), 0..16),
        trace in proptest::collection::vec(
            (proptest::collection::vec((0..8i32, 0..8i32, 0..8i32), 0..3),
             proptest::collection::vec(any::<u8>(), 0..3)),
            1..7),
    ) {
        let mut mesh = if torus { Mesh3D::torus(k, k, k) } else { Mesh3D::kary(k) };
        for (x, y, z) in init {
            let c = c3(x % k, y % k, z % k);
            if mesh.is_healthy(c) {
                mesh.inject_fault(c);
            }
        }
        let mut inc = IncrementalModels3::new(mesh, border(border_blocked));
        // Eight octant slots are too slow to pin all per step; pin the two
        // that stagger most (identity synced every step, one reflected
        // octant every other step) plus a full pass at the end.
        let frames = Frame3::all(inc.mesh());
        for (step, raw) in trace.iter().enumerate() {
            let (injected, healed) = decode_step_3d(inc.mesh(), raw);
            inc.apply(&injected, &healed);
            assert_models_equal_fresh_3d(&mut inc, frames[0]);
            if step % 2 == 1 {
                assert_models_equal_fresh_3d(&mut inc, frames[5]);
            }
            let fresh_blocks = FaultBlocks3::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks.clone(), fresh_blocks.blocks);
        }
        for frame in [frames[0], frames[3], frames[5], frames[7]] {
            assert_models_equal_fresh_3d(&mut inc, frame);
        }
    }
}
