//! The Gray-code churn walk: incremental repair ≡ recompute on every edge
//! of the configuration graph of a small mesh.
//!
//! Walk index `i` is the fault set of the binary reflected Gray code
//! `i ^ (i >> 1)` over the node indices, so consecutive sets differ in one
//! node and the walk over `0..2^n` visits every fault set of `n` nodes,
//! each step one inject or one heal on [`IncrementalModels`]. After step
//! `i`, orientation `o` is synced when `i` is a multiple of `o + 1`, so its
//! repair takes the net difference of the last `o + 1` one-node batches,
//! and is pinned against a from-scratch build: statuses, unsafe set,
//! component cells, the component of every node, and MCC shapes.
//!
//! The walk is split into the fixed ranges of [`fault_sets`]: each range
//! starts from fresh models at the set just before its first step, so every
//! step is checked once and the divergence reported is the first in walk
//! order whatever the worker count. `cargo test` walks a 3×4 window of a
//! mesh and of a torus; the full walk (4×4 windows of a mesh and a torus,
//! 2×3×3 and 3×3×2 windows of a 3-D mesh) is the ignored test, run in
//! release:
//!
//! ```text
//! cargo test --release -p fault-model --test gray_churn -- --include-ignored
//! ```

// Only the range checker serves the walk.
#[allow(dead_code)]
#[path = "fault_sets/list.rs"]
mod fault_sets;

use fault_model::components::Components;
use fault_model::labelling::BULK_REPAIR_FANOUT;
use fault_model::{BorderPolicy, IncrementalModels, Labelling, MccSet};
use fault_sets::{first_failure_in, workers, Failure};
use mesh_topo::{Coord, Frame, Mesh, Mesh2D, Mesh3D};

/// Walk steps per checked range.
const CHUNK: u64 = 512;

/// The fault set at walk index `i`, as a bit per node index.
fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// The node indices set in `code`, ascending.
fn nodes(code: u64) -> Vec<usize> {
    (0..64).filter(|b| code >> b & 1 == 1).collect()
}

/// Compare the maintained models of `frame` with a from-scratch build.
fn models_equal_fresh<C: Coord>(
    inc: &mut IncrementalModels<C>,
    frame: Frame<C>,
) -> Result<(), String> {
    let lab = Labelling::compute(inc.mesh(), frame, inc.border());
    let m = inc.models(frame);
    if let Some(((c, a), (_, f))) = m.lab.iter().zip(lab.iter()).find(|(a, f)| a.1 != f.1) {
        return Err(format!("{frame:?}: status at {c} is {a:?}, want {f:?}"));
    }
    if m.lab.unsafe_set() != lab.unsafe_set() {
        return Err(format!("{frame:?}: unsafe set diverged"));
    }
    let comps = Components::compute(&lab);
    if m.comps.cells != comps.cells {
        return Err(format!("{frame:?}: component cells diverged"));
    }
    if let Some((c, _)) = lab
        .iter()
        .find(|&(c, _)| m.comps.component_of(c) != comps.component_of(c))
    {
        return Err(format!("{frame:?}: component of {c} diverged"));
    }
    if *m.mccs != MccSet::compute(&lab) {
        return Err(format!("{frame:?}: MCCs diverged"));
    }
    Ok(())
}

/// Walk every fault set of the `window` box of `host`, its low corner at
/// `corner` (wrapping on a torus), in Gray-code order; panic with the
/// first divergence. Returns the number of steps checked.
fn walk<C: Coord + Sync>(host: &Mesh<C>, window: [i32; 3], corner: [i32; 3]) -> u64 {
    let space = host.space();
    let ext = space.extents();
    let mut cells = Vec::new();
    for z in 0..window[2] {
        for y in 0..window[1] {
            for x in 0..window[0] {
                let at = |a: usize, v: i32| (corner[a] + v).rem_euclid(ext[a] as i32);
                cells.push(C::from_xyz([at(0, x), at(1, y), at(2, z)]));
            }
        }
    }
    // Every sync's net difference (at most one node per lagged batch)
    // must take the worklist repair, not the relabel.
    assert!(space.len() > C::ORIENTATIONS * BULK_REPAIR_FANOUT);
    let frames = Frame::all(host);
    let mesh_at = |code: u64| {
        let mut mesh = host.clone();
        for i in nodes(code) {
            mesh.inject_fault(cells[i]);
        }
        mesh
    };
    let len = 1u64 << cells.len();
    let failure = first_failure_in(len, CHUNK, workers(), |range| {
        // Fresh models at the set before the range's first step.
        let start = range.start.saturating_sub(1);
        let mut inc = IncrementalModels::new(mesh_at(gray(start)), BorderPolicy::BorderSafe);
        for i in range {
            if i > start {
                // Step `i` flips the node of `i`'s lowest set bit.
                let node = cells[i.trailing_zeros() as usize];
                if gray(i) >> i.trailing_zeros() & 1 == 1 {
                    inc.apply(&[node], &[]);
                } else {
                    inc.apply(&[], &[node]);
                }
            }
            for (o, &frame) in frames.iter().enumerate() {
                if i % (o as u64 + 1) == 0 {
                    if let Err(message) = models_equal_fresh(&mut inc, frame) {
                        return Some(Failure {
                            index: i,
                            faults: nodes(gray(i)),
                            message,
                        });
                    }
                }
            }
        }
        None
    });
    if let Some(f) = failure {
        let faults: Vec<C> = f.faults.iter().map(|&i| cells[i]).collect();
        panic!(
            "{ext:?} (torus: {}), step {} to faults {faults:?}: {}",
            host.wraps(),
            f.index,
            f.message
        );
    }
    len
}

#[test]
fn repair_matches_recompute_along_the_gray_walk_slice() {
    // A 3×4 window in the corner of a 14×14 mesh, and across the seams
    // of a 14×14 torus.
    assert_eq!(walk(&Mesh2D::new(14, 14), [3, 4, 1], [0, 0, 0]), 1 << 12);
    assert_eq!(
        walk(&Mesh2D::torus(14, 14), [3, 4, 1], [-1, -2, 0]),
        1 << 12
    );
}

#[test]
#[ignore = "the full walk; run in release with --include-ignored"]
fn repair_matches_recompute_along_the_gray_walk_full() {
    assert_eq!(walk(&Mesh2D::new(14, 14), [4, 4, 1], [0, 0, 0]), 1 << 16);
    assert_eq!(
        walk(&Mesh2D::torus(14, 14), [4, 4, 1], [-2, -2, 0]),
        1 << 16
    );
    assert_eq!(walk(&Mesh3D::kary(8), [2, 3, 3], [0, 0, 0]), 1 << 18);
    assert_eq!(walk(&Mesh3D::kary(8), [3, 3, 2], [0, 0, 0]), 1 << 18);
}

#[test]
fn each_step_flips_the_node_of_its_lowest_set_bit() {
    for i in 1..1u64 << 10 {
        assert_eq!(gray(i) ^ gray(i - 1), 1 << i.trailing_zeros(), "step {i}");
    }
}
