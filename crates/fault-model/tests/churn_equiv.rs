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
//!   component id of every node (a safe node must have none),
//! * MCC shapes — `Mcc2`/`Mcc3` are `PartialEq`, so cells, bounds,
//!   profiles and fault/sacrificed splits are all compared at once, and
//!   the list order pins the ids,
//! * the rectangular block model after its lazy recompute.
//!
//! Orientation sync is deliberately staggered (one orientation synced every
//! step, the rest every few steps) so the log-replay path — not just the
//! single-batch repair — is what the battery exercises. The service-shaped
//! lag battery goes further: many fault regions, and every octant synced at
//! lags from one step to past [`LOG_CAP`], so a sync both replays long
//! windows and drops and rebuilds its slot. Its full size runs with
//! `--include-ignored` in release.

use fault_model::components::Components;
use fault_model::incremental::{
    IncrementalModels, IncrementalModels2, IncrementalModels3, LOG_CAP,
};
use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, Labelling, ModelSpace};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Frame2, Frame3, Mesh, Mesh2D, Mesh3D, NodeSpace2, NodeSpace3, Space};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn border(blocked: bool) -> BorderPolicy {
    if blocked {
        BorderPolicy::BorderBlocked
    } else {
        BorderPolicy::BorderSafe
    }
}

/// One churn step decoded from raw proptest integers: the distinct healthy
/// nodes of `inject` (up to 3) and up to one heal per `picks` entry (up to
/// 3), both clamped to currently-legal nodes.
fn decode_step<S: Space>(
    mesh: &Mesh<S>,
    inject: impl Iterator<Item = S::Coord>,
    picks: &[u8],
) -> (Vec<S::Coord>, Vec<S::Coord>) {
    let (space, faulty) = (mesh.space(), mesh.fault_set());
    let mut injected = Vec::new();
    for c in inject {
        if !faulty.contains(space.index(c)) && !injected.contains(&c) {
            injected.push(c);
        }
    }
    let faults = mesh.faults();
    let mut healed = Vec::new();
    for &pick in picks {
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

/// Pin every maintained model of `frame` against from-scratch twins.
fn assert_models_equal_fresh<S: ModelSpace>(inc: &mut IncrementalModels<S>, frame: S::Frame)
where
    S::Mccs: PartialEq,
{
    let mesh = inc.mesh().clone();
    let b = inc.border();
    let m = inc.models(frame);
    let lab = Labelling::compute(&mesh, frame, b);
    for ((c, a), (_, f)) in m.lab.iter().zip(lab.iter()) {
        assert_eq!(a, f, "status diverged at {c} for {frame:?}");
    }
    assert_eq!(m.lab.unsafe_set(), lab.unsafe_set(), "unsafe set diverged");
    let comps = Components::compute(&lab);
    assert_eq!(m.comps.cells, comps.cells, "component cells diverged");
    for (c, _) in lab.iter() {
        assert_eq!(
            m.comps.component_of(c),
            comps.component_of(c),
            "component id diverged at {c}"
        );
    }
    assert_eq!(m.mccs, &S::mccs(&lab), "MCCs diverged");
}

/// The sync lags of the lag battery: replays of one, two and seven
/// batches, the longest replay the log allows, and one lag past it, which
/// drops the slot and rebuilds it on the next sync.
const LAGS: [u64; 5] = [1, 2, 7, LOG_CAP - 1, LOG_CAP + 1];

/// Service-shaped lag battery: a `k`³ mesh at about 1.5 % faults, one heal
/// plus one inject per step, and each of the first `octants` octants synced
/// (and checked against fresh models) at lags drawn from [`LAGS`]. Steps
/// `flip` and `flip + 1` inject and then heal the same node while no
/// octant syncs, so every window spanning them replays a node that flips
/// and flips back.
fn lagged_octants_equal_fresh(k: i32, steps: u64, octants: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let random_node = |rng: &mut SmallRng| {
        c3(
            rng.gen_range(0..k),
            rng.gen_range(0..k),
            rng.gen_range(0..k),
        )
    };
    let mut mesh = Mesh3D::kary(k);
    let target = (k * k * k) as usize * 3 / 200;
    while mesh.faults().len() < target {
        let c = random_node(&mut rng);
        mesh.inject_fault(c);
    }
    let mut inc = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
    let frames = &Frame3::all(inc.mesh())[..octants];
    let flip = steps / 2;
    let mut next_sync = vec![0; octants];
    let mut flipped = None;
    for step in 0..steps {
        if step == flip - 1 {
            // Sync every octant now and none at `flip`.
            next_sync.iter_mut().for_each(|n| *n = step);
        }
        let faults = inc.mesh().faults().to_vec();
        let heal = match flipped {
            Some(c) if step == flip + 1 => c,
            _ => faults[rng.gen_range(0..faults.len())],
        };
        let inject = loop {
            let c = random_node(&mut rng);
            if inc.mesh().is_healthy(c) {
                break c;
            }
        };
        if step == flip {
            flipped = Some(inject);
        }
        inc.apply(&[inject], &[heal]);
        for (o, &frame) in frames.iter().enumerate() {
            if next_sync[o] == step {
                assert_models_equal_fresh(&mut inc, frame);
                let lag = LAGS[rng.gen_range(0..LAGS.len())];
                next_sync[o] = step + if step == flip - 1 { lag.max(2) } else { lag };
            }
        }
    }
    for &frame in frames {
        assert_models_equal_fresh(&mut inc, frame);
    }
    assert!(
        inc.slot_rebuilds() > octants,
        "some slot must have lagged past LOG_CAP and been rebuilt"
    );
    assert!(inc.statuses_repaired() > 0, "replays must have done work");
}

/// The bounded slice of the lag battery: a 16³ mesh, 150 steps, every
/// octant.
#[test]
fn lagged_octant_syncs_equal_fresh() {
    lagged_octants_equal_fresh(16, 150, 8, 41);
}

/// The full lag battery: a 24³ mesh, 2,000 steps, every octant (release,
/// `--include-ignored`).
#[test]
#[ignore = "full battery; run with --release -- --include-ignored"]
fn lagged_octant_syncs_equal_fresh_full() {
    lagged_octants_equal_fresh(24, 2000, 8, 43);
}

/// Two maintained models that reach one mesh through different histories —
/// one by replaying churn, one by building from scratch — print the same
/// components and MCCs. The replayed history heals the lowest-index region
/// and injects a new highest-index one, so its internal component handles
/// no longer equal positions; `Debug` must show positions only.
#[test]
fn replayed_and_rebuilt_models_print_identically() {
    let mut mesh = Mesh3D::kary(10);
    for (x, y, z) in (0..27).map(|n| (n % 3, n / 3 % 3, n / 9)) {
        mesh.inject_fault(c3(3 * x + 1, 3 * y + 1, 3 * z + 1));
    }
    let mut replayed = IncrementalModels3::new(mesh, BorderPolicy::BorderSafe);
    let frame = Frame3::identity(replayed.mesh());
    replayed.models(frame);
    for (injected, healed) in [
        (vec![c3(9, 9, 9)], vec![c3(1, 1, 1)]),
        (vec![c3(4, 4, 5), c3(0, 9, 0)], vec![]),
        (vec![], vec![c3(4, 4, 4)]),
    ] {
        replayed.apply(&injected, &healed);
        replayed.models(frame);
    }
    assert_eq!(replayed.slot_rebuilds(), 1, "every later sync replayed");
    let mut rebuilt = IncrementalModels3::new(replayed.mesh().clone(), BorderPolicy::BorderSafe);
    let print = |inc: &mut IncrementalModels3| {
        let m = inc.models(frame);
        (format!("{:?}", m.comps), format!("{:?}", m.mccs))
    };
    let (comps, mccs) = print(&mut replayed);
    let (fresh_comps, fresh_mccs) = print(&mut rebuilt);
    assert_eq!(comps, fresh_comps, "component Debug depends on history");
    assert_eq!(mccs, fresh_mccs, "MCC Debug depends on history");
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
            let inject = raw.0.iter().map(|&(x, y)| c2(x.rem_euclid(w), y.rem_euclid(h)));
            let (injected, healed) = decode_step::<NodeSpace2>(inc.mesh(), inject, &raw.1);
            inc.apply(&injected, &healed);
            // Stagger sync: the first orientation every step, the rest only
            // every other step, so slots replay logs of varying depth.
            let sync = if step % 2 == 0 { frames.len() } else { 1 };
            for &frame in frames.iter().take(sync) {
                assert_models_equal_fresh(&mut inc, frame);
            }
            let fresh_blocks = FaultBlocks2::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks.clone(), fresh_blocks.blocks);
        }
        for frame in frames {
            assert_models_equal_fresh(&mut inc, frame);
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
            let inject = raw.0.iter().map(|&(x, y, z)| c3(x.rem_euclid(k), y.rem_euclid(k), z.rem_euclid(k)));
            let (injected, healed) = decode_step::<NodeSpace3>(inc.mesh(), inject, &raw.1);
            inc.apply(&injected, &healed);
            assert_models_equal_fresh(&mut inc, frames[0]);
            if step % 2 == 1 {
                assert_models_equal_fresh(&mut inc, frames[5]);
            }
            let fresh_blocks = FaultBlocks3::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks.clone(), fresh_blocks.blocks);
        }
        for frame in [frames[0], frames[3], frames[5], frames[7]] {
            assert_models_equal_fresh(&mut inc, frame);
        }
    }
}
