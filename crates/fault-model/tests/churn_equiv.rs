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
//! * MCC records — `Mcc` is `PartialEq`, so cells, bounds and
//!   fault/sacrificed splits are all compared at once, and
//!   the list order pins the ids,
//! * the rectangular block model after its lazy recompute.
//!
//! At every step each orientation is, at random, left alone, synced
//! through `labelling` alone (whose result is pinned against
//! [`Labelling::compute`]) or synced through `models` (every model
//! pinned), so a sync over the net difference of several batches — not
//! just the single-batch repair — is what the battery exercises, and a
//! region layer is repaired over the statuses of several labelling-only
//! syncs. The service-shaped lag battery goes further: many fault
//! regions, and every octant synced at lags from one step to past 32, so
//! a sync repairs long windows in place, with stretches of labelling-only
//! syncs longer than 32 generations before a `models` call. Its full size
//! runs with `--include-ignored` in release.

use fault_model::components::Components;
use fault_model::incremental::{IncrementalModels, IncrementalModels2, IncrementalModels3};
use fault_model::{BorderPolicy, FaultBlocks2, FaultBlocks3, Labelling, MccSet};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Coord, Frame, Frame2, Frame3, Mesh, Mesh2D, Mesh3D, C2, C3};
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
fn decode_step<C: Coord>(
    mesh: &Mesh<C>,
    inject: impl Iterator<Item = C>,
    picks: &[u8],
) -> (Vec<C>, Vec<C>) {
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

/// Pin a maintained labelling against its from-scratch twin: statuses
/// and the unsafe set.
fn assert_labelling_eq<C: Coord>(got: &Labelling<C>, fresh: &Labelling<C>) {
    for ((c, a), (_, f)) in got.iter().zip(fresh.iter()) {
        assert_eq!(a, f, "status diverged at {c} for {:?}", fresh.frame());
    }
    assert_eq!(got.unsafe_set(), fresh.unsafe_set(), "unsafe set diverged");
}

/// Sync `frame` through `labelling` alone and pin the result.
fn assert_labelling_equals_fresh<C: Coord>(inc: &mut IncrementalModels<C>, frame: Frame<C>) {
    let fresh = Labelling::compute(&inc.mesh().clone(), frame, inc.border());
    assert_labelling_eq(inc.labelling(frame), &fresh);
}

/// Pin every maintained model of `frame` against from-scratch twins.
fn assert_models_equal_fresh<C: Coord>(inc: &mut IncrementalModels<C>, frame: Frame<C>) {
    let mesh = inc.mesh().clone();
    let b = inc.border();
    let m = inc.models(frame);
    let lab = Labelling::compute(&mesh, frame, b);
    assert_labelling_eq(m.lab, &lab);
    let comps = Components::compute(&lab);
    assert_eq!(m.comps.cells, comps.cells, "component cells diverged");
    for (c, _) in lab.iter() {
        assert_eq!(
            m.comps.component_of(c),
            comps.component_of(c),
            "component id diverged at {c}"
        );
    }
    assert_eq!(m.mccs, &MccSet::compute(&lab), "MCCs diverged");
}

/// Leave `frame` alone, or sync it through `labelling` or `models` and
/// pin what the call returns, as `rng` picks (one in three each).
fn sync_at_random<C: Coord>(inc: &mut IncrementalModels<C>, frame: Frame<C>, rng: &mut SmallRng) {
    match rng.gen_range(0..3) {
        0 => {}
        1 => assert_labelling_equals_fresh(inc, frame),
        _ => assert_models_equal_fresh(inc, frame),
    }
}

/// The sync lags of the lag battery: one, two and seven batches, and two
/// lags past 32, each repaired in place over its net difference.
const LAGS: [u64; 5] = [1, 2, 7, 33, 40];

/// How many generations an octant of the lag battery syncs through
/// `labelling` alone after a `models` call: none, a few, and a stretch
/// past 32, which a slot kept live by short lags carries as one pending
/// region repair.
const STRETCHES: [u64; 3] = [0, 5, 41];

/// Service-shaped lag battery: a `k`³ mesh at about 1.5 % faults, one heal
/// plus one inject per step, and each of the first `octants` octants synced
/// (and checked against fresh models) at lags drawn from [`LAGS`]. After
/// each `models` call an octant syncs through `labelling` alone (checked
/// against a fresh labelling) for a stretch drawn from [`STRETCHES`]. Steps
/// `flip` and `flip + 1` inject and then heal the same node while no
/// octant syncs, so every window spanning them marks a node that flips
/// and flips back, which the window's net difference leaves out.
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
    // The step from which an octant's next sync calls `models`, and the
    // step of its last `models` call.
    let mut models_from = vec![0; octants];
    let mut last_models = vec![0; octants];
    let mut long_pending_repairs = 0;
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
                if step < models_from[o] {
                    assert_labelling_equals_fresh(&mut inc, frame);
                } else {
                    let builds = inc.region_builds();
                    assert_models_equal_fresh(&mut inc, frame);
                    if inc.region_builds() == builds && step - last_models[o] > 32 {
                        long_pending_repairs += 1;
                    }
                    last_models[o] = step;
                    models_from[o] = step + STRETCHES[rng.gen_range(0..STRETCHES.len())];
                }
                let lag = LAGS[rng.gen_range(0..LAGS.len())];
                next_sync[o] = step + if step == flip - 1 { lag.max(2) } else { lag };
            }
        }
    }
    for &frame in frames {
        assert_models_equal_fresh(&mut inc, frame);
    }
    assert_eq!(inc.slot_rebuilds(), octants, "every lag synced in place");
    assert!(
        long_pending_repairs > 0,
        "some region must have been repaired after more than 32 labelling-only generations"
    );
    assert!(inc.statuses_repaired() > 0, "syncs must have done work");
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
    assert_eq!(
        replayed.slot_rebuilds(),
        1,
        "every later sync repaired in place"
    );
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
    /// policies, whichever of `labelling`, `models` or neither each step
    /// calls.
    #[test]
    fn incremental_equals_fresh_2d(
        dims in (7..13i32, 7..13i32),
        torus in any::<bool>(),
        border_blocked in any::<bool>(),
        sync_seed in any::<u64>(),
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
        let mut rng = SmallRng::seed_from_u64(sync_seed);
        for raw in &trace {
            let inject = raw.0.iter().map(|&(x, y)| c2(x.rem_euclid(w), y.rem_euclid(h)));
            let (injected, healed) = decode_step::<C2>(inc.mesh(), inject, &raw.1);
            inc.apply(&injected, &healed);
            // Random sync per orientation, so slots repair lags of varying
            // depth and regions repair over several labelling-only syncs.
            for &frame in &frames {
                sync_at_random(&mut inc, frame, &mut rng);
            }
            let fresh_blocks = FaultBlocks2::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks(), fresh_blocks.blocks());
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
        sync_seed in any::<u64>(),
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
        let frames = Frame3::all(inc.mesh());
        let mut rng = SmallRng::seed_from_u64(sync_seed);
        for raw in &trace {
            let inject = raw.0.iter().map(|&(x, y, z)| c3(x.rem_euclid(k), y.rem_euclid(k), z.rem_euclid(k)));
            let (injected, healed) = decode_step::<C3>(inc.mesh(), inject, &raw.1);
            inc.apply(&injected, &healed);
            for &frame in &frames {
                sync_at_random(&mut inc, frame, &mut rng);
            }
            let fresh_blocks = FaultBlocks3::compute(&inc.mesh().clone());
            prop_assert_eq!(inc.blocks().blocks(), fresh_blocks.blocks());
        }
        for frame in frames {
            assert_models_equal_fresh(&mut inc, frame);
        }
    }
}
