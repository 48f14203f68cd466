//! Random churn shared by the unit tests of both dimensions.

use mesh_topo::faults::random_node;
use mesh_topo::{Mesh, Space};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::components::Components;
use crate::labelling::Labelling;
use crate::models::{repair_mccs, ModelSpace};
use crate::status::BorderPolicy;

/// `mesh` with `draws` random nodes injected (repeats collapse).
pub(crate) fn with_random_faults<S: Space>(
    mut mesh: Mesh<S>,
    rng: &mut SmallRng,
    draws: usize,
) -> Mesh<S> {
    for _ in 0..draws {
        mesh.inject_fault(random_node(mesh.space(), rng));
    }
    mesh
}

/// Apply one random churn batch to `mesh` and return it as `(injected,
/// healed)`: below `max` draws of distinct healthy nodes to inject, then
/// below `max` draws of distinct faults (of the mesh before the batch) to
/// heal.
pub(crate) fn churn<S: Space>(
    rng: &mut SmallRng,
    mesh: &mut Mesh<S>,
    max: usize,
) -> (Vec<S::Coord>, Vec<S::Coord>) {
    let mut injected = Vec::new();
    for _ in 0..rng.gen_range(0..max) {
        let c = random_node(mesh.space(), rng);
        if mesh.is_healthy(c) && !injected.contains(&c) {
            injected.push(c);
        }
    }
    let faults = mesh.faults().to_vec();
    let mut healed = Vec::new();
    for _ in 0..rng.gen_range(0..max) {
        let c = faults[rng.gen_range(0..faults.len())];
        if !healed.contains(&c) {
            healed.push(c);
        }
    }
    for &c in &injected {
        assert!(mesh.inject_fault(c));
    }
    for &c in &healed {
        assert!(mesh.heal_fault(c));
    }
    (injected, healed)
}

/// Random churn through labelling, component and MCC repair on `clean`
/// (seeded with `draws` random faults), checked against a fresh MCC
/// extraction after each of `rounds` batches.
pub(crate) fn mcc_repair_tracks_compute<S: ModelSpace>(
    clean: Mesh<S>,
    seed: u64,
    draws: usize,
    rounds: usize,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mesh = with_random_faults(clean, &mut rng, draws);
    let identity = S::identity_frame(&mesh);
    let mut lab = Labelling::<S>::compute(&mesh, identity, BorderPolicy::BorderSafe);
    let mut comps = Components::compute(&lab);
    let mut set = S::mccs(&lab);
    for _ in 0..rounds {
        let (injected, healed) = churn(&mut rng, &mut mesh, 4);
        let changed = lab.repair(&injected, &healed);
        let splice = comps.repair(&lab, &changed);
        repair_mccs::<S>(&mut set, &lab, &comps, &splice, &changed);
        assert!(
            set == S::mccs(&lab),
            "repaired MCCs diverged from a fresh extraction"
        );
    }
}
