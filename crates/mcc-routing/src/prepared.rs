//! Amortized trial pipeline: per-mesh model caching + reusable scratch,
//! written once over the node space.
//!
//! A trial reads two models: the labelling of its pair's orientation
//! (the existence condition, the exact router and the greedy baseline)
//! and the disabled set of the block model. Both depend only on the fault
//! set plus, for the labelling, one of the finitely many canonical frame
//! orientations; no step reads the per-region MCC shapes, which Theorems 1
//! and 2 need only as the unsafe closure (DESIGN.md §1). A
//! [`PreparedMesh`] amortizes that work across every pair evaluated
//! against one fault configuration:
//!
//! * models are fetched from an [`IncrementalModels`] over a copy of the
//!   mesh — the workspace's one model cache, here never churned: the block
//!   model computed once per mesh, the labelling once per orientation
//!   actually encountered (≤ 4 in 2-D, ≤ 8 in 3-D);
//! * per-trial transient state — the oracle/condition/block reachability
//!   sweeps, the router's backward-reachability set, the 3-D detection
//!   flood — runs in scratch buffers owned by the prepared mesh, so
//!   steady-state trials allocate only their output paths.
//!
//! One body serves both dimensions: the oracle, the existence condition,
//! the block check, the routes and the baselines are all generic, and
//! only detection — the one step the paper states per dimension — is
//! reached through [`RouteSpace`]. [`PreparedMesh2`] and [`PreparedMesh3`]
//! name its two instances.
//!
//! Results are **identical** to the fresh-per-trial functions (the fresh
//! functions are thin wrappers over this path, and a property-test battery
//! in `tests/prepared_equiv.rs` pins the equivalence): the models are pure
//! functions of `(faults, orientation, border policy)` and the policy
//! seeding is untouched, so caching cannot change a single field of the
//! [`TrialResult`]. The scenario runner (`mcc-bench`) batches all pairs
//! of a seed against one prepared mesh.
//!
//! # Examples
//!
//! ```
//! use mcc_routing::prepared::PreparedMesh2;
//! use mcc_routing::trial::run_trial_with;
//! use mcc_routing::TrialOptions;
//! use mesh_topo::coord::c2;
//! use mesh_topo::Mesh2D;
//!
//! let mut mesh = Mesh2D::new(12, 12);
//! mesh.inject_fault(c2(5, 6));
//!
//! let opts = TrialOptions::default();
//! let mut pm = PreparedMesh2::new(&mesh, opts);
//! for (pair, seed) in [((c2(0, 0), c2(11, 11)), 7), ((c2(11, 0), c2(0, 11)), 8)] {
//!     let prepared = pm.run_trial(pair.0, pair.1, seed);
//!     let fresh = run_trial_with(&mesh, pair.0, pair.1, seed, &opts);
//!     assert_eq!(prepared.mcc_hops, fresh.mcc_hops);
//!     assert_eq!(prepared.mcc_adaptivity.to_bits(), fresh.mcc_adaptivity.to_bits());
//! }
//! ```

use fault_model::condition::evaluate;
use fault_model::oracle::Useful;
use fault_model::IncrementalModels;
use mesh_topo::{Frame, Mesh, C2, C3};

use crate::baseline::{greedy, rfb};
use crate::policy::Policy;
use crate::route_space::{route_exact_reusing, RouteSpace};
use crate::trace::RouteSummary;
use crate::trial::{TrialOptions, TrialResult};

/// A fault configuration prepared for a batch of routing trials:
/// orientation-keyed model cache plus reusable trial scratch.
#[derive(Clone, Debug)]
pub struct PreparedMesh<'m, C: RouteSpace> {
    mesh: &'m Mesh<C>,
    /// The models of `mesh`, built over a copy of it.
    models: IncrementalModels<C>,
    /// Reachability buffer for the oracle, the block-model check and the
    /// block router (which reuses the check's sweep).
    useful: Useful<C>,
    /// Reachability buffer for the MCC existence condition and the MCC
    /// router (which reuses the condition's sweep) — kept separate from
    /// `useful` so the block-model check in between cannot clobber it.
    cond_useful: Useful<C>,
    /// Detection's own scratch (the 3-D flood).
    scratch: C::RouteScratch,
}

/// A 2-D fault configuration prepared for a batch of routing trials.
pub type PreparedMesh2<'m> = PreparedMesh<'m, C2>;

/// A 3-D fault configuration prepared for a batch of routing trials.
pub type PreparedMesh3<'m> = PreparedMesh<'m, C3>;

impl<'m, C: RouteSpace> PreparedMesh<'m, C> {
    /// Prepare `mesh` for trials under `opts`. Nothing is computed until
    /// the first trial demands it.
    pub fn new(mesh: &'m Mesh<C>, opts: TrialOptions) -> PreparedMesh<'m, C> {
        PreparedMesh {
            mesh,
            models: IncrementalModels::new(mesh.clone(), opts.border),
            useful: Useful::scratch(),
            cond_useful: Useful::scratch(),
            scratch: Default::default(),
        }
    }

    /// The mesh this prepared state describes.
    pub fn mesh(&self) -> &'m Mesh<C> {
        self.mesh
    }

    /// Number of frame orientations whose models have been computed so far.
    pub fn orientations_computed(&self) -> usize {
        self.models.live_slots()
    }

    /// Run one trial against the cached models. Identical results to
    /// [`crate::trial::run_trial_with`] on the same inputs.
    ///
    /// # Panics
    /// If either endpoint is faulty.
    pub fn run_trial(&mut self, s: C, d: C, policy_seed: u64) -> TrialResult {
        let mesh = self.mesh;
        assert!(
            mesh.is_healthy(s) && mesh.is_healthy(d),
            "trial endpoints must be healthy"
        );
        let frame = Frame::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let (lab, blocks) = self.models.labelling_and_blocks(frame);

        self.useful
            .recompute_set(cs, cd, mesh.fault_set(), mesh.space(), Some(frame));
        let oracle_ok = self.useful.contains(cs);
        // The condition's sweep stays in `cond_useful` for the router; the
        // block check's sweep stays in `useful` for the block router.
        let mcc_ok = evaluate(lab, cs, cd, &mut self.cond_useful).exists();
        let rfb_ok = blocks.minimal_path_exists_in(mesh, s, d, &mut self.useful);
        let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);

        let walk = greedy(lab, cs, cd, &mut Policy::random(policy_seed));
        let mut result = TrialResult {
            oracle_ok,
            mcc_ok,
            rfb_ok,
            greedy_ok: RouteSummary::new(cs, walk, 0).delivered,
            endpoints_safe,
            ..TrialResult::default()
        };

        if endpoints_safe {
            // `cond_useful` still holds the condition's closure sweep for
            // exactly this canonical pair (or is unread: s == d).
            let (walk, cost) = route_exact_reusing(
                lab,
                cs,
                cd,
                &mut Policy::random(policy_seed ^ 0x9e37_79b9),
                &self.cond_useful,
                &mut self.scratch,
            );
            let out = RouteSummary::new(cs, walk, cost);
            result.detection_cost = out.detection_cost;
            if out.delivered {
                result.mcc_delivered = true;
                result.mcc_hops = out.hops;
                result.mcc_adaptivity = out.adaptivity;
            }
        }
        if rfb_ok {
            // `useful` still holds the block check's sweep, which admitted
            // this pair — the block router forwards straight over it.
            let walk = rfb(
                mesh,
                s,
                d,
                &mut Policy::random(policy_seed ^ 0x51),
                &self.useful,
            );
            let out = RouteSummary::new(s, walk, 0);
            if out.delivered {
                result.rfb_adaptivity = out.adaptivity;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::c3;
    use mesh_topo::{Mesh2D, Mesh3D};

    /// Run 40 pairs of the `k`-ary `mesh` through one prepared mesh and
    /// through fresh trials, requiring bit-identical results; returns the
    /// prepared mesh.
    fn batch_matches_fresh<C: RouteSpace>(mesh: &Mesh<C>, k: i32) -> PreparedMesh<'_, C> {
        let opts = TrialOptions::default();
        let mut pm = PreparedMesh::new(mesh, opts);
        let mut trials = 0;
        for seed in 0..40u64 {
            let at = |m: [i32; 3], c: [i32; 3]| {
                C::from_xyz([0, 1, 2].map(|i| (seed as i32 * m[i] + c[i]) % k))
            };
            let (a, b) = (at([7, 3, 5], [0; 3]), at([5, 11, 13], [2, 4, 1]));
            if !mesh.is_healthy(a) || !mesh.is_healthy(b) {
                continue;
            }
            trials += 1;
            let p = pm.run_trial(a, b, seed);
            let f = crate::trial::run_trial_with(mesh, a, b, seed, &opts);
            assert!(p.bit_identical(&f), "seed {seed}: {p:?} != {f:?}");
        }
        assert!(trials > 20, "too few healthy pairs: {trials}");
        pm
    }

    #[test]
    fn prepared_matches_fresh_across_a_batch_2d() {
        let mut mesh = Mesh2D::new(16, 16);
        FaultRegime::Uniform.inject(&mut mesh, 30, 5, &[], BorderPolicy::BorderSafe);
        // More than one quadrant orientation was exercised and cached.
        assert!(batch_matches_fresh(&mesh, 16).orientations_computed() >= 2);
    }

    #[test]
    fn prepared_matches_fresh_across_a_batch_3d() {
        let mut mesh = Mesh3D::kary(8);
        FaultRegime::Uniform.inject(&mut mesh, 40, 9, &[], BorderPolicy::BorderSafe);
        batch_matches_fresh(&mesh, 8);
    }

    #[test]
    fn models_are_lazy_per_orientation_and_the_block_model_is_built_once() {
        let mut mesh = Mesh3D::kary(6);
        mesh.inject_fault(c3(3, 3, 3));
        let mut pm = PreparedMesh3::new(&mesh, TrialOptions::default());
        assert_eq!(pm.orientations_computed(), 0);
        assert!(!pm.models.blocks_current(), "nothing computed yet");
        pm.run_trial(c3(0, 0, 0), c3(5, 5, 5), 1);
        assert_eq!(pm.orientations_computed(), 1);
        assert!(pm.models.blocks_current());
        // The same orientation reuses its slot; another builds one more
        // slot. The block model, never dropped, is never rebuilt.
        pm.run_trial(c3(1, 0, 0), c3(5, 4, 5), 2);
        assert_eq!(pm.orientations_computed(), 1);
        pm.run_trial(c3(5, 5, 5), c3(0, 0, 0), 3);
        assert_eq!(pm.orientations_computed(), 2);
        assert!(pm.models.blocks_current());
        assert_eq!(
            pm.models.slot_rebuilds(),
            2,
            "one labelling per orientation"
        );
    }
}
