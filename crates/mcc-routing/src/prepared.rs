//! Amortized trial pipeline: per-mesh model caching + reusable scratch.
//!
//! A [`crate::trial::run_trial_2d_with`] call rebuilds every model —
//! labelling, MCC decomposition, fault blocks — for its single
//! source/destination pair, even though all of them depend only on the
//! fault set plus (for the labelling family) one of the finitely many
//! canonical frame orientations. A [`PreparedMesh2`] / [`PreparedMesh3`]
//! amortizes that work across every pair evaluated against one fault
//! configuration:
//!
//! * models are fetched through a [`fault_model::ModelCache2`] /
//!   [`fault_model::ModelCache3`] — fault blocks computed once per mesh,
//!   labelling + MCC set once per orientation actually encountered
//!   (≤ 4 in 2-D, ≤ 8 in 3-D);
//! * per-trial transient state — the oracle/condition/block reachability
//!   sweeps, the router's backward-reachability set, the 3-D detection
//!   flood — runs in scratch buffers owned by the prepared mesh, so
//!   steady-state trials allocate only their output paths.
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
//! use mcc_routing::trial::run_trial_2d_with;
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
//!     let fresh = run_trial_2d_with(&mesh, pair.0, pair.1, seed, &opts);
//!     assert_eq!(prepared.mcc_hops, fresh.mcc_hops);
//!     assert_eq!(prepared.mcc_adaptivity.to_bits(), fresh.mcc_adaptivity.to_bits());
//! }
//! ```

use fault_model::oracle::{Useful2, Useful3};
use fault_model::{ModelCache2, ModelCache3};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};

use crate::baseline;
use crate::feasibility3::FloodScratch3;
use crate::policy::Policy;
use crate::router2::Router2;
use crate::router3::Router3;
use crate::trace::RouteResult;
use crate::trial::{mcc_ok_2d, mcc_ok_3d, TrialOptions, TrialResult};

/// A 2-D fault configuration prepared for a batch of routing trials:
/// orientation-keyed model cache plus reusable trial scratch.
#[derive(Clone, Debug)]
pub struct PreparedMesh2<'m> {
    models: ModelCache2<'m>,
    opts: TrialOptions,
    /// Reachability buffer for the oracle, the block-model check and the
    /// block router (which reuses the check's sweep).
    useful: Useful2,
    /// Reachability buffer for the MCC existence condition and the MCC
    /// router (which reuses the condition's sweep) — kept separate from
    /// `useful` so the block-model check in between cannot clobber it.
    cond_useful: Useful2,
}

impl<'m> PreparedMesh2<'m> {
    /// Prepare `mesh` for trials under `opts`. Nothing is computed until
    /// the first trial demands it.
    pub fn new(mesh: &'m Mesh2D, opts: TrialOptions) -> PreparedMesh2<'m> {
        PreparedMesh2 {
            models: ModelCache2::new(mesh, opts.border),
            opts,
            useful: Useful2::scratch(),
            cond_useful: Useful2::scratch(),
        }
    }

    /// The mesh this prepared state describes.
    pub fn mesh(&self) -> &'m Mesh2D {
        self.models.mesh()
    }

    /// Number of frame orientations whose models have been computed so far.
    pub fn orientations_computed(&self) -> usize {
        self.models.orientations_computed()
    }

    /// Run one trial against the cached models. Identical results to
    /// [`crate::trial::run_trial_2d_with`] on the same inputs.
    ///
    /// # Panics
    /// If either endpoint is faulty.
    pub fn run_trial(&mut self, s: C2, d: C2, policy_seed: u64) -> TrialResult {
        let mesh = self.models.mesh();
        assert!(
            mesh.is_healthy(s) && mesh.is_healthy(d),
            "trial endpoints must be healthy"
        );
        let opts = self.opts;
        let frame = Frame2::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let m = self.models.models(frame, opts.eval_mcc, opts.eval_rfb);
        let (lab, mccs, blocks) = (m.lab, m.mccs, m.blocks);

        self.useful
            .recompute_set(cs, cd, mesh.fault_set(), mesh.space(), Some(frame));
        let oracle_ok = self.useful.contains(cs);
        // The condition's sweep stays in `cond_useful` for the router; the
        // block check's sweep stays in `useful` for the block router.
        let mcc_ok = mcc_ok_2d(lab, mccs, cs, cd, &mut self.cond_useful);
        let rfb_ok = blocks.is_some_and(|b| b.minimal_path_exists_in(mesh, s, d, &mut self.useful));
        let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);

        let mut result = TrialResult {
            oracle_ok,
            mcc_ok,
            rfb_ok,
            endpoints_safe,
            ..TrialResult::default()
        };

        if opts.eval_greedy {
            let greedy = baseline::route_greedy_2d(lab, cs, cd, &mut Policy::random(policy_seed));
            result.greedy_ok = greedy.result == RouteResult::Delivered;
        }

        if endpoints_safe {
            if let Some(mccs) = mccs {
                // `cond_useful` still holds the condition's closure sweep
                // for exactly this canonical pair (or is unread: s == d).
                let router = Router2::new(lab, mccs);
                let out = router.route_with_rule_reusing(
                    cs,
                    cd,
                    &mut Policy::random(policy_seed ^ 0x9e37_79b9),
                    crate::router2::DecisionRule::BoundaryExact,
                    &self.cond_useful,
                );
                result.detection_cost = out.detection_hops;
                if out.delivered() {
                    result.mcc_delivered = true;
                    result.mcc_hops = out.path.hops();
                    result.mcc_adaptivity = out.adaptivity();
                }
            }
        }
        if rfb_ok {
            // `useful` still holds the block check's sweep, which admitted
            // this pair — the block router forwards straight over it.
            let out = baseline::route_rfb_2d_reusing(
                mesh,
                s,
                d,
                &mut Policy::random(policy_seed ^ 0x51),
                &self.useful,
            );
            if out.delivered() {
                result.rfb_adaptivity = out.adaptivity();
            }
        }
        result
    }
}

/// A 3-D fault configuration prepared for a batch of routing trials
/// (see [`PreparedMesh2`]).
#[derive(Clone, Debug)]
pub struct PreparedMesh3<'m> {
    models: ModelCache3<'m>,
    opts: TrialOptions,
    useful: Useful3,
    cond_useful: Useful3,
    flood: FloodScratch3,
}

impl<'m> PreparedMesh3<'m> {
    /// Prepare `mesh` for trials under `opts`. Nothing is computed until
    /// the first trial demands it.
    pub fn new(mesh: &'m Mesh3D, opts: TrialOptions) -> PreparedMesh3<'m> {
        PreparedMesh3 {
            models: ModelCache3::new(mesh, opts.border),
            opts,
            useful: Useful3::scratch(),
            cond_useful: Useful3::scratch(),
            flood: FloodScratch3::new(),
        }
    }

    /// The mesh this prepared state describes.
    pub fn mesh(&self) -> &'m Mesh3D {
        self.models.mesh()
    }

    /// Number of frame orientations whose models have been computed so far.
    pub fn orientations_computed(&self) -> usize {
        self.models.orientations_computed()
    }

    /// Run one trial against the cached models. Identical results to
    /// [`crate::trial::run_trial_3d_with`] on the same inputs.
    ///
    /// # Panics
    /// If either endpoint is faulty.
    pub fn run_trial(&mut self, s: C3, d: C3, policy_seed: u64) -> TrialResult {
        let mesh = self.models.mesh();
        assert!(
            mesh.is_healthy(s) && mesh.is_healthy(d),
            "trial endpoints must be healthy"
        );
        let opts = self.opts;
        let frame = Frame3::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let m = self.models.models(frame, opts.eval_mcc, opts.eval_rfb);
        let (lab, mccs, blocks) = (m.lab, m.mccs, m.blocks);

        self.useful
            .recompute_set(cs, cd, mesh.fault_set(), mesh.space(), Some(frame));
        let oracle_ok = self.useful.contains(cs);
        let mcc_ok = mcc_ok_3d(lab, mccs, cs, cd, &mut self.cond_useful);
        let rfb_ok = blocks.is_some_and(|b| b.minimal_path_exists_in(mesh, s, d, &mut self.useful));
        let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);

        let mut result = TrialResult {
            oracle_ok,
            mcc_ok,
            rfb_ok,
            endpoints_safe,
            ..TrialResult::default()
        };

        if opts.eval_greedy {
            let greedy = baseline::route_greedy_3d(lab, cs, cd, &mut Policy::random(policy_seed));
            result.greedy_ok = greedy.result == RouteResult::Delivered;
        }

        if endpoints_safe {
            if let Some(mccs) = mccs {
                // `cond_useful` still holds the condition's closure sweep
                // for exactly this canonical pair (or is unread: s == d).
                let router = Router3::new(lab, mccs);
                let out = router.route_with_rule_reusing(
                    cs,
                    cd,
                    &mut Policy::random(policy_seed ^ 0x9e37_79b9),
                    crate::router2::DecisionRule::BoundaryExact,
                    &self.cond_useful,
                    &mut self.flood,
                );
                result.detection_cost = out.detection_cost;
                if out.delivered() {
                    result.mcc_delivered = true;
                    result.mcc_hops = out.path.hops();
                    result.mcc_adaptivity = out.adaptivity();
                }
            }
        }
        if rfb_ok {
            // `useful` still holds the block check's sweep, which admitted
            // this pair — the block router forwards straight over it.
            let out = baseline::route_rfb_3d_reusing(
                mesh,
                s,
                d,
                &mut Policy::random(policy_seed ^ 0x51),
                &self.useful,
            );
            if out.delivered() {
                result.rfb_adaptivity = out.adaptivity();
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::{c2, c3};

    #[test]
    fn prepared_matches_fresh_across_a_batch_2d() {
        let mut mesh = Mesh2D::new(16, 16);
        FaultRegime::Uniform.inject(&mut mesh, 30, 5, &[], BorderPolicy::BorderSafe);
        let opts = TrialOptions::default();
        let mut pm = PreparedMesh2::new(&mesh, opts);
        let mut trials = 0;
        for seed in 0..40u64 {
            let a = c2((seed as i32 * 7) % 16, (seed as i32 * 3) % 16);
            let b = c2((seed as i32 * 5 + 2) % 16, (seed as i32 * 11 + 4) % 16);
            if !mesh.is_healthy(a) || !mesh.is_healthy(b) {
                continue;
            }
            trials += 1;
            let p = pm.run_trial(a, b, seed);
            let f = crate::trial::run_trial_2d_with(&mesh, a, b, seed, &opts);
            assert!(p.bit_identical(&f), "seed {seed}: {p:?} != {f:?}");
        }
        assert!(trials > 20, "too few healthy pairs: {trials}");
        // All four quadrant orientations were exercised and cached.
        assert!(pm.orientations_computed() >= 2);
    }

    #[test]
    fn prepared_matches_fresh_across_a_batch_3d() {
        let mut mesh = Mesh3D::kary(8);
        FaultRegime::Uniform.inject(&mut mesh, 40, 9, &[], BorderPolicy::BorderSafe);
        let opts = TrialOptions::default();
        let mut pm = PreparedMesh3::new(&mesh, opts);
        let mut trials = 0;
        for seed in 0..40u64 {
            let a = c3(
                (seed as i32 * 7) % 8,
                (seed as i32 * 3) % 8,
                (seed as i32 * 5) % 8,
            );
            let b = c3(
                (seed as i32 * 5 + 2) % 8,
                (seed as i32 * 11 + 4) % 8,
                (seed as i32 * 13 + 1) % 8,
            );
            if !mesh.is_healthy(a) || !mesh.is_healthy(b) {
                continue;
            }
            trials += 1;
            let p = pm.run_trial(a, b, seed);
            let f = crate::trial::run_trial_3d_with(&mesh, a, b, seed, &opts);
            assert!(p.bit_identical(&f), "seed {seed}: {p:?} != {f:?}");
        }
        assert!(trials > 20, "too few healthy pairs: {trials}");
    }

    #[test]
    fn model_selection_is_honored() {
        let mut mesh = Mesh2D::new(10, 10);
        mesh.inject_fault(c2(4, 4));
        let opts = TrialOptions {
            eval_mcc: false,
            eval_rfb: false,
            eval_greedy: false,
            ..TrialOptions::default()
        };
        let mut pm = PreparedMesh2::new(&mesh, opts);
        let t = pm.run_trial(c2(0, 0), c2(9, 9), 3);
        assert!(t.oracle_ok);
        assert!(!t.mcc_ok && !t.rfb_ok && !t.greedy_ok && !t.mcc_delivered);
    }
}
