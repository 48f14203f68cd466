//! Single-trial experiment runners.
//!
//! One *trial* = one mesh with injected faults plus one healthy
//! source/destination pair, evaluated under every model at once:
//!
//! * **oracle** — does a minimal path exist among the physical faults?
//! * **MCC** — the paper's condition (exact; equals the oracle),
//! * **RFB** — the rectangular/cuboid block model's condition,
//! * **greedy** — did an information-free adaptive walk deliver?
//!
//! plus routing metrics (hops, adaptivity, detection cost) for the models
//! that actually routed. The benchmark harness aggregates trials into the
//! tables of `EXPERIMENTS.md`.
//!
//! The per-trial functions here are thin wrappers over the prepared-mesh
//! pipeline of [`crate::prepared`]: each builds a throwaway
//! [`crate::prepared::PreparedMesh2`]/[`PreparedMesh3`] for its single
//! pair, so fresh and batched trials share one code path and cannot
//! drift. Callers evaluating many pairs against one fault configuration
//! should hold a prepared mesh themselves and amortize model
//! construction (see DESIGN.md §9).
//!
//! [`PreparedMesh3`]: crate::prepared::PreparedMesh3

use fault_model::mcc2::MccSet2;
use fault_model::mcc3::MccSet3;
use fault_model::oracle::{Useful2, Useful3};
use fault_model::{
    minimal_path_exists_2d_in, minimal_path_exists_3d_in, BorderPolicy, Labelling2, Labelling3,
};
use mesh_topo::{Mesh2D, Mesh3D, C2, C3};
use serde::{Deserialize, Serialize};

use crate::prepared::{PreparedMesh2, PreparedMesh3};

/// Aggregatable result of one routing trial.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct TrialResult {
    /// Ground truth: a minimal path exists among the faults.
    pub oracle_ok: bool,
    /// The MCC condition admitted the routing.
    pub mcc_ok: bool,
    /// The block-model condition admitted the routing.
    pub rfb_ok: bool,
    /// The greedy information-free router delivered.
    pub greedy_ok: bool,
    /// The MCC router delivered (only attempted when `mcc_ok` and both
    /// endpoints safe).
    pub mcc_delivered: bool,
    /// Hops of the MCC route (= `D(s,d)` when delivered).
    pub mcc_hops: usize,
    /// Mean allowed directions per hop of the MCC route.
    pub mcc_adaptivity: f64,
    /// Mean allowed directions per hop of the RFB route (when delivered).
    pub rfb_adaptivity: f64,
    /// Cost of the source detection (hops in 2-D, visited nodes in 3-D).
    pub detection_cost: usize,
    /// Both endpoints were safe under the MCC labelling.
    pub endpoints_safe: bool,
}

impl TrialResult {
    /// Field-for-field equality with the floats compared by bit pattern.
    ///
    /// This is the single source of the fresh ≡ prepared equivalence
    /// contract: the property battery (`tests/prepared_equiv.rs`) and the
    /// output checks of the `repobench` benchmark both go through it, so a
    /// field added here cannot silently escape the gates.
    pub fn bit_identical(&self, other: &TrialResult) -> bool {
        let TrialResult {
            oracle_ok,
            mcc_ok,
            rfb_ok,
            greedy_ok,
            mcc_delivered,
            mcc_hops,
            mcc_adaptivity,
            rfb_adaptivity,
            detection_cost,
            endpoints_safe,
        } = *self;
        oracle_ok == other.oracle_ok
            && mcc_ok == other.mcc_ok
            && rfb_ok == other.rfb_ok
            && greedy_ok == other.greedy_ok
            && mcc_delivered == other.mcc_delivered
            && mcc_hops == other.mcc_hops
            && mcc_adaptivity.to_bits() == other.mcc_adaptivity.to_bits()
            && rfb_adaptivity.to_bits() == other.rfb_adaptivity.to_bits()
            && detection_cost == other.detection_cost
            && endpoints_safe == other.endpoints_safe
    }
}

/// Knobs shared by the trial runners, threaded down from the scenario
/// layer: which border policy the labelling uses and which models are
/// evaluated at all. Skipping a model skips its computation beyond the
/// parts other columns need — the labelling always runs (the oracle,
/// greedy baseline and `endpoints_safe` depend on it), but `eval_mcc:
/// false` skips MCC extraction, the existence condition, detection and
/// routing, and `eval_rfb: false` skips the block model entirely.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrialOptions {
    /// Border policy for the MCC labelling.
    pub border: BorderPolicy,
    /// Evaluate the MCC condition and router.
    pub eval_mcc: bool,
    /// Evaluate the rectangular/cuboid block baseline.
    pub eval_rfb: bool,
    /// Evaluate the information-free greedy baseline.
    pub eval_greedy: bool,
}

impl Default for TrialOptions {
    fn default() -> Self {
        TrialOptions {
            border: BorderPolicy::BorderSafe,
            eval_mcc: true,
            eval_rfb: true,
            eval_greedy: true,
        }
    }
}

/// Run one 2-D trial with the paper-faithful defaults (border-safe
/// labelling, all models evaluated).
///
/// # Panics
/// If either endpoint is faulty.
pub fn run_trial_2d(mesh: &Mesh2D, s: C2, d: C2, policy_seed: u64) -> TrialResult {
    run_trial_2d_with(mesh, s, d, policy_seed, &TrialOptions::default())
}

/// Run one 2-D trial for arbitrary (healthy) mesh-coordinate endpoints.
///
/// Builds a throwaway [`PreparedMesh2`] for this single pair; batch
/// callers should prepare once and reuse it.
///
/// # Panics
/// If either endpoint is faulty.
pub fn run_trial_2d_with(
    mesh: &Mesh2D,
    s: C2,
    d: C2,
    policy_seed: u64,
    opts: &TrialOptions,
) -> TrialResult {
    PreparedMesh2::new(mesh, *opts).run_trial(s, d, policy_seed)
}

/// The MCC admission gate, shared verbatim by the fresh and prepared
/// paths in both dimensions: the model admits the routing iff MCC
/// evaluation was requested (`mccs` computed) and the existence condition
/// holds for the canonical pair.
pub(crate) fn mcc_ok_2d(
    lab: &Labelling2,
    mccs: Option<&MccSet2>,
    cs: C2,
    cd: C2,
    useful: &mut Useful2,
) -> bool {
    mccs.is_some_and(|m| minimal_path_exists_2d_in(lab, m, cs, cd, useful).exists())
}

/// 3-D twin of [`mcc_ok_2d`] (the 3-D condition needs no MCC set, but the
/// gate is the same: evaluate only when the model was requested).
pub(crate) fn mcc_ok_3d(
    lab: &Labelling3,
    mccs: Option<&MccSet3>,
    cs: C3,
    cd: C3,
    useful: &mut Useful3,
) -> bool {
    mccs.is_some() && minimal_path_exists_3d_in(lab, cs, cd, useful).exists()
}

/// Run one 3-D trial with the paper-faithful defaults (border-safe
/// labelling, all models evaluated).
///
/// # Panics
/// If either endpoint is faulty.
pub fn run_trial_3d(mesh: &Mesh3D, s: C3, d: C3, policy_seed: u64) -> TrialResult {
    run_trial_3d_with(mesh, s, d, policy_seed, &TrialOptions::default())
}

/// Run one 3-D trial for arbitrary (healthy) mesh-coordinate endpoints.
///
/// Builds a throwaway [`PreparedMesh3`] for this single pair; batch
/// callers should prepare once and reuse it.
///
/// # Panics
/// If either endpoint is faulty.
pub fn run_trial_3d_with(
    mesh: &Mesh3D,
    s: C3,
    d: C3,
    policy_seed: u64,
    opts: &TrialOptions,
) -> TrialResult {
    PreparedMesh3::new(mesh, *opts).run_trial(s, d, policy_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{BorderPolicy, FaultRegime};
    use mesh_topo::coord::{c2, c3};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn trial_orderings_hold_2d() {
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..60u64 {
            let mut mesh = Mesh2D::new(16, 16);
            let s = c2(rng.gen_range(0..16), rng.gen_range(0..16));
            let mut d = c2(rng.gen_range(0..16), rng.gen_range(0..16));
            if d == s {
                d = c2((s.x + 1) % 16, s.y);
            }
            FaultRegime::Uniform.inject(&mut mesh, 14, seed, &[s, d], BorderPolicy::BorderSafe);
            let t = run_trial_2d(&mesh, s, d, seed);
            // MCC condition is exact.
            assert_eq!(t.mcc_ok, t.oracle_ok, "seed {seed}");
            // The block model is conservative.
            assert!(!t.rfb_ok || t.oracle_ok, "seed {seed}");
            // Greedy delivery implies a minimal path existed.
            assert!(!t.greedy_ok || t.oracle_ok, "seed {seed}");
            // The router delivers whenever endpoints are safe and a path
            // exists.
            if t.endpoints_safe && t.oracle_ok {
                assert!(t.mcc_delivered, "seed {seed}");
            }
        }
    }

    #[test]
    fn trial_orderings_hold_3d() {
        let mut rng = SmallRng::seed_from_u64(11);
        for seed in 0..30u64 {
            let mut mesh = Mesh3D::kary(8);
            let s = c3(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            let mut d = c3(
                rng.gen_range(0..8),
                rng.gen_range(0..8),
                rng.gen_range(0..8),
            );
            if d == s {
                d = c3((s.x + 1) % 8, s.y, s.z);
            }
            FaultRegime::Uniform.inject(&mut mesh, 25, seed, &[s, d], BorderPolicy::BorderSafe);
            let t = run_trial_3d(&mesh, s, d, seed);
            assert_eq!(t.mcc_ok, t.oracle_ok, "seed {seed}");
            assert!(!t.rfb_ok || t.oracle_ok, "seed {seed}");
            assert!(!t.greedy_ok || t.oracle_ok, "seed {seed}");
            if t.endpoints_safe && t.oracle_ok {
                assert!(t.mcc_delivered, "seed {seed}");
                assert_eq!(t.mcc_hops as u32, s.dist(d), "seed {seed}");
            }
        }
    }

    #[test]
    fn fault_free_trial() {
        let mesh = Mesh2D::new(8, 8);
        let t = run_trial_2d(&mesh, c2(7, 7), c2(0, 0), 1);
        assert!(t.oracle_ok && t.mcc_ok && t.rfb_ok && t.greedy_ok && t.mcc_delivered);
        assert_eq!(t.mcc_hops, 14);
    }

    #[test]
    fn fault_free_torus_routes_the_shorter_arcs() {
        // On the torus the corner pair is two wrap hops away, not 14.
        let mesh = Mesh2D::torus(8, 8);
        let t = run_trial_2d(&mesh, c2(7, 7), c2(0, 0), 1);
        assert!(t.oracle_ok && t.mcc_ok && t.rfb_ok && t.greedy_ok && t.mcc_delivered);
        assert_eq!(t.mcc_hops as u32, mesh.dist(c2(7, 7), c2(0, 0)));
        assert_eq!(t.mcc_hops, 2);
    }

    #[test]
    fn trial_orderings_hold_on_torus_2d() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut delivered = 0;
        for seed in 0..60u64 {
            let mut mesh = Mesh2D::torus(12, 12);
            FaultRegime::Uniform.inject(&mut mesh, 12, seed, &[], BorderPolicy::BorderSafe);
            let s = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            let mut d = c2(rng.gen_range(0..12), rng.gen_range(0..12));
            if d == s {
                d = c2((s.x + 1) % 12, s.y);
            }
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let t = run_trial_2d(&mesh, s, d, seed);
            // MCC condition stays exact on the torus.
            assert_eq!(t.mcc_ok, t.oracle_ok, "seed {seed}");
            // The block model stays conservative.
            assert!(!t.rfb_ok || t.oracle_ok, "seed {seed}");
            // Greedy delivery implies a minimal path existed.
            assert!(!t.greedy_ok || t.oracle_ok, "seed {seed}");
            if t.endpoints_safe && t.oracle_ok {
                assert!(t.mcc_delivered, "seed {seed}");
                // Delivered routes take the Lee-distance number of hops.
                assert_eq!(t.mcc_hops as u32, mesh.dist(s, d), "seed {seed}");
                delivered += 1;
            }
        }
        assert!(delivered > 20, "delivered only {delivered}");
    }

    #[test]
    fn trial_orderings_hold_on_torus_3d() {
        let mut rng = SmallRng::seed_from_u64(43);
        let mut delivered = 0;
        for seed in 0..30u64 {
            let mut mesh = Mesh3D::torus_kary(6);
            FaultRegime::Uniform.inject(&mut mesh, 16, seed, &[], BorderPolicy::BorderSafe);
            let s = c3(
                rng.gen_range(0..6),
                rng.gen_range(0..6),
                rng.gen_range(0..6),
            );
            let mut d = c3(
                rng.gen_range(0..6),
                rng.gen_range(0..6),
                rng.gen_range(0..6),
            );
            if d == s {
                d = c3((s.x + 1) % 6, s.y, s.z);
            }
            if !mesh.is_healthy(s) || !mesh.is_healthy(d) {
                continue;
            }
            let t = run_trial_3d(&mesh, s, d, seed);
            assert_eq!(t.mcc_ok, t.oracle_ok, "seed {seed}");
            assert!(!t.rfb_ok || t.oracle_ok, "seed {seed}");
            assert!(!t.greedy_ok || t.oracle_ok, "seed {seed}");
            if t.endpoints_safe && t.oracle_ok {
                assert!(t.mcc_delivered, "seed {seed}");
                assert_eq!(t.mcc_hops as u32, mesh.dist(s, d), "seed {seed}");
                delivered += 1;
            }
        }
        assert!(delivered > 10, "delivered only {delivered}");
    }
}
