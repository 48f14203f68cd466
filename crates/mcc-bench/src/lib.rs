//! # mcc-bench — experiment harness for the ICPP 2005 reproduction
//!
//! Workload generators, parameter sweeps and aggregation for every table
//! and figure of the evaluation (see `EXPERIMENTS.md` at the workspace
//! root). Experiments are described declaratively: a [`scenario::Scenario`]
//! (deserialized from the TOML files under `scenarios/`) fixes mesh
//! dimensions, fault regime and ramp, and seed range, and
//! [`runner::run_scenario`] turns it into table rows. The
//! `tables` binary prints the rows for the scenario files it is given.
//! Performance numbers come from the separate `repobench/` harness, not
//! from this crate.
//!
//! Sweeps parallelize over seeds with `std::thread::scope` scoped threads.
//!
//! `table = "service"` scenarios (E15) are row tables too: the runner
//! offers their open-loop `[load]` ramp to a resident `mesh-service` in
//! virtual time, on the caller's thread, and reports the admit/shed
//! counts of every step (see [`service_load`] and DESIGN.md §14).
//!
//! # Examples
//!
//! Build a scenario programmatically, run it, and read the table rows
//! (the declarative TOML path deserializes into exactly this structure):
//!
//! ```
//! use mcc_bench::scenario::Scenario;
//! use mcc_bench::{run_scenario, runner::TableRows};
//!
//! let scenario = Scenario::regions_2d(8, &[2, 4], 2);
//! let report = run_scenario(&scenario).expect("valid scenario");
//! let TableRows::Regions(rows) = report.rows else {
//!     panic!("regions scenario yields a regions table");
//! };
//! assert_eq!(rows.len(), 2);
//! // The MCC model never captures more healthy nodes than fault blocks.
//! assert!(rows.iter().all(|r| r.mcc <= r.rfb));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod scenario;
pub mod service_load;
pub mod toml_lite;

pub use runner::{run_scenario, ScenarioReport};

/// One row of the fault-region size tables (E1/E2).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionRow {
    /// Injected fault count.
    pub faults: usize,
    /// Mean healthy nodes captured by MCCs (canonical orientation).
    pub mcc: f64,
    /// Mean healthy nodes captured in the worst orientation.
    pub mcc_worst: f64,
    /// Mean healthy nodes captured in some orientation (union).
    pub mcc_union: f64,
    /// Mean healthy nodes captured by rectangular/cuboid blocks.
    pub rfb: f64,
    /// Mean number of MCCs.
    pub mcc_regions: f64,
    /// Mean number of blocks.
    pub rfb_regions: f64,
}

/// One row of the routing success-rate tables (E3/E4/E6).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutingRow {
    /// Injected fault count.
    pub faults: usize,
    /// Fraction of trials with a true minimal path (ground truth).
    pub oracle: f64,
    /// Fraction admitted by the MCC condition (== oracle by Theorems 1–2).
    pub mcc: f64,
    /// Fraction admitted by the rectangular/cuboid block model.
    pub rfb: f64,
    /// Fraction delivered by the information-free greedy router.
    pub greedy: f64,
    /// Mean adaptivity (allowed directions per hop) of delivered MCC routes.
    pub mcc_adaptivity: f64,
    /// Mean adaptivity of delivered block-model routes.
    pub rfb_adaptivity: f64,
    /// Mean source-detection cost of MCC routing.
    pub detection_cost: f64,
    /// Fraction of trials with both endpoints safe.
    pub endpoints_safe: f64,
}

/// One row of the protocol-overhead tables (E5/E7).
#[derive(Clone, Copy, Debug, Default)]
pub struct OverheadRow {
    /// Injected fault count.
    pub faults: usize,
    /// Mean messages of the distributed labelling phase.
    pub labelling_msgs: f64,
    /// Mean rounds to labelling convergence.
    pub labelling_rounds: f64,
    /// Mean messages of component identification.
    pub compid_msgs: f64,
    /// Mean messages of the identification walks.
    pub ident_msgs: f64,
    /// Mean messages of boundary construction.
    pub boundary_msgs: f64,
    /// Mean total construction messages.
    pub total_msgs: f64,
}

/// One row of the incremental-maintenance churn tables (E12).
///
/// Every column is a deterministic count — no timings — so churn rows are
/// golden-snapshot stable across machines and thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnRow {
    /// Fault population (held stable by pairing each heal with an inject).
    pub faults: usize,
    /// Churn rounds applied per seed.
    pub rounds: usize,
    /// Mean faults injected per seed across the whole trace.
    pub injected: f64,
    /// Mean faults healed per seed across the whole trace.
    pub healed: f64,
    /// Mean node statuses touched by the incremental repairs per seed —
    /// the work actually done; scales with perturbation size, not mesh
    /// size.
    pub statuses_repaired: f64,
    /// Mean unsafe-node count after the final round.
    pub unsafe_end: f64,
    /// Mean MCC count after the final round.
    pub mccs_end: f64,
    /// Fraction of per-round equivalence checks (incremental vs
    /// from-scratch) that matched. The runner refuses to report anything
    /// but `1.0`.
    pub verified: f64,
}

/// One row of the labelling-convergence tables (E7, protocol layer only).
#[derive(Clone, Copy, Debug, Default)]
pub struct LabellingRow {
    /// Injected fault count.
    pub faults: usize,
    /// Mean messages to convergence.
    pub messages: f64,
    /// Mean rounds to convergence.
    pub rounds: f64,
    /// Mean peak per-round message volume.
    pub max_inflight: f64,
    /// Fraction of seeds that reached quiescence within the round budget.
    pub converged: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::TableRows;
    use scenario::Scenario;

    /// Run `scenario` and unwrap its table, which must be of kind `$kind`.
    macro_rules! rows {
        ($kind:ident, $scenario:expr) => {
            match run_scenario(&$scenario).expect("valid scenario").rows {
                TableRows::$kind(rows) => rows,
                _ => unreachable!("scenario produced a different table"),
            }
        };
    }

    #[test]
    fn region_sweep_2d_monotone_models() {
        let rows = rows!(Regions, Scenario::regions_2d(16, &[4, 16], 8));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.mcc <= r.rfb, "MCC must capture fewer: {r:?}");
            assert!(r.mcc <= r.mcc_worst && r.mcc_worst <= r.mcc_union);
        }
        assert!(rows[1].rfb >= rows[0].rfb);
    }

    #[test]
    fn routing_sweep_2d_orderings() {
        let rows = rows!(Routing, Scenario::routing_2d(12, &[8], 24));
        let r = rows[0];
        assert!((r.mcc - r.oracle).abs() < 1e-12, "MCC condition is exact");
        assert!(r.rfb <= r.mcc + 1e-12);
        assert!(r.greedy <= r.oracle + 1e-12);
    }

    #[test]
    fn routing_sweep_3d_orderings() {
        let rows = rows!(Routing, Scenario::routing_3d(6, &[10], 12));
        let r = rows[0];
        assert!((r.mcc - r.oracle).abs() < 1e-12);
        assert!(r.rfb <= r.mcc + 1e-12);
    }

    #[test]
    fn overhead_rows_scale() {
        let rows = rows!(Overhead, Scenario::overhead_2d(12, &[2, 10], 4));
        assert!(rows[1].total_msgs > rows[0].total_msgs * 0.8);
        assert!(rows[0].labelling_msgs > 0.0);
    }

    #[test]
    fn overhead_3d_runs() {
        let rows = rows!(Overhead, Scenario::overhead_3d(6, &[5], 3));
        assert!(rows[0].labelling_msgs > 0.0);
    }

    #[test]
    fn labelling_sweeps_run_both_dims() {
        let rows2 = rows!(Labelling, Scenario::labelling_2d(16, &[4, 40], 6));
        assert_eq!(rows2.len(), 2);
        assert!(rows2.iter().all(|r| r.converged == 1.0));
        // Every node announces once, so the floor is the directed-edge
        // count; more faults mean more re-announcements.
        assert!(rows2[0].messages >= (2 * (2 * 16 * 15)) as f64);
        assert!(rows2[1].messages >= rows2[0].messages);
        let rows3 = rows!(Labelling, Scenario::labelling_3d(6, &[10], 4));
        assert!(rows3[0].converged == 1.0 && rows3[0].rounds >= 2.0);
    }

    #[test]
    fn clustered_sweeps_run() {
        let mut sc = Scenario::regions_2d(12, &[8], 4);
        sc.regime = fault_model::FaultRegime::Clustered { clusters: 2 };
        let rows = rows!(Regions, sc);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].mcc <= rows[0].rfb + 1e-12);
    }
}
