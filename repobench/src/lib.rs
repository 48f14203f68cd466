//! The workspace benchmark: three workloads (`sweep`, `batch`, `service`)
//! driven through the public APIs of `mesh-topo`, `fault-model`,
//! `mcc-routing` and `mesh-service`.
//!
//! Every run executes an op sequence fixed by its seed and op count, checks
//! the correctness of every output, and folds the outputs into a digest.
//! An untraced pass gives the end-to-end numbers; with tracing on, the same
//! op sequence is replayed through the decomposed public calls, each
//! wrapped in a span, and the per-layer numbers come from those spans.
//! See `README.md` in this directory for the workload rationale and the
//! layer → metric map.

pub mod batch;
pub mod common;
pub mod service;
pub mod sweep;
pub mod trace;
pub mod trial;

pub use common::{Metric, RunConfig, RunResult};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["sweep", "batch", "service"];

/// Run workload `name` under `cfg`.
pub fn run(name: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match name {
        "sweep" => sweep::run(cfg),
        "batch" => batch::run(cfg),
        "service" => service::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Ops per second of `--seconds` each workload is sized to: on the 2-vCPU
/// reference box the measured phase lasts about `--seconds`. The op count
/// is a pure function of this constant and `--seconds`, never of elapsed
/// time, so one seed always executes the same ops.
pub fn nominal_ops_per_second(name: &str) -> Option<u64> {
    match name {
        "sweep" => Some(sweep::NOMINAL_OPS_PER_S),
        "batch" => Some(batch::NOMINAL_OPS_PER_S),
        "service" => Some(service::NOMINAL_OPS_PER_S),
        _ => None,
    }
}

/// Every per-layer metric a traced run reports, with its unit. A metric a
/// workload never exercises reads 0 (e.g. the service layers on `sweep`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fault_model.regime.inject_us", "us"),
    ("fault_model.labelling.compute_us", "us"),
    ("fault_model.mcc.compute_us", "us"),
    ("fault_model.rfb.compute_us", "us"),
    ("fault_model.models.hit_ratio", "ratio"),
    ("fault_model.oracle.reachable_us", "us"),
    ("fault_model.condition.exists_us", "us"),
    ("fault_model.rfb.exists_us", "us"),
    ("mcc_routing.detect.us", "us"),
    ("mcc_routing.detect.visited", "count"),
    ("mcc_routing.router.resweep_us", "us"),
    ("mcc_routing.router.route_us", "us"),
    ("mcc_routing.router.hops", "count"),
    ("mcc_routing.baseline.greedy_us", "us"),
    ("mcc_routing.baseline.rfb_route_us", "us"),
    ("mcc_routing.router.delivered_ratio", "ratio"),
    ("mcc_routing.detect.refused_feasible", "count"),
    ("fault_model.rfb.admit_ratio", "ratio"),
    ("fault_model.labelling.unsafe_nodes", "count"),
    ("fault_model.mcc.regions", "count"),
    ("fault_model.rfb.disabled_nodes", "count"),
    ("mesh_service.call_us.route", "us"),
    ("mesh_service.call_us.query", "us"),
    ("mesh_service.call_us.churn", "us"),
    ("mesh_service.shard.handle_us.route", "us"),
    ("mesh_service.shard.handle_us.query", "us"),
    ("mesh_service.shard.handle_us.churn", "us"),
    ("mesh_service.hop_us.route", "us"),
    ("mesh_service.hop_us.query", "us"),
    ("mesh_service.hop_us.churn", "us"),
    ("mesh_service.admission.offer_ns", "ns"),
    ("mesh_service.admission.shed", "count"),
    ("mesh_service.wal.append_us", "us"),
    ("mesh_service.wal.appends", "count"),
    ("mesh_service.wal.bytes", "B"),
    ("mesh_service.snapshot.write_us", "us"),
    ("mesh_service.snapshot.writes", "count"),
    ("fault_model.incremental.apply_us", "us"),
    ("fault_model.incremental.sync_us", "us"),
    ("fault_model.incremental.slot_hit_ratio", "ratio"),
    ("fault_model.incremental.statuses_repaired", "count"),
    ("mesh_service.recovery.open_us", "us"),
    ("mesh_service.recovery.replayed_records", "count"),
    ("trace.unattributed_frac", "frac"),
    ("trace.redundant_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];
