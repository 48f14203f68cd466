//! Saturation ramps against the crash-safe resident service (E15).
//!
//! [`run_service_load`] offers an open-loop request schedule, described
//! by the scenario's `[load]` section (see [`crate::scenario`]), to a
//! journaled [`mesh_service::MeshService`]. The offered rate starts at
//! `initial_rps` and rises by `increment_rps` every `step_secs` of
//! virtual time; the ramp stops at `max_rps` or after the first step
//! whose shed rate crosses `fail_limit`. Every planned op becomes a
//! request against one of the service's shards, passes that shard's
//! bounded virtual-time admission queue, and is either executed (route /
//! region query / churn, durably journaled) or **shed** with a typed
//! [`ServiceError::Overloaded`]/[`ServiceError::Deadline`] error. The
//! measurement is therefore the *shed-rate* curve: how gracefully the
//! service refuses work beyond saturation instead of letting its queue
//! grow without bound.
//!
//! **The plan.** [`plan_step`] fixes a step's request sequence as a pure
//! function of the profile and the scenario's `seed_start`: how many ops
//! the step issues, their class interleave (error diffusion over the
//! `mix` weights), their shard, every per-op RNG seed and every scheduled
//! arrival.
//!
//! **The driver.** Admission is a fold of each shard's virtual-time queue
//! over the arrivals it is offered, so the ramp needs no clock and no
//! thread: the driver walks each step's plan in schedule order on the
//! caller's thread and hands every op its virtual arrival time. Steps
//! tile one continuous timeline, so the queues drain between steps
//! exactly as the schedule says. Everything in the report (admit/shed/
//! reject counts, shed rate, final shard generations) is a pure function
//! of the scenario, pinned by the `e15_service` golden snapshot and the
//! service-load integration tests.
//!
//! Shard journals live under a per-run temp directory that is removed
//! when the run finishes; the bootstrap fault population is applied as an
//! explicit journaled churn batch *before* the service starts, so it
//! bypasses admission and is covered by recovery like any other write.

use mesh_service::{
    AdmissionConfig, CrashPoint, Geometry, MeshService, OpClass, Request, Response, ServiceConfig,
    ServiceError, ShardCore, ShardSpec, SyncPolicy,
};
use mesh_topo::{Mesh2D, Mesh3D, Parallelism};

use crate::runner::mix_trial_seed;
use crate::scenario::{LoadProfile, MeshDims, Scenario, ScenarioError, TableKind};

/// One planned request: what to run, on which shard, with which
/// randomness, and when it is scheduled to arrive (nanoseconds from step
/// start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// Request class, drawn from the mix by error diffusion.
    pub class: OpClass,
    /// Shard (round-robin over every shard of every geometry).
    pub slot: usize,
    /// Per-op RNG seed, mixed from the scenario's `seed_start` and the
    /// op's global index.
    pub seed: u64,
    /// Scheduled arrival, nanoseconds after the step starts.
    pub sched_ns: u64,
}

/// The offered rate of ramp step `step` (0-based): `initial_rps`
/// plus `step` increments, clamped to `max_rps`.
pub fn offered_rps(load: &LoadProfile, step: usize) -> u32 {
    (load.initial_rps as u64 + step as u64 * load.increment_rps as u64).min(load.max_rps as u64)
        as u32
}

/// Plan one ramp step: `max(1, round(rps × step_secs))` ops, arrivals
/// spaced evenly at the offered rate, classes interleaved by error
/// diffusion over the mix weights (each op goes to the class with the
/// largest accumulated deficit, ties to the earlier class), slots
/// assigned round-robin by global op index. Deterministic in all
/// arguments; `op_base` is the count of ops planned by earlier steps, so
/// seeds and slot rotation continue across steps instead of restarting.
pub fn plan_step(
    load: &LoadProfile,
    rps: u32,
    slots: usize,
    master_seed: u64,
    op_base: u64,
) -> Vec<OpSpec> {
    let n = ((rps as f64 * load.step_secs).round() as u64).max(1);
    let gap_ns = 1_000_000_000.0 / rps as f64;
    let weights = load.mix();
    let total: f64 = weights.iter().sum();
    let classes = [OpClass::Route, OpClass::Query, OpClass::Churn];
    let mut deficit = [0.0f64; 3];
    (0..n)
        .map(|i| {
            let mut pick = 0;
            for k in 0..3 {
                deficit[k] += weights[k];
                if deficit[k] > deficit[pick] {
                    pick = k;
                }
            }
            deficit[pick] -= total;
            let global = op_base + i;
            OpSpec {
                class: classes[pick],
                slot: (global % slots as u64) as usize,
                seed: mix_trial_seed(master_seed, global as usize),
                sched_ns: (i as f64 * gap_ns).round() as u64,
            }
        })
        .collect()
}

/// Decorrelated bootstrap fault-population seed of one shard, so shards
/// of the same geometry do not start from identical fault sets.
fn slot_seed(master: u64, geometry: usize, slot: usize, purpose: u64) -> u64 {
    master
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(((geometry as u64) << 40) ^ ((slot as u64) << 8) ^ purpose)
}

/// Per-step counts, each a pure function of the scenario.
#[derive(Clone, Debug)]
pub struct ServiceStepReport {
    /// 0-based ramp step index.
    pub step: usize,
    /// Offered rate this step ran at.
    pub offered_rps: u32,
    /// Ops issued: `max(1, round(rps × step_secs))`.
    pub ops: u64,
    /// Ops the admission layer accepted and the shards executed.
    pub admitted: u64,
    /// Ops shed because the shard's queue was at capacity.
    pub shed_overloaded: u64,
    /// Ops shed because their simulated wait exceeded the deadline.
    pub shed_deadline: u64,
    /// Ops rejected as malformed/unsatisfiable (e.g. no healthy pair).
    pub rejected: u64,
    /// Admitted route ops whose packet was not delivered.
    pub undelivered: u64,
    /// `(shed_overloaded + shed_deadline) / ops`.
    pub shed_rate: f64,
    /// Whether this step crossed the saturation threshold (shed rate over
    /// the profile's `fail_limit`).
    pub saturated: bool,
}

/// The outcome of one service saturation ramp.
#[derive(Clone, Debug)]
pub struct ServiceLoadReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Number of service shards (`pool × geometries`).
    pub shards: usize,
    /// The shard mesh geometries, e.g. `["16x16", "6x6x6"]`.
    pub geometries: Vec<String>,
    /// One report per executed ramp step, in ramp order.
    pub steps: Vec<ServiceStepReport>,
    /// The offered rate at which the ramp saturated, if it did before
    /// reaching `max_rps`.
    pub saturated_at_rps: Option<u32>,
    /// Final durable churn generation of every shard, in shard order
    /// (the bootstrap batch plus every admitted churn op).
    pub final_gens: Vec<u64>,
    /// Total supervisor-recorded shard recoveries (0 in a healthy run).
    pub recoveries: u64,
}

/// The request a planned op turns into, against shard `op.slot`.
fn op_request(op: &OpSpec, min_dist: u32) -> Request {
    match op.class {
        OpClass::Route => Request::RouteRandom {
            seed: op.seed,
            min_dist,
        },
        OpClass::Query => Request::QueryRandom { seed: op.seed },
        OpClass::Churn => Request::ChurnRandom { seed: op.seed },
    }
}

fn dims_label(dims: MeshDims) -> String {
    match dims {
        MeshDims::D2 { width, height } => format!("{width}x{height}"),
        MeshDims::D3 { x, y, z } => format!("{x}x{y}x{z}"),
    }
}

fn dims_geometry(dims: MeshDims, wrap: bool) -> Geometry {
    match dims {
        MeshDims::D2 { width, height } => Geometry::M2 {
            width,
            height,
            wrap,
        },
        MeshDims::D3 { x, y, z } => Geometry::M3 {
            nx: x,
            ny: y,
            nz: z,
            wrap,
        },
    }
}

/// Journal the shard's bootstrap fault population (the scenario's fixed
/// fault count, decorrelated per shard) as one explicit churn batch, so
/// the service opens onto an already-faulted, durably recorded mesh.
fn bootstrap_shard(
    sc: &Scenario,
    dir: &std::path::Path,
    spec: ShardSpec,
    dims: MeshDims,
    geometry: usize,
    index: usize,
) -> Result<(), ScenarioError> {
    let count = sc.fault_counts[0];
    let seed = slot_seed(sc.seed_start, geometry, index, 3);
    let mut core = ShardCore::open(dir, spec, Parallelism::SEQ, CrashPoint::none())
        .map_err(|e| ScenarioError::new(format!("bootstrap shard {index}: {e}")))?;
    let req = match dims {
        MeshDims::D2 { width, height } => {
            let mut mesh = if sc.wrap {
                Mesh2D::torus(width, height)
            } else {
                Mesh2D::new(width, height)
            };
            sc.inject(&mut mesh, count, seed, &[]);
            Request::Churn2 {
                injected: mesh.faults().to_vec(),
                healed: vec![],
            }
        }
        MeshDims::D3 { x, y, z } => {
            let mut mesh = if sc.wrap {
                Mesh3D::torus(x, y, z)
            } else {
                Mesh3D::new(x, y, z)
            };
            sc.inject(&mut mesh, count, seed, &[]);
            Request::Churn3 {
                injected: mesh.faults().to_vec(),
                healed: vec![],
            }
        }
    };
    if count > 0 {
        core.handle(&req)
            .map_err(|e| ScenarioError::new(format!("bootstrap churn on shard {index}: {e}")))?;
    }
    Ok(())
}

/// Run the scenario's ramp against a resident service. Requires a
/// validated `service`-table scenario; see the module docs for the
/// protocol and the determinism contract.
pub fn run_service_load(sc: &Scenario) -> Result<ServiceLoadReport, ScenarioError> {
    sc.validate()?;
    if sc.table != TableKind::Service {
        return Err(ScenarioError::new(format!(
            "the service driver runs `table = \"service\"` scenarios; `{}` has \
             table \"{}\"",
            sc.name,
            sc.table.as_str()
        )));
    }
    let load = sc
        .load
        .clone()
        .expect("validate guarantees [load] on service tables");
    let profile = sc
        .service
        .clone()
        .expect("validate guarantees [service] on service tables");

    let geometries: Vec<MeshDims> = std::iter::once(sc.dims).chain(load.alt_dims).collect();
    let shards_n = load.pool * geometries.len();
    let shard_dims: Vec<MeshDims> = geometries
        .iter()
        .flat_map(|&dims| std::iter::repeat_n(dims, load.pool))
        .collect();
    let min_dists: Vec<u32> = shard_dims
        .iter()
        .map(|dims| (dims.max_extent() as f64 * sc.min_dist_frac).round() as u32)
        .collect();

    // Shard journals live for exactly this run.
    let root = mesh_service::testutil::TempDir::new("service-load");
    let specs: Vec<ShardSpec> = shard_dims
        .iter()
        .map(|&dims| {
            let mut spec = ShardSpec::new(dims_geometry(dims, sc.wrap), profile.snapshot_every);
            spec.border = sc.border;
            spec.sync = SyncPolicy::Never;
            spec
        })
        .collect();
    for (i, (&dims, &spec)) in shard_dims.iter().zip(&specs).enumerate() {
        let dir = root.path().join(format!("shard-{i:04}"));
        bootstrap_shard(sc, &dir, spec, dims, i / load.pool, i % load.pool)?;
    }

    let mut cfg = ServiceConfig::new(root.path());
    cfg.admission = AdmissionConfig {
        queue_cap: profile.queue_cap,
        deadline_ns: (profile.deadline_ms * 1_000_000.0) as u64,
        cost_ns: profile.cost_us.map(|c| c * 1_000),
    };
    let svc = MeshService::start(cfg, &specs)
        .map_err(|e| ScenarioError::new(format!("service start: {e}")))?;

    let mut steps = Vec::new();
    let mut saturated_at = None;
    let mut op_base = 0u64;
    // Steps tile one continuous virtual timeline (each lasts exactly
    // `step_secs` of virtual time), so the admission queue drains between
    // steps exactly as the open-loop schedule says it should.
    let step_ns = (load.step_secs * 1e9) as u64;
    for step in 0..load.max_steps() {
        let rps = offered_rps(&load, step);
        let plan = plan_step(&load, rps, shards_n, sc.seed_start, op_base);
        let ops = plan.len() as u64;
        op_base += ops;
        let virtual_base = step as u64 * step_ns;
        let mut report = ServiceStepReport {
            step,
            offered_rps: rps,
            ops,
            admitted: 0,
            shed_overloaded: 0,
            shed_deadline: 0,
            rejected: 0,
            undelivered: 0,
            shed_rate: 0.0,
            saturated: false,
        };
        for op in &plan {
            let req = op_request(op, min_dists[op.slot]);
            match svc.call(op.slot, req, virtual_base + op.sched_ns) {
                Ok(resp) => {
                    report.admitted += 1;
                    if let Response::Route {
                        delivered: false, ..
                    } = resp
                    {
                        report.undelivered += 1;
                    }
                }
                Err(ServiceError::Overloaded { .. }) => report.shed_overloaded += 1,
                Err(ServiceError::Deadline { .. }) => report.shed_deadline += 1,
                Err(ServiceError::Rejected { .. }) => report.rejected += 1,
                Err(e) => {
                    return Err(ScenarioError::new(format!(
                        "service op on shard {}: {e}",
                        op.slot
                    )))
                }
            }
        }
        report.shed_rate = (report.shed_overloaded + report.shed_deadline) as f64 / ops as f64;
        let saturated = report.shed_rate > load.fail_limit;
        report.saturated = saturated;
        steps.push(report);
        if saturated {
            saturated_at = Some(rps);
            break;
        }
    }

    let mut final_gens = Vec::with_capacity(shards_n);
    let mut recoveries = 0;
    for shard in 0..shards_n {
        match svc.call(shard, Request::Stats, 0) {
            Ok(Response::Stats(s)) => {
                final_gens.push(s.gen);
                recoveries += s.recoveries;
            }
            other => {
                return Err(ScenarioError::new(format!(
                    "final stats on shard {shard}: {other:?}"
                )))
            }
        }
    }
    svc.shutdown();

    Ok(ServiceLoadReport {
        scenario: sc.clone(),
        shards: shards_n,
        geometries: geometries.iter().map(|d| dims_label(*d)).collect(),
        steps,
        saturated_at_rps: saturated_at,
        final_gens,
        recoveries,
    })
}

impl ServiceLoadReport {
    /// Render the ramp as an aligned text table for the console.
    ///
    /// Every printed character is a pure function of the scenario, so
    /// service tables are golden-snapshot stable.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let sc = &self.scenario;
        let service = sc
            .service
            .as_ref()
            .expect("service reports come from service scenarios");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} [{} shards over {}; queue {}, deadline {} ms] ==",
            sc.name,
            self.shards,
            self.geometries.join(" + "),
            service.queue_cap,
            service.deadline_ms,
        );
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>5}",
            "step", "rps", "ops", "admit", "shedover", "sheddead", "rej", "undeliv", "shed%", "sat"
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7.2} {:>5}",
                s.step,
                s.offered_rps,
                s.ops,
                s.admitted,
                s.shed_overloaded,
                s.shed_deadline,
                s.rejected,
                s.undelivered,
                s.shed_rate * 100.0,
                if s.saturated { "YES" } else { "-" }
            );
        }
        match self.saturated_at_rps {
            Some(rps) => {
                let _ = writeln!(out, "saturated at {rps} rps (shed rate over fail_limit)");
            }
            None => {
                let _ = writeln!(out, "ramp completed without saturating");
            }
        }
        let _ = writeln!(
            out,
            "final shard generations: [{}]",
            self.final_gens
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LoadProfile {
        LoadProfile {
            initial_rps: 100,
            increment_rps: 50,
            max_rps: 260,
            step_secs: 0.1,
            mix_routing: 0.5,
            mix_labelling: 0.3,
            mix_churn: 0.2,
            pool: 2,
            alt_dims: None,
            fail_limit: 0.05,
        }
    }

    #[test]
    fn offered_rate_ramps_and_clamps() {
        let load = profile();
        assert_eq!(offered_rps(&load, 0), 100);
        assert_eq!(offered_rps(&load, 1), 150);
        assert_eq!(offered_rps(&load, 3), 250);
        assert_eq!(offered_rps(&load, 4), 260, "clamped to the ceiling");
        assert_eq!(offered_rps(&load, 100), 260);
        assert_eq!(load.max_steps(), 5);
    }

    #[test]
    fn plan_is_deterministic_and_proportional() {
        let load = profile();
        let a = plan_step(&load, 200, 4, 42, 0);
        let b = plan_step(&load, 200, 4, 42, 0);
        assert_eq!(a, b, "same inputs, same plan");
        assert_eq!(a.len(), 20, "round(200 × 0.1)");
        // Error diffusion keeps every class within one op of its share.
        let count = |cl| a.iter().filter(|op| op.class == cl).count() as f64;
        for (cl, w) in [
            (OpClass::Route, 0.5),
            (OpClass::Query, 0.3),
            (OpClass::Churn, 0.2),
        ] {
            assert!((count(cl) - w * 20.0).abs() <= 1.0, "{cl:?} share drifted");
        }
        // Arrivals are evenly spaced at the offered rate and monotone.
        assert_eq!(a[0].sched_ns, 0);
        assert!(a.windows(2).all(|w| w[0].sched_ns < w[1].sched_ns));
        assert_eq!(a[1].sched_ns, 5_000_000, "5 ms gap at 200 rps");
        // Slots rotate round-robin over the whole pool.
        assert!(a.iter().enumerate().all(|(i, op)| op.slot == i % 4));
        // A different op_base continues — not restarts — the sequence.
        let shifted = plan_step(&load, 200, 4, 42, 3);
        assert_ne!(a[0].seed, shifted[0].seed);
        assert_eq!(shifted[0].slot, 3);
    }

    #[test]
    fn plan_with_zero_weight_skips_the_class() {
        let mut load = profile();
        load.mix_churn = 0.0;
        let plan = plan_step(&load, 500, 3, 7, 0);
        assert_eq!(plan.len(), 50);
        assert!(plan.iter().all(|op| op.class != OpClass::Churn));
    }

    #[test]
    fn plan_never_plans_zero_ops() {
        let mut load = profile();
        load.step_secs = 0.05;
        // round(1 × 0.05) = 0, clamped up: the step must do something.
        assert_eq!(plan_step(&load, 1, 2, 0, 0).len(), 1);
    }

    #[test]
    fn slot_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for g in 0..2 {
            for s in 0..8 {
                for p in 0..3 {
                    assert!(
                        seen.insert(slot_seed(99, g, s, p)),
                        "({g},{s},{p}) collided"
                    );
                }
            }
        }
    }
}
