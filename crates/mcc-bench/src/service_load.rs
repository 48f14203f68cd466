//! Saturation ramps against the crash-safe resident service.
//!
//! Where [`crate::loadgen`] drives the model kernels directly, this
//! driver offers the same open-loop schedule to a journaled
//! [`mesh_service::MeshService`]: every planned op becomes a request
//! against one of the service's shards, passes that shard's bounded
//! virtual-time admission queue, and is either executed (route / region
//! query / churn, durably journaled) or **shed** with a typed
//! [`ServiceError::Overloaded`]/[`ServiceError::Deadline`] error. The
//! interesting measurement beyond E13/E14 is therefore the *shed-rate*
//! curve: how gracefully the service refuses work beyond saturation
//! instead of letting latency collapse.
//!
//! **Determinism contract.** The request sequence is the same
//! deterministic plan as [`crate::loadgen::plan_step`], and each shard's
//! requests are issued in schedule order by a single worker, so the
//! admission verdicts — a pure fold of the virtual-time queue over the
//! plan — are deterministic too. Everything in the rendered table
//! (admit/shed/reject counts, shed rate, final shard generations) is a
//! pure function of the scenario; only the JSON's latency percentiles and
//! throughput fields are wall-clock. Pinned by the `e15_service` golden
//! snapshot and the service-loadgen integration tests.
//!
//! Shard journals live under a per-run temp directory that is removed
//! when the run finishes; the bootstrap fault population is applied as an
//! explicit journaled churn batch *before* the service starts, so it
//! bypasses admission and is covered by recovery like any other write.

use std::time::{Duration, Instant};

use mesh_service::{
    AdmissionConfig, CrashPoint, Geometry, MeshService, Request, Response, ServiceConfig,
    ServiceError, ShardCore, ShardSpec, SyncPolicy,
};
use mesh_topo::par::bands;
use mesh_topo::{detected_cores, Mesh2D, Mesh3D, Parallelism};

use crate::hist::LatencyHist;
use crate::loadgen::{offered_rps, plan_step, slot_seed, OpClass, OpSpec};
use crate::scenario::{worker_count, MeshDims, Scenario, ScenarioError, TableKind};

/// Per-step measurements. Every field except the explicitly wall-clock
/// ones (`achieved_rps`, `elapsed_ms`, the percentiles) is deterministic
/// for a fixed scenario.
#[derive(Clone, Debug)]
pub struct ServiceStepReport {
    /// 0-based ramp step index.
    pub step: usize,
    /// Offered rate this step ran at.
    pub offered_rps: u32,
    /// Ops issued (deterministic: `max(1, round(rps × step_secs))`).
    pub ops: u64,
    /// Ops the admission layer accepted and the shards executed.
    pub admitted: u64,
    /// Ops shed because the shard's queue was at capacity.
    pub shed_overloaded: u64,
    /// Ops shed because their simulated wait exceeded the deadline.
    pub shed_deadline: u64,
    /// Ops rejected as malformed/unsatisfiable (e.g. no healthy pair).
    pub rejected: u64,
    /// Admitted route ops whose packet was not delivered (deterministic —
    /// the router is).
    pub undelivered: u64,
    /// `(shed_overloaded + shed_deadline) / ops`.
    pub shed_rate: f64,
    /// Completed ops per wall-clock second (wall-clock).
    pub achieved_rps: f64,
    /// Step wall-clock duration in milliseconds (wall-clock).
    pub elapsed_ms: f64,
    /// Latency percentiles over the step's **admitted** ops, µs, measured
    /// from each op's scheduled arrival to its completion (wall-clock).
    pub p50_us: u64,
    /// 99th percentile of admitted-op latency (wall-clock).
    pub p99_us: u64,
    /// 99.9th percentile of admitted-op latency (wall-clock).
    pub p999_us: u64,
    /// Whether this step crossed the saturation threshold (shed rate over
    /// the profile's `fail_limit` — deterministic by design).
    pub saturated: bool,
}

/// The outcome of one service saturation ramp.
#[derive(Clone, Debug)]
pub struct ServiceLoadReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Resolved client worker budget (the issuing pool is capped at one
    /// worker per shard).
    pub threads: usize,
    /// Hardware threads the platform reports (for cross-machine reading).
    pub detected_cores: usize,
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
    /// (deterministic: the bootstrap batch plus every admitted churn op).
    pub final_gens: Vec<u64>,
    /// Total supervisor-recorded shard recoveries (0 in a healthy run).
    pub recoveries: u64,
}

/// The request a planned op turns into, against shard `op.slot`.
fn op_request(op: &OpSpec, min_dist: u32) -> Request {
    match op.class {
        OpClass::Routing => Request::RouteRandom {
            seed: op.seed,
            min_dist,
        },
        OpClass::Labelling => Request::QueryRandom { seed: op.seed },
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
            sc.inject_2d(&mut mesh, count, seed, &[]);
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
            sc.inject_3d(&mut mesh, count, seed, &[]);
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
    let threads = worker_count(sc)?;

    // Shard journals live for exactly this run.
    let root = mesh_service::testutil::TempDir::new("loadgen");
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

    let workers = threads.min(shards_n);
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
        op_base += plan.len() as u64;
        let virtual_base = step as u64 * step_ns;
        let (tallies, hist, elapsed) = execute_step(&svc, &plan, workers, &min_dists, virtual_base);
        let ops = plan.len() as u64;
        let shed = tallies.shed_overloaded + tallies.shed_deadline;
        let shed_rate = shed as f64 / ops as f64;
        let saturated = shed_rate > load.fail_limit;
        steps.push(ServiceStepReport {
            step,
            offered_rps: rps,
            ops,
            admitted: tallies.admitted,
            shed_overloaded: tallies.shed_overloaded,
            shed_deadline: tallies.shed_deadline,
            rejected: tallies.rejected,
            undelivered: tallies.undelivered,
            shed_rate,
            achieved_rps: ops as f64 / elapsed.as_secs_f64(),
            elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
            p50_us: hist.percentile(0.50) / 1_000,
            p99_us: hist.percentile(0.99) / 1_000,
            p999_us: hist.percentile(0.999) / 1_000,
            saturated,
        });
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
        threads,
        detected_cores: detected_cores(),
        shards: shards_n,
        geometries: geometries.iter().map(|d| dims_label(*d)).collect(),
        steps,
        saturated_at_rps: saturated_at,
        final_gens,
        recoveries,
    })
}

#[derive(Default)]
struct Tallies {
    admitted: u64,
    shed_overloaded: u64,
    shed_deadline: u64,
    rejected: u64,
    undelivered: u64,
}

/// Issue one step's plan: shards are sharded contiguously over `workers`
/// scoped threads, each worker walks its shards' ops in schedule order
/// (so per-shard request order — and with it every admission verdict —
/// is deterministic), sleeps until each op's scheduled arrival, and
/// records admitted-op latency from the scheduled arrival.
fn execute_step(
    svc: &MeshService,
    plan: &[OpSpec],
    workers: usize,
    min_dists: &[u32],
    virtual_base: u64,
) -> (Tallies, LatencyHist, Duration) {
    let ranges = bands(min_dists.len(), workers);
    let t0 = Instant::now();
    let parts: Vec<(Tallies, LatencyHist)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let range = range.clone();
                scope.spawn(move || {
                    let mut tallies = Tallies::default();
                    let mut hist = LatencyHist::new();
                    for op in plan.iter().filter(|op| range.contains(&op.slot)) {
                        let sched = Duration::from_nanos(op.sched_ns);
                        if let Some(wait) = sched.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let req = op_request(op, min_dists[op.slot]);
                        match svc.call(op.slot, req, virtual_base + op.sched_ns) {
                            Ok(resp) => {
                                tallies.admitted += 1;
                                if let Response::Route {
                                    delivered: false, ..
                                } = resp
                                {
                                    tallies.undelivered += 1;
                                }
                                let latency = t0.elapsed().saturating_sub(sched);
                                hist.record(latency.as_nanos() as u64);
                            }
                            Err(ServiceError::Overloaded { .. }) => tallies.shed_overloaded += 1,
                            Err(ServiceError::Deadline { .. }) => tallies.shed_deadline += 1,
                            Err(ServiceError::Rejected { .. }) => tallies.rejected += 1,
                            Err(e) => panic!("service op on shard {}: {e}", op.slot),
                        }
                    }
                    (tallies, hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service loadgen worker panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut tallies = Tallies::default();
    let mut hist = LatencyHist::new();
    for (t, h) in &parts {
        tallies.admitted += t.admitted;
        tallies.shed_overloaded += t.shed_overloaded;
        tallies.shed_deadline += t.shed_deadline;
        tallies.rejected += t.rejected;
        tallies.undelivered += t.undelivered;
        hist.merge(h);
    }
    (tallies, hist, elapsed)
}

impl ServiceLoadReport {
    /// The machine-readable summary the `loadgen` binary writes
    /// (hand-built JSON).
    pub fn to_json(&self) -> String {
        let sc = &self.scenario;
        let service = sc
            .service
            .as_ref()
            .expect("service reports come from service scenarios");
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"service\",\n");
        json.push_str(&format!("  \"scenario\": \"{}\",\n", sc.name));
        json.push_str(&crate::report::fault_regime_field(sc.regime.name()));
        json.push_str(&format!("  \"seed\": {},\n", sc.seed_start));
        json.push_str(&format!("  \"threads\": {},\n", self.threads));
        json.push_str(&format!("  \"detected_cores\": {},\n", self.detected_cores));
        json.push_str(&format!("  \"shards\": {},\n", self.shards));
        json.push_str(&format!(
            "  \"geometries\": [{}],\n",
            self.geometries
                .iter()
                .map(|g| format!("\"{g}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str(&format!(
            "  \"queue_cap\": {}, \"deadline_ms\": {}, \"cost_us\": [{}, {}, {}], \
             \"snapshot_every\": {},\n",
            service.queue_cap,
            service.deadline_ms,
            service.cost_us[0],
            service.cost_us[1],
            service.cost_us[2],
            service.snapshot_every,
        ));
        json.push_str("  \"steps\": [\n");
        for (i, s) in self.steps.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"step\": {}, \"offered_rps\": {}, \"ops\": {}, \
                 \"admitted\": {}, \"shed_overloaded\": {}, \"shed_deadline\": {}, \
                 \"rejected\": {}, \"undelivered\": {}, \"shed_rate\": {:.6}, \
                 \"achieved_rps\": {:.2}, \"elapsed_ms\": {:.3}, \"p50_us\": {}, \
                 \"p99_us\": {}, \"p999_us\": {}, \"saturated\": {}}}{}\n",
                s.step,
                s.offered_rps,
                s.ops,
                s.admitted,
                s.shed_overloaded,
                s.shed_deadline,
                s.rejected,
                s.undelivered,
                s.shed_rate,
                s.achieved_rps,
                s.elapsed_ms,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                s.saturated,
                if i + 1 < self.steps.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        match self.saturated_at_rps {
            Some(rps) => json.push_str(&format!("  \"saturated_at_rps\": {rps},\n")),
            None => json.push_str("  \"saturated_at_rps\": null,\n"),
        }
        json.push_str(&format!(
            "  \"final_gens\": [{}],\n",
            self.final_gens
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str(&format!("  \"recoveries\": {}\n", self.recoveries));
        json.push_str("}\n");
        json
    }

    /// Render the ramp as an aligned text table for the console.
    ///
    /// Every printed character is deterministic for a fixed scenario —
    /// no thread counts, no wall-clock fields — so service tables are
    /// golden-snapshot stable (the latency percentiles live in the JSON
    /// summary instead).
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
