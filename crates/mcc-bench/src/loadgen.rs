//! Open-loop saturation load generation over mixed workloads.
//!
//! Where [`crate::runner`] answers "what do the paper's tables look like",
//! this module answers "how much sustained traffic does the stack take
//! before latency or correctness gives out". [`run_load`] drives a
//! long-lived pool of mesh instances — each slot owns a routing mesh
//! served through [`PreparedMesh2`]/[`PreparedMesh3`], a labelling mesh,
//! and an [`IncrementalModels2`]/[`IncrementalModels3`] under fault churn
//! — with an open-loop request stream described by the scenario's
//! `[load]` section (see [`crate::scenario`]): the offered rate starts at
//! `initial_rps`, rises by `increment_rps` every `step_secs`-second step,
//! and the ramp stops when the step's p99 latency or failure rate crosses
//! the profile's saturation thresholds (or the rate ceiling is reached).
//!
//! **Open-loop** means arrivals are scheduled on a fixed clock, not gated
//! on completions: every request has a scheduled arrival time, workers
//! sleep until it when they are early, and latency is measured from the
//! *scheduled* arrival to completion. A saturated system therefore shows
//! queueing delay honestly instead of silently slowing the request stream
//! (the coordinated-omission trap of closed-loop harnesses).
//!
//! **Determinism contract.** The request sequence is a pure function of
//! the profile and the scenario's `seed_start`: how many ops each step
//! issues, their class interleave (error-diffusion over the `mix`
//! weights, see [`plan_step`]), their slot assignment, and every per-op
//! RNG seed. Two runs of the same scenario execute the identical op
//! sequence and — because the kernels themselves are deterministic — the
//! identical failure counts; only wall-clock fields (latency percentiles,
//! achieved throughput, elapsed time) vary between runs. Pinned by the
//! `loadgen` integration tests.
//!
//! Latency is recorded in a per-worker [`LatencyHist`] (merged per step),
//! so percentile reporting is O(1) memory no matter how many requests a
//! step issues.

use std::time::{Duration, Instant};

use fault_model::incremental::{IncrementalModels2, IncrementalModels3};
use mcc_protocols::labelling::{DistLabelling2, DistLabelling3};
use mcc_routing::prepared::{PreparedMesh2, PreparedMesh3};
use mcc_routing::trial::TrialOptions;
use mesh_topo::coord::{c2, c3};
use mesh_topo::par::bands;
use mesh_topo::{detected_cores, Frame2, Frame3, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hist::LatencyHist;
use crate::runner::{mix_trial_seed, random_healthy_pair_2d, random_healthy_pair_3d};
use crate::scenario::{worker_count, LoadProfile, MeshDims, Scenario, ScenarioError, TableKind};

/// The workload classes a `[load]` mix interleaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// One routing trial (pair sample + MCC/RFB/greedy per the scenario's
    /// router selection) on the slot's prepared routing mesh.
    Routing,
    /// One distributed-labelling convergence run on the slot's labelling
    /// mesh.
    Labelling,
    /// One paired heal+inject churn batch through the slot's incremental
    /// models.
    Churn,
}

/// One planned request: what to run, where, with which randomness, and
/// when it is scheduled to arrive (nanoseconds from step start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// Workload class, drawn from the mix by error diffusion.
    pub class: OpClass,
    /// Pool slot (round-robin over the whole pool, all geometries).
    pub slot: usize,
    /// Per-op RNG seed, mixed from the scenario's `seed_start` and the
    /// op's global index — independent of thread interleaving.
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
/// arguments — this *is* the request sequence the determinism contract
/// pins; `op_base` is the count of ops planned by earlier steps, so seeds
/// and slot rotation continue across steps instead of restarting.
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
    let classes = [OpClass::Routing, OpClass::Labelling, OpClass::Churn];
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

/// Per-step measurements. Fields up to `failures`/`fail_rate` are
/// deterministic for a fixed scenario; the wall-clock fields
/// (`achieved_rps`, `elapsed_ms`, the percentiles) are not.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// 0-based ramp step index.
    pub step: usize,
    /// Offered rate this step ran at.
    pub offered_rps: u32,
    /// Ops issued (deterministic: `max(1, round(rps × step_secs))`).
    pub ops: u64,
    /// Ops of each class, from the plan (deterministic).
    pub ops_routing: u64,
    /// Labelling ops (deterministic).
    pub ops_labelling: u64,
    /// Churn ops (deterministic).
    pub ops_churn: u64,
    /// Failed ops: routing trials whose selected router did not deliver a
    /// pair the oracle says is connected, and labelling runs that did not
    /// quiesce. Deterministic — the kernels are.
    pub failures: u64,
    /// `failures / ops`.
    pub fail_rate: f64,
    /// Completed ops per wall-clock second (wall-clock).
    pub achieved_rps: f64,
    /// Step wall-clock duration in milliseconds (wall-clock).
    pub elapsed_ms: f64,
    /// Latency percentiles over the step, microseconds, measured from
    /// each op's *scheduled* arrival to its completion (wall-clock).
    pub p50_us: u64,
    /// 99th percentile (wall-clock).
    pub p99_us: u64,
    /// 99.9th percentile (wall-clock).
    pub p999_us: u64,
    /// Whether this step crossed a saturation threshold (p99 over
    /// `p99_limit_ms`, or failure rate over `fail_limit`).
    pub saturated: bool,
}

/// The outcome of one saturation ramp.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Resolved thread budget the pool ran under.
    pub threads: usize,
    /// Hardware threads the platform reports (for cross-machine reading).
    pub detected_cores: usize,
    /// Total pool slots across all geometries.
    pub pool_slots: usize,
    /// The pool's mesh geometries, e.g. `["16x16", "6x6x6"]`.
    pub geometries: Vec<String>,
    /// One report per executed ramp step, in ramp order.
    pub steps: Vec<StepReport>,
    /// The offered rate at which the ramp saturated, if it did before
    /// reaching `max_rps`.
    pub saturated_at_rps: Option<u32>,
}

/// One pool slot: an immutable routing mesh (prepared per step by its
/// worker), an immutable labelling mesh, and incremental models whose
/// mesh the churn ops mutate. Routing/labelling stay on their own fixed
/// fault populations so their failure counts cannot depend on how churn
/// interleaves — that separation is what keeps the per-step failure
/// column deterministic.
#[allow(clippy::large_enum_variant)] // a pool holds a handful of slots, ever
enum Slot {
    D2 {
        route: Mesh2D,
        lab: Mesh2D,
        inc: IncrementalModels2,
        min_dist: u32,
    },
    D3 {
        route: Mesh3D,
        lab: Mesh3D,
        inc: IncrementalModels3,
        min_dist: u32,
    },
}

/// A worker's per-step view of one of its slots: the prepared routing
/// mesh borrows the slot's immutable `route` field while churn keeps
/// exclusive access to `inc` (disjoint field borrows).
#[allow(clippy::large_enum_variant)] // one short-lived Ctx per slot per step
enum Ctx<'a> {
    D2 {
        prep: PreparedMesh2<'a>,
        lab: &'a Mesh2D,
        inc: &'a mut IncrementalModels2,
        min_dist: u32,
    },
    D3 {
        prep: PreparedMesh3<'a>,
        lab: &'a Mesh3D,
        inc: &'a mut IncrementalModels3,
        min_dist: u32,
    },
}

/// Decorrelated fault-population seeds for a slot's three meshes: the
/// same master seed must not hand the routing, labelling and churn
/// meshes identical fault sets (they would fail in lockstep).
pub(crate) fn slot_seed(master: u64, geometry: usize, slot: usize, purpose: u64) -> u64 {
    master
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(((geometry as u64) << 40) ^ ((slot as u64) << 8) ^ purpose)
}

fn build_slot(sc: &Scenario, dims: MeshDims, geometry: usize, index: usize) -> Slot {
    let count = sc.fault_counts[0];
    let min_dist = (dims.max_extent() as f64 * sc.min_dist_frac).round() as u32;
    let seed = |purpose| slot_seed(sc.seed_start, geometry, index, purpose);
    match dims {
        MeshDims::D2 { width, height } => {
            let build = |purpose: u64| {
                let mut mesh = if sc.wrap {
                    Mesh2D::torus(width, height)
                } else {
                    Mesh2D::new(width, height)
                };
                sc.inject_2d(&mut mesh, count, seed(purpose), &[]);
                mesh
            };
            Slot::D2 {
                route: build(0),
                lab: build(1),
                inc: IncrementalModels2::new(build(2), sc.border),
                min_dist,
            }
        }
        MeshDims::D3 { x, y, z } => {
            let build = |purpose: u64| {
                let mut mesh = if sc.wrap {
                    Mesh3D::torus(x, y, z)
                } else {
                    Mesh3D::new(x, y, z)
                };
                sc.inject_3d(&mut mesh, count, seed(purpose), &[]);
                mesh
            };
            Slot::D3 {
                route: build(0),
                lab: build(1),
                inc: IncrementalModels3::new(build(2), sc.border),
                min_dist,
            }
        }
    }
}

/// Execute one op on its slot; `true` means the op succeeded.
fn exec_op(ctx: &mut Ctx<'_>, op: &OpSpec, router_ok: impl Fn(bool, bool, bool) -> bool) -> bool {
    let mut rng = SmallRng::seed_from_u64(op.seed);
    match (op.class, ctx) {
        (OpClass::Routing, Ctx::D2 { prep, min_dist, .. }) => {
            let (s, d) = random_healthy_pair_2d(&mut rng, prep.mesh(), *min_dist);
            let r = prep.run_trial(s, d, rng.gen());
            !r.oracle_ok || router_ok(r.mcc_ok, r.rfb_ok, r.greedy_ok)
        }
        (OpClass::Routing, Ctx::D3 { prep, min_dist, .. }) => {
            let (s, d) = random_healthy_pair_3d(&mut rng, prep.mesh(), *min_dist);
            let r = prep.run_trial(s, d, rng.gen());
            !r.oracle_ok || router_ok(r.mcc_ok, r.rfb_ok, r.greedy_ok)
        }
        (OpClass::Labelling, Ctx::D2 { lab, .. }) => {
            DistLabelling2::run(lab, Frame2::identity(lab))
                .stats
                .quiescent
        }
        (OpClass::Labelling, Ctx::D3 { lab, .. }) => {
            DistLabelling3::run(lab, Frame3::identity(lab))
                .stats
                .quiescent
        }
        (OpClass::Churn, Ctx::D2 { inc, .. }) => {
            let faults = inc.mesh().faults().to_vec();
            let heal = faults[rng.gen_range(0..faults.len())];
            let (w, h) = (inc.mesh().width(), inc.mesh().height());
            let inject = loop {
                let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
                if inc.mesh().is_healthy(c) {
                    break c;
                }
            };
            inc.apply(&[inject], &[heal]);
            true
        }
        (OpClass::Churn, Ctx::D3 { inc, .. }) => {
            let faults = inc.mesh().faults().to_vec();
            let heal = faults[rng.gen_range(0..faults.len())];
            let (nx, ny, nz) = (inc.mesh().nx(), inc.mesh().ny(), inc.mesh().nz());
            let inject = loop {
                let c = c3(
                    rng.gen_range(0..nx),
                    rng.gen_range(0..ny),
                    rng.gen_range(0..nz),
                );
                if inc.mesh().is_healthy(c) {
                    break c;
                }
            };
            inc.apply(&[inject], &[heal]);
            true
        }
    }
}

/// Run one step's plan over the pool: slots are sharded contiguously
/// over `workers` scoped threads (exclusive `&mut` per shard, so churn
/// needs no locking), each worker walks its slots' ops in schedule
/// order, sleeps until each op's scheduled arrival when early, and
/// records completion − scheduled-arrival into a worker-local histogram.
/// Returns the merged histogram, failure count and step wall time.
fn execute_step(
    slots: &mut [Slot],
    plan: &[OpSpec],
    workers: usize,
    opts: TrialOptions,
    sc: &Scenario,
) -> (LatencyHist, u64, Duration) {
    let router = sc.router;
    let router_ok = move |mcc: bool, rfb: bool, greedy: bool| {
        if router.wants_mcc() {
            mcc
        } else if router.wants_rfb() {
            rfb
        } else {
            greedy
        }
    };
    let ranges = bands(slots.len(), workers);
    let t0 = Instant::now();
    let parts: Vec<(LatencyHist, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut rest = slots;
        let mut base = 0usize;
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let lo = base;
            base += range.len();
            let router_ok = &router_ok;
            handles.push(scope.spawn(move || {
                let mut ctxs: Vec<Ctx<'_>> = chunk
                    .iter_mut()
                    .map(|slot| match slot {
                        Slot::D2 {
                            route,
                            lab,
                            inc,
                            min_dist,
                        } => Ctx::D2 {
                            prep: PreparedMesh2::new(route, opts),
                            lab,
                            inc,
                            min_dist: *min_dist,
                        },
                        Slot::D3 {
                            route,
                            lab,
                            inc,
                            min_dist,
                        } => Ctx::D3 {
                            prep: PreparedMesh3::new(route, opts),
                            lab,
                            inc,
                            min_dist: *min_dist,
                        },
                    })
                    .collect();
                let mut hist = LatencyHist::new();
                let mut failures = 0u64;
                let hi = lo + ctxs.len();
                for op in plan.iter().filter(|op| (lo..hi).contains(&op.slot)) {
                    let sched = Duration::from_nanos(op.sched_ns);
                    if let Some(wait) = sched.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let ok = exec_op(&mut ctxs[op.slot - lo], op, router_ok);
                    if !ok {
                        failures += 1;
                    }
                    let latency = t0.elapsed().saturating_sub(sched);
                    hist.record(latency.as_nanos() as u64);
                }
                (hist, failures)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut hist = LatencyHist::new();
    let mut failures = 0;
    for (h, f) in &parts {
        hist.merge(h);
        failures += f;
    }
    (hist, failures, elapsed)
}

/// Run the scenario's saturation ramp. Requires a validated `load`-table
/// scenario; see the module docs for the protocol and the determinism
/// contract.
pub fn run_load(sc: &Scenario) -> Result<LoadReport, ScenarioError> {
    sc.validate()?;
    if sc.table != TableKind::Load {
        return Err(ScenarioError::new(format!(
            "loadgen runs `table = \"load\"` scenarios; `{}` has table \"{}\" \
             (use the `tables` binary for row tables)",
            sc.name,
            sc.table.as_str()
        )));
    }
    let load = sc
        .load
        .clone()
        .expect("validate guarantees [load] on load tables");
    let opts = TrialOptions {
        border: sc.border,
        eval_mcc: sc.router.wants_mcc(),
        eval_rfb: sc.router.wants_rfb(),
        eval_greedy: sc.router.wants_greedy(),
    };
    let geometries: Vec<MeshDims> = std::iter::once(sc.dims).chain(load.alt_dims).collect();
    let total_slots = load.pool * geometries.len();
    let workers = worker_count(sc)?;
    let mut slots: Vec<Slot> = geometries
        .iter()
        .enumerate()
        .flat_map(|(g, &dims)| (0..load.pool).map(move |i| (g, dims, i)))
        .map(|(g, dims, i)| build_slot(sc, dims, g, i))
        .collect();

    let mut steps = Vec::new();
    let mut saturated_at = None;
    let mut op_base = 0u64;
    for step in 0..load.max_steps() {
        let rps = offered_rps(&load, step);
        let plan = plan_step(&load, rps, total_slots, sc.seed_start, op_base);
        op_base += plan.len() as u64;
        let class_count = |class| plan.iter().filter(|op| op.class == class).count() as u64;
        let (hist, failures, elapsed) = execute_step(&mut slots, &plan, workers, opts, sc);
        let ops = plan.len() as u64;
        let fail_rate = failures as f64 / ops as f64;
        let p99_us = hist.percentile(0.99) / 1_000;
        let saturated = p99_us as f64 / 1_000.0 > load.p99_limit_ms || fail_rate > load.fail_limit;
        steps.push(StepReport {
            step,
            offered_rps: rps,
            ops,
            ops_routing: class_count(OpClass::Routing),
            ops_labelling: class_count(OpClass::Labelling),
            ops_churn: class_count(OpClass::Churn),
            failures,
            fail_rate,
            achieved_rps: ops as f64 / elapsed.as_secs_f64(),
            elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
            p50_us: hist.percentile(0.50) / 1_000,
            p99_us,
            p999_us: hist.percentile(0.999) / 1_000,
            saturated,
        });
        if saturated {
            saturated_at = Some(rps);
            break;
        }
    }
    Ok(LoadReport {
        scenario: sc.clone(),
        threads: workers,
        detected_cores: detected_cores(),
        pool_slots: total_slots,
        geometries: geometries.iter().map(|d| dims_label(*d)).collect(),
        steps,
        saturated_at_rps: saturated_at,
    })
}

fn dims_label(dims: MeshDims) -> String {
    match dims {
        MeshDims::D2 { width, height } => format!("{width}x{height}"),
        MeshDims::D3 { x, y, z } => format!("{x}x{y}x{z}"),
    }
}

impl LoadReport {
    /// The machine-readable summary the `loadgen` binary writes
    /// (hand-built JSON).
    pub fn to_json(&self) -> String {
        let sc = &self.scenario;
        let load = sc
            .load
            .as_ref()
            .expect("load reports come from load scenarios");
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"loadgen\",\n");
        json.push_str(&format!("  \"scenario\": \"{}\",\n", sc.name));
        json.push_str(&crate::report::fault_regime_field(sc.regime.name()));
        json.push_str(&format!("  \"seed\": {},\n", sc.seed_start));
        json.push_str(&format!("  \"threads\": {},\n", self.threads));
        json.push_str(&format!("  \"detected_cores\": {},\n", self.detected_cores));
        json.push_str(&format!("  \"pool_slots\": {},\n", self.pool_slots));
        json.push_str(&format!(
            "  \"geometries\": [{}],\n",
            self.geometries
                .iter()
                .map(|g| format!("\"{g}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let [r, l, c] = load.mix();
        json.push_str(&format!("  \"mix\": [{r}, {l}, {c}],\n"));
        json.push_str("  \"steps\": [\n");
        for (i, s) in self.steps.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"step\": {}, \"offered_rps\": {}, \"ops\": {}, \
                 \"ops_routing\": {}, \"ops_labelling\": {}, \"ops_churn\": {}, \
                 \"failures\": {}, \"fail_rate\": {:.6}, \"achieved_rps\": {:.2}, \
                 \"elapsed_ms\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"p999_us\": {}, \"saturated\": {}}}{}\n",
                s.step,
                s.offered_rps,
                s.ops,
                s.ops_routing,
                s.ops_labelling,
                s.ops_churn,
                s.failures,
                s.fail_rate,
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
            Some(rps) => json.push_str(&format!("  \"saturated_at_rps\": {rps}\n")),
            None => json.push_str("  \"saturated_at_rps\": null\n"),
        }
        json.push_str("}\n");
        json
    }

    /// Render the ramp as an aligned text table for the console.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} [{} slots over {}; {} threads / {} cores] ==",
            self.scenario.name,
            self.pool_slots,
            self.geometries.join(" + "),
            self.threads,
            self.detected_cores
        );
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9} {:>9} {:>5}",
            "step", "rps", "ops", "achieved", "fail%", "p50us", "p99us", "p999us", "sat"
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>9.1} {:>7.2} {:>9} {:>9} {:>9} {:>5}",
                s.step,
                s.offered_rps,
                s.ops,
                s.achieved_rps,
                s.fail_rate * 100.0,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                if s.saturated { "YES" } else { "-" }
            );
        }
        match self.saturated_at_rps {
            Some(rps) => {
                let _ = writeln!(out, "saturated at {rps} rps");
            }
            None => {
                let _ = writeln!(out, "ramp completed without saturating");
            }
        }
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
            p99_limit_ms: 50.0,
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
            (OpClass::Routing, 0.5),
            (OpClass::Labelling, 0.3),
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

    #[test]
    fn run_load_rejects_non_load_tables() {
        let sc = Scenario::regions_2d(8, &[2], 4);
        let err = run_load(&sc).unwrap_err();
        assert!(err.to_string().contains("load"), "got: {err}");
    }
}
