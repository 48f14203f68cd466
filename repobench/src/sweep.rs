//! `sweep`: the paper's evaluation loop (Tables 3–4). Every op draws a
//! fresh uniform fault set, prepares a mesh for it and runs one trial, so
//! every op misses the model cache and regime injection plus model
//! construction do the work.

use std::time::Instant;

use fault_model::FaultRegime;
use mcc_routing::{PreparedMesh2, PreparedMesh3, TrialOptions, TrialResult};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};

use crate::common::{repeat_setup, Digest, Rng, RunConfig, RunResult};
use crate::trace::Tracer;
use crate::trial::{self, Scratch2, Scratch3, BORDER};

/// Ops per second of `--seconds` (about 0.45 ms per op).
pub const NOMINAL_OPS_PER_S: u64 = 2_200;
/// 3-D mesh side (16³, the paper's E3 size).
const K3: i32 = 16;
/// 3-D fault counts (E3).
const FAULTS3: (u64, u64) = (10, 120);
/// Minimum 3-D endpoint distance.
const DIST3: u32 = 16;
/// 2-D mesh side (64², 4096 nodes).
const W2: i32 = 64;
/// 2-D fault counts.
const FAULTS2: (u64, u64) = (20, 200);
/// Minimum 2-D endpoint distance.
const DIST2: u32 = 32;
/// Untimed warm-up ops per set-up.
const WARM_OPS: u64 = 300;
/// Root span of one traced op.
const ROOT: &str = "op.sweep";

/// One trial's inputs.
#[derive(Clone, Copy, Debug)]
enum Op {
    D3 {
        s: C3,
        d: C3,
        faults: usize,
        fault_seed: u64,
        seed: u64,
    },
    D2 {
        s: C2,
        d: C2,
        faults: usize,
        fault_seed: u64,
        seed: u64,
    },
}

/// The inputs of the workload.
pub fn definition() -> String {
    format!(
        "sweep: per op a fresh FaultRegime::Uniform fault set, PreparedMesh::new and one \
         run_trial(TrialOptions::default()); 3 of 4 ops 3-D {K3}^3 with {}-{} faults and \
         endpoints >= {DIST3} hops apart, 1 of 4 ops 2-D {W2}^2 with {}-{} faults and \
         endpoints >= {DIST2} apart; {WARM_OPS} warm-up ops per set-up",
        FAULTS3.0, FAULTS3.1, FAULTS2.0, FAULTS2.1
    )
}

fn plan(seed: u64, stream: u64, n: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| {
            if i % 4 != 3 {
                let (s, d) = trial::pair_3d(&mut rng, K3, DIST3, |_| true);
                Op::D3 {
                    s,
                    d,
                    faults: rng.range(FAULTS3.0, FAULTS3.1) as usize,
                    fault_seed: rng.next_u64(),
                    seed: rng.next_u64(),
                }
            } else {
                let (s, d) = trial::pair_2d(&mut rng, W2, W2, DIST2, |_| true);
                Op::D2 {
                    s,
                    d,
                    faults: rng.range(FAULTS2.0, FAULTS2.1) as usize,
                    fault_seed: rng.next_u64(),
                    seed: rng.next_u64(),
                }
            }
        })
        .collect()
}

fn mesh3(faults: usize, fault_seed: u64, s: C3, d: C3) -> Mesh3D {
    let mut mesh = Mesh3D::kary(K3);
    FaultRegime::Uniform.inject_3d(&mut mesh, faults, fault_seed, &[s, d], BORDER);
    mesh
}

fn mesh2(faults: usize, fault_seed: u64, s: C2, d: C2) -> Mesh2D {
    let mut mesh = Mesh2D::kary(W2);
    FaultRegime::Uniform.inject_2d(&mut mesh, faults, fault_seed, &[s, d], BORDER);
    mesh
}

/// One untraced op: the trial, its endpoint distance, and whether it
/// reused a cached orientation (never, by construction).
fn run_op(op: &Op) -> (TrialResult, u32, bool) {
    let opts = TrialOptions::default();
    match *op {
        Op::D3 {
            s,
            d,
            faults,
            fault_seed,
            seed,
        } => {
            let mesh = mesh3(faults, fault_seed, s, d);
            let mut pm = PreparedMesh3::new(&mesh, opts);
            let before = pm.orientations_computed();
            let r = pm.run_trial(s, d, seed);
            (r, s.dist(d), pm.orientations_computed() == before)
        }
        Op::D2 {
            s,
            d,
            faults,
            fault_seed,
            seed,
        } => {
            let mesh = mesh2(faults, fault_seed, s, d);
            let mut pm = PreparedMesh2::new(&mesh, opts);
            let before = pm.orientations_computed();
            let r = pm.run_trial(s, d, seed);
            (r, s.dist(d), pm.orientations_computed() == before)
        }
    }
}

/// One traced op through the decomposed calls.
fn traced_op(op: &Op, sc2: &mut Scratch2, sc3: &mut Scratch3, tr: &mut Tracer) -> TrialResult {
    match *op {
        Op::D3 {
            s,
            d,
            faults,
            fault_seed,
            seed,
        } => {
            let mesh = tr.time(trial::span::INJECT, || mesh3(faults, fault_seed, s, d));
            let models = trial::build_3d(&mesh, Frame3::for_pair(&mesh, s, d), tr);
            let blocks = trial::blocks_3d(&mesh, tr);
            trial::decomposed_3d(&mesh, &models, &blocks, s, d, seed, sc3, tr)
        }
        Op::D2 {
            s,
            d,
            faults,
            fault_seed,
            seed,
        } => {
            let mesh = tr.time(trial::span::INJECT, || mesh2(faults, fault_seed, s, d));
            let models = trial::build_2d(&mesh, Frame2::for_pair(&mesh, s, d), tr);
            let blocks = trial::blocks_2d(&mesh, tr);
            trial::decomposed_2d(&mesh, &models, &blocks, s, d, seed, sc2, tr)
        }
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult {
        definition: definition(),
        ..RunResult::default()
    };
    let (ops, setup_s) = repeat_setup(|| {
        let warm = plan(cfg.seed, 1, WARM_OPS);
        for op in &warm {
            let (r, dist, _) = run_op(op);
            trial::check(&r, dist).map_err(|e| format!("warm-up trial failed: {e}"))?;
        }
        Ok(plan(cfg.seed, 2, cfg.ops))
    })?;
    res.setup_s = setup_s;

    let mut digest = Digest::default();
    let mut results = Vec::new();
    let mut hits = 0u64;
    res.lat_ns.reserve(ops.len());
    let t0 = Instant::now();
    for op in &ops {
        let t = Instant::now();
        let (r, dist, hit) = run_op(op);
        res.lat_ns.push(t.elapsed().as_nanos() as u64);
        hits += u64::from(hit);
        trial::fold(&mut digest, &r);
        res.record(trial::check(&r, dist).map_err(|e| format!("{e}: {op:?}")));
        if cfg.trace {
            results.push(r);
        }
    }
    res.measured_s = t0.elapsed().as_secs_f64();
    res.digest = digest.value();

    if cfg.trace {
        let mut tr = Tracer::new();
        let (mut sc2, mut sc3) = (Scratch2::default(), Scratch3::default());
        let t0 = Instant::now();
        for (i, (op, want)) in ops.iter().zip(&results).enumerate() {
            tr.set_op(i as u32);
            let root = tr.begin(ROOT);
            let got = traced_op(op, &mut sc2, &mut sc3, &mut tr);
            tr.end(root);
            if !got.bit_identical(want) {
                res.fail(format!("op {i}: traced {got:?} != run_trial {want:?}"));
            }
        }
        let traced_s = t0.elapsed().as_secs_f64();
        res.layers = trial::layer_metrics(&tr, ROOT, cfg.ops, hits, res.measured_s, traced_s);
        res.layer_table = tr.table(ROOT, cfg.ops);
        crate::common::write_trace(cfg, "sweep", &res, &tr)?;
    }
    Ok(res)
}
