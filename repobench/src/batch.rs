//! `batch`: the E9 shape. Set-up prepares a pool of fault configurations
//! and builds every orientation of each; ops then route random far-apart
//! pairs against the cached models, so no model is rebuilt and the
//! per-pair layers (oracle, condition, detection, router, baselines) do
//! the work. Model construction is paid in set-up only.

use std::time::Instant;

use fault_model::FaultRegime;
use mcc_routing::{PreparedMesh2, PreparedMesh3, TrialOptions, TrialResult};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C2, C3};

use crate::common::{Digest, Rng, RunConfig, RunResult, SETUP_REPEATS};
use crate::trace::{Tracer, SETUP_OP};
use crate::trial::{self, Models2, Models3, Scratch2, Scratch3, BORDER};

/// Ops per second of `--seconds` (about 45 µs per op).
pub const NOMINAL_OPS_PER_S: u64 = 24_000;
/// Fault configurations per dimension.
const POOL: usize = 32;
/// 3-D mesh side (24³).
const K3: i32 = 24;
/// 2-D mesh side (64²).
const W2: i32 = 64;
/// Fault share range, in percent of the nodes.
const FAULT_PCT: (usize, usize) = (1, 3);
/// Root span of one traced op.
const ROOT: &str = "op.batch";

/// One routed pair.
#[derive(Clone, Copy, Debug)]
enum Op {
    D3 { cfg: usize, s: C3, d: C3, seed: u64 },
    D2 { cfg: usize, s: C2, d: C2, seed: u64 },
}

/// The inputs of the workload.
pub fn definition() -> String {
    format!(
        "batch: set-up injects {POOL} FaultRegime::Uniform configurations per dimension \
         (3-D {K3}^3 and 2-D {W2}^2, fault shares spread evenly over {}-{}%), prepares each and builds all 8 octants \
         / 4 quadrants; per op one run_trial on a random healthy pair at least one mesh \
         side apart against the cached models, 3 of 4 ops 3-D",
        FAULT_PCT.0, FAULT_PCT.1
    )
}

/// The pool's fault configurations.
struct Pool {
    m3: Vec<Mesh3D>,
    m2: Vec<Mesh2D>,
}

impl Pool {
    /// Configuration `c` of `POOL` holds `(1 + 2 (c + ½) / POOL) %` faults,
    /// so every seed sees the same spread of densities and only the fault
    /// positions depend on the seed.
    fn new(seed: u64) -> Pool {
        let mut rng = Rng::new(seed, 10);
        let count = |c: usize, nodes: usize| {
            let (lo, hi) = FAULT_PCT;
            nodes * (lo * 2 * POOL + (hi - lo) * (2 * c + 1)) / (200 * POOL)
        };
        let m3 = (0..POOL)
            .map(|c| {
                let mut m = Mesh3D::kary(K3);
                let n = count(c, m.node_count());
                FaultRegime::Uniform.inject_3d(&mut m, n, rng.next_u64(), &[], BORDER);
                m
            })
            .collect();
        let m2 = (0..POOL)
            .map(|c| {
                let mut m = Mesh2D::kary(W2);
                let n = count(c, m.node_count());
                FaultRegime::Uniform.inject_2d(&mut m, n, rng.next_u64(), &[], BORDER);
                m
            })
            .collect();
        Pool { m3, m2 }
    }
}

/// One coordinate pair along an axis of length `n`, ascending if `up`.
fn ordered(rng: &mut Rng, n: i32, up: bool) -> (i32, i32) {
    loop {
        let (a, b) = (rng.coord(n), rng.coord(n));
        if a != b {
            return if (a < b) == up { (a, b) } else { (b, a) };
        }
    }
}

/// Prepare every pool configuration and build all of its orientations by
/// running one checked trial per orientation.
fn prepare<'p>(
    pool: &'p Pool,
    seed: u64,
) -> Result<(Vec<PreparedMesh3<'p>>, Vec<PreparedMesh2<'p>>), String> {
    let opts = TrialOptions::default();
    let mut rng = Rng::new(seed, 11);
    let mut p3 = Vec::with_capacity(POOL);
    for mesh in &pool.m3 {
        let mut pm = PreparedMesh3::new(mesh, opts);
        for octant in 0..8 {
            let (s, d) = loop {
                let (x, y, z) = (
                    ordered(&mut rng, K3, octant & 1 != 0),
                    ordered(&mut rng, K3, octant & 2 != 0),
                    ordered(&mut rng, K3, octant & 4 != 0),
                );
                let s = C3 {
                    x: x.0,
                    y: y.0,
                    z: z.0,
                };
                let d = C3 {
                    x: x.1,
                    y: y.1,
                    z: z.1,
                };
                if mesh.is_healthy(s) && mesh.is_healthy(d) {
                    break (s, d);
                }
            };
            let r = pm.run_trial(s, d, rng.next_u64());
            trial::check(&r, s.dist(d)).map_err(|e| format!("warm-up trial failed: {e}"))?;
        }
        if pm.orientations_computed() != 8 {
            return Err(format!("built {} of 8 octants", pm.orientations_computed()));
        }
        p3.push(pm);
    }
    let mut p2 = Vec::with_capacity(POOL);
    for mesh in &pool.m2 {
        let mut pm = PreparedMesh2::new(mesh, opts);
        for quadrant in 0..4 {
            let (s, d) = loop {
                let x = ordered(&mut rng, W2, quadrant & 1 != 0);
                let y = ordered(&mut rng, W2, quadrant & 2 != 0);
                let (s, d) = (C2 { x: x.0, y: y.0 }, C2 { x: x.1, y: y.1 });
                if mesh.is_healthy(s) && mesh.is_healthy(d) {
                    break (s, d);
                }
            };
            let r = pm.run_trial(s, d, rng.next_u64());
            trial::check(&r, s.dist(d)).map_err(|e| format!("warm-up trial failed: {e}"))?;
        }
        if pm.orientations_computed() != 4 {
            return Err(format!(
                "built {} of 4 quadrants",
                pm.orientations_computed()
            ));
        }
        p2.push(pm);
    }
    Ok((p3, p2))
}

fn plan(pool: &Pool, seed: u64, n: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 12);
    (0..n)
        .map(|i| {
            let cfg = rng.next_u64() as usize % POOL;
            if i % 4 != 3 {
                let mesh = &pool.m3[cfg];
                let (s, d) = trial::pair_3d(&mut rng, K3, K3 as u32, |c| mesh.is_healthy(c));
                Op::D3 {
                    cfg,
                    s,
                    d,
                    seed: rng.next_u64(),
                }
            } else {
                let mesh = &pool.m2[cfg];
                let (s, d) = trial::pair_2d(&mut rng, W2, W2, W2 as u32, |c| mesh.is_healthy(c));
                Op::D2 {
                    cfg,
                    s,
                    d,
                    seed: rng.next_u64(),
                }
            }
        })
        .collect()
}

/// The decomposed models of the pool, built with spans (traced runs).
struct TracedPool {
    m3: Vec<(fault_model::FaultBlocks3, Vec<Models3>)>,
    m2: Vec<(fault_model::FaultBlocks2, Vec<Models2>)>,
}

impl TracedPool {
    /// Build every orientation of every configuration, stored by
    /// `Frame::index()`.
    fn build(pool: &Pool, tr: &mut Tracer) -> Result<TracedPool, String> {
        tr.set_op(SETUP_OP);
        let mut m3 = Vec::with_capacity(POOL);
        for mesh in &pool.m3 {
            let blocks = trial::blocks_3d(mesh, tr);
            let mut models: Vec<Option<Models3>> = (0..8).map(|_| None).collect();
            for octant in 0..8 {
                let axis = |bit: i32| if octant & bit != 0 { (0, 1) } else { (1, 0) };
                let (x, y, z) = (axis(1), axis(2), axis(4));
                let s = C3 {
                    x: x.0,
                    y: y.0,
                    z: z.0,
                };
                let d = C3 {
                    x: x.1,
                    y: y.1,
                    z: z.1,
                };
                let frame = Frame3::for_pair(mesh, s, d);
                models[frame.index()] = Some(trial::build_3d(mesh, frame, tr));
            }
            let models = models.into_iter().collect::<Option<Vec<_>>>();
            m3.push((
                blocks,
                models.ok_or("octants do not cover every frame index")?,
            ));
        }
        let mut m2 = Vec::with_capacity(POOL);
        for mesh in &pool.m2 {
            let blocks = trial::blocks_2d(mesh, tr);
            let mut models: Vec<Option<Models2>> = (0..4).map(|_| None).collect();
            for quadrant in 0..4 {
                let axis = |bit: i32| if quadrant & bit != 0 { (0, 1) } else { (1, 0) };
                let (x, y) = (axis(1), axis(2));
                let frame = Frame2::for_pair(mesh, C2 { x: x.0, y: y.0 }, C2 { x: x.1, y: y.1 });
                models[frame.index()] = Some(trial::build_2d(mesh, frame, tr));
            }
            let models = models.into_iter().collect::<Option<Vec<_>>>();
            m2.push((
                blocks,
                models.ok_or("quadrants do not cover every frame index")?,
            ));
        }
        Ok(TracedPool { m3, m2 })
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = RunResult {
        definition: definition(),
        ..RunResult::default()
    };
    // Set-up repeats; the last incarnation serves the measured phase.
    for _ in 1..SETUP_REPEATS {
        let t0 = Instant::now();
        let pool = Pool::new(cfg.seed);
        let prepared = prepare(&pool, cfg.seed)?;
        res.setup_s.push(t0.elapsed().as_secs_f64());
        drop(prepared);
    }
    let t0 = Instant::now();
    let pool = Pool::new(cfg.seed);
    let (mut p3, mut p2) = prepare(&pool, cfg.seed)?;
    res.setup_s.push(t0.elapsed().as_secs_f64());
    let ops = plan(&pool, cfg.seed, cfg.ops);

    let mut digest = Digest::default();
    let mut results: Vec<TrialResult> = Vec::new();
    let mut hits = 0u64;
    res.lat_ns.reserve(ops.len());
    let t0 = Instant::now();
    for op in &ops {
        let t = Instant::now();
        let (r, dist, hit) = match *op {
            Op::D3 { cfg, s, d, seed } => {
                let pm = &mut p3[cfg];
                let before = pm.orientations_computed();
                let r = pm.run_trial(s, d, seed);
                (r, s.dist(d), pm.orientations_computed() == before)
            }
            Op::D2 { cfg, s, d, seed } => {
                let pm = &mut p2[cfg];
                let before = pm.orientations_computed();
                let r = pm.run_trial(s, d, seed);
                (r, s.dist(d), pm.orientations_computed() == before)
            }
        };
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
        let traced = TracedPool::build(&pool, &mut tr)?;
        let (mut sc2, mut sc3) = (Scratch2::default(), Scratch3::default());
        let t0 = Instant::now();
        for (i, (op, want)) in ops.iter().zip(&results).enumerate() {
            tr.set_op(i as u32);
            let root = tr.begin(ROOT);
            let got = match *op {
                Op::D3 { cfg, s, d, seed } => {
                    let mesh = &pool.m3[cfg];
                    let (blocks, models) = &traced.m3[cfg];
                    let m = &models[Frame3::for_pair(mesh, s, d).index()];
                    trial::decomposed_3d(mesh, m, blocks, s, d, seed, &mut sc3, &mut tr)
                }
                Op::D2 { cfg, s, d, seed } => {
                    let mesh = &pool.m2[cfg];
                    let (blocks, models) = &traced.m2[cfg];
                    let m = &models[Frame2::for_pair(mesh, s, d).index()];
                    trial::decomposed_2d(mesh, m, blocks, s, d, seed, &mut sc2, &mut tr)
                }
            };
            tr.end(root);
            if !got.bit_identical(want) {
                res.fail(format!("op {i}: traced {got:?} != run_trial {want:?}"));
            }
        }
        let traced_s = t0.elapsed().as_secs_f64();
        res.layers = trial::layer_metrics(&tr, ROOT, cfg.ops, hits, res.measured_s, traced_s);
        res.layer_table = tr.table(ROOT, cfg.ops);
        crate::common::write_trace(cfg, "batch", &res, &tr)?;
    }
    Ok(res)
}
