//! Seed-parallel execution of [`Scenario`]s.
//!
//! [`run_scenario`] fans the scenario's seed range out over std scoped
//! threads ([`std::thread::scope`]): workers pull seed indices off a shared
//! atomic counter (work-stealing, so one slow seed no longer idles the
//! rest of the pool), run the per-seed kernel for every fault count, and
//! aggregate into the row types of the crate root. Results are
//! deterministic: each seed's work depends only on the seed value, and
//! rows are scattered back by seed index regardless of thread
//! interleaving.
//!
//! The worker count comes from the scenario's `threads` knob after the
//! `MCC_THREADS` environment override (see [`worker_count`]). It sizes the
//! seed sweep only; each seed's kernels run sequentially. The count is a
//! pure performance knob: rows never depend on it.
//!
//! Routing kernels run on the amortized pipeline of
//! [`mcc_routing::prepared`]: one `PreparedMesh` per seed's fault
//! configuration serves all of its `pairs_per_seed` trials, so labellings,
//! MCC sets and fault blocks are built per orientation instead of per
//! pair (and table rows stay bit-identical — see `run_routing`).
//!
//! Service scenarios have no seed sweep: their ramp runs sequentially in
//! virtual time through [`crate::service_load`].

use fault_model::stats::{region_stats, RegionStats};
use fault_model::{FaultRegime, IncrementalModels, Labelling, ModelSpace};
use mcc_protocols::boundary2::build_pipeline_2d;
use mcc_protocols::labelling::{DistLabelling2, DistLabelling3};
use mcc_routing::prepared::{PreparedMesh2, PreparedMesh3};
use mcc_routing::trial::{TrialOptions, TrialResult};
use mesh_topo::coord::{c2, c3};
use mesh_topo::faults::random_node;
use mesh_topo::{Frame2, Frame3, Mesh, Mesh2D, Mesh3D, NodeSpace2, NodeSpace3, Space, C2, C3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_net::RunStats;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::scenario::{worker_count, MeshDims, Scenario, ScenarioError, TableKind};
use crate::service_load::{run_service_load, ServiceLoadReport};
use crate::{ChurnRow, LabellingRow, OverheadRow, RegionRow, RoutingRow};

/// Rows produced by one scenario, tagged by table family.
#[derive(Clone, Debug)]
pub enum TableRows {
    /// Fault-region capture rows (E1/E2-style).
    Regions(Vec<RegionRow>),
    /// Routing success/metric rows (E3/E4/E6-style).
    Routing(Vec<RoutingRow>),
    /// Protocol-overhead rows (E5/E7-style).
    Overhead(Vec<OverheadRow>),
    /// Labelling-convergence rows (E7-style, 2-D or 3-D).
    Labelling(Vec<LabellingRow>),
    /// Incremental-maintenance churn rows (E12-style).
    Churn(Vec<ChurnRow>),
    /// One row per ramp step of a resident-service ramp (E15-style).
    Service(Box<ServiceLoadReport>),
}

/// The outcome of running one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Its table rows, one per fault count.
    pub rows: TableRows,
}

/// Work-stealing seed sweep: `threads` workers pull the next unclaimed
/// seed index off a shared atomic counter, so one expensive seed (a dense
/// fault configuration spinning the pair sampler, say) no longer idles
/// every other worker the way the old static chunking did — a straggler
/// costs one worker, not the whole tail of its chunk. Results are
/// scattered back by seed index, so the output is in seed order no matter
/// which worker ran which seed.
pub(crate) fn parallel_seeds_with<T: Send>(
    seeds: std::ops::Range<u64>,
    threads: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    let seeds: Vec<u64> = seeds.collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    let workers = threads.clamp(1, seeds.len());
    if workers == 1 {
        return seeds.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, next, seeds) = (&f, &next, &seeds);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&seed) = seeds.get(i) else {
                            return out;
                        };
                        out.push((i, f(seed)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(seeds.len());
    slots.resize_with(seeds.len(), || None);
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("the atomic counter visits every seed index once"))
        .collect()
}

// --- Per-kind seed-mixing streams ---------------------------------------
//
// Every table family derives its per-seed randomness from the scenario
// seed through one of three fixed mixing functions, chosen so the streams
// are decorrelated from each other (a fault population drawn at seed s
// must not echo the trial RNG at seed s) while staying bit-for-bit stable
// across releases — every published table depends on these exact
// constants:
//
// * [`mix_fault_seed`]   — `seed ^ (n << 32)`: fault-population draws for
//   the regions and churn tables. The fault count lands in the high half
//   of the seed, far from SmallRng's low-word sensitivity.
// * [`mix_interior_seed`] — `seed ^ (n << 24)`: interior fault placement
//   for the overhead tables and the labelling table's populations. A
//   distinct shift keeps E5/E7-style rows decorrelated from E1/E12-style
//   rows at equal (seed, n).
// * [`mix_trial_seed`]   — `seed · 0x9e37_79b9 ^ n`: the per-seed trial
//   RNG (pair sampling, policy seeds, churn flips). The odd golden-ratio
//   multiplier whitens consecutive seeds before the count is folded in.
//
// Changing any of these silently regenerates different tables from the
// same scenario file; `seed_mixing_streams_are_pinned` below fails first.

/// Fault-population stream: `seed ^ (n << 32)` (regions, churn inject).
pub(crate) fn mix_fault_seed(seed: u64, n: usize) -> u64 {
    seed ^ ((n as u64) << 32)
}

/// Interior/labelling population stream: `seed ^ (n << 24)`.
pub(crate) fn mix_interior_seed(seed: u64, n: usize) -> u64 {
    seed ^ ((n as u64) << 24)
}

/// Trial-RNG stream: `seed · 0x9e37_79b9 ^ n` (routing pairs, churn flips).
pub(crate) fn mix_trial_seed(seed: u64, n: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9) ^ n as u64
}

/// What the table drivers need of a node space beyond [`ModelSpace`]: the
/// distributed labelling protocol and the prepared trial pipeline exist
/// once per dimension.
trait BenchSpace: ModelSpace {
    /// Run the distributed labelling protocol under the identity frame.
    fn labelling_stats(mesh: &Mesh<Self>) -> RunStats;
    /// Prepare `mesh` once (orientation-keyed model cache + trial scratch)
    /// and run one trial per `(s, d, policy seed)` that `next` yields.
    fn trials(
        mesh: &Mesh<Self>,
        opts: TrialOptions,
        next: impl FnMut() -> Option<(Self::Coord, Self::Coord, u64)>,
    ) -> Vec<TrialResult>;
}

impl BenchSpace for NodeSpace2 {
    fn labelling_stats(mesh: &Mesh2D) -> RunStats {
        DistLabelling2::run(mesh, Frame2::identity(mesh)).stats
    }
    fn trials(
        mesh: &Mesh2D,
        opts: TrialOptions,
        mut next: impl FnMut() -> Option<(C2, C2, u64)>,
    ) -> Vec<TrialResult> {
        let mut pm = PreparedMesh2::new(mesh, opts);
        std::iter::from_fn(|| next().map(|(s, d, seed)| pm.run_trial(s, d, seed))).collect()
    }
}

impl BenchSpace for NodeSpace3 {
    fn labelling_stats(mesh: &Mesh3D) -> RunStats {
        DistLabelling3::run(mesh, Frame3::identity(mesh)).stats
    }
    fn trials(
        mesh: &Mesh3D,
        opts: TrialOptions,
        mut next: impl FnMut() -> Option<(C3, C3, u64)>,
    ) -> Vec<TrialResult> {
        let mut pm = PreparedMesh3::new(mesh, opts);
        std::iter::from_fn(|| next().map(|(s, d, seed)| pm.run_trial(s, d, seed))).collect()
    }
}

/// One `(fault count, seed)` cell of a scenario's sweep.
#[derive(Clone, Copy)]
struct Cell<'a> {
    sc: &'a Scenario,
    n: usize,
    seed: u64,
}

/// A table's per-seed body, written once over the node space.
trait SeedBody {
    /// What one seed contributes to the row.
    type Out: Send;
    /// Run `cell` on `mesh`, a fresh fault-free copy of the network.
    fn run<S: BenchSpace>(cell: Cell<'_>, mesh: Mesh<S>) -> Self::Out;
}

/// Construct the scenario's network (mesh or torus) and run `B` on it: the
/// one place the generic table drivers branch on the dimension.
fn build_mesh<B: SeedBody>(cell: Cell<'_>) -> B::Out {
    match cell.sc.dims {
        MeshDims::D2 { width, height } if cell.sc.wrap => {
            B::run(cell, Mesh2D::torus(width, height))
        }
        MeshDims::D2 { width, height } => B::run(cell, Mesh2D::new(width, height)),
        MeshDims::D3 { x, y, z } if cell.sc.wrap => B::run(cell, Mesh3D::torus(x, y, z)),
        MeshDims::D3 { x, y, z } => B::run(cell, Mesh3D::new(x, y, z)),
    }
}

/// Run `B` for every seed of the scenario at fault count `n`, in seed
/// order (see [`parallel_seeds_with`]).
fn sweep<B: SeedBody>(sc: &Scenario, workers: usize, n: usize) -> Vec<B::Out> {
    parallel_seeds_with(sc.seed_start..sc.seed_end, workers, |seed| {
        build_mesh::<B>(Cell { sc, n, seed })
    })
}

/// Run a scenario, parallelizing over its seed range.
///
/// Re-validates the scenario first, so programmatically assembled
/// scenarios obey the same knob rules as loaded ones.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    scenario.validate()?;
    let workers = worker_count(scenario)?;
    let rows = match scenario.table {
        TableKind::Regions => TableRows::Regions(run_regions(scenario, workers)),
        TableKind::Routing => TableRows::Routing(run_routing(scenario, workers)?),
        TableKind::Overhead => TableRows::Overhead(run_overhead(scenario, workers)?),
        TableKind::Labelling => TableRows::Labelling(run_labelling(scenario, workers)),
        TableKind::Churn => TableRows::Churn(run_churn(scenario, workers)),
        TableKind::Service => TableRows::Service(Box::new(run_service_load(scenario)?)),
    };
    Ok(ScenarioReport {
        scenario: scenario.clone(),
        rows,
    })
}

/// Regions tables: region statistics of one fault configuration per seed.
struct Regions;

impl SeedBody for Regions {
    type Out = RegionStats;
    fn run<S: BenchSpace>(c: Cell<'_>, mut mesh: Mesh<S>) -> RegionStats {
        c.sc.inject(&mut mesh, c.n, mix_fault_seed(c.seed, c.n), &[]);
        region_stats(&mesh, c.sc.border)
    }
}

fn run_regions(sc: &Scenario, workers: usize) -> Vec<RegionRow> {
    sc.fault_counts
        .iter()
        .map(|&n| {
            let stats = sweep::<Regions>(sc, workers, n);
            let k = stats.len() as f64;
            RegionRow {
                faults: n,
                mcc: stats.iter().map(|s| s.mcc_sacrificed as f64).sum::<f64>() / k,
                mcc_worst: stats
                    .iter()
                    .map(|s| s.mcc_sacrificed_worst as f64)
                    .sum::<f64>()
                    / k,
                mcc_union: stats
                    .iter()
                    .map(|s| s.mcc_sacrificed_union as f64)
                    .sum::<f64>()
                    / k,
                rfb: stats.iter().map(|s| s.rfb_sacrificed as f64).sum::<f64>() / k,
                mcc_regions: stats.iter().map(|s| s.mcc_count as f64).sum::<f64>() / k,
                rfb_regions: stats.iter().map(|s| s.rfb_count as f64).sum::<f64>() / k,
            }
        })
        .collect()
}

/// Draw a pair at least `min_dist` apart under the network's own metric
/// (Manhattan on a mesh, Lee on a torus). On a mesh `mesh.dist` *is*
/// Manhattan distance, so the historical RNG consumption and acceptance
/// sequence — and therefore every existing table — is untouched.
/// [`Scenario::validate`] guarantees the network's diameter reaches
/// `min_dist`.
fn random_pair<S: Space>(
    rng: &mut SmallRng,
    mesh: &Mesh<S>,
    min_dist: u32,
) -> (S::Coord, S::Coord) {
    loop {
        let s = random_node(mesh.space(), rng);
        let d = random_node(mesh.space(), rng);
        if mesh.dist(s, d) >= min_dist {
            return (s, d);
        }
    }
}

/// How many rejected pair samples the batched path tolerates before
/// concluding the scenario leaves too few healthy nodes to pair up.
const PAIR_SAMPLE_ATTEMPTS: usize = 100_000;

/// Sample a healthy pair at least `min_dist` apart on a faulty mesh
/// (the batched path injects faults first, so endpoints are rejected
/// rather than protected), or `None` once [`PAIR_SAMPLE_ATTEMPTS`] draws
/// have all failed.
fn random_healthy_pair<S: Space>(
    rng: &mut SmallRng,
    mesh: &Mesh<S>,
    min_dist: u32,
) -> Option<(S::Coord, S::Coord)> {
    (0..PAIR_SAMPLE_ATTEMPTS)
        .map(|_| random_pair(rng, mesh, min_dist))
        .find(|&(s, d)| mesh.is_healthy(s) && mesh.is_healthy(d))
}

/// Routing tables: every seed owns one fault configuration, prepared once
/// (orientation-keyed model cache + trial scratch) and hit by
/// `pairs_per_seed` source/destination pairs.
///
/// Sampling order is part of the determinism contract. With
/// `pairs_per_seed = 1` the pair is drawn *before* fault injection and
/// protected from it — exactly the historical sequence, so existing
/// scenarios reproduce their tables bit-for-bit. With larger batches the
/// fault set is drawn first and pairs are rejection-sampled from the
/// healthy remainder (a protected set of 2·pairs nodes would distort the
/// fault distribution); a configuration too faulty to yield a healthy
/// pair is an error, not a panic.
struct Routing;

impl SeedBody for Routing {
    type Out = Result<Vec<TrialResult>, ScenarioError>;
    fn run<S: BenchSpace>(c: Cell<'_>, mut mesh: Mesh<S>) -> Self::Out {
        let sc = c.sc;
        let opts = TrialOptions {
            border: sc.border,
            eval_mcc: sc.router.wants_mcc(),
            eval_rfb: sc.router.wants_rfb(),
            eval_greedy: sc.router.wants_greedy(),
        };
        let min_dist = (sc.dims.max_extent() as f64 * sc.min_dist_frac).round() as u32;
        let mut rng = SmallRng::seed_from_u64(mix_trial_seed(c.seed, c.n));
        let legacy_pair = if sc.pairs_per_seed == 1 {
            let (s, d) = random_pair(&mut rng, &mesh, min_dist);
            sc.inject(&mut mesh, c.n, rng.gen(), &[s, d]);
            Some((s, d))
        } else {
            sc.inject(&mut mesh, c.n, rng.gen(), &[]);
            None
        };
        let mut left = sc.pairs_per_seed;
        let mut stranded = false;
        let trials = S::trials(&mesh, opts, || {
            if left == 0 {
                return None;
            }
            left -= 1;
            let pair = legacy_pair.or_else(|| random_healthy_pair(&mut rng, &mesh, min_dist));
            stranded = pair.is_none();
            pair.map(|(s, d)| (s, d, rng.gen()))
        });
        if stranded {
            return Err(ScenarioError::new(format!(
                "{} faults leave no healthy pair at least {min_dist} hops apart \
                 (pairs_per_seed = {}, min_dist_frac = {}) after {PAIR_SAMPLE_ATTEMPTS} draws; \
                 lower the fault count or the separation",
                c.n, sc.pairs_per_seed, sc.min_dist_frac
            )));
        }
        Ok(trials)
    }
}

fn run_routing(sc: &Scenario, workers: usize) -> Result<Vec<RoutingRow>, ScenarioError> {
    sc.fault_counts
        .iter()
        .map(|&n| {
            let results = sweep::<Routing>(sc, workers, n);
            let flat = results.into_iter().collect::<Result<Vec<_>, _>>()?;
            Ok(aggregate_routing(n, &flat.concat()))
        })
        .collect()
}

pub(crate) fn aggregate_routing(n: usize, results: &[TrialResult]) -> RoutingRow {
    let k = results.len() as f64;
    let frac =
        |f: &dyn Fn(&TrialResult) -> bool| results.iter().filter(|t| f(t)).count() as f64 / k;
    let delivered: Vec<_> = results.iter().filter(|t| t.mcc_delivered).collect();
    let rfb_delivered: Vec<_> = results.iter().filter(|t| t.rfb_adaptivity > 0.0).collect();
    RoutingRow {
        faults: n,
        oracle: frac(&|t| t.oracle_ok),
        mcc: frac(&|t| t.mcc_ok),
        rfb: frac(&|t| t.rfb_ok),
        greedy: frac(&|t| t.greedy_ok),
        mcc_adaptivity: if delivered.is_empty() {
            0.0
        } else {
            delivered.iter().map(|t| t.mcc_adaptivity).sum::<f64>() / delivered.len() as f64
        },
        rfb_adaptivity: if rfb_delivered.is_empty() {
            0.0
        } else {
            rfb_delivered.iter().map(|t| t.rfb_adaptivity).sum::<f64>() / rfb_delivered.len() as f64
        },
        detection_cost: if delivered.is_empty() {
            0.0
        } else {
            delivered
                .iter()
                .map(|t| t.detection_cost as f64)
                .sum::<f64>()
                / delivered.len() as f64
        },
        endpoints_safe: frac(&|t| t.endpoints_safe),
    }
}

fn run_overhead(sc: &Scenario, workers: usize) -> Result<Vec<OverheadRow>, ScenarioError> {
    // wrap = true is rejected by Scenario::validate() before we get here.
    match sc.dims {
        MeshDims::D2 { width, height } => run_overhead_2d(sc, workers, width, height),
        MeshDims::D3 { x, y, z } => Ok(run_overhead_3d(sc, workers, x, y, z)),
    }
}

fn run_overhead_2d(
    sc: &Scenario,
    workers: usize,
    width: i32,
    height: i32,
) -> Result<Vec<OverheadRow>, ScenarioError> {
    if sc.regime != FaultRegime::Uniform {
        // The identification walks assume regions do not touch the mesh
        // border (see DESIGN.md); clustered growth, correlated fronts and
        // sweeping planes all routinely reach it.
        return Err(ScenarioError::new(
            "2-D overhead scenarios support only the uniform fault regime",
        ));
    }
    if width < 3 || height < 3 {
        return Err(ScenarioError::new(
            "2-D overhead scenarios need at least a 3x3 mesh",
        ));
    }
    // Faults go in the interior only, so the capacity bound is tighter
    // than the whole-mesh bound the scenario schema checks.
    let interior = ((width - 2) * (height - 2)) as usize;
    if let Some(&n) = sc.fault_counts.iter().find(|&&n| n > interior) {
        return Err(ScenarioError::new(format!(
            "2-D overhead scenarios place faults in the {width}x{height} mesh's \
             interior ({interior} nodes); fault count {n} does not fit"
        )));
    }
    Ok(sc
        .fault_counts
        .iter()
        .map(|&n| {
            let stats = parallel_seeds_with(sc.seed_start..sc.seed_end, workers, |seed| {
                let mut mesh = Mesh2D::new(width, height);
                // Interior faults only: the identification walks assume
                // regions that stay off the mesh border (see DESIGN.md).
                let mut rng = SmallRng::seed_from_u64(mix_interior_seed(seed, n));
                let mut placed = 0;
                while placed < n {
                    let c = c2(rng.gen_range(1..width - 1), rng.gen_range(1..height - 1));
                    if mesh.is_healthy(c) {
                        mesh.inject_fault(c);
                        placed += 1;
                    }
                }
                let (_, stats) = build_pipeline_2d(&mesh, Frame2::identity(&mesh));
                stats
            });
            let k = stats.len() as f64;
            OverheadRow {
                faults: n,
                labelling_msgs: stats
                    .iter()
                    .map(|s| s.labelling.messages as f64)
                    .sum::<f64>()
                    / k,
                labelling_rounds: stats.iter().map(|s| s.labelling.rounds as f64).sum::<f64>() / k,
                compid_msgs: stats
                    .iter()
                    .map(|s| s.components.messages as f64)
                    .sum::<f64>()
                    / k,
                ident_msgs: stats
                    .iter()
                    .map(|s| s.identification.messages as f64)
                    .sum::<f64>()
                    / k,
                boundary_msgs: stats
                    .iter()
                    .map(|s| s.boundary.messages as f64)
                    .sum::<f64>()
                    / k,
                total_msgs: stats.iter().map(|s| s.total_messages() as f64).sum::<f64>() / k,
            }
        })
        .collect())
}

/// E7-style labelling convergence: run the distributed labelling protocol
/// (alone) on the flat engine, one seed per core, and average its
/// [`RunStats`]. Unlike the 2-D overhead pipeline this places faults
/// anywhere in the mesh — labelling has no interior-fault assumption —
/// so the protocol layer can be swept at the paper's full fault ramps.
struct Labellings;

impl SeedBody for Labellings {
    type Out = RunStats;
    fn run<S: BenchSpace>(c: Cell<'_>, mut mesh: Mesh<S>) -> RunStats {
        c.sc.inject(&mut mesh, c.n, mix_interior_seed(c.seed, c.n), &[]);
        S::labelling_stats(&mesh)
    }
}

fn run_labelling(sc: &Scenario, workers: usize) -> Vec<LabellingRow> {
    sc.fault_counts
        .iter()
        .map(|&n| {
            let stats = sweep::<Labellings>(sc, workers, n);
            let k = stats.len() as f64;
            LabellingRow {
                faults: n,
                messages: stats.iter().map(|s| s.messages as f64).sum::<f64>() / k,
                rounds: stats.iter().map(|s| s.rounds as f64).sum::<f64>() / k,
                max_inflight: stats.iter().map(|s| s.max_inflight as f64).sum::<f64>() / k,
                converged: stats.iter().filter(|s| s.quiescent).count() as f64 / k,
            }
        })
        .collect()
}

/// Per-seed tallies of one churn trace (see [`run_churn`]).
struct ChurnSeed {
    injected: usize,
    healed: usize,
    repaired: usize,
    unsafe_end: usize,
    mccs_end: usize,
    checks: usize,
    matched: usize,
}

/// Flips per churn round: `max(1, round(rate × faults))`, clamped so a
/// dense configuration never asks for more heals than there are faults or
/// more injections than there are healthy nodes.
fn churn_flips(rate: f64, faults: usize, healthy: usize) -> usize {
    ((rate * faults as f64).round() as usize)
        .max(1)
        .min(faults)
        .min(healthy)
}

/// E12-style churn tables: each seed owns one fault configuration wrapped
/// in [`IncrementalModels`] and drives `churn_rounds` rounds of paired
/// heal+inject churn through it (the fault population stays at the row's
/// nominal count). After **every** round the maintained
/// identity-orientation models are checked against a from-scratch
/// recomputation; the runner refuses (panics) to aggregate a row unless
/// every check of every seed matched, so a churn table is itself an
/// equivalence certificate. `statuses_repaired` counts the node statuses
/// the incremental repairs actually touched — the quantity that scales
/// with perturbation size rather than mesh size.
fn run_churn(sc: &Scenario, workers: usize) -> Vec<ChurnRow> {
    sc.fault_counts
        .iter()
        .map(|&n| {
            let seeds = sweep::<ChurnSeed>(sc, workers, n);
            let k = seeds.len() as f64;
            let checks: usize = seeds.iter().map(|s| s.checks).sum();
            let matched: usize = seeds.iter().map(|s| s.matched).sum();
            assert_eq!(
                matched, checks,
                "churn equivalence violated at {n} faults: incremental models \
                 diverged from from-scratch recomputation"
            );
            ChurnRow {
                faults: n,
                rounds: sc.churn_rounds,
                injected: seeds.iter().map(|s| s.injected as f64).sum::<f64>() / k,
                healed: seeds.iter().map(|s| s.healed as f64).sum::<f64>() / k,
                statuses_repaired: seeds.iter().map(|s| s.repaired as f64).sum::<f64>() / k,
                unsafe_end: seeds.iter().map(|s| s.unsafe_end as f64).sum::<f64>() / k,
                mccs_end: seeds.iter().map(|s| s.mccs_end as f64).sum::<f64>() / k,
                verified: matched as f64 / checks as f64,
            }
        })
        .collect()
}

impl SeedBody for ChurnSeed {
    type Out = ChurnSeed;
    fn run<S: BenchSpace>(c: Cell<'_>, mesh: Mesh<S>) -> ChurnSeed {
        churn_seed(c, mesh)
    }
}

fn churn_seed<S: ModelSpace>(c: Cell<'_>, mut mesh: Mesh<S>) -> ChurnSeed {
    let sc = c.sc;
    let mut rng = SmallRng::seed_from_u64(mix_trial_seed(c.seed, c.n));
    let fseed = mix_fault_seed(c.seed, c.n);
    // Scheduled regimes (sweeping plane, transient) replace the random
    // flip draws with their own churn law; `initial_faults` matches what
    // `Scenario::inject` would place, so round 0 starts from the same
    // population either way.
    let mut schedule = sc.regime.schedule(&mesh, c.n, fseed, &[]);
    match &schedule {
        Some(schedule) => {
            for f in schedule.initial_faults() {
                mesh.inject_fault(f);
            }
        }
        None => {
            sc.inject(&mut mesh, c.n, fseed, &[]);
        }
    }
    let (space, nodes) = (mesh.space(), mesh.node_count());
    let mut inc = IncrementalModels::new(mesh, sc.border);
    let mut out = ChurnSeed {
        injected: 0,
        healed: 0,
        repaired: 0,
        unsafe_end: 0,
        mccs_end: 0,
        checks: 0,
        matched: 0,
    };
    for _ in 0..sc.churn_rounds {
        let (injected, healed) = if let Some(sched) = schedule.as_mut() {
            let faults = inc.mesh().faults().len();
            let flips = churn_flips(sc.churn_rate, faults, nodes - faults);
            sched.step(flips)
        } else {
            let faults = inc.mesh().faults().to_vec();
            let flips = churn_flips(sc.churn_rate, faults.len(), nodes - faults.len());
            let mut healed = Vec::new();
            while healed.len() < flips {
                let f = faults[rng.gen_range(0..faults.len())];
                if !healed.contains(&f) {
                    healed.push(f);
                }
            }
            let mut injected = Vec::new();
            while injected.len() < flips {
                let f = random_node(space, &mut rng);
                if inc.mesh().is_healthy(f) && !injected.contains(&f) {
                    injected.push(f);
                }
            }
            (injected, healed)
        };
        inc.apply(&injected, &healed);
        out.injected += injected.len();
        out.healed += healed.len();

        let mesh = inc.mesh().clone();
        let frame = S::identity_frame(&mesh);
        let m = inc.models(frame);
        let lab = Labelling::compute(&mesh, frame, sc.border);
        let mut mccs = S::mccs(&lab);
        out.checks += 1;
        let ok = m.lab.iter().zip(lab.iter()).all(|((_, a), (_, b))| a == b)
            && m.lab.unsafe_set() == lab.unsafe_set()
            && *m.mccs == mccs;
        if ok {
            out.matched += 1;
        }
        out.unsafe_end = lab.unsafe_set().len();
        out.mccs_end = S::mcc_list(&mut mccs).len();
    }
    out.repaired = inc.statuses_repaired();
    out
}

fn run_overhead_3d(sc: &Scenario, workers: usize, x: i32, y: i32, z: i32) -> Vec<OverheadRow> {
    let (near, far) = (c3(0, 0, 0), c3(x - 1, y - 1, z - 1));
    sc.fault_counts
        .iter()
        .map(|&n| {
            let stats = parallel_seeds_with(sc.seed_start..sc.seed_end, workers, |seed| {
                let mut mesh = Mesh3D::new(x, y, z);
                sc.inject(&mut mesh, n, mix_interior_seed(seed, n), &[near, far]);
                let lab = DistLabelling3::run(&mesh, Frame3::identity(&mesh));
                let lab_stats = lab.stats;
                let detect = if lab.status(near).is_safe() && lab.status(far).is_safe() {
                    let (_, st) =
                        mcc_protocols::detect3::detect_distributed_3d(&mesh, &lab, near, far);
                    st.messages
                } else {
                    0
                };
                (lab_stats, detect)
            });
            let k = stats.len() as f64;
            OverheadRow {
                faults: n,
                labelling_msgs: stats.iter().map(|(s, _)| s.messages as f64).sum::<f64>() / k,
                labelling_rounds: stats.iter().map(|(s, _)| s.rounds as f64).sum::<f64>() / k,
                compid_msgs: 0.0,
                ident_msgs: 0.0,
                boundary_msgs: stats.iter().map(|(_, d)| *d as f64).sum::<f64>() / k,
                total_msgs: stats
                    .iter()
                    .map(|(s, d)| (s.messages + d) as f64)
                    .sum::<f64>()
                    / k,
            }
        })
        .collect()
}

impl ScenarioReport {
    /// Render the report as the aligned text table the `tables` binary
    /// prints. Column choice honors the scenario's router selection; a
    /// service ramp renders as [`ServiceLoadReport::render`].
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let sc = &self.scenario;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} [{} seeds {}..{}] ==",
            sc.name,
            sc.seed_count(),
            sc.seed_start,
            sc.seed_end
        );
        match &self.rows {
            TableRows::Regions(rows) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9}",
                    "faults", "MCC", "MCC-worst", "MCC-union", "RFB", "#MCC", "#RFB"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>7} {:>9.2} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>9.2}",
                        r.faults,
                        r.mcc,
                        r.mcc_worst,
                        r.mcc_union,
                        r.rfb,
                        r.mcc_regions,
                        r.rfb_regions
                    );
                }
            }
            TableRows::Routing(rows) => {
                let mut header = format!("{:>7} {:>8}", "faults", "oracle");
                for (on, name) in [
                    (sc.router.wants_mcc(), "MCC"),
                    (sc.router.wants_rfb(), "RFB"),
                    (sc.router.wants_greedy(), "greedy"),
                    (sc.router.wants_mcc(), "adaptM"),
                    (sc.router.wants_rfb(), "adaptR"),
                    (sc.router.wants_mcc(), "detect"),
                ] {
                    if on {
                        let _ = write!(header, " {name:>8}");
                    }
                }
                let _ = writeln!(out, "{header} {:>8}", "safe-ep");
                for r in rows {
                    let mut line = format!("{:>7} {:>8.3}", r.faults, r.oracle);
                    for (on, value) in [
                        (sc.router.wants_mcc(), r.mcc),
                        (sc.router.wants_rfb(), r.rfb),
                        (sc.router.wants_greedy(), r.greedy),
                        (sc.router.wants_mcc(), r.mcc_adaptivity),
                        (sc.router.wants_rfb(), r.rfb_adaptivity),
                        (sc.router.wants_mcc(), r.detection_cost),
                    ] {
                        if on {
                            let _ = write!(line, " {value:>8.3}");
                        }
                    }
                    let _ = writeln!(out, "{line} {:>8.3}", r.endpoints_safe);
                }
            }
            TableRows::Labelling(rows) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>10} {:>8} {:>12} {:>10}",
                    "faults", "messages", "rounds", "max-inflight", "converged"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>7} {:>10.0} {:>8.1} {:>12.0} {:>10.2}",
                        r.faults, r.messages, r.rounds, r.max_inflight, r.converged
                    );
                }
            }
            TableRows::Churn(rows) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>7} {:>9} {:>8} {:>9} {:>11} {:>7} {:>9}",
                    "faults",
                    "rounds",
                    "injected",
                    "healed",
                    "repaired",
                    "unsafe-end",
                    "#MCC",
                    "verified"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>7} {:>7} {:>9.1} {:>8.1} {:>9.1} {:>11.2} {:>7.2} {:>9.2}",
                        r.faults,
                        r.rounds,
                        r.injected,
                        r.healed,
                        r.statuses_repaired,
                        r.unsafe_end,
                        r.mccs_end,
                        r.verified
                    );
                }
            }
            TableRows::Overhead(rows) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    "faults", "label-msg", "rounds", "compid", "ident", "boundary", "total"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>7} {:>10.0} {:>8.1} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                        r.faults,
                        r.labelling_msgs,
                        r.labelling_rounds,
                        r.compid_msgs,
                        r.ident_msgs,
                        r.boundary_msgs,
                        r.total_msgs
                    );
                }
            }
            // A ramp has no seed range; its own header names the shards.
            TableRows::Service(report) => return report.render(),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the three per-kind seed-mixing streams against their exact
    /// historical values (see the comment block by the definitions): any
    /// change here regenerates different tables from the same scenarios.
    #[test]
    fn seed_mixing_streams_are_pinned() {
        assert_eq!(mix_fault_seed(3, 5), 21_474_836_483);
        assert_eq!(mix_interior_seed(3, 5), 83_886_083);
        assert_eq!(mix_trial_seed(7, 9), 18_581_050_374);
        assert_eq!(mix_fault_seed(0xdead_beef, 17), 76_750_372_591);
        assert_eq!(mix_interior_seed(0xdead_beef, 17), 3_484_270_319);
        assert_eq!(mix_trial_seed(12_345, 40), 32_769_009_568_281);
        // The streams must disagree with each other at equal inputs —
        // that decorrelation is the reason three variants exist.
        for (seed, n) in [(0u64, 1usize), (1, 1), (42, 8), (u64::MAX, 4096)] {
            let (a, b, c) = (
                mix_fault_seed(seed, n),
                mix_interior_seed(seed, n),
                mix_trial_seed(seed, n),
            );
            assert!(a != b && b != c && a != c, "collision at ({seed}, {n})");
        }
    }

    #[test]
    fn work_stealing_sweep_is_ordered_for_every_pool_size() {
        // More workers than seeds, fewer workers than seeds, one worker
        // (the short-circuit) and zero (clamped to one) must all produce
        // the identical, seed-ordered vector.
        for threads in [0, 1, 2, 3, 7, 64] {
            let out = parallel_seeds_with(5..40, threads, |s| s * 3);
            assert_eq!(
                out,
                (5..40).map(|s| s * 3).collect::<Vec<_>>(),
                "pool of {threads}"
            );
        }
        assert!(parallel_seeds_with(3..3, 4, |s| s).is_empty());
    }

    #[test]
    fn work_stealing_sweep_handles_uneven_seed_costs() {
        // Skewed per-seed cost (the work-stealing motivation): early seeds
        // are ~1000x slower than late ones, so a static chunker's first
        // chunk would dominate. Results must still come back in order.
        let out = parallel_seeds_with(0..24, 4, |s| {
            let spin = if s < 4 { 200_000 } else { 200 };
            (0..spin).fold(s, |acc, _| std::hint::black_box(acc) | s)
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
    }

    /// The thread budget is a pure performance knob: the same scenario run
    /// with 1, 2 and 4 seed-sweep workers must produce byte-identical rows.
    #[test]
    fn table_rows_are_identical_for_every_thread_count() {
        let routing = Scenario::routing_2d(10, &[4, 10], 6);
        let labelling = Scenario::labelling_2d(12, &[5, 15], 4);
        let churn = Scenario::churn_2d(10, &[4, 9], 4, 5);
        for sc in [routing, labelling, churn] {
            let rows: Vec<String> = [1usize, 2, 4]
                .into_iter()
                .map(|threads| {
                    let mut sc = sc.clone();
                    sc.threads = threads;
                    format!("{:?}", run_scenario(&sc).unwrap().rows)
                })
                .collect();
            assert_eq!(rows[0], rows[1], "{}: 1 vs 2 threads", sc.name);
            assert_eq!(rows[0], rows[2], "{}: 1 vs 4 threads", sc.name);
        }
    }

    #[test]
    fn regions_scenario_runs_on_rectangular_mesh() {
        let mut sc = Scenario::regions_2d(10, &[3, 6], 4);
        sc.dims = MeshDims::D2 {
            width: 10,
            height: 6,
        };
        let report = run_scenario(&sc).unwrap();
        match report.rows {
            TableRows::Regions(rows) => {
                assert_eq!(rows.len(), 2);
                assert!(rows.iter().all(|r| r.mcc <= r.rfb));
            }
            _ => panic!("wrong table kind"),
        }
    }

    #[test]
    fn overhead_2d_rejects_clustered() {
        let mut sc = Scenario::overhead_2d(10, &[3], 2);
        sc.regime = FaultRegime::Clustered { clusters: 2 };
        assert!(run_scenario(&sc).is_err());
    }

    #[test]
    fn overhead_2d_rejects_counts_beyond_interior() {
        // 90 faults fit in a 10x10 mesh but not in its 8x8 interior; the
        // runner must refuse rather than emit a mislabelled row.
        let sc = Scenario::overhead_2d(10, &[90], 2);
        let err = run_scenario(&sc).unwrap_err();
        assert!(err.to_string().contains("interior"), "got: {err}");
    }

    #[test]
    fn churn_rows_stay_at_nominal_population_and_verify() {
        // 2-D torus and 3-D mesh churn: every round flips churn_rate × n
        // faults, so injected == healed == rounds × flips per seed, the
        // verified column is pinned at 1.0 (the runner panics otherwise),
        // and the repaired-status count is nonzero (repairs really ran).
        let mut sc2 = Scenario::churn_2d(12, &[8], 3, 6);
        sc2.wrap = true;
        let sc3 = Scenario::churn_3d(6, &[10], 2, 4);
        for sc in [sc2, sc3] {
            let report = run_scenario(&sc).unwrap();
            match &report.rows {
                TableRows::Churn(rows) => {
                    assert_eq!(rows.len(), 1);
                    let r = &rows[0];
                    let flips = ((0.25f64 * r.faults as f64).round() as usize).max(1);
                    assert_eq!(r.injected, (sc.churn_rounds * flips) as f64, "{}", sc.name);
                    assert_eq!(r.healed, r.injected, "{}", sc.name);
                    assert_eq!(r.verified, 1.0, "{}", sc.name);
                    assert!(r.statuses_repaired >= 0.0);
                }
                _ => panic!("wrong table kind"),
            }
            let rendered = report.render();
            assert!(rendered.contains("verified"), "got: {rendered}");
        }
    }

    #[test]
    fn router_choice_skips_baselines() {
        let mut sc = Scenario::routing_2d(10, &[6], 8);
        sc.router = crate::scenario::RouterChoice::Mcc;
        let report = run_scenario(&sc).unwrap();
        match &report.rows {
            TableRows::Routing(rows) => {
                // Baselines were never evaluated, so their columns stay 0.
                assert!(rows.iter().all(|r| r.rfb == 0.0 && r.greedy == 0.0));
                assert!(rows.iter().all(|r| r.mcc <= 1.0));
            }
            _ => panic!("wrong table kind"),
        }
        let rendered = report.render();
        assert!(!rendered.contains("RFB"));
        assert!(rendered.contains("MCC"));
    }
}
