//! Composable fault regimes: how fault sets come into being.
//!
//! Fault injection is a first-class *regime* abstraction, so benchmarks
//! can exercise the two classic spatial patterns as well as the failure
//! shapes the fault-block literature worries about but rarely measures:
//!
//! * [`FaultRegime::Uniform`] / [`FaultRegime::Clustered`] — the classic
//!   patterns, drawn by `mesh_topo::faults::{sample_uniform,
//!   sample_clustered}` over the eligible-candidate order of
//!   `mesh_topo::faults::eligible_indices`;
//! * [`FaultRegime::CorrelatedFront`] — compact failure blobs grown by a
//!   bounded breadth-first flood from seeded epicenters (the rack/cooling
//!   failure analogue: shells fill before the front advances, unlike the
//!   dendritic random growth of `Clustered`);
//! * [`FaultRegime::SweepingPlane`] — an axis-aligned slab of faults
//!   that, under churn, advances across the mesh one band per round;
//! * [`FaultRegime::TransientSchedule`] — faults with duty-cycled repair:
//!   each site oscillates on/off with a seeded phase, producing
//!   inject/heal deltas that feed
//!   [`IncrementalModels::try_apply`](crate::IncrementalModels::try_apply)
//!   directly;
//! * [`FaultRegime::AdversarialBoundary`] — a seeded random-restart
//!   hill-climb (with an annealing accept rule and a 1-minimal pruning
//!   pass) for fault sets that violate the MCC admission conditions at
//!   minimal cardinality while the oracle still routes, reported as an
//!   [`AdversarialReport`].
//!
//! Every regime is written once over the node space: [`FaultRegime::inject`],
//! [`FaultRegime::schedule`] and [`adversarial_search`] take a
//! [`Mesh<S>`](mesh_topo::Mesh) of either dimension.
//!
//! # Determinism contract
//!
//! Every regime is a pure function of `(mesh, count, seed, protected)`:
//! sampling uses a private `SmallRng` seeded from the caller's seed, and
//! candidate orders come from `mesh_topo::faults::eligible_indices`, whose
//! iteration order is fixed. No regime reads thread counts,
//! wall clocks or global state, so fault sets are bit-identical across
//! `MCC_THREADS` settings — the scenario layer's thread-invariance
//! battery relies on this. The draw order is the contract: the
//! per-axis draws and neighbor probes run in `x, y, z` order, and
//! `tests/regime_pins.rs` pins every regime's fault list on both
//! dimensions, meshes and tori.
//!
//! Torus meshes work everywhere except the adversarial search (whose
//! violation predicate is defined over the canonical monotone frame of a
//! non-wrapping pair); the scenario layer rejects that combination up
//! front.

use std::collections::VecDeque;

use mesh_topo::faults::{eligible_indices, sample_clustered, sample_uniform};
use mesh_topo::{Mesh, Mesh2D, Mesh3D, NodeSet, Space, C2, C3};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::labelling::Labelling;
use crate::models::ModelSpace;
use crate::status::BorderPolicy;

/// How a fault set comes into being: the spatial/temporal law faults are
/// drawn from. See the module docs for the regime taxonomy.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum FaultRegime {
    /// Uniformly random distinct nodes.
    Uniform,
    /// Faults grown in connected clusters around random seed points.
    Clustered {
        /// Number of cluster seed points.
        clusters: usize,
    },
    /// Compact correlated failure blobs: breadth-first flood from seeded
    /// epicenters, filling each shell (in seeded order) before advancing.
    CorrelatedFront {
        /// Number of epicenters the flood grows from.
        fronts: usize,
    },
    /// An axis-aligned slab of faults; under churn the slab slides along
    /// the axis one band per round (direction drawn from the seed).
    SweepingPlane {
        /// Sweep axis: `0` = X, `1` = Y, `2` = Z (3-D only).
        axis: usize,
    },
    /// Duty-cycled transient faults: `count` sites sampled uniformly,
    /// each on for `duty·period` of every `period` rounds with a seeded
    /// phase. The churn schedule feeds incremental maintenance directly.
    TransientSchedule {
        /// Length of one on/off cycle in churn rounds (≥ 2).
        period: usize,
        /// Fraction of the period a site spends faulty (in `(0, 1)`).
        duty: f64,
    },
    /// Seeded adversarial search for a minimal-cardinality fault set that
    /// makes an endpoint unsafe while the oracle still routes.
    AdversarialBoundary {
        /// Number of random restarts of the hill-climb.
        restarts: usize,
    },
}

impl FaultRegime {
    /// Stable lowercase regime name, used in scenario TOML and snapshot
    /// JSON (`"regime": …`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultRegime::Uniform => "uniform",
            FaultRegime::Clustered { .. } => "clustered",
            FaultRegime::CorrelatedFront { .. } => "front",
            FaultRegime::SweepingPlane { .. } => "plane",
            FaultRegime::TransientSchedule { .. } => "transient",
            FaultRegime::AdversarialBoundary { .. } => "adversarial",
        }
    }

    /// True for the regimes the legacy `[faults] pattern = …` key can
    /// express (and that scenario TOML still emits in legacy form).
    pub fn is_legacy(&self) -> bool {
        matches!(self, FaultRegime::Uniform | FaultRegime::Clustered { .. })
    }

    /// Inject `count` faults into `mesh`, never touching `protected`
    /// nodes. Returns the number actually injected (short only when the
    /// mesh runs out of eligible nodes, or when the adversarial search
    /// finds a violating set smaller than `count` and cannot pad).
    ///
    /// `border` is only consulted by [`FaultRegime::AdversarialBoundary`]
    /// (its violation predicate labels the mesh); all other regimes are
    /// purely spatial.
    pub fn inject<S: ModelSpace>(
        &self,
        mesh: &mut Mesh<S>,
        count: usize,
        seed: u64,
        protected: &[S::Coord],
        border: BorderPolicy,
    ) -> usize {
        let space = mesh.space();
        let neighbors =
            |i: usize, out: &mut Vec<usize>| space.for_axis_neighbors(i, |j| out.push(j));
        // The sampling arms' stream; the others seed their own from `seed`.
        let mut rng = SmallRng::seed_from_u64(seed);
        let chosen: Vec<usize> = match *self {
            FaultRegime::Uniform => {
                sample_uniform(eligible_indices(mesh, protected), count, &mut rng)
            }
            FaultRegime::Clustered { clusters } => {
                let eligible = eligible_indices(mesh, protected);
                sample_clustered(
                    space.node_count(),
                    &eligible,
                    count,
                    clusters,
                    &mut rng,
                    neighbors,
                )
            }
            FaultRegime::CorrelatedFront { fronts } => {
                let eligible = eligible_indices(mesh, protected);
                sample_front(
                    space.node_count(),
                    &eligible,
                    count,
                    fronts,
                    &mut rng,
                    neighbors,
                )
            }
            FaultRegime::SweepingPlane { axis } => {
                let mut order = plane_order(mesh, protected, axis, seed);
                order.truncate(count.min(order.len()));
                order
            }
            FaultRegime::TransientSchedule { period, duty } => {
                let sites = transient_sites(mesh, protected, count, period, duty, seed);
                sites.on_at(0).into_iter().map(|c| space.index(c)).collect()
            }
            FaultRegime::AdversarialBoundary { restarts } => {
                return inject_adversarial(mesh, count, seed, protected, border, restarts);
            }
        };
        let n = chosen.len();
        for i in chosen {
            mesh.inject_fault(space.coord(i));
        }
        n
    }

    /// [`inject`](FaultRegime::inject) on a 2-D mesh. Kept as a named
    /// entry point because the benchmark crate (`repobench/`) calls it.
    pub fn inject_2d(
        &self,
        mesh: &mut Mesh2D,
        count: usize,
        seed: u64,
        protected: &[C2],
        border: BorderPolicy,
    ) -> usize {
        self.inject(mesh, count, seed, protected, border)
    }

    /// [`inject`](FaultRegime::inject) on a 3-D mesh. Kept as a named
    /// entry point because the benchmark crate (`repobench/`) calls it.
    pub fn inject_3d(
        &self,
        mesh: &mut Mesh3D,
        count: usize,
        seed: u64,
        protected: &[C3],
        border: BorderPolicy,
    ) -> usize {
        self.inject(mesh, count, seed, protected, border)
    }

    /// Build the churn schedule this regime prescribes over a **clean**
    /// (pre-injection) mesh, or `None` for regimes whose churn is
    /// externally driven (uniform/clustered/front random flips) or
    /// undefined (adversarial).
    ///
    /// The schedule's [`initial_faults`](Schedule::initial_faults) equal
    /// exactly what [`inject`](FaultRegime::inject) would inject for the
    /// same `(count, seed, protected)`, so drivers can inject the initial
    /// population and then step the schedule without drift.
    pub fn schedule<S: Space>(
        &self,
        mesh: &Mesh<S>,
        count: usize,
        seed: u64,
        protected: &[S::Coord],
    ) -> Option<Schedule<S::Coord>> {
        match *self {
            FaultRegime::SweepingPlane { axis } => {
                let space = mesh.space();
                let order: Vec<S::Coord> = plane_order(mesh, protected, axis, seed)
                    .into_iter()
                    .map(|i| space.coord(i))
                    .collect();
                Some(Schedule::plane(order, count))
            }
            FaultRegime::TransientSchedule { period, duty } => Some(Schedule::Transient(
                transient_sites(mesh, protected, count, period, duty, seed),
            )),
            _ => None,
        }
    }
}

/// The flood-fill sampler behind [`FaultRegime::CorrelatedFront`].
///
/// Epicenters are placed with the same retry discipline as the clustered
/// sampler's seeds; growth then proceeds breadth-first from a FIFO
/// frontier, shuffling each node's eligible unchosen neighbors before
/// admitting them, so blobs stay compact (roughly metric balls) instead
/// of dendritic. Enclosed floods fall back to a deterministic scan fill,
/// mirroring the clustered sampler's stall fallback.
fn sample_front(
    space_len: usize,
    eligible: &[usize],
    count: usize,
    fronts: usize,
    rng: &mut SmallRng,
    neighbors_of: impl Fn(usize, &mut Vec<usize>),
) -> Vec<usize> {
    if eligible.is_empty() || count == 0 {
        return Vec::new();
    }
    let eligible_set = NodeSet::from_indices(space_len, eligible.iter().copied());
    let target = count.min(eligible.len());
    let mut chosen: Vec<usize> = Vec::with_capacity(target);
    let mut chosen_set = NodeSet::new(space_len);
    for _ in 0..fronts.max(1).min(count) {
        let mut placed = false;
        for _ in 0..32 {
            let c = eligible[rng.gen_range(0..eligible.len())];
            if chosen_set.insert(c) {
                chosen.push(c);
                placed = true;
                break;
            }
        }
        if !placed {
            if let Some(&c) = eligible.iter().find(|&&c| !chosen_set.contains(c)) {
                chosen_set.insert(c);
                chosen.push(c);
            }
        }
    }
    let mut queue: VecDeque<usize> = chosen.iter().copied().collect();
    let mut nbrs: Vec<usize> = Vec::with_capacity(6);
    while chosen.len() < target {
        let Some(base) = queue.pop_front() else {
            break;
        };
        nbrs.clear();
        neighbors_of(base, &mut nbrs);
        nbrs.retain(|&c| eligible_set.contains(c) && !chosen_set.contains(c));
        nbrs.shuffle(rng);
        for &c in nbrs.iter() {
            if chosen.len() >= target {
                break;
            }
            chosen_set.insert(c);
            chosen.push(c);
            queue.push_back(c);
        }
    }
    if chosen.len() < target {
        for &c in eligible {
            if chosen.len() >= target {
                break;
            }
            if chosen_set.insert(c) {
                chosen.push(c);
            }
        }
    }
    chosen
}

/// Eligible node indices sorted along the sweep axis (an axis past the
/// last one means the last one); the seed draws the sweep direction
/// (ascending or descending coordinate). The sort is stable, so ties keep
/// node-iteration order — part of the determinism contract.
fn plane_order<S: Space>(
    mesh: &Mesh<S>,
    protected: &[S::Coord],
    axis: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let descending = rng.gen_range(0..2) == 1;
    let space = mesh.space();
    let axis = axis.min(S::DIMS - 1);
    let mut order = eligible_indices(mesh, protected);
    order.sort_by_key(|&i| {
        let k = S::xyz(space.coord(i))[axis];
        if descending {
            -k
        } else {
            k
        }
    });
    order
}

/// The site table of a [`FaultRegime::TransientSchedule`]: uniformly
/// sampled sites with seeded phases, plus the resolved on-window length.
/// A site with phase `p` is faulty in round `r` iff
/// `(r + p) % period < on_rounds`.
#[derive(Clone, Debug)]
pub struct TransientSites<C> {
    sites: Vec<(C, usize)>,
    period: usize,
    on_rounds: usize,
    round: usize,
}

impl<C: Copy> TransientSites<C> {
    fn active(&self, phase: usize, round: usize) -> bool {
        (round + phase) % self.period < self.on_rounds
    }

    /// The sites that are faulty in churn round `round`.
    pub fn on_at(&self, round: usize) -> Vec<C> {
        self.sites
            .iter()
            .filter(|&&(_, p)| self.active(p, round))
            .map(|&(c, _)| c)
            .collect()
    }
}

fn transient_on_rounds(period: usize, duty: f64) -> usize {
    (((period as f64) * duty).round() as usize).clamp(1, period.saturating_sub(1).max(1))
}

fn transient_sites<S: Space>(
    mesh: &Mesh<S>,
    protected: &[S::Coord],
    count: usize,
    period: usize,
    duty: f64,
    seed: u64,
) -> TransientSites<S::Coord> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let space = mesh.space();
    let period = period.max(2);
    let sites = sample_uniform(eligible_indices(mesh, protected), count, &mut rng)
        .into_iter()
        .map(|i| (space.coord(i), rng.gen_range(0..period)))
        .collect();
    TransientSites {
        sites,
        period,
        on_rounds: transient_on_rounds(period, duty),
        round: 0,
    }
}

/// A regime-prescribed churn schedule: per-round inject/heal deltas meant
/// to be fed to `IncrementalModels::try_apply`. Produced by
/// [`FaultRegime::schedule`].
#[derive(Clone, Debug)]
pub enum Schedule<C> {
    /// Sliding slab: `order` is the full eligible sweep order, the faulty
    /// window is `[start, start + count)` (mod `len`), advancing by the
    /// requested flip budget each round.
    Plane {
        /// Eligible nodes in sweep order.
        order: Vec<C>,
        /// Window offset into `order`.
        start: usize,
        /// Window length (the live fault population).
        count: usize,
    },
    /// Duty-cycled sites; the per-round delta is the symmetric difference
    /// between consecutive rounds' active sets. Ignores the flip budget.
    Transient(TransientSites<C>),
}

impl<C: Copy + PartialEq> Schedule<C> {
    fn plane(order: Vec<C>, count: usize) -> Schedule<C> {
        let count = count.min(order.len());
        Schedule::Plane {
            order,
            start: 0,
            count,
        }
    }

    /// The round-0 fault population — identical to what the regime's
    /// `inject` method places for the same arguments.
    pub fn initial_faults(&self) -> Vec<C> {
        match self {
            Schedule::Plane { order, count, .. } => order[..*count].to_vec(),
            Schedule::Transient(sites) => sites.on_at(0),
        }
    }

    /// Advance one churn round and return `(injected, healed)`: the nodes
    /// newly faulty and newly repaired this round. `flips` bounds the
    /// band width for the sliding plane (and is ignored by transient
    /// schedules, whose deltas follow the duty cycle).
    pub fn step(&mut self, flips: usize) -> (Vec<C>, Vec<C>) {
        match self {
            Schedule::Plane {
                order,
                start,
                count,
            } => {
                let len = order.len();
                let eff = flips.min(*count).min(len - *count);
                let mut healed = Vec::with_capacity(eff);
                let mut injected = Vec::with_capacity(eff);
                for k in 0..eff {
                    healed.push(order[(*start + k) % len]);
                    injected.push(order[(*start + *count + k) % len]);
                }
                *start = (*start + eff) % len;
                (injected, healed)
            }
            Schedule::Transient(sites) => {
                let prev = sites.round;
                let next = prev + 1;
                let mut injected = Vec::new();
                let mut healed = Vec::new();
                for &(c, p) in &sites.sites {
                    let was = sites.active(p, prev);
                    let is = sites.active(p, next);
                    if is && !was {
                        injected.push(c);
                    } else if was && !is {
                        healed.push(c);
                    }
                }
                sites.round = next;
                (injected, healed)
            }
        }
    }
}

/// Outcome of one adversarial boundary search: a fault set under which
/// the oracle still admits a minimal path for the target pair but the MCC
/// labelling sacrifices an endpoint, so the paper's router refuses a
/// routable pair. `faults` is 1-minimal: removing any single fault breaks
/// the violation.
#[derive(Clone, Debug)]
pub struct AdversarialReport<C> {
    /// The violating fault set, in search order.
    pub faults: Vec<C>,
    /// Target source (mesh coordinates).
    pub s: C,
    /// Target destination (mesh coordinates).
    pub d: C,
    /// The oracle still found a minimal path under `faults` (always true
    /// for a reported violation).
    pub oracle_ok: bool,
    /// Both endpoints stayed safe under the labelling (always false for a
    /// reported violation).
    pub endpoints_safe: bool,
}

impl<C> AdversarialReport<C> {
    /// Number of faults in the violating set.
    pub fn cardinality(&self) -> usize {
        self.faults.len()
    }

    /// The defining predicate: routable by the oracle, refused by the
    /// endpoint-safety gate.
    pub fn violates(&self) -> bool {
        self.oracle_ok && !self.endpoints_safe
    }
}

const ANNEAL_STEPS: usize = 200;

/// Evaluate the violation predicate for `faults` against pair `(s, d)` on
/// an otherwise-clean `mesh` (restored before returning). Returns
/// `(oracle_ok, endpoints_safe)`.
fn probe<S: ModelSpace>(
    mesh: &mut Mesh<S>,
    faults: &[S::Coord],
    s: S::Coord,
    d: S::Coord,
    border: BorderPolicy,
) -> (bool, bool) {
    for &f in faults {
        mesh.inject_fault(f);
    }
    let frame = S::frame_for_pair(mesh, s, d);
    let lab = Labelling::<S>::compute(mesh, frame, border);
    let endpoints_safe = lab.status_mesh(s).is_safe() && lab.status_mesh(d).is_safe();
    let (cs, cd) = (S::to_canon(frame, s), S::to_canon(frame, d));
    let oracle_ok = S::reachable(cs, cd, |c| mesh.is_faulty(S::from_canon(frame, c)));
    for &f in faults {
        mesh.heal_fault(f);
    }
    (oracle_ok, endpoints_safe)
}

/// Hill-climb score: a violating set dominates everything and prefers
/// smaller cardinality; otherwise reward unsafe endpoints (the goal),
/// a surviving oracle (the constraint) and faults sitting axis-adjacent
/// to an endpoint (`adj` — the gradient that lets the climb assemble a
/// blocking set one fault at a time), lightly penalizing size.
fn score(oracle_ok: bool, endpoints_safe: bool, len: usize, adj: i64) -> i64 {
    if oracle_ok && !endpoints_safe {
        10_000 - 10 * len as i64
    } else {
        let mut s = 4 * adj - len as i64;
        if !endpoints_safe {
            s += 50;
        }
        if oracle_ok {
            s += 30;
        }
        s
    }
}

/// Chebyshev (max-axis) distance.
fn cheb<S: Space>(a: S::Coord, b: S::Coord) -> i32 {
    let (a, b) = (S::xyz(a), S::xyz(b));
    (0..3).map(|k| (a[k] - b[k]).abs()).max().unwrap_or(0)
}

/// Seeded random-restart hill-climb for a 1-minimal fault set violating
/// the MCC endpoint-safety gate for pair `(s, d)` while the oracle still
/// routes. Candidates are drawn from the healthy nodes near either
/// endpoint (the only region where small sets can sacrifice an endpoint);
/// a working set holds at most one fault per axis neighbor of an endpoint
/// (`2·DIMS`). Returns `None` when no violation is found (e.g. degenerate
/// pairs or wrapped meshes).
pub fn adversarial_search<S: ModelSpace>(
    mesh: &Mesh<S>,
    s: S::Coord,
    d: S::Coord,
    restarts: usize,
    seed: u64,
    border: BorderPolicy,
) -> Option<AdversarialReport<S::Coord>> {
    if mesh.wraps() || s == d || !mesh.is_healthy(s) || !mesh.is_healthy(d) {
        return None;
    }
    let mut scratch = mesh.clone();
    let pool: Vec<S::Coord> = mesh
        .nodes()
        .filter(|&c| {
            c != s && c != d && mesh.is_healthy(c) && (cheb::<S>(c, s) <= 2 || cheb::<S>(c, d) <= 2)
        })
        .collect();
    if pool.len() < 2 {
        return None;
    }
    let max_set = (2 * S::DIMS).min(pool.len());
    let adjacency = |set: &[S::Coord]| -> i64 {
        set.iter()
            .filter(|&&f| mesh.are_neighbors(f, s) || mesh.are_neighbors(f, d))
            .count() as i64
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<Vec<S::Coord>> = None;
    for _ in 0..restarts.max(1) {
        let mut cur: Vec<S::Coord> = {
            let mut p = pool.clone();
            p.shuffle(&mut rng);
            p.truncate(rng.gen_range(2..=max_set));
            p
        };
        let (mut ok, mut eps) = probe(&mut scratch, &cur, s, d, border);
        let mut cur_score = score(ok, eps, cur.len(), adjacency(&cur));
        for step in 0..ANNEAL_STEPS {
            if ok && !eps {
                break;
            }
            let mut cand = cur.clone();
            match rng.gen_range(0..3) {
                0 if cand.len() > 2 => {
                    let i = rng.gen_range(0..cand.len());
                    cand.swap_remove(i);
                }
                1 if cand.len() < max_set => {
                    let c = pool[rng.gen_range(0..pool.len())];
                    if !cand.contains(&c) {
                        cand.push(c);
                    }
                }
                _ => {
                    let i = rng.gen_range(0..cand.len());
                    let c = pool[rng.gen_range(0..pool.len())];
                    if !cand.contains(&c) {
                        cand[i] = c;
                    }
                }
            }
            let (cok, ceps) = probe(&mut scratch, &cand, s, d, border);
            let cand_score = score(cok, ceps, cand.len(), adjacency(&cand));
            // Annealing accept: always take improvements; in the first
            // half of the walk also take one-in-four regressions to
            // escape local optima.
            if cand_score >= cur_score || (step < ANNEAL_STEPS / 2 && rng.gen_range(0..4) == 0) {
                cur = cand;
                cur_score = cand_score;
                ok = cok;
                eps = ceps;
            }
        }
        if !ok || eps {
            continue;
        }
        // Greedy 1-minimal pruning: drop any fault whose removal
        // preserves the violation.
        'prune: loop {
            for i in 0..cur.len() {
                let mut cand = cur.clone();
                cand.remove(i);
                let (cok, ceps) = probe(&mut scratch, &cand, s, d, border);
                if cok && !ceps {
                    cur = cand;
                    continue 'prune;
                }
            }
            break;
        }
        if best.as_ref().is_none_or(|b| cur.len() < b.len()) {
            best = Some(cur);
        }
    }
    best.map(|faults| {
        let (oracle_ok, endpoints_safe) = probe(&mut scratch, &faults, s, d, border);
        AdversarialReport {
            faults,
            s,
            d,
            oracle_ok,
            endpoints_safe,
        }
    })
}

/// Inject the adversarial regime's fault set: the found violating set
/// (targeting `protected[0] → protected[1]` when given, else the mesh
/// corner pair), padded up to `count` with uniformly sampled filler from
/// a derived seed stream.
fn inject_adversarial<S: ModelSpace>(
    mesh: &mut Mesh<S>,
    count: usize,
    seed: u64,
    protected: &[S::Coord],
    border: BorderPolicy,
    restarts: usize,
) -> usize {
    let space = mesh.space();
    let (s, d) = match protected {
        [s, d, ..] => (*s, *d),
        _ => (space.coord(0), space.coord(space.node_count() - 1)),
    };
    let mut injected = 0usize;
    if let Some(report) = adversarial_search(mesh, s, d, restarts, seed, border) {
        for &f in report.faults.iter().take(count) {
            if mesh.is_healthy(f) {
                mesh.inject_fault(f);
                injected += 1;
            }
        }
    }
    if injected < count {
        // Filler stream is decoupled from the search stream so a changed
        // search never perturbs the padding draw.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xadfa_u64.rotate_left(32));
        let mut shield: Vec<S::Coord> = protected.to_vec();
        if !shield.contains(&s) {
            shield.push(s);
        }
        if !shield.contains(&d) {
            shield.push(d);
        }
        for i in sample_uniform(eligible_indices(mesh, &shield), count - injected, &mut rng) {
            mesh.inject_fault(space.coord(i));
            injected += 1;
        }
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalModels2;
    use mesh_topo::coord::c2;

    const B: BorderPolicy = BorderPolicy::BorderSafe;

    #[test]
    fn front_blobs_are_connected_and_reproducible() {
        let regime = FaultRegime::CorrelatedFront { fronts: 2 };
        let mut m1 = Mesh2D::new(20, 20);
        let mut m2 = Mesh2D::new(20, 20);
        assert_eq!(regime.inject(&mut m1, 36, 11, &[], B), 36);
        assert_eq!(regime.inject(&mut m2, 36, 11, &[], B), 36);
        assert_eq!(m1.faults(), m2.faults());
        // At most the two epicenters may be isolated from other faults.
        let isolated = m1
            .faults()
            .iter()
            .filter(|&&c| m1.neighbors(c).all(|v| !m1.is_faulty(v)))
            .count();
        assert!(isolated <= 2, "front blobs disconnected: {isolated}");
    }

    #[test]
    fn front_respects_protection_and_saturates() {
        let regime = FaultRegime::CorrelatedFront { fronts: 3 };
        let mut m = Mesh2D::new(4, 4);
        let n = regime.inject(&mut m, 100, 5, &[c2(0, 0)], B);
        assert_eq!(n, 15);
        assert!(m.is_healthy(c2(0, 0)));
    }

    #[test]
    fn plane_injects_an_axis_slab() {
        let regime = FaultRegime::SweepingPlane { axis: 0 };
        let mut m = Mesh2D::new(10, 10);
        assert_eq!(regime.inject(&mut m, 30, 7, &[], B), 30);
        // 30 faults on a 10-wide mesh = exactly three full columns from
        // one side (which side depends on the seeded direction).
        let xs: Vec<i32> = m.faults().iter().map(|c| c.x).collect();
        let lo = *xs.iter().min().unwrap();
        let hi = *xs.iter().max().unwrap();
        assert_eq!(hi - lo, 2, "slab spans columns {lo}..={hi}");
        assert!(lo == 0 || hi == 9, "slab hugs a mesh face");
    }

    #[test]
    fn plane_schedule_matches_injection_and_slides() {
        let regime = FaultRegime::SweepingPlane { axis: 1 };
        let clean = Mesh2D::new(8, 8);
        let mut schedule = regime.schedule(&clean, 16, 3, &[]).expect("plane churns");
        let mut mesh = Mesh2D::new(8, 8);
        assert_eq!(regime.inject(&mut mesh, 16, 3, &[], B), 16);
        assert_eq!(schedule.initial_faults(), mesh.faults().to_vec());
        // Slide three rounds of 4 flips through incremental maintenance.
        let mut inc = IncrementalModels2::new(mesh, B);
        for _ in 0..3 {
            let (injected, healed) = schedule.step(4);
            assert_eq!(injected.len(), 4);
            assert_eq!(healed.len(), 4);
            inc.try_apply(&injected, &healed).expect("legal churn");
            assert_eq!(inc.mesh().fault_count(), 16);
        }
    }

    #[test]
    fn transient_schedule_cycles_and_feeds_try_apply() {
        let regime = FaultRegime::TransientSchedule {
            period: 4,
            duty: 0.5,
        };
        let clean = Mesh2D::new(12, 12);
        let mut schedule = regime
            .schedule(&clean, 20, 9, &[])
            .expect("transient churns");
        let mut mesh = Mesh2D::new(12, 12);
        let injected = regime.inject(&mut mesh, 20, 9, &[], B);
        assert_eq!(schedule.initial_faults(), mesh.faults().to_vec());
        assert!(
            injected > 0 && injected < 20,
            "duty cycle partial: {injected}"
        );
        let mut inc = IncrementalModels2::new(mesh, B);
        let mut populations = Vec::new();
        for _ in 0..8 {
            let (inj, heal) = schedule.step(0);
            inc.try_apply(&inj, &heal).expect("legal churn");
            populations.push(inc.mesh().fault_count());
        }
        // Period 4: round r and r+4 have identical populations.
        assert_eq!(populations[0..4], populations[4..8]);
        // Sites actually oscillate.
        assert!(populations.iter().any(|&p| p != populations[0]) || injected != populations[0]);
    }

    #[test]
    fn adversarial_finds_minimal_violation_verified_by_oracle() {
        let mesh = Mesh2D::new(12, 12);
        let (s, d) = (c2(2, 2), c2(9, 9));
        let report = adversarial_search(&mesh, s, d, 8, 1, B).expect("violation exists");
        assert!(
            report.violates(),
            "oracle routes but an endpoint is sacrificed"
        );
        // The minimal construction is the antidiagonal pair around an
        // endpoint: cardinality 2 (1-minimal by the pruning pass).
        assert_eq!(report.cardinality(), 2, "faults: {:?}", report.faults);
        // Independent re-verification against the oracle and labelling.
        let mut scratch = mesh.clone();
        let (oracle_ok, endpoints_safe) = probe(&mut scratch, &report.faults, s, d, B);
        assert!(oracle_ok && !endpoints_safe);
    }

    #[test]
    fn adversarial_inject_pads_to_count() {
        let regime = FaultRegime::AdversarialBoundary { restarts: 4 };
        let mut mesh = Mesh2D::new(12, 12);
        let n = regime.inject(&mut mesh, 6, 2, &[c2(1, 1), c2(10, 10)], B);
        assert_eq!(n, 6);
        assert!(mesh.is_healthy(c2(1, 1)) && mesh.is_healthy(c2(10, 10)));
    }

    #[test]
    fn adversarial_declines_torus_and_degenerate_pairs() {
        let torus = Mesh2D::torus(8, 8);
        assert!(adversarial_search(&torus, c2(0, 0), c2(5, 5), 4, 1, B).is_none());
        let mesh = Mesh2D::new(8, 8);
        assert!(adversarial_search(&mesh, c2(3, 3), c2(3, 3), 4, 1, B).is_none());
    }

    #[test]
    fn regime_names_are_stable() {
        assert_eq!(FaultRegime::Uniform.name(), "uniform");
        assert_eq!(FaultRegime::Clustered { clusters: 3 }.name(), "clustered");
        assert_eq!(FaultRegime::CorrelatedFront { fronts: 2 }.name(), "front");
        assert_eq!(FaultRegime::SweepingPlane { axis: 0 }.name(), "plane");
        assert_eq!(
            FaultRegime::TransientSchedule {
                period: 4,
                duty: 0.5
            }
            .name(),
            "transient"
        );
        assert_eq!(
            FaultRegime::AdversarialBoundary { restarts: 8 }.name(),
            "adversarial"
        );
    }
}
