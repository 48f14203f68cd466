//! Declarative experiment descriptions.
//!
//! A [`Scenario`] captures everything the paper's tables vary — mesh
//! dimensions (2-D or 3-D), fault pattern, fault-count ramp, border policy,
//! router choice and seed range — as *data*, loaded from TOML files under
//! `scenarios/` (see `EXPERIMENTS.md` for the experiment → file map). The
//! runner in [`crate::runner`] turns a scenario into table rows; new
//! workloads are new TOML files, not new code.
//!
//! The schema:
//!
//! ```toml
//! name = "E1 — healthy nodes captured by fault regions (2-D)"
//! table = "regions"            # regions | routing | overhead
//!                              # | labelling | churn | load
//!
//! [mesh]
//! dims = [32, 32]              # two entries for 2-D, three for 3-D
//! wrap = false                 # true: torus (every axis wraps around)
//!
//! [faults]
//! counts = [5, 10, 20, 40]    # the fault-count ramp
//! pattern = "uniform"          # uniform | clustered (legacy shorthand)
//! clusters = 3                 # cluster count (clustered pattern only)
//! border = "safe"              # safe | blocked
//!
//! [faults.regime]              # extended fault regimes — exclusive with
//! kind = "front"               # `pattern`; kind = uniform | clustered |
//! fronts = 2                   # front | plane | transient | adversarial.
//! # clusters = 3               # clustered: cluster seed points
//! # axis = "x"                 # plane: sweep axis (x | y | z)
//! # period = 6                 # transient: rounds per on/off cycle
//! # duty = 0.5                 # transient: faulty fraction of the period
//! # restarts = 8               # adversarial: hill-climb restarts
//!
//! [run]
//! seeds = [0, 400]             # half-open seed range [start, end)
//! router = "all"               # all | mcc | rfb | greedy (routing tables)
//! min_dist_frac = 0.5          # min endpoint separation / largest dim
//! pairs_per_seed = 1           # routing pairs batched per fault config
//! threads = 0                  # worker threads (0 = all cores)
//! ```
//!
//! Load scenarios (`table = "load"`) add a `[load]` section describing an
//! open-loop saturation ramp (see [`LoadProfile`] and [`crate::loadgen`]):
//!
//! ```toml
//! [load]
//! initial_rps = 100            # offered rate of the first step
//! increment_rps = 100          # rate increase per step
//! max_rps = 500                # rate ceiling (ramp stops here)
//! step_secs = 0.5              # wall-clock seconds per step
//! mix = [0.6, 0.3, 0.1]        # routing / labelling / churn proportions
//! pool = 4                     # mesh instances per geometry
//! alt_dims = [8, 8, 8]         # optional second geometry (mixed 2-D/3-D)
//! p99_limit_ms = 50.0          # saturation threshold on step p99
//! fail_limit = 0.05            # saturation threshold on failure rate
//! ```
//!
//! `pairs_per_seed` (routing tables only) batches that many
//! source/destination pairs against **one** fault configuration per seed,
//! amortizing model construction through the prepared-mesh pipeline
//! (DESIGN.md §9). With the default of 1 the runner reproduces the
//! historical sampling order bit-for-bit; larger values sample the fault
//! set first and then draw healthy pairs from it, which is what makes
//! large-mesh sweeps such as `e9_routing_2d_large.toml` tractable.

use std::fmt;

use fault_model::{BorderPolicy, FaultRegime};
use mesh_topo::{Mesh2D, Mesh3D, C2, C3};
use serde::{Deserialize, Serialize};

use crate::toml_lite::{Doc, ParseError, Table, Value};

/// Which family of tables the scenario produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableKind {
    /// Fault-region capture statistics (tables E1/E2).
    Regions,
    /// Routing success rates and path metrics (tables E3/E4/E6).
    Routing,
    /// Distributed-construction overhead (tables E5/E7).
    Overhead,
    /// Distributed labelling convergence alone (E7-style, any dims).
    Labelling,
    /// Incremental model maintenance under fault churn (E12-style): each
    /// seed runs an inject/heal trace through
    /// [`fault_model::incremental::IncrementalModels2`] (or the 3-D twin)
    /// and verifies every repaired model against from-scratch recomputation.
    Churn,
    /// Saturation-style load generation (E13/E14-style): an open-loop
    /// request stream over a long-lived pool of prepared meshes and
    /// incremental-churn models, ramping the offered rate until latency or
    /// failure rate saturates. Driven by the `loadgen` binary through
    /// [`crate::loadgen::run_load`] — the `tables` runner rejects it
    /// because step reports carry wall-clock timings.
    Load,
    /// Resident-service saturation ramp (E15-style): the same open-loop
    /// `[load]` ramp, but offered to a journaled `mesh-service` instance —
    /// requests pass each shard's bounded admission queue and are shed
    /// with typed errors beyond saturation. Needs both a `[load]` and a
    /// `[service]` section; driven by the `loadgen` binary through
    /// [`crate::service_load::run_service_load`].
    Service,
}

impl TableKind {
    /// The table name as it appears in scenario files.
    pub fn as_str(self) -> &'static str {
        match self {
            TableKind::Regions => "regions",
            TableKind::Routing => "routing",
            TableKind::Overhead => "overhead",
            TableKind::Labelling => "labelling",
            TableKind::Churn => "churn",
            TableKind::Load => "load",
            TableKind::Service => "service",
        }
    }
}

/// Mesh dimensions: 2-D width×height or 3-D x×y×z.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeshDims {
    /// A 2-D mesh.
    D2 {
        /// Extent along X.
        width: i32,
        /// Extent along Y.
        height: i32,
    },
    /// A 3-D mesh.
    D3 {
        /// Extent along X.
        x: i32,
        /// Extent along Y.
        y: i32,
        /// Extent along Z.
        z: i32,
    },
}

impl MeshDims {
    /// The largest extent, used to scale endpoint-separation requirements.
    pub fn max_extent(self) -> i32 {
        match self {
            MeshDims::D2 { width, height } => width.max(height),
            MeshDims::D3 { x, y, z } => x.max(y).max(z),
        }
    }

    /// Total node count.
    pub fn nodes(self) -> usize {
        match self {
            MeshDims::D2 { width, height } => width as usize * height as usize,
            MeshDims::D3 { x, y, z } => x as usize * y as usize * z as usize,
        }
    }

    /// The smallest extent (tori need 3 per axis).
    pub fn min_extent(self) -> i32 {
        match self {
            MeshDims::D2 { width, height } => width.min(height),
            MeshDims::D3 { x, y, z } => x.min(y).min(z),
        }
    }

    /// The network diameter: the largest topology-aware distance between
    /// two nodes. `(k-1)` per mesh axis, `⌊k/2⌋` per torus axis.
    pub fn diameter(self, wrap: bool) -> u32 {
        let axis = |k: i32| {
            if wrap {
                (k / 2) as u32
            } else {
                (k - 1) as u32
            }
        };
        match self {
            MeshDims::D2 { width, height } => axis(width) + axis(height),
            MeshDims::D3 { x, y, z } => axis(x) + axis(y) + axis(z),
        }
    }
}

/// Open-loop ramp description for `table = "load"` scenarios (the
/// `[load]` TOML section).
///
/// The loadgen harness offers `initial_rps` requests per second for
/// `step_secs`, then raises the rate by `increment_rps` per step until
/// either `max_rps` is reached or a step saturates (its p99 latency
/// crosses `p99_limit_ms` or its failure rate crosses `fail_limit`).
/// Each step's requests are drawn from three operation classes — routing
/// trials, labelling-convergence runs and fault-churn batches — in the
/// proportions of `mix`, interleaved deterministically (see
/// [`crate::loadgen`]). The pool holds `pool` long-lived mesh instances
/// per geometry; `alt_dims` adds a second geometry so one scenario can
/// drive a mixed 2-D/3-D pool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Offered request rate of the first step (requests/second).
    pub initial_rps: u32,
    /// Rate increase per step. May be 0 only when `max_rps == initial_rps`
    /// (a single fixed-rate step) — the ramp must terminate.
    pub increment_rps: u32,
    /// Rate ceiling: the ramp stops after the step that reaches it.
    pub max_rps: u32,
    /// Wall-clock seconds per step; with the offered rate it fixes the
    /// (deterministic) request count of each step.
    pub step_secs: f64,
    /// Workload-mix weight of routing trials.
    pub mix_routing: f64,
    /// Workload-mix weight of labelling-convergence operations.
    pub mix_labelling: f64,
    /// Workload-mix weight of fault-churn operations.
    pub mix_churn: f64,
    /// Long-lived mesh instances per geometry.
    pub pool: usize,
    /// Optional second mesh geometry (2 or 3 extents): the pool then holds
    /// `pool` instances of **both**, and requests spread across all of
    /// them round-robin — a mixed-dimensionality workload in one scenario.
    pub alt_dims: Option<MeshDims>,
    /// Saturation threshold on a step's p99 latency, in milliseconds.
    pub p99_limit_ms: f64,
    /// Saturation threshold on a step's failure rate, in `(0, 1]`.
    pub fail_limit: f64,
}

/// Schema defaults for the optional `[load]` keys.
impl LoadProfile {
    /// Default pool size per geometry.
    pub const DEFAULT_POOL: usize = 2;
    /// Default p99 saturation threshold (milliseconds).
    pub const DEFAULT_P99_LIMIT_MS: f64 = 50.0;
    /// Default failure-rate saturation threshold.
    pub const DEFAULT_FAIL_LIMIT: f64 = 0.05;

    /// Mix weights in class order (routing, labelling, churn).
    pub fn mix(&self) -> [f64; 3] {
        [self.mix_routing, self.mix_labelling, self.mix_churn]
    }

    /// Number of ramp steps the profile can run before hitting `max_rps`
    /// (saturation may stop it earlier).
    pub fn max_steps(&self) -> usize {
        if self.increment_rps == 0 {
            return 1;
        }
        1 + (self.max_rps.saturating_sub(self.initial_rps)).div_ceil(self.increment_rps) as usize
    }
}

/// Admission/durability knobs for `table = "service"` scenarios (the
/// `[service]` TOML section), layered on top of the `[load]` ramp.
///
/// The loadgen `service` driver turns every planned op into a request
/// against a resident `mesh-service` instance. Each shard fronts a
/// bounded deterministic virtual-time queue: `queue_cap` bounds its
/// depth, `deadline_ms` bounds the simulated wait a request may incur
/// before it is shed, and `cost_us` assigns each op class (route, query,
/// churn — in that order) its virtual service time. `snapshot_every`
/// sets the shard's auto-snapshot cadence in churn generations (0 never
/// snapshots, leaving the whole history in the WAL).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Bound on each shard's virtual admission-queue depth.
    pub queue_cap: usize,
    /// Bound on the simulated wait before a request is shed, milliseconds.
    pub deadline_ms: f64,
    /// Virtual service time per op class (route, query, churn), µs.
    pub cost_us: [u64; 3],
    /// Auto-snapshot cadence in churn generations (0 = never).
    pub snapshot_every: u64,
}

impl Default for ServiceProfile {
    fn default() -> ServiceProfile {
        ServiceProfile {
            queue_cap: 64,
            deadline_ms: 50.0,
            cost_us: [200, 100, 400],
            snapshot_every: 32,
        }
    }
}

/// Which router's columns the report keeps (routing tables).
///
/// Every trial still computes the labelling and the oracle (ground
/// truth); deselecting a model skips the rest of its work — MCC
/// extraction/detection/routing, the block model, or the greedy walk —
/// and hides its columns from the rendered table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterChoice {
    /// All models: MCC, the block baseline, and greedy.
    #[default]
    All,
    /// The paper's MCC router only.
    Mcc,
    /// The rectangular/cuboid fault-block baseline only.
    Rfb,
    /// The information-free greedy baseline only.
    Greedy,
}

impl RouterChoice {
    fn as_str(self) -> &'static str {
        match self {
            RouterChoice::All => "all",
            RouterChoice::Mcc => "mcc",
            RouterChoice::Rfb => "rfb",
            RouterChoice::Greedy => "greedy",
        }
    }

    /// Whether MCC columns are reported.
    pub fn wants_mcc(self) -> bool {
        matches!(self, RouterChoice::All | RouterChoice::Mcc)
    }

    /// Whether block-baseline columns are reported.
    pub fn wants_rfb(self) -> bool {
        matches!(self, RouterChoice::All | RouterChoice::Rfb)
    }

    /// Whether greedy columns are reported.
    pub fn wants_greedy(self) -> bool {
        matches!(self, RouterChoice::All | RouterChoice::Greedy)
    }
}

/// A fully-validated, runnable experiment description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name, shown as the table header.
    pub name: String,
    /// Table family to produce.
    pub table: TableKind,
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Wrap-around topology: `true` runs the scenario on a torus (every
    /// axis closed on itself), `false` on the paper's open mesh.
    pub wrap: bool,
    /// Fault-count ramp (one table row per entry).
    pub fault_counts: Vec<usize>,
    /// How faults come into being (spatial law and, for schedule-bearing
    /// regimes, temporal law). The legacy `pattern = "uniform"/"clustered"`
    /// keys map onto [`FaultRegime::Uniform`]/[`FaultRegime::Clustered`];
    /// the extended regimes live in the `[faults.regime]` section.
    pub regime: FaultRegime,
    /// Labelling border policy.
    pub border: BorderPolicy,
    /// Router/model selection for routing tables.
    pub router: RouterChoice,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive). `seed_end - seed_start` trials per row.
    pub seed_end: u64,
    /// Minimum endpoint separation as a fraction of the largest extent
    /// (routing tables only).
    pub min_dist_frac: f64,
    /// Source/destination pairs evaluated per seed against one fault
    /// configuration (routing tables only; see the module docs).
    pub pairs_per_seed: u64,
    /// Worker-thread budget for the runner: `0` (the default) uses every
    /// detected core, any other value caps the pool. The `MCC_THREADS`
    /// environment variable overrides this knob at run time.
    #[serde(default)]
    pub threads: usize,
    /// Churn rounds per seed (churn tables only; `[churn] rounds`). Each
    /// round heals and re-injects `max(1, round(churn_rate × faults))`
    /// faults, keeping the fault population stable.
    #[serde(default)]
    pub churn_rounds: usize,
    /// Fraction of the fault population perturbed per churn round
    /// (`[churn] rate`, in `(0, 1)`).
    #[serde(default = "default_churn_rate")]
    pub churn_rate: f64,
    /// Open-loop ramp description (`[load]` section; load and service
    /// tables). For these scenarios `seed_start` doubles as the master
    /// seed of the deterministic request schedule.
    #[serde(default)]
    pub load: Option<LoadProfile>,
    /// Admission/durability knobs (`[service]` section; service tables
    /// only).
    #[serde(default)]
    pub service: Option<ServiceProfile>,
}

/// The serde/schema default for [`Scenario::churn_rate`].
fn default_churn_rate() -> f64 {
    0.25
}

/// Why a scenario failed to load.
///
/// Parse failures stay **typed**: the offending line number of the TOML
/// text travels with the error (the `tables` binary prints it and exits
/// nonzero), instead of being flattened into a string the caller can no
/// longer inspect.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The TOML text is malformed; carries the 1-based offending line.
    Parse(ParseError),
    /// The document parsed but violates the scenario schema or holds
    /// knob values the runner cannot execute meaningfully.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            ScenarioError::Invalid(_) => None,
        }
    }
}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> ScenarioError {
        ScenarioError::Parse(e)
    }
}

impl ScenarioError {
    /// Build a schema-violation error with the given description.
    pub fn new(msg: impl Into<String>) -> ScenarioError {
        ScenarioError::Invalid(msg.into())
    }

    /// The offending TOML line, for parse failures.
    pub fn line(&self) -> Option<usize> {
        match self {
            ScenarioError::Parse(e) => Some(e.line),
            ScenarioError::Invalid(_) => None,
        }
    }
}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::new(msg)
}

/// Largest worker pool `run.threads` or `MCC_THREADS` may request. A
/// four-digit cap catches unit mix-ups (e.g. a nanosecond or node count
/// pasted into the wrong knob) before the runner tries to spawn thousands
/// of OS threads.
pub const MAX_THREADS: usize = 1024;

/// The worker count `sc` runs with: the `MCC_THREADS` environment variable
/// when set, else `run.threads`, with `0` resolved to every detected core.
/// It sizes the seed sweep and the loadgen/service-load worker pools. A
/// malformed or over-cap `MCC_THREADS` is an error, not silently ignored.
pub fn worker_count(sc: &Scenario) -> Result<usize, ScenarioError> {
    let env = std::env::var_os("MCC_THREADS").map(|v| v.to_string_lossy().into_owned());
    resolve_workers(sc.threads, env.as_deref())
}

/// [`worker_count`] as a pure function of the `MCC_THREADS` value.
fn resolve_workers(threads: usize, env: Option<&str>) -> Result<usize, ScenarioError> {
    let threads = match env {
        None => threads,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n <= MAX_THREADS => n,
            _ => {
                return Err(invalid(format!(
                    "`MCC_THREADS` must be 0 (all cores) or a pool size up to \
                     {MAX_THREADS}, got {v:?}"
                )))
            }
        },
    };
    Ok(mesh_topo::Parallelism::new(threads).resolve())
}

fn require<'a>(table: &'a Table, section: &str, key: &str) -> Result<&'a Value, ScenarioError> {
    table
        .get(key)
        .ok_or_else(|| invalid(format!("missing `{key}` in [{section}]")))
}

fn int_list(value: &Value, what: &str) -> Result<Vec<i64>, ScenarioError> {
    value
        .as_array()
        .ok_or_else(|| invalid(format!("`{what}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_int()
                .ok_or_else(|| invalid(format!("`{what}` must hold integers")))
        })
        .collect()
}

/// Parse a 2- or 3-entry integer array into [`MeshDims`] (range rules
/// live in [`Scenario::validate`], one source of truth).
fn parse_dims(value: &Value, what: &str) -> Result<MeshDims, ScenarioError> {
    let raw: Vec<i32> = int_list(value, what)?
        .into_iter()
        .map(|d| {
            i32::try_from(d).map_err(|_| invalid(format!("`{what}` entries are out of range")))
        })
        .collect::<Result<_, _>>()?;
    match raw.as_slice() {
        [w, h] => Ok(MeshDims::D2 {
            width: *w,
            height: *h,
        }),
        [x, y, z] => Ok(MeshDims::D3 {
            x: *x,
            y: *y,
            z: *z,
        }),
        other => Err(invalid(format!(
            "`{what}` needs 2 or 3 entries, got {}",
            other.len()
        ))),
    }
}

/// Parse the typed `[faults.regime]` table. Every kind has its own key
/// whitelist, so a knob belonging to a different regime (or a typo) is a
/// hard error rather than silently ignored; range rules that need the
/// rest of the scenario (axis vs. dimensionality, table compatibility)
/// live in [`Scenario::validate`].
fn parse_regime(reg: &Table) -> Result<FaultRegime, ScenarioError> {
    let kind = require(reg, "faults.regime", "kind")?
        .as_str()
        .ok_or_else(|| invalid("`faults.regime.kind` must be a string"))?;
    let allowed: &[&str] = match kind {
        "uniform" => &["kind"],
        "clustered" => &["kind", "clusters"],
        "front" => &["kind", "fronts"],
        "plane" => &["kind", "axis"],
        "transient" => &["kind", "period", "duty"],
        "adversarial" => &["kind", "restarts"],
        other => {
            return Err(invalid(format!(
                "`faults.regime.kind` must be \"uniform\", \"clustered\", \
                 \"front\", \"plane\", \"transient\" or \"adversarial\", \
                 got {other:?}"
            )))
        }
    };
    if let Some(k) = reg.keys().find(|k| !allowed.contains(&k.as_str())) {
        return Err(invalid(format!(
            "unknown key `{k}` in [faults.regime] for kind \"{kind}\" \
             (allowed: {})",
            allowed.join(", ")
        )));
    }
    let int_knob = |key: &str, default: i64| -> Result<i64, ScenarioError> {
        match reg.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .ok_or_else(|| invalid(format!("`faults.regime.{key}` must be an integer"))),
        }
    };
    Ok(match kind {
        "uniform" => FaultRegime::Uniform,
        "clustered" => {
            let clusters = int_knob("clusters", 3)?;
            if clusters < 1 {
                return Err(invalid("`faults.regime.clusters` must be at least 1"));
            }
            FaultRegime::Clustered {
                clusters: clusters as usize,
            }
        }
        "front" => {
            let fronts = int_knob("fronts", 3)?;
            if fronts < 1 {
                return Err(invalid("`faults.regime.fronts` must be at least 1"));
            }
            FaultRegime::CorrelatedFront {
                fronts: fronts as usize,
            }
        }
        "plane" => {
            let axis = match reg.get("axis").map(|v| v.as_str()) {
                None | Some(Some("x")) => 0,
                Some(Some("y")) => 1,
                Some(Some("z")) => 2,
                other => {
                    return Err(invalid(format!(
                        "`faults.regime.axis` must be \"x\", \"y\" or \"z\", got {other:?}"
                    )))
                }
            };
            FaultRegime::SweepingPlane { axis }
        }
        "transient" => {
            let period = int_knob("period", 4)?;
            if period < 2 {
                return Err(invalid(
                    "`faults.regime.period` must be at least 2 rounds (a site \
                     needs both an on and an off phase)",
                ));
            }
            let duty = match reg.get("duty") {
                None => 0.5,
                Some(v) => v
                    .as_float()
                    .ok_or_else(|| invalid("`faults.regime.duty` must be a number"))?,
            };
            FaultRegime::TransientSchedule {
                period: period as usize,
                duty,
            }
        }
        "adversarial" => {
            let restarts = int_knob("restarts", 8)?;
            if restarts < 1 {
                return Err(invalid("`faults.regime.restarts` must be at least 1"));
            }
            FaultRegime::AdversarialBoundary {
                restarts: restarts as usize,
            }
        }
        _ => unreachable!("kind already matched"),
    })
}

impl Scenario {
    /// Number of seeds/trials per fault count.
    pub fn seed_count(&self) -> u64 {
        self.seed_end - self.seed_start
    }

    /// Inject one `(fault count, seed)` cell into a 2-D mesh through the
    /// active fault regime, never touching `protected` nodes. Returns the
    /// number of faults injected. For the legacy regimes this reproduces
    /// the historical `FaultSpec` RNG sequence bit-for-bit.
    pub fn inject_2d(&self, mesh: &mut Mesh2D, count: usize, seed: u64, protected: &[C2]) -> usize {
        self.regime
            .inject_2d(mesh, count, seed, protected, self.border)
    }

    /// 3-D twin of [`Scenario::inject_2d`].
    pub fn inject_3d(&self, mesh: &mut Mesh3D, count: usize, seed: u64, protected: &[C3]) -> usize {
        self.regime
            .inject_3d(mesh, count, seed, protected, self.border)
    }

    /// A copy with the seed range shrunk to roughly a tenth, for `--quick`
    /// smoke runs. The shrunk range is clamped to at least one seed, so a
    /// scenario with fewer than 10 seeds never collapses to the empty
    /// range [`Scenario::validate`] rejects (pinned by
    /// `quick_never_empties_small_seed_ranges` below).
    ///
    /// Load scenarios additionally shrink their ramp: steps get a tenth of
    /// the wall-clock (clamped to 50 ms) and the rate ceiling is clamped
    /// to three steps, so `loadgen --quick` is a sub-second smoke run.
    pub fn quick(&self) -> Scenario {
        let mut s = self.clone();
        s.seed_end = s.seed_start + (self.seed_count() / 10).max(1);
        if let Some(load) = &mut s.load {
            load.step_secs = (load.step_secs / 10.0).max(0.05);
            load.max_rps = load
                .max_rps
                .min(load.initial_rps.saturating_add(2 * load.increment_rps));
        }
        s
    }

    /// Parse and validate a scenario from TOML text.
    ///
    /// Malformed TOML surfaces as [`ScenarioError::Parse`] with the
    /// offending line; schema and knob violations as
    /// [`ScenarioError::Invalid`].
    pub fn from_toml(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = Doc::parse(text)?;
        Scenario::from_doc(&doc)
    }

    /// Load a scenario from a TOML file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| invalid(format!("cannot read {}: {e}", path.display())))?;
        Scenario::from_toml(&text)
    }

    fn from_doc(doc: &Doc) -> Result<Scenario, ScenarioError> {
        let name = require(&doc.root, "", "name")?
            .as_str()
            .ok_or_else(|| invalid("`name` must be a string"))?
            .to_string();
        let table = match require(&doc.root, "", "table")?.as_str() {
            Some("regions") => TableKind::Regions,
            Some("routing") => TableKind::Routing,
            Some("overhead") => TableKind::Overhead,
            Some("labelling") => TableKind::Labelling,
            Some("churn") => TableKind::Churn,
            Some("load") => TableKind::Load,
            Some("service") => TableKind::Service,
            other => {
                return Err(invalid(format!(
                    "`table` must be \"regions\", \"routing\", \"overhead\", \
                     \"labelling\", \"churn\", \"load\" or \"service\", got {other:?}"
                )))
            }
        };

        let mesh = doc
            .sections
            .get("mesh")
            .ok_or_else(|| invalid("missing [mesh] section"))?;
        // Only a conversion guard here; the 2..=4096 range rule lives in
        // `Scenario::validate` (one source of truth for load-time and
        // programmatic scenarios alike).
        let dims = parse_dims(require(mesh, "mesh", "dims")?, "mesh.dims")?;
        let wrap = match mesh.get("wrap") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("`mesh.wrap` must be a boolean"))?,
        };

        let faults = doc
            .sections
            .get("faults")
            .ok_or_else(|| invalid("missing [faults] section"))?;
        let fault_counts: Vec<usize> =
            int_list(require(faults, "faults", "counts")?, "faults.counts")?
                .into_iter()
                .map(|v| {
                    usize::try_from(v).map_err(|_| invalid("`faults.counts` must be non-negative"))
                })
                .collect::<Result<_, _>>()?;
        // Satellite rule: `[faults]` rejects unknown keys outright (a
        // typo'd or misplaced knob — e.g. `clusters` under `pattern =
        // "uniform"` — used to be silently ignored).
        const FAULTS_KEYS: [&str; 4] = ["counts", "pattern", "clusters", "border"];
        if let Some(k) = faults.keys().find(|k| !FAULTS_KEYS.contains(&k.as_str())) {
            return Err(invalid(format!(
                "unknown key `{k}` in [faults] (allowed: counts, pattern, \
                 clusters, border; extended regimes go in [faults.regime])"
            )));
        }
        let regime = match doc.sections.get("faults.regime") {
            Some(reg) => {
                if faults.contains_key("pattern") || faults.contains_key("clusters") {
                    return Err(invalid(
                        "`faults.pattern`/`faults.clusters` and a [faults.regime] \
                         section are mutually exclusive — the regime table already \
                         names the sampling law",
                    ));
                }
                parse_regime(reg)?
            }
            None => match faults.get("pattern").map(|v| v.as_str()) {
                None | Some(Some("uniform")) => {
                    if faults.contains_key("clusters") {
                        return Err(invalid(
                            "`faults.clusters` is only meaningful with `pattern = \
                             \"clustered\"` (it would be silently ignored here)",
                        ));
                    }
                    FaultRegime::Uniform
                }
                Some(Some("clustered")) => {
                    let clusters = faults.get("clusters").and_then(Value::as_int).unwrap_or(3);
                    if clusters < 1 {
                        return Err(invalid("`faults.clusters` must be at least 1"));
                    }
                    FaultRegime::Clustered {
                        clusters: clusters as usize,
                    }
                }
                other => {
                    return Err(invalid(format!(
                        "`faults.pattern` must be \"uniform\" or \"clustered\", got {other:?}"
                    )))
                }
            },
        };
        let border = match faults.get("border").map(|v| v.as_str()) {
            None | Some(Some("safe")) => BorderPolicy::BorderSafe,
            Some(Some("blocked")) => BorderPolicy::BorderBlocked,
            other => {
                return Err(invalid(format!(
                    "`faults.border` must be \"safe\" or \"blocked\", got {other:?}"
                )))
            }
        };

        let run = doc
            .sections
            .get("run")
            .ok_or_else(|| invalid("missing [run] section"))?;
        let seeds = int_list(require(run, "run", "seeds")?, "run.seeds")?;
        let (seed_start, seed_end) = match seeds.as_slice() {
            [start, end] if *start >= 0 && *end >= 0 => (*start as u64, *end as u64),
            _ => {
                return Err(invalid(
                    "`run.seeds` must be `[start, end]` with non-negative entries",
                ))
            }
        };
        let router = match run.get("router").map(|v| v.as_str()) {
            None | Some(Some("all")) => RouterChoice::All,
            Some(Some("mcc")) => RouterChoice::Mcc,
            Some(Some("rfb")) => RouterChoice::Rfb,
            Some(Some("greedy")) => RouterChoice::Greedy,
            other => {
                return Err(invalid(format!(
                    "`run.router` must be \"all\", \"mcc\", \"rfb\" or \"greedy\", got {other:?}"
                )))
            }
        };
        let min_dist_frac = match run.get("min_dist_frac") {
            None => 0.5,
            Some(v) => v
                .as_float()
                .ok_or_else(|| invalid("`run.min_dist_frac` must be a number"))?,
        };
        let pairs_per_seed = match run.get("pairs_per_seed") {
            None => 1,
            Some(v) => {
                let p = v
                    .as_int()
                    .ok_or_else(|| invalid("`run.pairs_per_seed` must be an integer"))?;
                u64::try_from(p)
                    .map_err(|_| invalid("`run.pairs_per_seed` must be non-negative"))?
            }
        };
        let threads = match run.get("threads") {
            None => 0,
            Some(v) => {
                let t = v
                    .as_int()
                    .ok_or_else(|| invalid("`run.threads` must be an integer"))?;
                usize::try_from(t).map_err(|_| invalid("`run.threads` must be non-negative"))?
            }
        };

        let (churn_rounds, churn_rate) = match doc.sections.get("churn") {
            None => (0, default_churn_rate()),
            Some(churn) => {
                if table != TableKind::Churn {
                    return Err(invalid(
                        "a [churn] section is only meaningful with `table = \"churn\"`",
                    ));
                }
                let rounds = require(churn, "churn", "rounds")?
                    .as_int()
                    .ok_or_else(|| invalid("`churn.rounds` must be an integer"))?;
                let rounds = usize::try_from(rounds)
                    .map_err(|_| invalid("`churn.rounds` must be non-negative"))?;
                let rate = match churn.get("rate") {
                    None => default_churn_rate(),
                    Some(v) => v
                        .as_float()
                        .ok_or_else(|| invalid("`churn.rate` must be a number"))?,
                };
                (rounds, rate)
            }
        };
        if table == TableKind::Churn && !doc.sections.contains_key("churn") {
            return Err(invalid("churn scenarios need a [churn] section"));
        }

        let load = match doc.sections.get("load") {
            None => None,
            Some(load) => {
                if table != TableKind::Load && table != TableKind::Service {
                    return Err(invalid(
                        "a [load] section is only meaningful with `table = \"load\"` \
                         or `table = \"service\"`",
                    ));
                }
                let int_knob = |key: &str| -> Result<u32, ScenarioError> {
                    let v = require(load, "load", key)?
                        .as_int()
                        .ok_or_else(|| invalid(format!("`load.{key}` must be an integer")))?;
                    u32::try_from(v).map_err(|_| invalid(format!("`load.{key}` is out of range")))
                };
                let float_knob = |key: &str, default: f64| -> Result<f64, ScenarioError> {
                    match load.get(key) {
                        None => Ok(default),
                        Some(v) => v
                            .as_float()
                            .ok_or_else(|| invalid(format!("`load.{key}` must be a number"))),
                    }
                };
                let step_secs = require(load, "load", "step_secs")?
                    .as_float()
                    .ok_or_else(|| invalid("`load.step_secs` must be a number"))?;
                let mix: Vec<f64> = require(load, "load", "mix")?
                    .as_array()
                    .ok_or_else(|| invalid("`load.mix` must be an array"))?
                    .iter()
                    .map(|v| {
                        v.as_float()
                            .ok_or_else(|| invalid("`load.mix` must hold numbers"))
                    })
                    .collect::<Result<_, _>>()?;
                let [mix_routing, mix_labelling, mix_churn] = match mix.as_slice() {
                    [r, l, c] => [*r, *l, *c],
                    other => {
                        return Err(invalid(format!(
                            "`load.mix` needs exactly 3 entries \
                             (routing, labelling, churn weights), got {}",
                            other.len()
                        )))
                    }
                };
                let pool = match load.get("pool") {
                    None => LoadProfile::DEFAULT_POOL,
                    Some(v) => {
                        let p = v
                            .as_int()
                            .ok_or_else(|| invalid("`load.pool` must be an integer"))?;
                        usize::try_from(p)
                            .map_err(|_| invalid("`load.pool` must be non-negative"))?
                    }
                };
                let alt_dims = match load.get("alt_dims") {
                    None => None,
                    Some(v) => Some(parse_dims(v, "load.alt_dims")?),
                };
                Some(LoadProfile {
                    initial_rps: int_knob("initial_rps")?,
                    increment_rps: int_knob("increment_rps")?,
                    max_rps: int_knob("max_rps")?,
                    step_secs,
                    mix_routing,
                    mix_labelling,
                    mix_churn,
                    pool,
                    alt_dims,
                    p99_limit_ms: float_knob("p99_limit_ms", LoadProfile::DEFAULT_P99_LIMIT_MS)?,
                    fail_limit: float_knob("fail_limit", LoadProfile::DEFAULT_FAIL_LIMIT)?,
                })
            }
        };
        if table == TableKind::Load && load.is_none() {
            return Err(invalid("load scenarios need a [load] section"));
        }

        let service = match doc.sections.get("service") {
            None => None,
            Some(sec) => {
                if table != TableKind::Service {
                    return Err(invalid(
                        "a [service] section is only meaningful with `table = \"service\"`",
                    ));
                }
                let defaults = ServiceProfile::default();
                let queue_cap = match sec.get("queue_cap") {
                    None => defaults.queue_cap,
                    Some(v) => {
                        let q = v
                            .as_int()
                            .ok_or_else(|| invalid("`service.queue_cap` must be an integer"))?;
                        usize::try_from(q)
                            .map_err(|_| invalid("`service.queue_cap` must be non-negative"))?
                    }
                };
                let deadline_ms = match sec.get("deadline_ms") {
                    None => defaults.deadline_ms,
                    Some(v) => v
                        .as_float()
                        .ok_or_else(|| invalid("`service.deadline_ms` must be a number"))?,
                };
                let cost_us = match sec.get("cost_us") {
                    None => defaults.cost_us,
                    Some(v) => {
                        let raw = int_list(v, "service.cost_us")?;
                        let raw: Vec<u64> = raw
                            .into_iter()
                            .map(|c| {
                                u64::try_from(c).map_err(|_| {
                                    invalid("`service.cost_us` must hold non-negative entries")
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        match raw.as_slice() {
                            [r, q, c] => [*r, *q, *c],
                            other => {
                                return Err(invalid(format!(
                                    "`service.cost_us` needs exactly 3 entries \
                                     (route, query, churn costs), got {}",
                                    other.len()
                                )))
                            }
                        }
                    }
                };
                let snapshot_every = match sec.get("snapshot_every") {
                    None => defaults.snapshot_every,
                    Some(v) => {
                        let s = v.as_int().ok_or_else(|| {
                            invalid("`service.snapshot_every` must be an integer")
                        })?;
                        u64::try_from(s)
                            .map_err(|_| invalid("`service.snapshot_every` must be non-negative"))?
                    }
                };
                Some(ServiceProfile {
                    queue_cap,
                    deadline_ms,
                    cost_us,
                    snapshot_every,
                })
            }
        };
        if table == TableKind::Service {
            if load.is_none() {
                return Err(invalid(
                    "service scenarios need a [load] section (the ramp)",
                ));
            }
            if service.is_none() {
                return Err(invalid("service scenarios need a [service] section"));
            }
        }

        let scenario = Scenario {
            name,
            table,
            dims,
            wrap,
            fault_counts,
            regime,
            border,
            router,
            seed_start,
            seed_end,
            min_dist_frac,
            pairs_per_seed,
            threads,
            churn_rounds,
            churn_rate,
            load,
            service,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Check every knob combination the runner cannot execute
    /// meaningfully and reject it with a descriptive error.
    ///
    /// Runs at scenario-load time ([`Scenario::from_toml`] /
    /// [`Scenario::load`]) and again at the top of
    /// [`crate::runner::run_scenario`], so programmatically built
    /// scenarios (public fields, legacy constructors) cannot slip past
    /// it either. Guards against the historical silent misbehaviors:
    /// `pairs_per_seed = 0` produced empty rows rendered as `NaN`
    /// columns, fault counts at or beyond the node count spun the
    /// rejection sampler forever (a fault *rate* outside [0, 1)), and
    /// zero- or one-wide meshes panicked deep inside the topology layer.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let dims = match self.dims {
            MeshDims::D2 { width, height } => vec![width, height],
            MeshDims::D3 { x, y, z } => vec![x, y, z],
        };
        if dims.iter().any(|&d| !(2..=4096).contains(&d)) {
            return Err(invalid(format!(
                "every mesh dimension must be in 2..=4096, got {dims:?}"
            )));
        }
        if self.wrap && self.dims.min_extent() < 3 {
            return Err(invalid(format!(
                "a torus needs every dimension >= 3 (distinct +/- neighbors), got {dims:?}"
            )));
        }
        if self.wrap && self.table == TableKind::Overhead {
            // The identification/boundary walk pipeline assumes seam-free
            // region geometry (the torus analog of the mesh pipeline's
            // off-border assumption); wrap-around overhead sweeps would
            // report message counts for walks that silently treat the
            // seam as a border (see DESIGN.md §10).
            return Err(invalid(
                "overhead scenarios run the identification-walk pipeline, which \
                 does not support wrap-around topologies; use `table = \
                 \"labelling\"` for torus protocol sweeps",
            ));
        }
        if self.fault_counts.is_empty() {
            return Err(invalid("`faults.counts` must not be empty"));
        }
        let nodes = self.dims.nodes();
        // Routing rows must keep two healthy endpoints per trial; other
        // tables only need the fault rate below 1.
        let capacity = match self.table {
            TableKind::Routing => nodes.saturating_sub(2),
            _ => nodes.saturating_sub(1),
        };
        if let Some(&n) = self.fault_counts.iter().find(|&&n| n > capacity) {
            return Err(invalid(format!(
                "fault count {n} leaves the {nodes}-node network no room \
                 (fault rate must stay below 1{}); largest usable count is {capacity}",
                if self.table == TableKind::Routing {
                    ", with two healthy routing endpoints"
                } else {
                    ""
                }
            )));
        }
        if self.seed_start >= self.seed_end {
            return Err(invalid(format!(
                "`run.seeds` must be a non-empty range, got [{}, {})",
                self.seed_start, self.seed_end
            )));
        }
        if !self.min_dist_frac.is_finite() || !(0.0..=1.0).contains(&self.min_dist_frac) {
            return Err(invalid(format!(
                "`run.min_dist_frac` must be in [0, 1], got {}",
                self.min_dist_frac
            )));
        }
        if self.pairs_per_seed < 1 {
            return Err(invalid(
                "`run.pairs_per_seed` must be a positive integer (0 pairs would \
                 produce empty rows)",
            ));
        }
        // `0` means "all detected cores"; anything else is a literal pool
        // size, capped at [`MAX_THREADS`].
        if self.threads > MAX_THREADS {
            return Err(invalid(format!(
                "`run.threads` must be 0 (all cores) or a pool size up to \
                 {MAX_THREADS}, got {}",
                self.threads
            )));
        }
        if self.table == TableKind::Churn {
            if self.churn_rounds < 1 {
                return Err(invalid(
                    "`churn.rounds` must be at least 1 (zero rounds would churn \
                     nothing and verify nothing)",
                ));
            }
            if !(self.churn_rate.is_finite() && 0.0 < self.churn_rate && self.churn_rate < 1.0) {
                return Err(invalid(format!(
                    "`churn.rate` must be a finite fraction in (0, 1) of the fault \
                     population perturbed per round, got {}",
                    self.churn_rate
                )));
            }
            if let Some(&n) = self.fault_counts.iter().find(|&&n| n == 0) {
                return Err(invalid(format!(
                    "churn scenarios need at least one fault to heal per round; \
                     fault count {n} leaves the heal half of every batch empty"
                )));
            }
        }
        self.validate_regime()?;
        if self.table == TableKind::Routing {
            let min_dist = (self.dims.max_extent() as f64 * self.min_dist_frac).round() as u32;
            let diameter = self.dims.diameter(self.wrap);
            if min_dist > diameter {
                return Err(invalid(format!(
                    "`run.min_dist_frac` asks for pairs at least {min_dist} hops \
                     apart, but the {} diameter is only {diameter}; the pair \
                     sampler could never terminate",
                    if self.wrap { "torus" } else { "mesh" }
                )));
            }
        }
        match (&self.load, self.table) {
            (None, TableKind::Load) => {
                return Err(invalid("load scenarios need a [load] section"));
            }
            (None, TableKind::Service) => {
                return Err(invalid(
                    "service scenarios need a [load] section (the ramp)",
                ));
            }
            (Some(_), t) if t != TableKind::Load && t != TableKind::Service => {
                return Err(invalid(
                    "a [load] section is only meaningful with `table = \"load\"` \
                     or `table = \"service\"`",
                ));
            }
            (Some(load), _) => self.validate_load(load)?,
            _ => {}
        }
        match (&self.service, self.table) {
            (None, TableKind::Service) => {
                return Err(invalid("service scenarios need a [service] section"));
            }
            (Some(_), t) if t != TableKind::Service => {
                return Err(invalid(
                    "a [service] section is only meaningful with `table = \"service\"`",
                ));
            }
            (Some(service), TableKind::Service) => self.validate_service(service)?,
            _ => {}
        }
        Ok(())
    }

    /// Regime knob ranges plus regime/table compatibility (split out of
    /// [`Scenario::validate`] for readability).
    ///
    /// The schedule-bearing regimes only make sense where their schedule
    /// can actually run: the sweeping plane and transient regimes churn
    /// through `IncrementalModels*::try_apply` (churn tables), but also
    /// provide a static round-0 sample any table can use; the adversarial
    /// regime targets one source/destination pair per fault
    /// configuration, so it needs a routing table with `pairs_per_seed =
    /// 1` on a non-wrapping mesh (its violation predicate is defined over
    /// the pair's canonical monotone frame). Request-driven churn
    /// (load/service tables) would fight a regime-prescribed schedule, so
    /// those tables reject the transient regime.
    fn validate_regime(&self) -> Result<(), ScenarioError> {
        match self.regime {
            FaultRegime::Clustered { clusters } if clusters < 1 => {
                return Err(invalid("the clustered regime needs at least 1 cluster"));
            }
            FaultRegime::CorrelatedFront { fronts } if fronts < 1 => {
                return Err(invalid("the front regime needs at least 1 epicenter"));
            }
            FaultRegime::SweepingPlane { axis } => {
                let axes = match self.dims {
                    MeshDims::D2 { .. } => 2,
                    MeshDims::D3 { .. } => 3,
                };
                if axis >= axes {
                    return Err(invalid(format!(
                        "`faults.regime.axis` \"{}\" needs a 3-D mesh, but \
                         `mesh.dims` is {axes}-dimensional",
                        ["x", "y", "z"].get(axis).copied().unwrap_or("?")
                    )));
                }
            }
            FaultRegime::TransientSchedule { period, duty } => {
                if !(2..=1024).contains(&period) {
                    return Err(invalid(format!(
                        "`faults.regime.period` must be in 2..=1024 churn rounds, \
                         got {period}"
                    )));
                }
                if !(duty.is_finite() && 0.0 < duty && duty < 1.0) {
                    return Err(invalid(format!(
                        "`faults.regime.duty` must be a fraction in (0, 1) of the \
                         period a site spends faulty, got {duty}"
                    )));
                }
                if self.table == TableKind::Load || self.table == TableKind::Service {
                    return Err(invalid(
                        "the transient regime prescribes its own inject/heal \
                         schedule; load/service tables churn per request and \
                         would fight it — use uniform, clustered, front or plane",
                    ));
                }
            }
            FaultRegime::AdversarialBoundary { restarts } => {
                if !(1..=10_000).contains(&restarts) {
                    return Err(invalid(format!(
                        "`faults.regime.restarts` must be in 1..=10000, got {restarts}"
                    )));
                }
                if self.table != TableKind::Routing {
                    return Err(invalid(
                        "the adversarial regime searches against one routing pair; \
                         it only makes sense with `table = \"routing\"`",
                    ));
                }
                if self.wrap {
                    return Err(invalid(
                        "the adversarial regime's violation predicate needs the \
                         canonical monotone frame of a non-wrapping mesh; drop \
                         `mesh.wrap` or pick another regime",
                    ));
                }
                if self.pairs_per_seed != 1 {
                    return Err(invalid(
                        "the adversarial regime targets the trial pair it is \
                         injected against; `run.pairs_per_seed` must be 1",
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Service-profile knob rules (only called for `table = "service"`
    /// scenarios, after the shared `[load]` ramp rules).
    fn validate_service(&self, service: &ServiceProfile) -> Result<(), ScenarioError> {
        if !(1..=65_536).contains(&service.queue_cap) {
            return Err(invalid(format!(
                "`service.queue_cap` must be in 1..=65536, got {}",
                service.queue_cap
            )));
        }
        if !(service.deadline_ms.is_finite() && service.deadline_ms > 0.0) {
            return Err(invalid(format!(
                "`service.deadline_ms` must be a positive duration, got {}",
                service.deadline_ms
            )));
        }
        if service.cost_us.iter().any(|&c| c == 0 || c > 60_000_000) {
            return Err(invalid(format!(
                "`service.cost_us` entries must be in 1..=60,000,000 µs, got {:?}",
                service.cost_us
            )));
        }
        Ok(())
    }

    /// Load-profile knob rules (split out of [`Scenario::validate`] for
    /// readability; only called for `table = "load"` scenarios).
    fn validate_load(&self, load: &LoadProfile) -> Result<(), ScenarioError> {
        if load.initial_rps < 1 {
            return Err(invalid("`load.initial_rps` must be at least 1"));
        }
        if load.max_rps < load.initial_rps {
            return Err(invalid(format!(
                "`load.max_rps` ({}) must be at least `load.initial_rps` ({})",
                load.max_rps, load.initial_rps
            )));
        }
        if load.increment_rps == 0 && load.max_rps > load.initial_rps {
            return Err(invalid(
                "`load.increment_rps` must be positive when `max_rps` exceeds \
                 `initial_rps` (a zero increment could never finish the ramp)",
            ));
        }
        if load.initial_rps > 1_000_000 || load.max_rps > 1_000_000 {
            return Err(invalid(
                "`load` rates beyond 1,000,000 rps look like a unit mix-up",
            ));
        }
        if !(load.step_secs.is_finite() && 0.0 < load.step_secs && load.step_secs <= 60.0) {
            return Err(invalid(format!(
                "`load.step_secs` must be a finite duration in (0, 60], got {}",
                load.step_secs
            )));
        }
        let mix = load.mix();
        if mix.iter().any(|w| !w.is_finite() || *w < 0.0) || mix.iter().sum::<f64>() <= 0.0 {
            return Err(invalid(format!(
                "`load.mix` weights must be finite, non-negative and not all \
                 zero, got {mix:?}"
            )));
        }
        if !(1..=256).contains(&load.pool) {
            return Err(invalid(format!(
                "`load.pool` must be in 1..=256 instances per geometry, got {}",
                load.pool
            )));
        }
        if !(load.p99_limit_ms.is_finite() && load.p99_limit_ms > 0.0) {
            return Err(invalid(format!(
                "`load.p99_limit_ms` must be a positive duration, got {}",
                load.p99_limit_ms
            )));
        }
        if !(load.fail_limit.is_finite() && 0.0 < load.fail_limit && load.fail_limit <= 1.0) {
            return Err(invalid(format!(
                "`load.fail_limit` must be a fraction in (0, 1], got {}",
                load.fail_limit
            )));
        }
        if self.fault_counts.len() != 1 {
            return Err(invalid(format!(
                "load scenarios hold the fault population fixed per instance; \
                 `faults.counts` must have exactly 1 entry, got {}",
                self.fault_counts.len()
            )));
        }
        let count = self.fault_counts[0];
        if load.mix_churn > 0.0 && count == 0 {
            return Err(invalid(
                "a churn mix weight needs at least one fault to heal per batch",
            ));
        }
        // Every geometry in the pool must obey the same shape rules as the
        // primary mesh, keep two healthy routing endpoints, and admit the
        // endpoint-separation requirement.
        for dims in std::iter::once(self.dims).chain(load.alt_dims) {
            let extents = match dims {
                MeshDims::D2 { width, height } => vec![width, height],
                MeshDims::D3 { x, y, z } => vec![x, y, z],
            };
            if extents.iter().any(|&d| !(2..=4096).contains(&d)) {
                return Err(invalid(format!(
                    "every load-pool mesh dimension must be in 2..=4096, got {extents:?}"
                )));
            }
            if self.wrap && dims.min_extent() < 3 {
                return Err(invalid(format!(
                    "a torus needs every dimension >= 3, got {extents:?} in the load pool"
                )));
            }
            if count + 2 > dims.nodes() {
                return Err(invalid(format!(
                    "fault count {count} leaves the {}-node load-pool mesh no \
                     room for two healthy routing endpoints",
                    dims.nodes()
                )));
            }
            if load.mix_routing > 0.0 {
                let min_dist = (dims.max_extent() as f64 * self.min_dist_frac).round() as u32;
                let diameter = dims.diameter(self.wrap);
                if min_dist > diameter {
                    return Err(invalid(format!(
                        "`run.min_dist_frac` asks for routing pairs at least \
                         {min_dist} hops apart, but a load-pool geometry's \
                         diameter is only {diameter}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Serialize back to the TOML schema. Round-trips through
    /// [`Scenario::from_toml`].
    pub fn to_toml(&self) -> String {
        let mut doc = Doc::default();
        doc.root
            .insert("name".into(), Value::Str(self.name.clone()));
        doc.root
            .insert("table".into(), Value::Str(self.table.as_str().into()));

        let mut mesh = Table::new();
        let dims = match self.dims {
            MeshDims::D2 { width, height } => vec![width, height],
            MeshDims::D3 { x, y, z } => vec![x, y, z],
        };
        mesh.insert(
            "dims".into(),
            Value::Array(dims.into_iter().map(|d| Value::Int(d as i64)).collect()),
        );
        mesh.insert("wrap".into(), Value::Bool(self.wrap));
        doc.sections.insert("mesh".into(), mesh);

        let mut faults = Table::new();
        faults.insert(
            "counts".into(),
            Value::Array(
                self.fault_counts
                    .iter()
                    .map(|&n| Value::Int(n as i64))
                    .collect(),
            ),
        );
        // The legacy regimes keep emitting the legacy `pattern` keys so
        // every pre-regime scenario file round-trips byte-for-byte; the
        // extended regimes render as a typed [faults.regime] section
        // (which the BTreeMap section order places right after [faults]).
        match self.regime {
            FaultRegime::Uniform => {
                faults.insert("pattern".into(), Value::Str("uniform".into()));
            }
            FaultRegime::Clustered { clusters } => {
                faults.insert("pattern".into(), Value::Str("clustered".into()));
                faults.insert("clusters".into(), Value::Int(clusters as i64));
            }
            _ => {}
        }
        let border = match self.border {
            BorderPolicy::BorderSafe => "safe",
            BorderPolicy::BorderBlocked => "blocked",
        };
        faults.insert("border".into(), Value::Str(border.into()));
        doc.sections.insert("faults".into(), faults);

        if !self.regime.is_legacy() {
            let mut reg = Table::new();
            reg.insert("kind".into(), Value::Str(self.regime.name().into()));
            match self.regime {
                FaultRegime::CorrelatedFront { fronts } => {
                    reg.insert("fronts".into(), Value::Int(fronts as i64));
                }
                FaultRegime::SweepingPlane { axis } => {
                    reg.insert(
                        "axis".into(),
                        Value::Str(["x", "y", "z"][axis.min(2)].into()),
                    );
                }
                FaultRegime::TransientSchedule { period, duty } => {
                    reg.insert("period".into(), Value::Int(period as i64));
                    reg.insert("duty".into(), Value::Float(duty));
                }
                FaultRegime::AdversarialBoundary { restarts } => {
                    reg.insert("restarts".into(), Value::Int(restarts as i64));
                }
                FaultRegime::Uniform | FaultRegime::Clustered { .. } => {}
            }
            doc.sections.insert("faults.regime".into(), reg);
        }

        let mut run = Table::new();
        run.insert(
            "seeds".into(),
            Value::Array(vec![
                Value::Int(self.seed_start as i64),
                Value::Int(self.seed_end as i64),
            ]),
        );
        run.insert("router".into(), Value::Str(self.router.as_str().into()));
        run.insert("min_dist_frac".into(), Value::Float(self.min_dist_frac));
        run.insert(
            "pairs_per_seed".into(),
            Value::Int(self.pairs_per_seed as i64),
        );
        // Emitted only when set: the default (0 = all cores) stays
        // implicit so pre-existing scenario files round-trip byte-for-byte.
        if self.threads != 0 {
            run.insert("threads".into(), Value::Int(self.threads as i64));
        }
        doc.sections.insert("run".into(), run);

        // Emitted only for churn tables, mirroring the parse-time rule that
        // a [churn] section on any other table kind is rejected; non-churn
        // scenario files keep round-tripping byte-for-byte.
        if self.table == TableKind::Churn {
            let mut churn = Table::new();
            churn.insert("rounds".into(), Value::Int(self.churn_rounds as i64));
            churn.insert("rate".into(), Value::Float(self.churn_rate));
            doc.sections.insert("churn".into(), churn);
        }

        // Same rule for the load profile: only load tables carry one.
        if let Some(load) = &self.load {
            let mut sec = Table::new();
            sec.insert("initial_rps".into(), Value::Int(load.initial_rps as i64));
            sec.insert(
                "increment_rps".into(),
                Value::Int(load.increment_rps as i64),
            );
            sec.insert("max_rps".into(), Value::Int(load.max_rps as i64));
            sec.insert("step_secs".into(), Value::Float(load.step_secs));
            sec.insert(
                "mix".into(),
                Value::Array(load.mix().into_iter().map(Value::Float).collect()),
            );
            sec.insert("pool".into(), Value::Int(load.pool as i64));
            if let Some(alt) = load.alt_dims {
                let alt_extents = match alt {
                    MeshDims::D2 { width, height } => vec![width, height],
                    MeshDims::D3 { x, y, z } => vec![x, y, z],
                };
                sec.insert(
                    "alt_dims".into(),
                    Value::Array(
                        alt_extents
                            .into_iter()
                            .map(|d| Value::Int(d as i64))
                            .collect(),
                    ),
                );
            }
            sec.insert("p99_limit_ms".into(), Value::Float(load.p99_limit_ms));
            sec.insert("fail_limit".into(), Value::Float(load.fail_limit));
            doc.sections.insert("load".into(), sec);
        }

        // And only service tables carry a [service] section.
        if let Some(service) = &self.service {
            let mut sec = Table::new();
            sec.insert("queue_cap".into(), Value::Int(service.queue_cap as i64));
            sec.insert("deadline_ms".into(), Value::Float(service.deadline_ms));
            sec.insert(
                "cost_us".into(),
                Value::Array(
                    service
                        .cost_us
                        .iter()
                        .map(|&c| Value::Int(c as i64))
                        .collect(),
                ),
            );
            sec.insert(
                "snapshot_every".into(),
                Value::Int(service.snapshot_every as i64),
            );
            doc.sections.insert("service".into(), sec);
        }

        doc.render()
    }

    // ---- programmatic constructors used by the legacy sweep API ----

    fn base(
        name: &str,
        table: TableKind,
        dims: MeshDims,
        counts: &[usize],
        seeds: u64,
    ) -> Scenario {
        Scenario {
            name: name.to_string(),
            table,
            dims,
            wrap: false,
            fault_counts: counts.to_vec(),
            regime: FaultRegime::Uniform,
            border: BorderPolicy::BorderSafe,
            router: RouterChoice::All,
            seed_start: 0,
            seed_end: seeds,
            min_dist_frac: 0.5,
            pairs_per_seed: 1,
            threads: 0,
            churn_rounds: 0,
            churn_rate: default_churn_rate(),
            load: None,
            service: None,
        }
    }

    /// E15-style resident-service ramp: the `[load]` ramp of
    /// [`Scenario::load_2d`] offered to a journaled `mesh-service`
    /// instance with the given admission/durability profile.
    pub fn service_2d(
        width: i32,
        faults: usize,
        seed: u64,
        profile: LoadProfile,
        service: ServiceProfile,
    ) -> Scenario {
        let mut s = Scenario::load_2d(width, faults, seed, profile);
        s.name = "service 2-D".into();
        s.table = TableKind::Service;
        s.service = Some(service);
        s
    }

    /// E13/E14-style load scenario: an open-loop ramp over a pool of 2-D
    /// meshes (add `alt_dims` to the profile for a mixed 2-D/3-D pool).
    /// `seed` becomes the master seed of the deterministic request
    /// schedule.
    pub fn load_2d(width: i32, faults: usize, seed: u64, profile: LoadProfile) -> Scenario {
        let mut s = Scenario::base(
            "load 2-D",
            TableKind::Load,
            MeshDims::D2 {
                width,
                height: width,
            },
            &[faults],
            1,
        );
        s.seed_start = seed;
        s.seed_end = seed + 1;
        s.load = Some(profile);
        s
    }

    /// E12-style churn sweep over a square 2-D mesh: `rounds` inject/heal
    /// batches per seed, verified against from-scratch recomputation.
    pub fn churn_2d(width: i32, counts: &[usize], seeds: u64, rounds: usize) -> Scenario {
        let mut s = Scenario::base(
            "churn 2-D",
            TableKind::Churn,
            MeshDims::D2 {
                width,
                height: width,
            },
            counts,
            seeds,
        );
        s.churn_rounds = rounds;
        s
    }

    /// E12-style churn sweep over a k-ary 3-D mesh.
    pub fn churn_3d(k: i32, counts: &[usize], seeds: u64, rounds: usize) -> Scenario {
        let mut s = Scenario::base(
            "churn 3-D",
            TableKind::Churn,
            MeshDims::D3 { x: k, y: k, z: k },
            counts,
            seeds,
        );
        s.churn_rounds = rounds;
        s
    }

    /// E1-style region sweep over a square 2-D mesh.
    pub fn regions_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(
            "regions 2-D",
            TableKind::Regions,
            MeshDims::D2 {
                width,
                height: width,
            },
            counts,
            seeds,
        )
    }

    /// E3/E6-style routing sweep over a square 2-D mesh.
    pub fn routing_2d(width: i32, counts: &[usize], trials: u64) -> Scenario {
        Scenario::base(
            "routing 2-D",
            TableKind::Routing,
            MeshDims::D2 {
                width,
                height: width,
            },
            counts,
            trials,
        )
    }

    /// E4/E6-style routing sweep over a k-ary 3-D mesh (endpoints at least
    /// `k` hops apart, matching the paper's setup).
    pub fn routing_3d(k: i32, counts: &[usize], trials: u64) -> Scenario {
        let mut s = Scenario::base(
            "routing 3-D",
            TableKind::Routing,
            MeshDims::D3 { x: k, y: k, z: k },
            counts,
            trials,
        );
        s.min_dist_frac = 1.0;
        s
    }

    /// E5/E7-style overhead sweep over a square 2-D mesh.
    pub fn overhead_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(
            "overhead 2-D",
            TableKind::Overhead,
            MeshDims::D2 {
                width,
                height: width,
            },
            counts,
            seeds,
        )
    }

    /// E7-style overhead sweep over a k-ary 3-D mesh.
    pub fn overhead_3d(k: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(
            "overhead 3-D",
            TableKind::Overhead,
            MeshDims::D3 { x: k, y: k, z: k },
            counts,
            seeds,
        )
    }

    /// E7-style labelling-convergence sweep over a square 2-D mesh.
    pub fn labelling_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(
            "labelling 2-D",
            TableKind::Labelling,
            MeshDims::D2 {
                width,
                height: width,
            },
            counts,
            seeds,
        )
    }

    /// E7-style labelling-convergence sweep over a k-ary 3-D mesh.
    pub fn labelling_3d(k: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(
            "labelling 3-D",
            TableKind::Labelling,
            MeshDims::D3 { x: k, y: k, z: k },
            counts,
            seeds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
        name = "demo"
        table = "routing"

        [mesh]
        dims = [16, 16, 16]

        [faults]
        counts = [10, 20]
        pattern = "clustered"
        clusters = 4
        border = "safe"

        [run]
        seeds = [0, 50]
        router = "mcc"
        min_dist_frac = 0.75
    "#;

    #[test]
    fn parses_full_schema() {
        let s = Scenario::from_toml(EXAMPLE).unwrap();
        assert_eq!(s.table, TableKind::Routing);
        assert_eq!(
            s.dims,
            MeshDims::D3 {
                x: 16,
                y: 16,
                z: 16
            }
        );
        assert_eq!(s.fault_counts, vec![10, 20]);
        assert_eq!(s.regime, FaultRegime::Clustered { clusters: 4 });
        assert_eq!(s.border, BorderPolicy::BorderSafe);
        assert_eq!(s.router, RouterChoice::Mcc);
        assert_eq!((s.seed_start, s.seed_end), (0, 50));
        assert_eq!(s.min_dist_frac, 0.75);
    }

    #[test]
    fn optional_fields_default() {
        let s = Scenario::from_toml(
            "name = \"d\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n",
        )
        .unwrap();
        assert_eq!(s.regime, FaultRegime::Uniform);
        assert_eq!(s.border, BorderPolicy::BorderSafe);
        assert_eq!(s.router, RouterChoice::All);
        assert_eq!(s.min_dist_frac, 0.5);
        assert_eq!(s.pairs_per_seed, 1);
        assert_eq!(s.threads, 0, "threads defaults to 0 = all cores");
    }

    #[test]
    fn pairs_per_seed_parses_and_validates() {
        let base = "name = \"d\"\ntable = \"routing\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n";
        let s = Scenario::from_toml(&format!("{base}pairs_per_seed = 16\n")).unwrap();
        assert_eq!(s.pairs_per_seed, 16);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back.pairs_per_seed, 16, "pairs_per_seed must round-trip");
        assert!(Scenario::from_toml(&format!("{base}pairs_per_seed = 0\n")).is_err());
        assert!(Scenario::from_toml(&format!("{base}pairs_per_seed = -3\n")).is_err());
    }

    #[test]
    fn threads_parses_validates_and_round_trips() {
        let base = "name = \"d\"\ntable = \"routing\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n";
        let s = Scenario::from_toml(&format!("{base}threads = 4\n")).unwrap();
        assert_eq!(s.threads, 4);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(back.threads, 4, "threads must round-trip");
        // 0 (all cores) is the default and stays implicit in the TOML so
        // pre-existing scenario files keep rendering byte-for-byte.
        let default = Scenario::from_toml(base).unwrap();
        assert_eq!(default.threads, 0);
        assert!(!default.to_toml().contains("threads"));
        assert!(Scenario::from_toml(&format!("{base}threads = -2\n")).is_err());
        assert!(Scenario::from_toml(&format!("{base}threads = 5000\n")).is_err());
    }

    #[test]
    fn mcc_threads_overrides_and_rejects_bad_values() {
        let cores = mesh_topo::detected_cores();
        assert_eq!(resolve_workers(3, None).unwrap(), 3);
        assert_eq!(resolve_workers(0, None).unwrap(), cores);
        assert_eq!(resolve_workers(3, Some("1")).unwrap(), 1);
        assert_eq!(resolve_workers(3, Some(" 2 ")).unwrap(), 2);
        assert_eq!(resolve_workers(3, Some("0")).unwrap(), cores);
        assert_eq!(resolve_workers(3, Some("1024")).unwrap(), 1024);
        for bad in ["", "two", "-1", "1.5", "1025", "99999999999999999999"] {
            let err = resolve_workers(3, Some(bad)).unwrap_err().to_string();
            assert!(err.contains("MCC_THREADS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rejects_bad_schemas() {
        for (text, why) in [
            ("table = \"regions\"", "missing name"),
            ("name = \"x\"\ntable = \"nope\"", "bad table"),
            (
                "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8]\n[faults]\ncounts = [1]\n[run]\nseeds = [0, 1]",
                "1-D mesh",
            ),
            (
                "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n[faults]\ncounts = []\n[run]\nseeds = [0, 1]",
                "empty ramp",
            ),
            (
                "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n[faults]\ncounts = [100]\n[run]\nseeds = [0, 1]",
                "too many faults",
            ),
            (
                "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n[faults]\ncounts = [1]\n[run]\nseeds = [5, 5]",
                "empty seed range",
            ),
        ] {
            assert!(Scenario::from_toml(text).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn toml_round_trip() {
        let s = Scenario::from_toml(EXAMPLE).unwrap();
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(s, back);
    }

    const CHURN_BASE: &str = "name = \"c\"\ntable = \"churn\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [8, 16]\n[run]\nseeds = [0, 4]\n";

    #[test]
    fn churn_schema_parses_and_round_trips() {
        let text = format!("{CHURN_BASE}[churn]\nrounds = 12\nrate = 0.25\n");
        let s = Scenario::from_toml(&text).unwrap();
        assert_eq!(s.table, TableKind::Churn);
        assert_eq!(s.churn_rounds, 12);
        assert_eq!(s.churn_rate, 0.25);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(s, back, "churn knobs must round-trip");
        // `rate` is optional and defaults to 0.25.
        let defaulted = Scenario::from_toml(&format!("{CHURN_BASE}[churn]\nrounds = 3\n")).unwrap();
        assert_eq!(defaulted.churn_rate, 0.25);
    }

    #[test]
    fn churn_rejects_zero_rounds() {
        let err = Scenario::from_toml(&format!("{CHURN_BASE}[churn]\nrounds = 0\n")).unwrap_err();
        assert!(err.to_string().contains("rounds"), "got: {err}");
    }

    #[test]
    fn churn_rejects_rate_at_or_beyond_one() {
        for rate in ["1.0", "1.5", "0.0", "-0.25", "nan"] {
            let text = format!("{CHURN_BASE}[churn]\nrounds = 4\nrate = {rate}\n");
            let err = Scenario::from_toml(&text).unwrap_err();
            assert!(
                err.to_string().contains("rate") || err.line().is_some(),
                "rate {rate} must be rejected, got: {err}"
            );
        }
    }

    #[test]
    fn churn_rejects_fault_free_ramp_entries() {
        // Every round must heal something, so a 0-fault mesh cannot churn.
        let text = "name = \"c\"\ntable = \"churn\"\n[mesh]\ndims = [16, 16]\n\
             [faults]\ncounts = [0, 8]\n[run]\nseeds = [0, 4]\n[churn]\nrounds = 4\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("heal"), "got: {err}");
    }

    #[test]
    fn churn_section_requires_churn_table() {
        let text = "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n[churn]\nrounds = 4\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("[churn]"), "got: {err}");
        // And the converse: a churn table without its section is rejected.
        let err = Scenario::from_toml(CHURN_BASE).unwrap_err();
        assert!(err.to_string().contains("churn"), "got: {err}");
    }

    #[test]
    fn quick_shrinks_seed_range() {
        let mut s = Scenario::regions_2d(8, &[2], 400);
        assert_eq!(s.quick().seed_count(), 40);
        s.seed_end = 5;
        assert_eq!(s.quick().seed_count(), 1);
    }

    /// Regression: `--quick` on a scenario with fewer than 10 seeds must
    /// clamp to one seed, never to the empty range `validate` rejects —
    /// for every sub-10 range width and also when the range does not
    /// start at 0.
    #[test]
    fn quick_never_empties_small_seed_ranges() {
        for width in 1..10u64 {
            for start in [0u64, 7, 123] {
                let mut s = Scenario::regions_2d(8, &[2], 1);
                s.seed_start = start;
                s.seed_end = start + width;
                let q = s.quick();
                assert_eq!(q.seed_count(), 1, "range [{start}, {})", start + width);
                assert_eq!(q.seed_start, start, "quick must not move the start");
                q.validate()
                    .expect("a quick-shrunk valid scenario stays valid");
            }
        }
    }

    fn demo_profile() -> LoadProfile {
        LoadProfile {
            initial_rps: 100,
            increment_rps: 100,
            max_rps: 500,
            step_secs: 0.5,
            mix_routing: 0.6,
            mix_labelling: 0.3,
            mix_churn: 0.1,
            pool: 2,
            alt_dims: None,
            p99_limit_ms: 50.0,
            fail_limit: 0.05,
        }
    }

    const LOAD_BASE: &str = "name = \"l\"\ntable = \"load\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [12]\n[run]\nseeds = [0, 1]\n";

    #[test]
    fn load_schema_parses_and_round_trips() {
        let text = format!(
            "{LOAD_BASE}[load]\ninitial_rps = 100\nincrement_rps = 100\nmax_rps = 500\n\
             step_secs = 0.5\nmix = [0.6, 0.3, 0.1]\npool = 4\nalt_dims = [6, 6, 6]\n"
        );
        let s = Scenario::from_toml(&text).unwrap();
        assert_eq!(s.table, TableKind::Load);
        let load = s.load.as_ref().unwrap();
        assert_eq!(
            (load.initial_rps, load.increment_rps, load.max_rps),
            (100, 100, 500)
        );
        assert_eq!(load.step_secs, 0.5);
        assert_eq!(load.mix(), [0.6, 0.3, 0.1]);
        assert_eq!(load.pool, 4);
        assert_eq!(load.alt_dims, Some(MeshDims::D3 { x: 6, y: 6, z: 6 }));
        // Optional thresholds default.
        assert_eq!(load.p99_limit_ms, LoadProfile::DEFAULT_P99_LIMIT_MS);
        assert_eq!(load.fail_limit, LoadProfile::DEFAULT_FAIL_LIMIT);
        assert_eq!(load.max_steps(), 5);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(s, back, "load knobs must round-trip");
    }

    #[test]
    fn load_rejects_bad_knobs() {
        for (extra, why) in [
            ("", "missing [load] section"),
            (
                "[load]\ninitial_rps = 0\nincrement_rps = 1\nmax_rps = 5\nstep_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n",
                "zero initial rate",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 1\nmax_rps = 5\nstep_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n",
                "ceiling below start",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 0\nmax_rps = 50\nstep_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n",
                "zero increment with an unreachable ceiling",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\nstep_secs = 0.0\nmix = [1.0, 0.0, 0.0]\n",
                "zero step duration",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\nstep_secs = 0.5\nmix = [0.0, 0.0, 0.0]\n",
                "all-zero mix",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\nstep_secs = 0.5\nmix = [1.0, 0.0]\n",
                "two-entry mix",
            ),
            (
                "[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\nstep_secs = 0.5\nmix = [1.0, 0.0, 0.0]\npool = 0\n",
                "empty pool",
            ),
        ] {
            let text = format!("{LOAD_BASE}{extra}");
            assert!(Scenario::from_toml(&text).is_err(), "should reject: {why}");
        }
        // A [load] section on a non-load table is rejected, like [churn].
        let text = "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n\
             [load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\n\
             step_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("[load]"), "got: {err}");
        // Churn weight needs faults to heal, and the ramp must hold one
        // fixed fault population.
        let mut sc = Scenario::load_2d(16, 0, 0, demo_profile());
        let err = sc.validate().unwrap_err();
        assert!(err.to_string().contains("churn mix"), "got: {err}");
        sc.fault_counts = vec![4, 8];
        let err = sc.validate().unwrap_err();
        assert!(err.to_string().contains("exactly 1"), "got: {err}");
    }

    #[test]
    fn load_alt_geometry_is_validated_too() {
        let mut profile = demo_profile();
        profile.alt_dims = Some(MeshDims::D3 { x: 2, y: 2, z: 2 });
        // 12 faults + 2 endpoints don't fit an 8-node alt mesh.
        let sc = Scenario::load_2d(16, 12, 0, profile);
        let err = sc.validate().unwrap_err();
        assert!(err.to_string().contains("load-pool"), "got: {err}");
    }

    const SERVICE_BASE: &str = "name = \"s\"\ntable = \"service\"\n[mesh]\ndims = [12, 12]\n\
         [faults]\ncounts = [10]\n[run]\nseeds = [0, 1]\n\
         [load]\ninitial_rps = 100\nincrement_rps = 100\nmax_rps = 300\n\
         step_secs = 0.5\nmix = [0.5, 0.3, 0.2]\npool = 2\n";

    #[test]
    fn service_schema_parses_and_round_trips() {
        let text = format!(
            "{SERVICE_BASE}[service]\nqueue_cap = 8\ndeadline_ms = 12.0\n\
             cost_us = [12000, 6000, 24000]\nsnapshot_every = 8\n"
        );
        let s = Scenario::from_toml(&text).unwrap();
        assert_eq!(s.table, TableKind::Service);
        assert!(s.load.is_some(), "service tables carry the ramp too");
        let service = s.service.as_ref().unwrap();
        assert_eq!(service.queue_cap, 8);
        assert_eq!(service.deadline_ms, 12.0);
        assert_eq!(service.cost_us, [12_000, 6_000, 24_000]);
        assert_eq!(service.snapshot_every, 8);
        let back = Scenario::from_toml(&s.to_toml()).unwrap();
        assert_eq!(s, back, "service knobs must round-trip");
        // Every [service] key is optional; omissions fall back to defaults.
        let s = Scenario::from_toml(&format!("{SERVICE_BASE}[service]\nqueue_cap = 4\n")).unwrap();
        let service = s.service.as_ref().unwrap();
        assert_eq!(service.queue_cap, 4);
        assert_eq!(service.deadline_ms, ServiceProfile::default().deadline_ms);
        assert_eq!(service.cost_us, ServiceProfile::default().cost_us);
    }

    #[test]
    fn service_rejects_bad_knobs() {
        // The section itself is mandatory, as is the ramp it throttles.
        let err = Scenario::from_toml(SERVICE_BASE).unwrap_err();
        assert!(err.to_string().contains("[service]"), "got: {err}");
        let no_ramp = "name = \"s\"\ntable = \"service\"\n[mesh]\ndims = [12, 12]\n\
             [faults]\ncounts = [10]\n[run]\nseeds = [0, 1]\n[service]\n";
        let err = Scenario::from_toml(no_ramp).unwrap_err();
        assert!(err.to_string().contains("[load]"), "got: {err}");
        for (extra, why) in [
            ("[service]\nqueue_cap = 0\n", "zero queue capacity"),
            ("[service]\nqueue_cap = 100000\n", "absurd queue capacity"),
            ("[service]\ndeadline_ms = 0.0\n", "zero deadline"),
            ("[service]\ncost_us = [1, 2]\n", "two-entry cost table"),
            ("[service]\ncost_us = [1, 0, 2]\n", "zero op cost"),
        ] {
            let text = format!("{SERVICE_BASE}{extra}");
            assert!(Scenario::from_toml(&text).is_err(), "should reject: {why}");
        }
        // A [service] section on a non-service table is rejected.
        let text = "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n[service]\nqueue_cap = 4\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("[service]"), "got: {err}");
    }

    #[test]
    fn quick_shrinks_load_ramp_to_a_smoke_run() {
        let sc = Scenario::load_2d(16, 12, 0, demo_profile());
        let q = sc.quick();
        let load = q.load.as_ref().unwrap();
        assert_eq!(load.step_secs, 0.05, "a tenth, clamped to 50 ms");
        assert_eq!(load.max_rps, 300, "ramp clamped to three steps");
        assert_eq!(load.max_steps(), 3);
        q.validate().expect("quick load scenario stays valid");
    }

    const REGIME_BASE: &str = "name = \"r\"\ntable = \"routing\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [8]\n[run]\nseeds = [0, 4]\n";

    /// Satellite: unknown keys anywhere in `[faults]` are a typed error,
    /// not a silent no-op — the canonical foot-gun being `clusters` left
    /// behind after switching `pattern` back to `"uniform"`.
    #[test]
    fn faults_rejects_unknown_and_orphaned_keys() {
        let err = Scenario::from_toml(
            "name = \"r\"\ntable = \"routing\"\n[mesh]\ndims = [16, 16]\n\
             [faults]\ncounts = [8]\nclusterz = 3\n[run]\nseeds = [0, 4]\n",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key `clusterz`"),
            "got: {err}"
        );
        let err = Scenario::from_toml(
            "name = \"r\"\ntable = \"routing\"\n[mesh]\ndims = [16, 16]\n\
             [faults]\ncounts = [8]\npattern = \"uniform\"\nclusters = 3\n\
             [run]\nseeds = [0, 4]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("clusters"), "got: {err}");
        assert!(err.to_string().contains("ignored"), "got: {err}");
    }

    #[test]
    fn regime_section_parses_every_kind_and_round_trips() {
        for (section, want) in [
            (
                "[faults.regime]\nkind = \"front\"\nfronts = 2\n",
                FaultRegime::CorrelatedFront { fronts: 2 },
            ),
            (
                "[faults.regime]\nkind = \"front\"\n",
                FaultRegime::CorrelatedFront { fronts: 3 },
            ),
            (
                "[faults.regime]\nkind = \"plane\"\naxis = \"y\"\n",
                FaultRegime::SweepingPlane { axis: 1 },
            ),
            (
                "[faults.regime]\nkind = \"transient\"\nperiod = 6\nduty = 0.25\n",
                FaultRegime::TransientSchedule {
                    period: 6,
                    duty: 0.25,
                },
            ),
            (
                "[faults.regime]\nkind = \"adversarial\"\nrestarts = 4\n",
                FaultRegime::AdversarialBoundary { restarts: 4 },
            ),
            (
                "[faults.regime]\nkind = \"uniform\"\n",
                FaultRegime::Uniform,
            ),
            (
                "[faults.regime]\nkind = \"clustered\"\nclusters = 5\n",
                FaultRegime::Clustered { clusters: 5 },
            ),
        ] {
            let s = Scenario::from_toml(&format!("{REGIME_BASE}{section}")).unwrap();
            assert_eq!(s.regime, want, "section: {section}");
            let back = Scenario::from_toml(&s.to_toml()).unwrap();
            assert_eq!(s, back, "regime must round-trip: {section}");
        }
    }

    #[test]
    fn regime_section_excludes_legacy_pattern_keys() {
        let text = "name = \"r\"\ntable = \"routing\"\n[mesh]\ndims = [16, 16]\n\
             [faults]\ncounts = [8]\npattern = \"uniform\"\n[run]\nseeds = [0, 4]\n\
             [faults.regime]\nkind = \"front\"\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "got: {err}");
    }

    #[test]
    fn regime_section_rejects_unknown_and_misplaced_keys() {
        // A knob belonging to a different kind is named in the error.
        let err = Scenario::from_toml(&format!(
            "{REGIME_BASE}[faults.regime]\nkind = \"plane\"\nfronts = 2\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("fronts"), "got: {err}");
        assert!(err.to_string().contains("plane"), "got: {err}");
        for (section, why) in [
            ("[faults.regime]\nfronts = 2\n", "missing kind"),
            ("[faults.regime]\nkind = \"blob\"\n", "unknown kind"),
            (
                "[faults.regime]\nkind = \"front\"\nfronts = 0\n",
                "zero fronts",
            ),
            (
                "[faults.regime]\nkind = \"plane\"\naxis = \"w\"\n",
                "bad axis",
            ),
            (
                "[faults.regime]\nkind = \"transient\"\nperiod = 1\n",
                "degenerate period",
            ),
            (
                "[faults.regime]\nkind = \"transient\"\nduty = 1.5\n",
                "duty beyond 1",
            ),
            (
                "[faults.regime]\nkind = \"adversarial\"\nrestarts = 0\n",
                "zero restarts",
            ),
        ] {
            let text = format!("{REGIME_BASE}{section}");
            assert!(Scenario::from_toml(&text).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn regime_validation_gates_tables_and_dimensionality() {
        // A z-plane needs a 3-D mesh.
        let err = Scenario::from_toml(&format!(
            "{REGIME_BASE}[faults.regime]\nkind = \"plane\"\naxis = \"z\"\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("3-D"), "got: {err}");
        // Transient schedules drive churn rounds, not request-driven load.
        let text = format!(
            "{LOAD_BASE}[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 20\n\
             step_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n\
             [faults.regime]\nkind = \"transient\"\n"
        );
        let err = Scenario::from_toml(&text).unwrap_err();
        assert!(err.to_string().contains("transient"), "got: {err}");
        // Adversarial search targets one routing pair per seed.
        let err = Scenario::from_toml(&format!(
            "{REGIME_BASE}pairs_per_seed = 4\n[faults.regime]\nkind = \"adversarial\"\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("pairs_per_seed"), "got: {err}");
        let err = Scenario::from_toml(
            "name = \"r\"\ntable = \"regions\"\n[mesh]\ndims = [16, 16]\n\
             [faults]\ncounts = [8]\n[run]\nseeds = [0, 4]\n\
             [faults.regime]\nkind = \"adversarial\"\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("routing"), "got: {err}");
    }
}
