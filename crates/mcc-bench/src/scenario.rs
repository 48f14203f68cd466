//! Declarative experiment descriptions.
//!
//! A [`Scenario`] captures everything the paper's tables vary — mesh
//! dimensions (2-D or 3-D), fault regime, fault-count ramp and seed
//! range — as *data*, loaded from TOML files under
//! `scenarios/` (see `EXPERIMENTS.md` for the experiment → file map). The
//! runner in [`crate::runner`] turns a scenario into table rows; new
//! workloads are new TOML files, not new code.
//!
//! The schema:
//!
//! ```toml
//! name = "E1 — healthy nodes captured by fault regions (2-D)"
//! table = "regions"            # regions | routing | overhead
//!                              # | labelling | churn | service
//!
//! [mesh]
//! dims = [32, 32]              # two entries for 2-D, three for 3-D
//! wrap = false                 # true: torus (every axis wraps around)
//!
//! [faults]
//! counts = [5, 10, 20, 40]    # the fault-count ramp
//!
//! [faults.regime]              # optional; uniform when absent
//! kind = "front"               # uniform | clustered | front | plane
//! fronts = 2                   #   | transient | adversarial
//! # clusters = 3               # clustered: cluster seed points
//! # axis = "x"                 # plane: sweep axis (x | y | z)
//! # period = 6                 # transient: rounds per on/off cycle
//! # duty = 0.5                 # transient: faulty fraction of the period
//! # restarts = 8               # adversarial: hill-climb restarts
//!
//! [run]
//! seeds = [0, 400]             # half-open seed range [start, end)
//! min_dist_frac = 0.5          # min endpoint separation / largest dim
//! pairs_per_seed = 1           # routing pairs batched per fault config
//! ```
//!
//! Service scenarios (`table = "service"`) add a `[load]` section
//! describing an open-loop saturation ramp (see [`LoadProfile`] and
//! [`crate::service_load`]) and a `[service]` section with the shards'
//! admission and durability knobs (see [`ServiceProfile`]):
//!
//! ```toml
//! [load]
//! initial_rps = 100            # offered rate of the first step
//! increment_rps = 100          # rate increase per step
//! max_rps = 500                # rate ceiling (ramp stops here)
//! step_secs = 0.5              # virtual seconds per step
//! mix = [0.6, 0.3, 0.1]        # route / query / churn proportions
//! pool = 4                     # shards per geometry
//! alt_dims = [8, 8, 8]         # optional second geometry (mixed 2-D/3-D)
//! fail_limit = 0.05            # saturation threshold on the shed rate
//! ```
//!
//! Churn tables add `[churn]` (`rounds`, `rate`).
//!
//! Every run labels under the border-safe policy (DESIGN.md §4), and every
//! routing trial evaluates every model: the oracle, the MCC condition and
//! route, the block check and route, and greedy.
//!
//! The section table `SECTIONS` in this module is the single source of
//! the schema: every section, the keys it accepts and requires, and which
//! scenarios carry it. Every section rejects a key it does not name, and
//! a document rejects a section the table does not name. Range rules live
//! only in [`Scenario::validate`].
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
use mesh_topo::{Coord, Mesh};

use crate::toml_lite::{Doc, ParseError, Table, Value};
use Presence::{Always, Only, Optional};

/// Which family of tables the scenario produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// [`fault_model::IncrementalModels`]
    /// and verifies every repaired model against from-scratch recomputation.
    Churn,
    /// Resident-service saturation ramp (E15-style): an open-loop
    /// `[load]` ramp offered in virtual time to a journaled `mesh-service`
    /// instance — requests pass each shard's bounded admission queue and
    /// are shed with typed errors beyond saturation. Needs both a `[load]`
    /// and a `[service]` section; run by
    /// [`crate::service_load::run_service_load`].
    Service,
}

/// `table` names.
const TABLE_KINDS: [(&str, TableKind); 6] = [
    ("regions", TableKind::Regions),
    ("routing", TableKind::Routing),
    ("overhead", TableKind::Overhead),
    ("labelling", TableKind::Labelling),
    ("churn", TableKind::Churn),
    ("service", TableKind::Service),
];

impl TableKind {
    /// The table name as it appears in scenario files.
    pub fn as_str(self) -> &'static str {
        name_of(&TABLE_KINDS, self)
    }
}

/// Mesh dimensions: 2-D width×height or 3-D x×y×z.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// The extents in axis order (two for 2-D, three for 3-D).
    pub fn extents(self) -> Vec<i32> {
        match self {
            MeshDims::D2 { width, height } => vec![width, height],
            MeshDims::D3 { x, y, z } => vec![x, y, z],
        }
    }

    /// The largest extent, used to scale endpoint-separation requirements.
    pub fn max_extent(self) -> i32 {
        self.extents().into_iter().fold(i32::MIN, i32::max)
    }

    /// Total node count.
    pub fn nodes(self) -> usize {
        self.extents().into_iter().map(|k| k as usize).product()
    }

    /// The smallest extent (tori need 3 per axis).
    pub fn min_extent(self) -> i32 {
        self.extents().into_iter().fold(i32::MAX, i32::min)
    }

    /// The network diameter: the largest topology-aware distance between
    /// two nodes. `(k-1)` per mesh axis, `⌊k/2⌋` per torus axis.
    pub fn diameter(self, wrap: bool) -> u32 {
        let axis = |k: i32| (if wrap { k / 2 } else { k - 1 }) as u32;
        self.extents().into_iter().map(axis).sum()
    }
}

/// Open-loop ramp description for `table = "service"` scenarios (the
/// `[load]` TOML section).
///
/// The service driver offers `initial_rps` requests per second for
/// `step_secs` of virtual time, then raises the rate by `increment_rps`
/// per step until either `max_rps` is reached or a step saturates (its
/// shed rate crosses `fail_limit`). Each step's requests are drawn from
/// three classes — routes, region queries and fault-churn batches — in
/// the proportions of `mix`, interleaved deterministically (see
/// [`crate::service_load`]). The service holds `pool` shards per
/// geometry; `alt_dims` adds a second geometry so one scenario can drive
/// a mixed 2-D/3-D pool.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadProfile {
    /// Offered request rate of the first step (requests/second).
    pub initial_rps: u32,
    /// Rate increase per step. May be 0 only when `max_rps == initial_rps`
    /// (a single fixed-rate step) — the ramp must terminate.
    pub increment_rps: u32,
    /// Rate ceiling: the ramp stops after the step that reaches it.
    pub max_rps: u32,
    /// Virtual seconds per step; with the offered rate it fixes the
    /// request count of each step.
    pub step_secs: f64,
    /// Workload-mix weight of routes.
    pub mix_routing: f64,
    /// Workload-mix weight of region queries.
    pub mix_labelling: f64,
    /// Workload-mix weight of fault-churn batches.
    pub mix_churn: f64,
    /// Shards per geometry.
    pub pool: usize,
    /// Optional second mesh geometry (2 or 3 extents): the service then
    /// holds `pool` shards of **both**, and requests spread across all of
    /// them round-robin — a mixed-dimensionality workload in one scenario.
    pub alt_dims: Option<MeshDims>,
    /// Saturation threshold on a step's shed rate, in `(0, 1]`.
    pub fail_limit: f64,
}

/// Schema defaults for the optional `[load]` keys.
impl LoadProfile {
    /// Default pool size per geometry.
    pub const DEFAULT_POOL: usize = 2;
    /// Default shed-rate saturation threshold.
    pub const DEFAULT_FAIL_LIMIT: f64 = 0.05;

    /// Mix weights in class order (route, query, churn).
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
/// The service driver turns every planned op into a request
/// against a resident `mesh-service` instance. Each shard fronts a
/// bounded deterministic virtual-time queue: `queue_cap` bounds its
/// depth, `deadline_ms` bounds the simulated wait a request may incur
/// before it is shed, and `cost_us` assigns each op class (route, query,
/// churn — in that order) its virtual service time. `snapshot_every`
/// sets the shard's auto-snapshot cadence in churn generations (0 never
/// snapshots, leaving the whole history in the WAL).
#[derive(Clone, Debug, PartialEq)]
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

/// `faults.regime.axis` names of the sweeping plane.
const AXES: [(&str, usize); 3] = [("x", 0), ("y", 1), ("z", 2)];

/// Every fault regime with its default knobs, and the keys its
/// `[faults.regime]` section accepts beside `kind`. Kinds are named by
/// [`FaultRegime::name`].
#[rustfmt::skip]
const REGIMES: [(FaultRegime, Keys); 6] = [
    (FaultRegime::Uniform, &[]),
    (FaultRegime::Clustered { clusters: 3 }, &["clusters"]),
    (FaultRegime::CorrelatedFront { fronts: 3 }, &["fronts"]),
    (FaultRegime::SweepingPlane { axis: 0 }, &["axis"]),
    (FaultRegime::TransientSchedule { period: 4, duty: 0.5 }, &["period", "duty"]),
    (FaultRegime::AdversarialBoundary { restarts: 8 }, &["restarts"]),
];

/// A fully-validated, runnable experiment description.
#[derive(Clone, Debug, PartialEq)]
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
    /// regimes, temporal law): the `[faults.regime]` section, uniform when
    /// the section is absent.
    pub regime: FaultRegime,
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
    /// Churn rounds per seed (churn tables only; `[churn] rounds`). Each
    /// round heals and re-injects `max(1, round(churn_rate × faults))`
    /// faults, keeping the fault population stable.
    pub churn_rounds: usize,
    /// Fraction of the fault population perturbed per churn round
    /// (`[churn] rate`, in `(0, 1)`).
    pub churn_rate: f64,
    /// Open-loop ramp description (`[load]` section; load and service
    /// tables). For these scenarios `seed_start` doubles as the master
    /// seed of the deterministic request schedule.
    pub load: Option<LoadProfile>,
    /// Admission/durability knobs (`[service]` section; service tables
    /// only).
    pub service: Option<ServiceProfile>,
}

/// The schema default for [`Scenario::churn_rate`].
const DEFAULT_CHURN_RATE: f64 = 0.25;

/// Why a scenario failed to load or to run.
///
/// Parse failures stay **typed**: the offending line number of the TOML
/// text travels with the error (the `tables` binary prints it and exits
/// nonzero), instead of being flattened into a string the caller can no
/// longer inspect. A valid scenario that cannot complete is a
/// [`ScenarioError::Run`], which does not call the scenario invalid.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The TOML text is malformed; carries the 1-based offending line.
    Parse(ParseError),
    /// The document parsed but violates the scenario schema or holds
    /// knob values the runner cannot execute meaningfully.
    Invalid(String),
    /// The scenario is valid but its run could not complete (say, its
    /// fault count leaves no healthy pair to route, or a service op
    /// failed).
    Run(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Run(msg) => write!(f, "run failed: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            ScenarioError::Invalid(_) | ScenarioError::Run(_) => None,
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

    /// Build a run-time failure of a valid scenario.
    pub fn run(msg: impl Into<String>) -> ScenarioError {
        ScenarioError::Run(msg.into())
    }

    /// The offending TOML line, for parse failures.
    pub fn line(&self) -> Option<usize> {
        match self {
            ScenarioError::Parse(e) => Some(e.line),
            ScenarioError::Invalid(_) | ScenarioError::Run(_) => None,
        }
    }
}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::new(msg)
}

/// Largest worker pool `MCC_THREADS` may request. A
/// four-digit cap catches unit mix-ups (e.g. a nanosecond or node count
/// pasted into the wrong knob) before the runner tries to spawn thousands
/// of OS threads.
pub const MAX_THREADS: usize = 1024;

/// The worker count scenarios run with: the `MCC_THREADS` environment
/// variable, every detected core when it is unset or `0`. It sizes only the
/// seed sweep. A malformed or over-cap `MCC_THREADS` is an error, not
/// silently ignored.
pub fn worker_count() -> Result<usize, ScenarioError> {
    let env = std::env::var_os("MCC_THREADS").map(|v| v.to_string_lossy().into_owned());
    resolve_workers(env.as_deref())
}

/// [`worker_count`] as a pure function of the `MCC_THREADS` value.
fn resolve_workers(env: Option<&str>) -> Result<usize, ScenarioError> {
    let threads = match env {
        None => 0,
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

/// The name of `value` in a `(name, value)` table.
fn name_of<T: Copy + PartialEq>(names: &[(&'static str, T)], value: T) -> &'static str {
    names
        .iter()
        .find(|(_, v)| *v == value)
        .map_or("?", |(name, _)| name)
}

/// The value named `got` among `names`, or an error that lists them all.
fn lookup<T>(
    path: &str,
    got: &str,
    names: impl Iterator<Item = (&'static str, T)> + Clone,
) -> Result<T, ScenarioError> {
    if let Some((_, value)) = names.clone().find(|(name, _)| *name == got) {
        return Ok(value);
    }
    let all: Vec<String> = names.map(|(name, _)| format!("{name:?}")).collect();
    let msg = format!("`{path}` must be one of {}, got {got:?}", all.join(", "));
    Err(invalid(msg))
}

/// Which scenarios carry a section.
#[derive(Clone, Copy)]
enum Presence {
    /// Every scenario.
    Always,
    /// Any scenario may.
    Optional,
    /// Exactly the scenarios of this table kind.
    Only(TableKind),
}

/// A list of scenario keys.
type Keys = &'static [&'static str];

/// One section of the scenario schema: its name (`""` is the root
/// table), which scenarios carry it, the keys it must carry, and the keys
/// it may carry besides.
type Section = (&'static str, Presence, Keys, Keys);

/// The scenario schema. A section or key not listed here is an error;
/// `[faults.regime]` also accepts the keys [`REGIMES`] lists for its
/// `kind`. [`Scenario::validate`] gates `[load]` and `[service]` on the
/// table kind, since it sees [`Scenario::load`] and [`Scenario::service`];
/// it cannot see a `[churn]` section, so that rule is a row here.
#[rustfmt::skip]
const SECTIONS: [Section; 8] = [
    ("", Always, &["name", "table"], &[]),
    ("mesh", Always, &["dims"], &["wrap"]),
    ("faults", Always, &["counts"], &[]),
    ("faults.regime", Optional, &["kind"], &[]),
    ("run", Always, &["seeds"], &["min_dist_frac", "pairs_per_seed"]),
    ("churn", Only(TableKind::Churn), &["rounds"], &["rate"]),
    (
        "load", Optional,
        &["initial_rps", "increment_rps", "max_rps", "step_secs", "mix"],
        &["pool", "alt_dims", "fail_limit"],
    ),
    ("service", Optional, &[], &["queue_cap", "deadline_ms", "cost_us", "snapshot_every"]),
];

/// Check every section of `doc` against [`SECTIONS`]. An unknown section,
/// an unknown or missing key, and a section missing from or foreign to
/// the scenario's table kind are errors that name it.
fn check_sections(doc: &Doc, table: TableKind) -> Result<(), ScenarioError> {
    let names = SECTIONS.map(|(name, ..)| name);
    if let Some(name) = doc.sections.keys().find(|n| !names.contains(&n.as_str())) {
        return Err(invalid(format!(
            "unknown section [{name}] (allowed: [{}])",
            names[1..].join("], [")
        )));
    }
    for (name, presence, required, optional) in SECTIONS {
        let present = name.is_empty() || doc.sections.contains_key(name);
        let carried = match presence {
            Always => true,
            Optional => present,
            Only(kind) => kind == table,
        };
        if present != carried {
            let table = table.as_str();
            return Err(invalid(if present {
                format!("a {table} scenario takes no [{name}] section")
            } else {
                format!("{table} scenarios need a [{name}] section")
            }));
        }
        if !present {
            continue;
        }
        let r = Reader::of(doc, name);
        let (at, extra) = match name {
            "faults.regime" => {
                let (regime, extra) = r.regime_kind()?;
                (format!("{} for kind \"{}\"", r.at(), regime.name()), extra)
            }
            _ => (r.at(), &[][..]),
        };
        let allowed = [required, optional, extra].concat();
        if let Some(key) = r.keys.keys().find(|k| !allowed.contains(&k.as_str())) {
            return Err(invalid(format!(
                "unknown key `{key}` in {at} (allowed: {})",
                allowed.join(", ")
            )));
        }
        if let Some(key) = required.iter().find(|k| !r.has(k)) {
            return Err(r.missing(key));
        }
    }
    Ok(())
}

/// A type scenario keys hold, read from its TOML [`Value`].
trait Knob: Sized {
    /// What a value of the type looks like, for error messages.
    fn want() -> String;
    /// The value as `Self`; `None` for a wrong type or an out-of-range value.
    fn cast(v: &Value) -> Option<Self>;
}

/// Implements [`Knob`] for a scalar type, or for integer types by range.
macro_rules! knob {
    ($t:ty, $want:expr, $cast:expr) => {
        impl Knob for $t {
            fn want() -> String {
                $want.to_string()
            }
            fn cast(v: &Value) -> Option<$t> {
                $cast(v)
            }
        }
    };
    (ints: $($t:ty),*) => {$(
        knob!($t, format!("an integer in {}..={}", <$t>::MIN, <$t>::MAX), |v: &Value| {
            v.as_int()?.try_into().ok()
        });
    )*};
}

knob!(String, "a string", |v: &Value| Some(v.as_str()?.into()));
knob!(bool, "a boolean", Value::as_bool);
knob!(f64, "a number", Value::as_float);
knob!(ints: i32, u32, u64, usize);

impl<T: Knob> Knob for Vec<T> {
    fn want() -> String {
        format!("an array, each entry {}", T::want())
    }
    fn cast(v: &Value) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::cast).collect()
    }
}

impl<T: Knob, const N: usize> Knob for [T; N] {
    fn want() -> String {
        format!("an array of {N} entries, each {}", T::want())
    }
    fn cast(v: &Value) -> Option<[T; N]> {
        Vec::cast(v)?.try_into().ok()
    }
}

impl Knob for MeshDims {
    fn want() -> String {
        format!("an array of 2 or 3 entries, each {}", i32::want())
    }
    fn cast(v: &Value) -> Option<MeshDims> {
        match Vec::cast(v)?[..] {
            [width, height] => Some(MeshDims::D2 { width, height }),
            [x, y, z] => Some(MeshDims::D3 { x, y, z }),
            _ => None,
        }
    }
}

/// The keys of a section the document lacks.
static NO_KEYS: Table = Table::new();

/// Typed access to the keys of one section.
struct Reader<'a> {
    /// Section name; `""` is the root table.
    section: &'a str,
    keys: &'a Table,
}

impl<'a> Reader<'a> {
    /// `doc`'s section `name` (`""` is the root); empty when absent.
    fn of(doc: &'a Doc, section: &'a str) -> Reader<'a> {
        let keys = match section {
            "" => &doc.root,
            name => doc.sections.get(name).unwrap_or(&NO_KEYS),
        };
        Reader { section, keys }
    }

    /// Where the section sits, for error messages.
    fn at(&self) -> String {
        match self.section {
            "" => "the top level".to_string(),
            name => format!("[{name}]"),
        }
    }

    /// The dotted path of `key`, for error messages.
    fn path(&self, key: &str) -> String {
        match self.section {
            "" => key.to_string(),
            name => format!("{name}.{key}"),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.keys.contains_key(key)
    }

    fn missing(&self, key: &str) -> ScenarioError {
        invalid(format!("missing `{key}` in {}", self.at()))
    }

    /// `key`'s value, `None` when absent. A wrong type or an out-of-range
    /// value is an error that says what the key holds.
    fn get<T: Knob>(&self, key: &str) -> Result<Option<T>, ScenarioError> {
        let Some(v) = self.keys.get(key) else {
            return Ok(None);
        };
        let wrong = || {
            invalid(format!(
                "`{}` must be {}, got {v}",
                self.path(key),
                T::want()
            ))
        };
        T::cast(v).map(Some).ok_or_else(wrong)
    }

    /// `key`'s value, `default` when absent.
    fn or<T: Knob>(&self, key: &str, default: T) -> Result<T, ScenarioError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// A key that [`SECTIONS`] requires.
    fn need<T: Knob>(&self, key: &str) -> Result<T, ScenarioError> {
        self.get(key)?.ok_or_else(|| self.missing(key))
    }

    /// The value of a `(name, value)` table that `key` names.
    fn named<T: Copy>(
        &self,
        key: &str,
        names: &[(&'static str, T)],
    ) -> Result<Option<T>, ScenarioError> {
        self.get::<String>(key)?
            .map(|got| lookup(&self.path(key), &got, names.iter().copied()))
            .transpose()
    }

    /// The [`REGIMES`] entry that `[faults.regime] kind` names.
    fn regime_kind(&self) -> Result<(FaultRegime, Keys), ScenarioError> {
        let kind: String = self.need("kind")?;
        let kinds = REGIMES
            .iter()
            .map(|&(regime, keys)| (regime.name(), (regime, keys)));
        lookup(&self.path("kind"), &kind, kinds)
    }

    /// `default` with each knob this section sets.
    fn regime(&self, default: FaultRegime) -> Result<FaultRegime, ScenarioError> {
        Ok(match default {
            FaultRegime::Uniform => default,
            FaultRegime::Clustered { clusters } => FaultRegime::Clustered {
                clusters: self.or("clusters", clusters)?,
            },
            FaultRegime::CorrelatedFront { fronts } => FaultRegime::CorrelatedFront {
                fronts: self.or("fronts", fronts)?,
            },
            FaultRegime::SweepingPlane { axis } => FaultRegime::SweepingPlane {
                axis: self.named("axis", &AXES)?.unwrap_or(axis),
            },
            FaultRegime::TransientSchedule { period, duty } => FaultRegime::TransientSchedule {
                period: self.or("period", period)?,
                duty: self.or("duty", duty)?,
            },
            FaultRegime::AdversarialBoundary { restarts } => FaultRegime::AdversarialBoundary {
                restarts: self.or("restarts", restarts)?,
            },
        })
    }
}

/// The most nodes one scenario mesh may have: the largest 2-D mesh the
/// per-axis bound admits, 4096². Without it a 3-D geometry within the
/// per-axis bound could ask for tens of billions of nodes.
const MAX_NODES: usize = 4096 * 4096;

/// Check one mesh geometry: every extent in 2..=4096, at most
/// [`MAX_NODES`] nodes, and at least 3 per axis on a torus. `what` names
/// the mesh in the error.
fn check_extents(dims: MeshDims, wrap: bool, what: &str) -> Result<(), ScenarioError> {
    let extents = dims.extents();
    if extents.iter().any(|&d| !(2..=4096).contains(&d)) {
        return Err(invalid(format!(
            "every {what} dimension must be in 2..=4096, got {extents:?}"
        )));
    }
    let nodes = dims.nodes();
    if nodes > MAX_NODES {
        return Err(invalid(format!(
            "a {what} of {extents:?} has {nodes} nodes, more than the {MAX_NODES} \
             (4096x4096) a scenario may use"
        )));
    }
    if wrap && dims.min_extent() < 3 {
        return Err(invalid(format!(
            "a torus needs every {what} dimension >= 3 (distinct +/- neighbors), \
             got {extents:?}"
        )));
    }
    Ok(())
}

impl Scenario {
    /// Number of seeds/trials per fault count.
    pub fn seed_count(&self) -> u64 {
        self.seed_end - self.seed_start
    }

    /// Inject one `(fault count, seed)` cell into a 2-D or 3-D mesh
    /// through the active fault regime, never touching `protected` nodes.
    /// Returns the number of faults injected.
    pub fn inject<C: Coord>(
        &self,
        mesh: &mut Mesh<C>,
        count: usize,
        seed: u64,
        protected: &[C],
    ) -> usize {
        self.regime
            .inject(mesh, count, seed, protected, BorderPolicy::BorderSafe)
    }

    /// A copy with the seed range shrunk to roughly a tenth, for `--quick`
    /// smoke runs. The shrunk range is clamped to at least one seed, so a
    /// scenario with fewer than 10 seeds never collapses to the empty
    /// range [`Scenario::validate`] rejects (pinned by
    /// `quick_never_empties_small_seed_ranges` below).
    ///
    /// Service scenarios additionally shrink their ramp: steps get a tenth
    /// of the virtual time (clamped to 50 ms) and the rate ceiling is
    /// clamped to three steps.
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

    /// Read `doc` through the schema: [`check_sections`] settles which
    /// sections and keys exist, [`Reader`] their types, and
    /// [`Scenario::validate`] every range.
    fn from_doc(doc: &Doc) -> Result<Scenario, ScenarioError> {
        let [root, mesh, faults, run] = ["", "mesh", "faults", "run"].map(|s| Reader::of(doc, s));
        let table = root.named("table", &TABLE_KINDS)?;
        let table = table.ok_or_else(|| root.missing("table"))?;
        check_sections(doc, table)?;
        let optional = |name| {
            doc.sections
                .contains_key(name)
                .then(|| Reader::of(doc, name))
        };
        let regime = match optional("faults.regime") {
            Some(reg) => reg.regime(reg.regime_kind()?.0)?,
            None => FaultRegime::Uniform,
        };
        let [seed_start, seed_end] = run.need("seeds")?;
        let (churn_rounds, churn_rate) = match optional("churn") {
            None => (0, DEFAULT_CHURN_RATE),
            Some(r) => (r.need("rounds")?, r.or("rate", DEFAULT_CHURN_RATE)?),
        };
        let load = match optional("load") {
            None => None,
            Some(r) => {
                let [mix_routing, mix_labelling, mix_churn] = r.need("mix")?;
                Some(LoadProfile {
                    initial_rps: r.need("initial_rps")?,
                    increment_rps: r.need("increment_rps")?,
                    max_rps: r.need("max_rps")?,
                    step_secs: r.need("step_secs")?,
                    mix_routing,
                    mix_labelling,
                    mix_churn,
                    pool: r.or("pool", LoadProfile::DEFAULT_POOL)?,
                    alt_dims: r.get("alt_dims")?,
                    fail_limit: r.or("fail_limit", LoadProfile::DEFAULT_FAIL_LIMIT)?,
                })
            }
        };
        let service = match optional("service") {
            None => None,
            Some(r) => {
                let d = ServiceProfile::default();
                Some(ServiceProfile {
                    queue_cap: r.or("queue_cap", d.queue_cap)?,
                    deadline_ms: r.or("deadline_ms", d.deadline_ms)?,
                    cost_us: r.or("cost_us", d.cost_us)?,
                    snapshot_every: r.or("snapshot_every", d.snapshot_every)?,
                })
            }
        };

        let scenario = Scenario {
            name: root.need("name")?,
            table,
            dims: mesh.need("dims")?,
            wrap: mesh.or("wrap", false)?,
            fault_counts: faults.need("counts")?,
            regime,
            seed_start,
            seed_end,
            min_dist_frac: run.or("min_dist_frac", 0.5)?,
            pairs_per_seed: run.or("pairs_per_seed", 1)?,
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
    /// scenarios (public fields, programmatic constructors) cannot slip past
    /// it either. Guards against the historical silent misbehaviors:
    /// `pairs_per_seed = 0` produced empty rows rendered as `NaN`
    /// columns, fault counts at or beyond the node count spun the
    /// rejection sampler forever (a fault *rate* outside [0, 1)), and
    /// zero- or one-wide meshes panicked deep inside the topology layer.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check_extents(self.dims, self.wrap, "mesh")?;
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
        let ramp = self.table == TableKind::Service;
        match (&self.load, ramp) {
            (None, true) => {
                return Err(invalid(
                    "service scenarios need a [load] section (the ramp)",
                ))
            }
            (Some(_), false) => {
                return Err(invalid(
                    "a [load] section is only meaningful with `table = \"service\"`",
                ));
            }
            (Some(load), true) => self.validate_load(load)?,
            (None, false) => {}
        }
        match (&self.service, ramp) {
            (None, true) => return Err(invalid("service scenarios need a [service] section")),
            (Some(_), false) => {
                return Err(invalid(
                    "a [service] section is only meaningful with `table = \"service\"`",
                ));
            }
            (Some(service), true) => self.validate_service(service)?,
            (None, false) => {}
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
    /// (service tables) would fight a regime-prescribed schedule, so
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
                let axes = self.dims.extents().len();
                if axis >= axes {
                    return Err(invalid(format!(
                        "`faults.regime.axis` \"{}\" needs a 3-D mesh, but \
                         `mesh.dims` is {axes}-dimensional",
                        name_of(&AXES, axis)
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
                if self.table == TableKind::Service {
                    return Err(invalid(
                        "the transient regime prescribes its own inject/heal \
                         schedule; service tables churn per request and \
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
    /// readability; only called for `table = "service"` scenarios).
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
        if !(load.fail_limit.is_finite() && 0.0 < load.fail_limit && load.fail_limit <= 1.0) {
            return Err(invalid(format!(
                "`load.fail_limit` must be a fraction in (0, 1], got {}",
                load.fail_limit
            )));
        }
        if self.fault_counts.len() != 1 {
            return Err(invalid(format!(
                "service scenarios hold the fault population fixed per shard; \
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
        // primary mesh (which `validate` has checked), keep two healthy
        // routing endpoints, and admit the endpoint-separation requirement.
        if let Some(alt) = load.alt_dims {
            check_extents(alt, self.wrap, "load-pool mesh")?;
        }
        for dims in std::iter::once(self.dims).chain(load.alt_dims) {
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

    // ---- programmatic constructors for tests and examples ----

    /// A uniform-fault `table` scenario over `dims`, named after both
    /// (e.g. "routing 3-D").
    fn base(table: TableKind, dims: MeshDims, counts: &[usize], seeds: u64) -> Scenario {
        Scenario {
            name: format!("{} {}-D", table.as_str(), dims.extents().len()),
            table,
            dims,
            wrap: false,
            fault_counts: counts.to_vec(),
            regime: FaultRegime::Uniform,
            seed_start: 0,
            seed_end: seeds,
            min_dist_frac: 0.5,
            pairs_per_seed: 1,
            churn_rounds: 0,
            churn_rate: DEFAULT_CHURN_RATE,
            load: None,
            service: None,
        }
    }

    /// E15-style resident-service ramp: an open-loop ramp over 2-D
    /// shards (add `alt_dims` to the profile for a mixed 2-D/3-D pool)
    /// behind the given admission/durability profile. `seed` becomes the
    /// master seed of the deterministic request schedule.
    pub fn service_2d(
        width: i32,
        faults: usize,
        seed: u64,
        profile: LoadProfile,
        service: ServiceProfile,
    ) -> Scenario {
        let mut s = Scenario::base(TableKind::Service, square(width), &[faults], 1);
        s.seed_start = seed;
        s.seed_end = seed + 1;
        s.load = Some(profile);
        s.service = Some(service);
        s
    }

    /// E12-style churn sweep over a square 2-D mesh: `rounds` inject/heal
    /// batches per seed, verified against from-scratch recomputation.
    pub fn churn_2d(width: i32, counts: &[usize], seeds: u64, rounds: usize) -> Scenario {
        let mut s = Scenario::base(TableKind::Churn, square(width), counts, seeds);
        s.churn_rounds = rounds;
        s
    }

    /// E12-style churn sweep over a k-ary 3-D mesh.
    pub fn churn_3d(k: i32, counts: &[usize], seeds: u64, rounds: usize) -> Scenario {
        let mut s = Scenario::base(TableKind::Churn, cube(k), counts, seeds);
        s.churn_rounds = rounds;
        s
    }

    /// E1-style region sweep over a square 2-D mesh.
    pub fn regions_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(TableKind::Regions, square(width), counts, seeds)
    }

    /// E3/E6-style routing sweep over a square 2-D mesh.
    pub fn routing_2d(width: i32, counts: &[usize], trials: u64) -> Scenario {
        Scenario::base(TableKind::Routing, square(width), counts, trials)
    }

    /// E4/E6-style routing sweep over a k-ary 3-D mesh (endpoints at least
    /// `k` hops apart, matching the paper's setup).
    pub fn routing_3d(k: i32, counts: &[usize], trials: u64) -> Scenario {
        let mut s = Scenario::base(TableKind::Routing, cube(k), counts, trials);
        s.min_dist_frac = 1.0;
        s
    }

    /// E5/E7-style overhead sweep over a square 2-D mesh.
    pub fn overhead_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(TableKind::Overhead, square(width), counts, seeds)
    }

    /// E7-style overhead sweep over a k-ary 3-D mesh.
    pub fn overhead_3d(k: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(TableKind::Overhead, cube(k), counts, seeds)
    }

    /// E7-style labelling-convergence sweep over a square 2-D mesh.
    pub fn labelling_2d(width: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(TableKind::Labelling, square(width), counts, seeds)
    }

    /// E7-style labelling-convergence sweep over a k-ary 3-D mesh.
    pub fn labelling_3d(k: i32, counts: &[usize], seeds: u64) -> Scenario {
        Scenario::base(TableKind::Labelling, cube(k), counts, seeds)
    }
}

/// A `width`×`width` 2-D mesh.
fn square(width: i32) -> MeshDims {
    MeshDims::D2 {
        width,
        height: width,
    }
}

/// A `k`-ary 3-D mesh.
fn cube(k: i32) -> MeshDims {
    MeshDims::D3 { x: k, y: k, z: k }
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

        [faults.regime]
        kind = "clustered"
        clusters = 4

        [run]
        seeds = [0, 50]
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
        assert_eq!(s.min_dist_frac, 0.5);
        assert_eq!(s.pairs_per_seed, 1);
    }

    #[test]
    fn pairs_per_seed_parses_and_validates() {
        let base = "name = \"d\"\ntable = \"routing\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n";
        let s = Scenario::from_toml(&format!("{base}pairs_per_seed = 16\n")).unwrap();
        assert_eq!(s.pairs_per_seed, 16);
        assert!(Scenario::from_toml(&format!("{base}pairs_per_seed = 0\n")).is_err());
        assert!(Scenario::from_toml(&format!("{base}pairs_per_seed = -3\n")).is_err());
    }

    #[test]
    fn mcc_threads_overrides_and_rejects_bad_values() {
        let cores = mesh_topo::detected_cores();
        assert_eq!(resolve_workers(None).unwrap(), cores);
        assert_eq!(resolve_workers(Some("1")).unwrap(), 1);
        assert_eq!(resolve_workers(Some(" 2 ")).unwrap(), 2);
        assert_eq!(resolve_workers(Some("0")).unwrap(), cores);
        assert_eq!(resolve_workers(Some("1024")).unwrap(), 1024);
        for bad in ["", "two", "-1", "1.5", "1025", "99999999999999999999"] {
            let err = resolve_workers(Some(bad)).unwrap_err().to_string();
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

    const CHURN_BASE: &str = "name = \"c\"\ntable = \"churn\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [8, 16]\n[run]\nseeds = [0, 4]\n";

    #[test]
    fn churn_schema_parses_and_round_trips() {
        let text = format!("{CHURN_BASE}[churn]\nrounds = 12\nrate = 0.25\n");
        let s = Scenario::from_toml(&text).unwrap();
        assert_eq!(s.table, TableKind::Churn);
        assert_eq!(s.churn_rounds, 12);
        assert_eq!(s.churn_rate, 0.25);
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
            fail_limit: 0.05,
        }
    }

    /// A service scenario without its `[load]` ramp.
    const LOAD_BASE: &str = "name = \"l\"\ntable = \"service\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [12]\n[run]\nseeds = [0, 1]\n[service]\n";

    fn service_2d(width: i32, faults: usize, profile: LoadProfile) -> Scenario {
        Scenario::service_2d(width, faults, 0, profile, ServiceProfile::default())
    }

    #[test]
    fn load_schema_parses_and_round_trips() {
        let text = format!(
            "{LOAD_BASE}[load]\ninitial_rps = 100\nincrement_rps = 100\nmax_rps = 500\n\
             step_secs = 0.5\nmix = [0.6, 0.3, 0.1]\npool = 4\nalt_dims = [6, 6, 6]\n"
        );
        let s = Scenario::from_toml(&text).unwrap();
        assert_eq!(s.table, TableKind::Service);
        let load = s.load.as_ref().unwrap();
        assert_eq!(
            (load.initial_rps, load.increment_rps, load.max_rps),
            (100, 100, 500)
        );
        assert_eq!(load.step_secs, 0.5);
        assert_eq!(load.mix(), [0.6, 0.3, 0.1]);
        assert_eq!(load.pool, 4);
        assert_eq!(load.alt_dims, Some(MeshDims::D3 { x: 6, y: 6, z: 6 }));
        // The optional threshold defaults.
        assert_eq!(load.fail_limit, LoadProfile::DEFAULT_FAIL_LIMIT);
        assert_eq!(load.max_steps(), 5);
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
        // A [load] section on a non-service table is rejected, like [churn].
        let text = "name = \"x\"\ntable = \"regions\"\n[mesh]\ndims = [8, 8]\n\
             [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n\
             [load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\n\
             step_secs = 0.5\nmix = [1.0, 0.0, 0.0]\n";
        let err = Scenario::from_toml(text).unwrap_err();
        assert!(err.to_string().contains("[load]"), "got: {err}");
        // Churn weight needs faults to heal, and the ramp must hold one
        // fixed fault population.
        let mut sc = service_2d(16, 0, demo_profile());
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
        let sc = service_2d(16, 12, profile);
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
        let sc = service_2d(16, 12, demo_profile());
        let q = sc.quick();
        let load = q.load.as_ref().unwrap();
        assert_eq!(load.step_secs, 0.05, "a tenth, clamped to 50 ms");
        assert_eq!(load.max_rps, 300, "ramp clamped to three steps");
        assert_eq!(load.max_steps(), 3);
        q.validate().expect("quick load scenario stays valid");
    }

    /// `table = "load"` and a `[load] p99_limit_ms` key are outside the
    /// schema: both are errors that name what was written.
    #[test]
    fn retired_load_table_and_p99_limit_are_errors() {
        let text = LOAD_BASE.replace("table = \"service\"", "table = \"load\"");
        let err = Scenario::from_toml(&text).unwrap_err().to_string();
        assert!(err.contains("`table`"), "got: {err}");
        assert!(err.contains("\"load\""), "got: {err}");
        let text = format!(
            "{LOAD_BASE}[load]\ninitial_rps = 10\nincrement_rps = 5\nmax_rps = 50\n\
             step_secs = 0.5\nmix = [1.0, 0.0, 0.0]\np99_limit_ms = 50.0\n"
        );
        let err = Scenario::from_toml(&text).unwrap_err().to_string();
        assert!(err.contains("unknown key `p99_limit_ms`"), "got: {err}");
        assert!(err.contains("[load]"), "got: {err}");
    }

    const REGIME_BASE: &str = "name = \"r\"\ntable = \"routing\"\n[mesh]\ndims = [16, 16]\n\
         [faults]\ncounts = [8]\n[run]\nseeds = [0, 4]\n";

    /// Unknown keys anywhere in `[faults]` are a typed error, not a
    /// silent no-op: a regime knob such as `clusters` belongs in
    /// `[faults.regime]`, and a non-integer cluster count there is an
    /// error, not the default 3.
    #[test]
    fn faults_rejects_unknown_and_orphaned_keys() {
        let err =
            Scenario::from_toml(&REGIME_BASE.replace("counts = [8]", "counts = [8]\nclusterz = 3"))
                .unwrap_err();
        assert!(
            err.to_string().contains("unknown key `clusterz`"),
            "got: {err}"
        );
        for clusters in ["2.5", "\"nine\""] {
            let section = format!("[faults.regime]\nkind = \"clustered\"\nclusters = {clusters}\n");
            let err = Scenario::from_toml(&format!("{REGIME_BASE}{section}"));
            let err = err.unwrap_err().to_string();
            assert!(
                err.contains("`faults.regime.clusters` must be"),
                "{clusters}: {err}"
            );
        }
    }

    /// The model selection, the border policy and the pre-regime fault
    /// spelling are not scenario keys: each is an unknown-key error that
    /// names the key and its section.
    #[test]
    fn removed_keys_are_unknown_key_errors() {
        let faults =
            |key: &str| REGIME_BASE.replace("counts = [8]", &format!("counts = [8]\n{key}"));
        for (text, key, section) in [
            (
                format!("{REGIME_BASE}router = \"all\"\n"),
                "router",
                "[run]",
            ),
            (faults("border = \"safe\""), "border", "[faults]"),
            (faults("pattern = \"uniform\""), "pattern", "[faults]"),
            (faults("clusters = 3"), "clusters", "[faults]"),
        ] {
            let err = Scenario::from_toml(&text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key `{key}` in {section}")),
                "{key}: {err}"
            );
        }
    }

    /// Every section rejects a key the schema does not name, and a
    /// document rejects such a section; the error names the culprit.
    #[test]
    fn unknown_keys_and_sections_are_errors() {
        let base = REGIME_BASE;
        let mesh = base.replace("[faults]", "warp = true\n[faults]");
        let churn = format!("{CHURN_BASE}[churn]\nrounds = 4\n");
        let service = format!("{SERVICE_BASE}[service]\n");
        for (text, culprit) in [
            (format!("nmae = \"r\"\n{base}"), "key `nmae`"),
            (mesh, "key `warp`"),
            (format!("{base}pairs_per_sed = 4\n"), "key `pairs_per_sed`"),
            (format!("{churn}ratee = 0.5\n"), "key `ratee`"),
            (format!("{SERVICE_BASE}pol = 4\n"), "key `pol`"),
            (format!("{service}queue = 4\n"), "key `queue`"),
            (format!("{base}[servce]\n"), "section [servce]"),
        ] {
            let err = Scenario::from_toml(&text).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown {culprit}")), "{err}");
        }
        // A second [mesh] header is a parse error at its line, not a merge.
        let err = Scenario::from_toml(&format!("{base}[mesh]\nwrap = true\n")).unwrap_err();
        assert_eq!(err.line(), Some(9), "got: {err}");
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
        }
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
