//! One shard: a single mesh instance, its `IncrementalModels` cache, and
//! its journal (WAL + snapshot).
//!
//! A [`ShardCore`] is the synchronous state machine [`crate::service`]
//! drives on each caller's thread, one call at a time under the shard's
//! lock. Requests either read the maintained models (route, query,
//! stats) or mutate the fault configuration (churn). A route reads only
//! the labelling of its pair's orientation — Algorithms 3 and 6 route on
//! the safe/unsafe labelling alone — so it syncs just that layer of the
//! `IncrementalModels` slot; the components and MCC records are built
//! and repaired only when a query or the digest reads them. Every
//! mutation follows the write-ahead discipline:
//!
//! 1. **check** — validate the batch against the current state, once
//!    ([`fault_model`]'s `checked`, surfaced as
//!    [`ServiceError::Rejected`]
//!    without touching anything),
//! 2. **journal** — append the resolved record to the WAL,
//! 3. **apply** — flip the checked batch into the models; infallible after
//!    step 1, so a durable record always corresponds to an applicable op.
//!
//! Recovery ([`ShardCore::open`]) is the inverse: delete a stale snapshot
//! temp file, load the snapshot (if any), and fold the WAL's clean prefix
//! into the snapshot's fault words. The WAL streams through a bounded
//! buffer; each record past the snapshot is checked in order — sequence
//! number (a gap is corruption; records the snapshot already covers are
//! skipped), decoding, dimension, then the same batch checks a live churn
//! runs — and flips its bits. Only then are the models built, once, over
//! the folded faults, and the torn tail truncated. A recovered mesh
//! therefore lists its faults in index order, as after a snapshot load;
//! nothing in the service reads that order. Determinism: every journaled
//! record is a *resolved* coordinate batch — seed-driven sampling happens
//! before journaling — so recovery is a pure fold over the journal,
//! independent of wall clock and restart count.
//!
//! Every request body — route, query, their seed-sampled forms, churn
//! check and apply, churn resolution, the digest and the snapshot's fault
//! words — is written once, over the node space of the shard's models;
//! a route is [`mcc_routing::route_in`], whose one per-dimension step,
//! the detection of Algorithm 3 or 6, comes from
//! [`mcc_routing::RouteSpace`]. Only the durable and wire
//! forms keep their 2-D/3-D variants: [`Request`] names its coordinates,
//! and [`ChurnRecord`]'s encoding, dimension tag included, is WAL data, so
//! a small per-space mapping ties each variant to the models of its
//! dimension. A request of the other dimension is rejected.

use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

use fault_model::oracle::Useful;
use fault_model::{BorderPolicy, CheckedBatch, IncrementalModels};
use mcc_routing::{route_in, Policy, RouteSpace};
use mesh_topo::coord::{C2, C3};
use mesh_topo::nodeset::NodeSet;
use mesh_topo::par::Parallelism;
use mesh_topo::{Frame, Mesh, Mesh2D, Mesh3D};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::crash::CrashPoint;
use crate::error::ServiceError;
use crate::ops::ChurnRecord;
use crate::snapshot::{self, Snapshot};
use crate::wal::{RecordReader, SyncPolicy, Wal};

/// WAL file name inside a shard directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a shard directory.
pub const SNAP_FILE: &str = "snapshot.bin";
/// Snapshot temp file name (crash-safe publish staging).
pub const SNAP_TMP: &str = "snapshot.tmp";

/// How many random probes a seed-driven sampler makes before falling back
/// to a linear scan.
const SAMPLE_ATTEMPTS: usize = 64;

/// The mesh geometry one shard owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// A 2-D mesh (or torus).
    M2 {
        /// Extent along X.
        width: i32,
        /// Extent along Y.
        height: i32,
        /// True for a torus.
        wrap: bool,
    },
    /// A 3-D mesh (or torus).
    M3 {
        /// Extent along X.
        nx: i32,
        /// Extent along Y.
        ny: i32,
        /// Extent along Z.
        nz: i32,
        /// True for a torus.
        wrap: bool,
    },
}

impl Geometry {
    /// Mesh dimensionality (2 or 3).
    pub fn dim(&self) -> u8 {
        match self {
            Geometry::M2 { .. } => 2,
            Geometry::M3 { .. } => 3,
        }
    }

    /// True for torus geometries.
    pub fn wraps(&self) -> bool {
        match *self {
            Geometry::M2 { wrap, .. } | Geometry::M3 { wrap, .. } => wrap,
        }
    }

    /// Extents, zero-padded to three axes.
    pub fn extents(&self) -> [i32; 3] {
        match *self {
            Geometry::M2 { width, height, .. } => [width, height, 0],
            Geometry::M3 { nx, ny, nz, .. } => [nx, ny, nz],
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        match *self {
            Geometry::M2 { width, height, .. } => width as usize * height as usize,
            Geometry::M3 { nx, ny, nz, .. } => nx as usize * ny as usize * nz as usize,
        }
    }
}

/// Everything needed to (re)build one shard from an empty directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The mesh geometry.
    pub geom: Geometry,
    /// Labelling border policy.
    pub border: BorderPolicy,
    /// Snapshot after this many churn ops since the last snapshot
    /// (0 = never snapshot automatically).
    pub snapshot_every: u64,
    /// WAL / snapshot sync policy.
    pub sync: SyncPolicy,
}

impl ShardSpec {
    /// A test-friendly spec: fsync-free, snapshotting every
    /// `snapshot_every` ops.
    pub fn new(geom: Geometry, snapshot_every: u64) -> ShardSpec {
        ShardSpec {
            geom,
            border: BorderPolicy::BorderSafe,
            snapshot_every,
            sync: SyncPolicy::Never,
        }
    }
}

/// A request a shard can serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Route between two explicit 2-D endpoints.
    Route2 {
        /// Source.
        s: C2,
        /// Destination.
        d: C2,
        /// Policy seed.
        seed: u64,
    },
    /// Route between two explicit 3-D endpoints.
    Route3 {
        /// Source.
        s: C3,
        /// Destination.
        d: C3,
        /// Policy seed.
        seed: u64,
    },
    /// Route between a seed-sampled healthy pair at least `min_dist` apart.
    RouteRandom {
        /// Sampling + policy seed.
        seed: u64,
        /// Minimum topology-aware source/destination distance.
        min_dist: u32,
    },
    /// Query the label and region membership of one 2-D node.
    Query2(C2),
    /// Query the label and region membership of one 3-D node.
    Query3(C3),
    /// Query a seed-sampled node.
    QueryRandom {
        /// Sampling seed.
        seed: u64,
    },
    /// Apply an explicit 2-D churn batch.
    Churn2 {
        /// Nodes to mark faulty.
        injected: Vec<C2>,
        /// Nodes to mark healthy.
        healed: Vec<C2>,
    },
    /// Apply an explicit 3-D churn batch.
    Churn3 {
        /// Nodes to mark faulty.
        injected: Vec<C3>,
        /// Nodes to mark healthy.
        healed: Vec<C3>,
    },
    /// Heal one seed-sampled faulty node and inject one seed-sampled
    /// healthy node (steady-state churn; resolved before journaling).
    ChurnRandom {
        /// Sampling seed.
        seed: u64,
    },
    /// Force a snapshot now.
    Snapshot,
    /// Report shard statistics.
    Stats,
    /// Panic the shard (supervision testing — the service must rebuild it
    /// from its journal).
    Panic,
}

impl Request {
    /// The admission cost class, or `None` for control requests that
    /// bypass load shedding.
    pub fn op_class(&self) -> Option<crate::admission::OpClass> {
        use crate::admission::OpClass;
        match self {
            Request::Route2 { .. } | Request::Route3 { .. } | Request::RouteRandom { .. } => {
                Some(OpClass::Route)
            }
            Request::Query2(_) | Request::Query3(_) | Request::QueryRandom { .. } => {
                Some(OpClass::Query)
            }
            Request::Churn2 { .. } | Request::Churn3 { .. } | Request::ChurnRandom { .. } => {
                Some(OpClass::Churn)
            }
            Request::Snapshot | Request::Stats | Request::Panic => None,
        }
    }
}

/// A successful reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Outcome of a route request.
    Route {
        /// True if the packet reached the destination.
        delivered: bool,
        /// Hops taken.
        hops: usize,
    },
    /// Outcome of a region query.
    Region {
        /// The node's status label (Debug form, e.g. `safe`, `faulty`).
        status: String,
        /// True if the node is in the unsafe set.
        in_unsafe: bool,
        /// Number of MCCs in the identity orientation.
        mccs: usize,
    },
    /// Outcome of a churn request.
    Churn {
        /// Generation after the batch applied.
        gen: u64,
    },
    /// Outcome of a snapshot request.
    Snapshot {
        /// Generation the snapshot covers.
        gen: u64,
    },
    /// Shard statistics.
    Stats(ShardStats),
}

/// Observable shard counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Durable churn generation.
    pub gen: u64,
    /// Generation the last snapshot covers.
    pub snapshot_gen: u64,
    /// Churn ops applied by this incarnation (excludes recovered ops).
    pub ops_applied: u64,
    /// Committed WAL bytes.
    pub wal_bytes: u64,
    /// Current fault count.
    pub faults: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Times this shard has been restarted from its journal.
    pub recoveries: u64,
}

/// Bit-for-bit comparable shard state: the durable generation, the fault
/// configuration, and every model derived from it in the identity
/// orientation (statuses, unsafe set, component cells, MCC shapes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateDigest {
    /// Durable churn generation.
    pub gen: u64,
    /// The fault set.
    pub faults: NodeSet,
    /// Per-node status labels (Debug form, joined).
    pub statuses: String,
    /// The unsafe-node set.
    pub unsafe_set: NodeSet,
    /// MCC shapes (Debug form).
    pub mccs: String,
    /// Component decomposition (Debug form).
    pub comps: String,
}

/// One dimension's shard state: the maintained models plus the route
/// scratch every route request reuses — the backward-reachability set and
/// detection's own scratch (the 3-D flood).
#[derive(Clone, Debug)]
struct Models<C: ShardSpace> {
    inc: IncrementalModels<C>,
    useful: Useful<C>,
    scratch: C::RouteScratch,
}

/// The dimension-erased models a shard owns.
#[derive(Clone, Debug)]
enum ShardModels {
    /// 2-D models (boxed: the caches are KiB-sized, the enum should not be).
    D2(Box<Models<C2>>),
    /// 3-D models.
    D3(Box<Models<C3>>),
}

/// Evaluate `$body` with `$m` bound to the shard's models, whichever their
/// dimension.
macro_rules! each {
    ($models:expr, $m:ident => $body:expr) => {
        match $models {
            ShardModels::D2($m) => $body,
            ShardModels::D3($m) => $body,
        }
    };
}

/// A churn batch borrowed from its record: the nodes to inject, then the
/// nodes to heal.
type Batch<'r, C> = (&'r [C], &'r [C]);

/// The per-dimension mapping between a shard's models and the durable
/// 2-D/3-D variants of [`ChurnRecord`] (and of [`Request`]).
trait ShardSpace: RouteSpace {
    /// The shard's models, if they have this dimension.
    fn of(models: &mut ShardModels) -> Option<&mut Models<Self>>;
    /// A batch of this dimension as a record.
    fn record(injected: Vec<Self>, healed: Vec<Self>) -> ChurnRecord;
    /// `rec`'s batch, if it has this dimension.
    fn batch(rec: &ChurnRecord) -> Option<Batch<'_, Self>>;
}

impl ShardSpace for C2 {
    fn of(models: &mut ShardModels) -> Option<&mut Models<Self>> {
        match models {
            ShardModels::D2(m) => Some(m),
            ShardModels::D3(_) => None,
        }
    }
    fn record(injected: Vec<C2>, healed: Vec<C2>) -> ChurnRecord {
        ChurnRecord::D2 { injected, healed }
    }
    fn batch(rec: &ChurnRecord) -> Option<Batch<'_, C2>> {
        match rec {
            ChurnRecord::D2 { injected, healed } => Some((injected, healed)),
            ChurnRecord::D3 { .. } => None,
        }
    }
}

impl ShardSpace for C3 {
    fn of(models: &mut ShardModels) -> Option<&mut Models<Self>> {
        match models {
            ShardModels::D3(m) => Some(m),
            ShardModels::D2(_) => None,
        }
    }
    fn record(injected: Vec<C3>, healed: Vec<C3>) -> ChurnRecord {
        ChurnRecord::D3 { injected, healed }
    }
    fn batch(rec: &ChurnRecord) -> Option<Batch<'_, C3>> {
        match rec {
            ChurnRecord::D3 { injected, healed } => Some((injected, healed)),
            ChurnRecord::D2 { .. } => None,
        }
    }
}

impl ShardModels {
    /// Recover the models: fold the journal past `snap_gen` into the
    /// snapshot's fault set `faults`, then build every model once. Returns
    /// the models and the generation the journal reaches.
    fn recover(
        spec: &ShardSpec,
        faults: NodeSet,
        snap_gen: u64,
        journal: &mut RecordReader<impl Read>,
        wal_path: &Path,
    ) -> Result<(ShardModels, u64), ServiceError> {
        match spec.geom {
            Geometry::M2 {
                width,
                height,
                wrap,
            } => {
                let mesh = if wrap {
                    Mesh2D::torus(width, height)
                } else {
                    Mesh2D::new(width, height)
                };
                Models::recover(mesh, spec.border, faults, snap_gen, journal, wal_path)
                    .map(|(m, gen)| (ShardModels::D2(Box::new(m)), gen))
            }
            Geometry::M3 { nx, ny, nz, wrap } => {
                let mesh = if wrap {
                    Mesh3D::torus(nx, ny, nz)
                } else {
                    Mesh3D::new(nx, ny, nz)
                };
                Models::recover(mesh, spec.border, faults, snap_gen, journal, wal_path)
                    .map(|(m, gen)| (ShardModels::D3(Box::new(m)), gen))
            }
        }
    }
}

impl<C: ShardSpace> Models<C> {
    /// Fold the journal's records past `snap_gen` into `faults`, then
    /// build the models over `mesh` with the folded faults; returns them
    /// with the generation the records reach. Each record is checked in
    /// order: its sequence number, its decoding, its dimension, then the
    /// fault-model batch checks against the faults folded so far; the
    /// first that fails is corruption.
    fn recover(
        mut mesh: Mesh<C>,
        border: BorderPolicy,
        mut faults: NodeSet,
        snap_gen: u64,
        journal: &mut RecordReader<impl Read>,
        wal_path: &Path,
    ) -> Result<(Models<C>, u64), ServiceError> {
        let corrupt = |detail| ServiceError::Corrupt {
            path: wal_path.to_path_buf(),
            detail,
        };
        let space = mesh.space();
        let mut gen = snap_gen;
        while let Some((seq, payload)) = journal
            .next_record()
            .map_err(|e| ServiceError::io(wal_path, e))?
        {
            // Records the snapshot already covers linger when a crash hit
            // between the snapshot rename and the WAL truncation.
            if seq <= snap_gen {
                continue;
            }
            if seq != gen + 1 {
                return Err(corrupt(format!(
                    "sequence gap: have generation {gen}, next record {seq}"
                )));
            }
            let rec = ChurnRecord::decode(payload).map_err(corrupt)?;
            Self::batch(&rec)
                .and_then(|(injected, healed)| {
                    CheckedBatch::new(space, &faults, injected, healed).map_err(|e| e.to_string())
                })
                .map_err(|detail| {
                    corrupt(format!("journaled record {seq} does not apply: {detail}"))
                })?
                .flip(&mut faults);
            gen = seq;
        }
        mesh.inject_fault_set(&faults);
        let models = Models {
            inc: IncrementalModels::new(mesh, border),
            useful: Useful::scratch(),
            scratch: Default::default(),
        };
        Ok((models, gen))
    }

    /// The fault set as `(nbits, words)` — the snapshot payload.
    fn fault_words(&self) -> (usize, Vec<u64>) {
        let set = self.inc.mesh().fault_set();
        (set.capacity(), set.words().to_vec())
    }

    /// `rec`'s batch, or the rejection of a batch of the other dimension.
    fn batch(rec: &ChurnRecord) -> Result<Batch<'_, C>, String> {
        C::batch(rec)
            .ok_or_else(|| format!("churn batch is {}-D but shard is {}-D", rec.dim(), C::DIMS))
    }

    /// The write-ahead steps of a churn: check `rec` (dimension match plus
    /// the fault-model batch checks, run once), `journal` it, then apply
    /// the checked batch, which cannot fail.
    fn churn(
        &mut self,
        rec: &ChurnRecord,
        journal: impl FnOnce() -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        let rejected = |reason| ServiceError::Rejected { reason };
        let (injected, healed) = Self::batch(rec).map_err(rejected)?;
        let batch = self
            .inc
            .checked(injected, healed)
            .map_err(|e| rejected(e.to_string()))?;
        journal()?;
        self.inc.apply_checked(batch);
        Ok(())
    }

    /// The full comparable state in the identity orientation. `gen` is the
    /// durable generation the caller tracks (the models keep none).
    fn digest(&mut self, gen: u64) -> StateDigest {
        let frame = Frame::identity(self.inc.mesh());
        let faults = self.inc.mesh().fault_set().clone();
        let m = self.inc.models(frame);
        StateDigest {
            gen,
            faults,
            statuses: m
                .lab
                .iter()
                .map(|(_, s)| format!("{s:?}"))
                .collect::<Vec<_>>()
                .join(","),
            unsafe_set: m.lab.unsafe_set().clone(),
            mccs: format!("{:?}", m.mccs),
            comps: format!("{:?}", m.comps),
        }
    }

    /// Resolve a seed-driven churn request into an explicit batch against
    /// the current state: heal one sampled faulty node (if any), inject
    /// one sampled healthy node (if any). Deterministic in
    /// `(seed, current fault configuration)`.
    fn resolve_churn_random(&self, seed: u64) -> ChurnRecord {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mesh = self.inc.mesh();
        let space = mesh.space();
        let (inj, heal) = sample_flip(&mut rng, mesh.fault_set(), space.len());
        C::record(
            inj.into_iter().map(|i| space.coord(i)).collect(),
            heal.into_iter().map(|i| space.coord(i)).collect(),
        )
    }

    /// Route `s` → `d` over the labelling of the pair's orientation,
    /// synced to the current fault set; the slot's components and MCC
    /// records are left for the next query to repair.
    fn route(&mut self, s: C, d: C, seed: u64) -> Result<Response, ServiceError> {
        let space = self.inc.mesh().space();
        if space.index_checked(s).is_none() || space.index_checked(d).is_none() {
            return Err(ServiceError::Rejected {
                reason: format!("route endpoints {s:?} -> {d:?} outside the mesh"),
            });
        }
        let frame = Frame::for_pair(self.inc.mesh(), s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        let lab = self.inc.labelling(frame);
        let out = route_in(
            lab,
            cs,
            cd,
            &mut Policy::random(seed),
            &mut self.useful,
            &mut self.scratch,
        );
        Ok(Response::Route {
            delivered: out.delivered,
            hops: out.hops,
        })
    }

    fn route_random(&mut self, seed: u64, min_dist: u32) -> Result<Response, ServiceError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mesh = self.inc.mesh();
        let space = mesh.space();
        let pair = sample_pair(&mut rng, space.len(), |i, j| {
            let (a, b) = (space.coord(i), space.coord(j));
            mesh.is_healthy(a) && mesh.is_healthy(b) && space.dist(a, b) >= min_dist.max(1)
        });
        let Some((i, j)) = pair else {
            return Err(ServiceError::Rejected {
                reason: "no healthy pair satisfies the separation requirement".into(),
            });
        };
        self.route(space.coord(i), space.coord(j), seed)
    }

    /// The label, unsafe membership and identity-orientation MCC count
    /// at `c`: the full models of the identity slot, built on its first
    /// query or digest and afterwards repaired over the statuses changed
    /// since the previous one.
    fn query(&mut self, c: C) -> Result<Response, ServiceError> {
        let space = self.inc.mesh().space();
        let Some(i) = space.index_checked(c) else {
            return Err(ServiceError::Rejected {
                reason: format!("query node {c:?} outside the mesh"),
            });
        };
        let frame = Frame::identity(self.inc.mesh());
        let m = self.inc.models(frame);
        Ok(Response::Region {
            status: format!("{:?}", m.lab.status(c)),
            in_unsafe: m.lab.unsafe_set().contains(i),
            mccs: m.mccs.len(),
        })
    }

    fn query_random(&mut self, seed: u64) -> Result<Response, ServiceError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let space = self.inc.mesh().space();
        let c = space.coord(rng.gen_range(0..space.len()));
        self.query(c)
    }
}

/// The fault set a snapshot carries, checked against the geometry; the
/// empty set without a snapshot.
fn snapshot_faults(spec: &ShardSpec, faults: Option<(usize, Vec<u64>)>) -> Result<NodeSet, String> {
    let nodes = spec.geom.node_count();
    let Some((nbits, words)) = faults else {
        return Ok(NodeSet::new(nodes));
    };
    if nbits != nodes || words.len() != nbits.div_ceil(64) {
        return Err(format!(
            "fault set covers {nbits} nodes in {} words, geometry has {nodes}",
            words.len()
        ));
    }
    Ok(NodeSet::from_raw_words(nbits, words))
}

/// Sample (inject, heal) index singletons for steady-state churn: heal a
/// uniform faulty node when any exist, inject a healthy node found by
/// random probing with a linear-scan fallback.
fn sample_flip(
    rng: &mut SmallRng,
    faults: &NodeSet,
    nodes: usize,
) -> (Option<usize>, Option<usize>) {
    let heal = if !faults.is_empty() {
        let nth = rng.gen_range(0..faults.len());
        faults.iter().nth(nth)
    } else {
        None
    };
    let inject = if faults.len() < nodes {
        let mut found = None;
        for _ in 0..SAMPLE_ATTEMPTS {
            let i = rng.gen_range(0..nodes);
            if !faults.contains(i) {
                found = Some(i);
                break;
            }
        }
        found.or_else(|| {
            let start = rng.gen_range(0..nodes);
            (0..nodes)
                .map(|k| (start + k) % nodes)
                .find(|&i| !faults.contains(i))
        })
    } else {
        None
    };
    (inject, heal)
}

/// The synchronous state machine of one shard (see the module docs).
#[derive(Debug)]
pub struct ShardCore {
    dir: PathBuf,
    spec: ShardSpec,
    crash: CrashPoint,
    models: ShardModels,
    wal: Wal,
    gen: u64,
    snapshot_gen: u64,
    ops_applied: u64,
    recoveries: u64,
}

impl ShardCore {
    /// Open (or recover) the shard journaled under `dir`.
    ///
    /// `_par` is ignored: shard models are computed sequentially. The
    /// argument stays only so existing callers keep compiling.
    pub fn open(
        dir: &Path,
        spec: ShardSpec,
        _par: Parallelism,
        crash: CrashPoint,
    ) -> Result<ShardCore, ServiceError> {
        ShardCore::open_counted(dir, spec, crash, 0)
    }

    /// [`open`](ShardCore::open) carrying a recovery counter across
    /// restarts (the service increments it on each reopen).
    pub(crate) fn open_counted(
        dir: &Path,
        spec: ShardSpec,
        crash: CrashPoint,
        recoveries: u64,
    ) -> Result<ShardCore, ServiceError> {
        fs::create_dir_all(dir).map_err(|e| ServiceError::io(dir, e))?;
        // A stale temp file is a snapshot that died before its rename —
        // the old snapshot (if any) is still authoritative.
        let tmp = dir.join(SNAP_TMP);
        match fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ServiceError::io(&tmp, e)),
        }

        let snap_path = dir.join(SNAP_FILE);
        let (faults, snap_gen) = match snapshot::load(&snap_path)? {
            Some(s) => {
                check_snapshot_spec(&s, &spec, &snap_path)?;
                (Some((s.nbits as usize, s.words)), s.gen)
            }
            None => (None, 0),
        };
        let faults = snapshot_faults(&spec, faults).map_err(|detail| ServiceError::Corrupt {
            path: snap_path,
            detail,
        })?;

        let wal_path = dir.join(WAL_FILE);
        let journal: Box<dyn Read> = match File::open(&wal_path) {
            Ok(f) => Box::new(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Box::new(std::io::empty()),
            Err(e) => return Err(ServiceError::io(&wal_path, e)),
        };
        ShardCore::recover(dir, spec, crash, recoveries, (faults, snap_gen), journal)
    }

    /// Recovery proper: fold `journal` (the WAL's bytes) into the
    /// snapshot's fault set and generation, build the models once, and
    /// reopen the WAL truncated to its clean prefix.
    fn recover(
        dir: &Path,
        spec: ShardSpec,
        crash: CrashPoint,
        recoveries: u64,
        (faults, snap_gen): (NodeSet, u64),
        journal: impl Read,
    ) -> Result<ShardCore, ServiceError> {
        let wal_path = dir.join(WAL_FILE);
        let mut journal = RecordReader::new(journal);
        let (models, gen) = ShardModels::recover(&spec, faults, snap_gen, &mut journal, &wal_path)?;
        let wal = Wal::open_at(&wal_path, journal.clean_len(), spec.sync)?;
        Ok(ShardCore {
            dir: dir.to_path_buf(),
            spec,
            crash,
            models,
            wal,
            gen,
            snapshot_gen: snap_gen,
            ops_applied: 0,
            recoveries,
        })
    }

    /// The shard's journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The spec this shard was built from.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Durable churn generation.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The full comparable state (see [`StateDigest`]).
    pub fn digest(&mut self) -> StateDigest {
        each!(&mut self.models, m => m.digest(self.gen))
    }

    /// The models of `C`'s dimension, or the rejection of a request of
    /// that dimension.
    fn models_of<C: ShardSpace>(&mut self) -> Result<&mut Models<C>, ServiceError> {
        let shard = self.spec.geom.dim();
        C::of(&mut self.models).ok_or_else(|| wrong_dim(C::DIMS as u8, shard))
    }

    /// Serve one request.
    pub fn handle(&mut self, req: &Request) -> Result<Response, ServiceError> {
        match req {
            Request::Route2 { s, d, seed } => self.models_of::<C2>()?.route(*s, *d, *seed),
            Request::Route3 { s, d, seed } => self.models_of::<C3>()?.route(*s, *d, *seed),
            Request::RouteRandom { seed, min_dist } => {
                each!(&mut self.models, m => m.route_random(*seed, *min_dist))
            }
            Request::Query2(c) => self.models_of::<C2>()?.query(*c),
            Request::Query3(c) => self.models_of::<C3>()?.query(*c),
            Request::QueryRandom { seed } => each!(&mut self.models, m => m.query_random(*seed)),
            Request::Churn2 { injected, healed } => self.churn(ChurnRecord::D2 {
                injected: injected.clone(),
                healed: healed.clone(),
            }),
            Request::Churn3 { injected, healed } => self.churn(ChurnRecord::D3 {
                injected: injected.clone(),
                healed: healed.clone(),
            }),
            Request::ChurnRandom { seed } => {
                let rec = each!(&self.models, m => m.resolve_churn_random(*seed));
                self.churn(rec)
            }
            Request::Snapshot => {
                let gen = self.snapshot_now()?;
                Ok(Response::Snapshot { gen })
            }
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Panic => panic!("injected shard panic (supervision test)"),
        }
    }

    /// Observable counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            gen: self.gen,
            snapshot_gen: self.snapshot_gen,
            ops_applied: self.ops_applied,
            wal_bytes: self.wal.len_bytes(),
            faults: each!(&self.models, m => m.inc.mesh().fault_set().len()),
            nodes: each!(&self.models, m => m.inc.mesh().node_count()),
            recoveries: self.recoveries,
        }
    }

    /// Write a snapshot covering the current generation and truncate the
    /// WAL. Returns the covered generation.
    pub fn snapshot_now(&mut self) -> Result<u64, ServiceError> {
        let (nbits, words) = each!(&self.models, m => m.fault_words());
        let snap = Snapshot {
            dim: self.spec.geom.dim(),
            wrap: self.spec.geom.wraps(),
            border: self.spec.border,
            extents: self.spec.geom.extents(),
            gen: self.gen,
            nbits: nbits as u64,
            words,
        };
        snapshot::write(
            &self.dir.join(SNAP_FILE),
            &self.dir.join(SNAP_TMP),
            &snap,
            self.spec.sync,
            &self.crash,
        )?;
        self.snapshot_gen = self.gen;
        self.wal.truncate_all(&self.crash)?;
        Ok(self.gen)
    }

    /// The write-ahead churn path: check → journal → apply → maybe
    /// snapshot.
    fn churn(&mut self, rec: ChurnRecord) -> Result<Response, ServiceError> {
        let seq = self.gen + 1;
        let (wal, crash) = (&mut self.wal, &self.crash);
        let journal = || wal.append(seq, &rec.encode(), crash);
        each!(&mut self.models, m => m.churn(&rec, journal))?;
        self.gen = seq;
        self.ops_applied += 1;
        if self.spec.snapshot_every > 0 && self.gen - self.snapshot_gen >= self.spec.snapshot_every
        {
            self.snapshot_now()?;
        }
        Ok(Response::Churn { gen: self.gen })
    }
}

fn wrong_dim(req: u8, shard: u8) -> ServiceError {
    ServiceError::Rejected {
        reason: format!("request is {req}-D but shard is {shard}-D"),
    }
}

/// Sample an index pair satisfying `ok` by bounded random probing.
fn sample_pair(
    rng: &mut SmallRng,
    nodes: usize,
    ok: impl Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    for _ in 0..SAMPLE_ATTEMPTS * 4 {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        if i != j && ok(i, j) {
            return Some((i, j));
        }
    }
    None
}

fn check_snapshot_spec(snap: &Snapshot, spec: &ShardSpec, path: &Path) -> Result<(), ServiceError> {
    let want = (
        spec.geom.dim(),
        spec.geom.wraps(),
        spec.border,
        spec.geom.extents(),
    );
    let got = (snap.dim, snap.wrap, snap.border, snap.extents);
    if want != got {
        return Err(ServiceError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("snapshot geometry {got:?} does not match shard spec {want:?}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::wal::READ_CHUNK;

    /// A byte source that remembers the largest read it was asked for.
    struct Counting<R> {
        inner: R,
        largest: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn routes_sync_only_the_labelling_until_a_query() {
        use fault_model::{Labelling, MccSet};
        use mesh_topo::coord::c3;

        let k = 10;
        let spec = ShardSpec::new(
            Geometry::M3 {
                nx: k,
                ny: k,
                nz: k,
                wrap: false,
            },
            0,
        );
        let dir = TempDir::new("route-labelling");
        let mut core = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
            .expect("fresh shard");
        let mut rng = SmallRng::seed_from_u64(3);
        let node = |rng: &mut SmallRng| {
            c3(
                rng.gen_range(0..k),
                rng.gen_range(0..k),
                rng.gen_range(0..k),
            )
        };
        // Grow about thirty scattered faults, churning one step at a time,
        // with routes over every orientation in between.
        let mut delivered = 0;
        for step in 0..60u64 {
            let m = core.models_of::<C3>().expect("3-D shard");
            let (mesh, mut injected) = (m.inc.mesh(), Vec::new());
            let c = node(&mut rng);
            if mesh.is_healthy(c) {
                injected.push(c);
            }
            let healed = match mesh.faults() {
                faults if step % 2 == 1 && !faults.is_empty() => {
                    vec![faults[rng.gen_range(0..faults.len())]]
                }
                _ => Vec::new(),
            };
            core.handle(&Request::Churn3 { injected, healed })
                .expect("churn");
            for seed in 0..8 {
                let route = Request::RouteRandom {
                    seed: step * 8 + seed,
                    min_dist: 4,
                };
                let reply = core.handle(&route);
                if matches!(
                    reply,
                    Ok(Response::Route {
                        delivered: true,
                        ..
                    })
                ) {
                    delivered += 1;
                }
            }
        }
        assert!(delivered > 0, "routes ran");
        let inc = &core.models_of::<C3>().expect("3-D shard").inc;
        assert!(inc.slot_rebuilds() > 1, "routes synced several octants");
        assert!(inc.statuses_repaired() > 0, "routes repaired churn");
        assert_eq!(
            (inc.region_builds(), inc.mccs_extracted()),
            (0, 0),
            "route-only traffic builds no components or MCC records"
        );

        let mesh = inc.mesh().clone();
        let lab = Labelling::compute(&mesh, Frame::identity(&mesh), spec.border);
        let mccs = MccSet::compute(&lab).len();
        assert!(mccs > 1, "the churn left several regions");
        let probes = mesh.faults().iter().take(3).copied();
        for c in probes.chain([c3(0, 0, 0), c3(k - 1, k - 1, k - 1)]) {
            let want = Response::Region {
                status: format!("{:?}", lab.status(c)),
                in_unsafe: lab.unsafe_set().contains(mesh.space().index(c)),
                mccs,
            };
            assert_eq!(core.handle(&Request::Query3(c)).expect("query"), want);
        }
        let inc = &core.models_of::<C3>().expect("3-D shard").inc;
        assert_eq!(inc.region_builds(), 1, "the first query builds once");
    }

    #[test]
    fn recovery_reads_a_long_journal_through_a_bounded_buffer() {
        let spec = ShardSpec::new(
            Geometry::M3 {
                nx: 6,
                ny: 6,
                nz: 6,
                wrap: false,
            },
            0,
        );
        for records in [500u64, 8000] {
            let dir = TempDir::new("bounded");
            let mut core = ShardCore::open(dir.path(), spec, Parallelism::SEQ, CrashPoint::none())
                .expect("fresh shard");
            for seed in 0..records {
                core.handle(&Request::ChurnRandom { seed }).expect("churn");
            }
            let want = core.digest();
            drop(core);
            let wal_len = fs::metadata(dir.join(WAL_FILE)).expect("wal").len();

            let mut journal = Counting {
                inner: File::open(dir.join(WAL_FILE)).expect("wal"),
                largest: 0,
            };
            let empty = (NodeSet::new(spec.geom.node_count()), 0);
            let mut core =
                ShardCore::recover(dir.path(), spec, CrashPoint::none(), 0, empty, &mut journal)
                    .expect("recover");
            assert_eq!(core.gen(), records);
            assert_eq!(core.digest(), want);
            assert_eq!(core.stats().wal_bytes, wal_len);
            assert_eq!(
                journal.largest, READ_CHUNK,
                "{records} records ({wal_len} bytes) read through a larger buffer"
            );
            if records > 500 {
                assert!(
                    wal_len > 4 * READ_CHUNK as u64,
                    "the long journal spans chunks"
                );
            }
        }
    }
}
